"""The compute-kernel seam.

Covers resolution of the ``backend`` knob (every accepted name runs the
numpy kernels; the removed ``'numba'`` and ``'cython'`` warn once), the
``backend`` threading through engines / ``simulate`` / experiments /
the CLI, the placement property of the knob (*trajectories are
bit-identical whatever backend is requested*), and a pinned seeded
trajectory that no kernel change may move.
"""

import warnings

import numpy as np
import pytest

from repro import BatchEngine, CountsEngine, MultiBatchEngine, make_engine, simulate
from repro.core.kernels import (
    KERNEL_NAMES,
    KernelInputs,
    available_backends,
    get_backend,
    reset_backend_state,
)
from repro.errors import SimulationError
from repro.protocols import FourStateExactMajority, UndecidedStateDynamics, VoterModel


class TestRegistry:
    def test_numpy_always_available(self):
        assert available_backends() == ("numpy",)

    def test_aliases_resolve_to_default(self):
        for alias in (None, "auto", "default", "numpy"):
            assert get_backend(alias).name == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_backend_object_shape(self):
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert callable(backend.counts_step)
        assert callable(backend.batch_step)
        assert callable(backend.multibatch_step)

    def test_numpy_backend_serves_every_kernel_natively(self):
        # the benchmark stamp records this map: its series continue only
        # while every kernel reads "numpy"
        assert get_backend("numpy").provenance_map == {
            kernel: "numpy" for kernel in KERNEL_NAMES
        }


@pytest.fixture
def fresh_backend_state():
    """Forget the one-time warnings around a test."""
    reset_backend_state()
    yield
    reset_backend_state()


@pytest.mark.usefixtures("fresh_backend_state")
@pytest.mark.parametrize("name", ["numba", "cython"])
class TestRetiredBackends:
    """Removed backend names stay accepted, so specs, checkpoints and
    ``--backend`` calls naming them warn once and run numpy."""

    def test_warns_once_and_runs_numpy(self, name):
        with pytest.warns(RuntimeWarning, match="removed"):
            backend = get_backend(name)
        assert backend.name == "numpy"
        # the second resolution is silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend(name).name == "numpy"

    def test_engine_still_runs(self, name):
        protocol = UndecidedStateDynamics(k=2)
        with pytest.warns(RuntimeWarning, match="removed"):
            engine = CountsEngine(
                protocol, np.array([10, 30, 20]), seed=3, backend=name
            )
        assert engine.backend == "numpy"
        engine.step(500)
        assert engine.counts.sum() == 60


class TestKernelInputs:
    def test_from_table_matches_protocol(self):
        protocol = UndecidedStateDynamics(k=3)
        inputs = KernelInputs.from_table(protocol.table, 100)
        assert inputs.num_states == 4
        assert inputs.n == 100
        assert inputs.pair_denominator == 100 * 99
        num_pairs = len(protocol.table.effective_pairs)
        assert inputs.eff_a.shape == inputs.eff_b.shape == (num_pairs,)
        assert inputs.eff_delta.shape == (num_pairs, 4)
        # every delta row conserves the population
        assert np.all(inputs.eff_delta.sum(axis=1) == 0)

    def test_arrays_are_frozen(self):
        protocol = UndecidedStateDynamics(k=2)
        inputs = KernelInputs.from_table(protocol.table, 10)
        with pytest.raises(ValueError):
            inputs.eff_a[0] = 7

    def test_freezing_copies_instead_of_locking_caller_arrays(self):
        mine = np.array([1, 2], dtype=np.int64)
        inputs = KernelInputs(
            eff_a=mine,
            eff_b=np.array([2, 1], dtype=np.int64),
            eff_same=np.zeros(2, dtype=np.int64),
            eff_delta=np.zeros((2, 3), dtype=np.int64),
            pair_denominator=90.0,
            num_states=3,
            n=10,
        )
        mine[0] = 5  # caller's array must stay writable
        assert inputs.eff_a[0] == 1


class TestBackendThreading:
    def test_engine_reports_backend(self):
        protocol = UndecidedStateDynamics(k=2)
        engine = CountsEngine(protocol, np.array([4, 3, 3]), backend="numpy")
        assert engine.backend == "numpy"

    def test_agent_engine_never_resolves_a_backend(self):
        from repro import AgentEngine

        reset_backend_state()
        protocol = UndecidedStateDynamics(k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the retired name must not warn
            engine = AgentEngine(protocol, np.array([4, 3, 3]), backend="numba")
        assert engine.backend is None
        engine.step(50)
        assert engine.counts.sum() == 10
        reset_backend_state()

    def test_make_engine_threads_backend(self):
        protocol = UndecidedStateDynamics(k=2)
        engine = make_engine(
            protocol, np.array([4, 3, 3]), engine="batch", backend="numpy"
        )
        assert engine.backend == "numpy"

    def test_simulate_records_backend_in_metadata(self):
        protocol = UndecidedStateDynamics(k=2)
        result = simulate(
            protocol,
            np.array([20, 50, 30]),
            seed=5,
            max_parallel_time=50.0,
            backend="numpy",
        )
        assert result.metadata["backend"] == "numpy"

    def test_every_experiment_accepts_backend(self):
        from repro.experiments.registry import EXPERIMENTS

        for cls in EXPERIMENTS.values():
            experiment = cls(backend="numpy")
            assert experiment.params["backend"] == "numpy"

    def test_cli_exposes_backend_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig1-left", "--backend", "numpy"])
        assert args.backend == "numpy"


# ----------------------------------------------------------------------
# The placement property: bit-identical trajectories for every request.
# ----------------------------------------------------------------------

PROTOCOLS = {
    "usd-k2": (UndecidedStateDynamics(k=2), np.array([10, 40, 25])),
    "usd-k4": (UndecidedStateDynamics(k=4), np.array([0, 40, 30, 20, 10])),
    "voter-k3": (VoterModel(k=3), np.array([40, 35, 25])),
    "four-state-majority": (FourStateExactMajority(), np.array([30, 20, 5, 5])),
}

# every name the ``backend`` knob accepts, the retired ones included
BACKEND_REQUESTS = (None, "auto", "default", "numpy", "numba", "cython")


def _trajectory(engine_cls, protocol, counts, seed, backend, steps, chunk, **kw):
    engine = engine_cls(protocol, counts.copy(), seed=seed, backend=backend, **kw)
    snapshots = []
    for _ in range(steps):
        engine.step(chunk)
        snapshots.append(
            (
                engine.interactions,
                engine.counts.tolist(),
                engine.last_change_interaction,
                engine.is_absorbed,
            )
        )
    return snapshots, engine.rng.bit_generator.state


def _assert_identical_for_every_request(engine_cls, protocol, counts, seed, **kw):
    reference = _trajectory(engine_cls, protocol, counts, seed, "numpy", **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for backend in BACKEND_REQUESTS:
            snapshots, state = _trajectory(
                engine_cls, protocol, counts, seed, backend, **kw
            )
            assert snapshots == reference[0], f"{backend!r} trajectory diverged"
            assert state == reference[1], f"{backend!r} consumed a different stream"


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_counts_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    _assert_identical_for_every_request(
        CountsEngine, protocol, counts, seed, steps=40, chunk=23
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_batch_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    _assert_identical_for_every_request(
        BatchEngine, protocol, counts * 50, seed, steps=30, chunk=401, epsilon=0.01
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_multibatch_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    _assert_identical_for_every_request(
        MultiBatchEngine, protocol, counts * 20, seed, steps=30, chunk=97
    )


@pytest.mark.parametrize("backend", ["numpy", "numba", "cython"])
def test_simulate_results_identical_for_every_backend_request(backend):
    """End to end: a seeded simulate() gives the same RunResult numbers
    whatever backend is requested (including the retired names, which
    run numpy)."""
    protocol = UndecidedStateDynamics(k=3)
    counts = np.array([0, 120, 90, 90])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = simulate(
            protocol, counts, seed=11, max_parallel_time=300.0, backend=backend
        )
        reference = simulate(
            protocol, counts, seed=11, max_parallel_time=300.0, backend="numpy"
        )
    assert result.interactions == reference.interactions
    assert result.stabilized == reference.stabilized
    assert result.winner == reference.winner
    assert np.array_equal(result.final_counts, reference.final_counts)
    assert np.array_equal(result.trace.counts, reference.trace.counts)


def test_refactored_counts_engine_preserves_seeded_trajectory():
    """A pinned regression: the kernel seam must not move any draw.

    The expected values were produced by the pre-kernel engines (PR 2);
    a backend or engine change that shifts the stream breaks this.
    """
    protocol = UndecidedStateDynamics(k=2)
    engine = CountsEngine(protocol, np.array([10, 40, 30]), seed=123)
    engine.step(200)
    expected = [13, 56, 11]
    assert engine.counts.tolist() == expected, (
        "seeded counts-engine trajectory changed — the kernel refactor "
        "is no longer draw-for-draw identical to the original engines"
    )
    assert engine.interactions == 200
    assert engine.last_change_interaction == 198
