"""The compute-kernel backend subsystem.

Covers the registry contract (resolution, defaults, availability,
fallback-with-one-warning), the ``backend`` threading through engines /
``simulate`` / experiments / the CLI, and the acceptance property of
the whole seam: *trajectories are bit-identical across backends*.

On a machine without ``numba`` the cross-backend tests exercise the
fallback path (``'numba'`` resolves to the numpy kernels), so they are
trivially-true there by design; the CI numba leg runs the same tests
with the real JIT kernels.  The retired ``'cython'`` name is
unavailable everywhere, so its fallback tests run on every machine.
"""

import warnings

import numpy as np
import pytest

from repro import BatchEngine, CountsEngine, MultiBatchEngine, make_engine, simulate
from repro.core.kernels import (
    KernelInputs,
    available_backends,
    backend_fallback_reason,
    backend_fallbacks,
    default_backend,
    get_backend,
    registered_backends,
    reset_backend_state,
)
from repro.errors import SimulationError
from repro.protocols import FourStateExactMajority, UndecidedStateDynamics, VoterModel


def _numba_available() -> bool:
    return "numba" in available_backends()


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert backend_fallback_reason("numpy") is None

    def test_registered_superset_of_available(self):
        assert set(available_backends()) <= set(registered_backends())
        assert {"numpy", "numba", "cython"} <= set(registered_backends())

    def test_default_prefers_compiled_backends_in_order(self):
        # 'auto' resolution order: numba > numpy — numba is bit-identity
        # self-checked at load before it can win
        expected = "numba" if _numba_available() else "numpy"
        assert default_backend() == expected

    def test_aliases_resolve_to_default(self):
        for alias in (None, "auto", "default"):
            assert get_backend(alias).name == default_backend()

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_backend_object_shape(self):
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert callable(backend.counts_step)
        assert callable(backend.batch_step)

    def test_numpy_backend_serves_every_kernel_natively(self):
        from repro.core.kernels import KERNEL_NAMES

        backend = get_backend("numpy")
        assert set(backend.provenance_map) == set(KERNEL_NAMES)
        for kernel in KERNEL_NAMES:
            assert backend.kernel_provenance(kernel) == "numpy"

    def test_repr_surfaces_per_kernel_provenance(self):
        # per-kernel provenance is a first-class part of the backend's
        # identity: delegation must be visible in plain debugging output
        text = repr(get_backend("numpy"))
        assert "counts_step: numpy" in text
        assert "batch_step: numpy" in text
        for backend in available_backends():
            text = repr(get_backend(backend))
            assert "counts_step:" in text and "batch_step:" in text

    def test_compiled_backends_never_delegate_silently(self):
        # whatever is available, every kernel's provenance is either the
        # backend itself or an explicit "numpy (delegated: <reason>)"
        from repro.core.kernels import KERNEL_NAMES

        for name in available_backends():
            backend = get_backend(name)
            for kernel in KERNEL_NAMES:
                served_by = backend.kernel_provenance(kernel)
                assert served_by == name or served_by.startswith(
                    "numpy (delegated: "
                ), f"{name}.{kernel} has opaque provenance {served_by!r}"


@pytest.fixture
def fresh_backend_state():
    """Forget cached resolutions, warnings and fallback counts around a test."""
    reset_backend_state()
    yield
    reset_backend_state()


@pytest.mark.usefixtures("fresh_backend_state")
class TestNumbaFallback:
    """Requesting numba without the package warns once and runs on numpy."""

    @pytest.mark.skipif(_numba_available(), reason="numba is installed")
    def test_fallback_warns_once_and_uses_numpy(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("numba")
        assert backend.name == "numpy"
        # second resolution is silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("numba").name == "numpy"

    @pytest.mark.skipif(_numba_available(), reason="numba is installed")
    def test_fallback_engine_still_runs(self):
        protocol = UndecidedStateDynamics(k=2)
        with pytest.warns(RuntimeWarning):
            engine = CountsEngine(protocol, np.array([10, 30, 20]), seed=3,
                                  backend="numba")
        assert engine.backend == "numpy"
        engine.step(500)
        assert engine.counts.sum() == 60

    @pytest.mark.skipif(not _numba_available(), reason="numba not installed")
    def test_numba_resolves_when_installed(self):
        backend = get_backend("numba")
        assert backend.name == "numba"
        assert backend.compiled


@pytest.mark.usefixtures("fresh_backend_state")
class TestRetiredCythonBackend:
    """The removed Cython rung stays registered, so specs, checkpoints
    and ``--backend cython`` calls naming it fall back instead of
    failing."""

    def test_stays_registered_but_unavailable(self):
        assert "cython" in registered_backends()
        assert "cython" not in available_backends()

    def test_reason_names_the_removal(self):
        reason = backend_fallback_reason("cython")
        assert "removed" in reason and "numba" in reason

    def test_explicit_request_warns_once_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("cython")
        assert backend.name == default_backend()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("cython").name == default_backend()
        assert backend_fallbacks() == {"cython": 2}

    def test_fallback_engine_still_runs(self):
        protocol = UndecidedStateDynamics(k=2)
        with pytest.warns(RuntimeWarning):
            engine = CountsEngine(
                protocol, np.array([10, 30, 20]), seed=3, backend="cython"
            )
        assert engine.backend == default_backend()
        engine.step(500)
        assert engine.counts.sum() == 60


class TestKernelInputs:
    def test_from_table_matches_protocol(self):
        protocol = UndecidedStateDynamics(k=3)
        inputs = KernelInputs.from_table(protocol.table, 100)
        assert inputs.num_states == 4
        assert inputs.n == 100
        assert inputs.pair_denominator == 100 * 99
        assert inputs.num_pairs == len(protocol.table.effective_pairs)
        assert inputs.eff_delta.shape == (inputs.num_pairs, 4)
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
            warnings.simplefilter("error")  # the numba fallback must not fire
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

    def test_cli_exposes_backend_flag_and_listing(self, capsys):
        from repro.cli import build_parser, main

        args = build_parser().parse_args(["run", "fig1-left", "--backend", "numpy"])
        assert args.backend == "numpy"
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "numba" in out and "cython" in out
        assert "default" in out
        # the listing shows per-kernel provenance for available backends
        assert "counts_step: numpy" in out and "batch_step: numpy" in out


# ----------------------------------------------------------------------
# The acceptance property: bit-identical trajectories across backends.
# ----------------------------------------------------------------------

PROTOCOLS = {
    "usd-k2": (UndecidedStateDynamics(k=2), np.array([10, 40, 25])),
    "usd-k4": (UndecidedStateDynamics(k=4), np.array([0, 40, 30, 20, 10])),
    "voter-k3": (VoterModel(k=3), np.array([40, 35, 25])),
    "four-state-majority": (FourStateExactMajority(), np.array([30, 20, 5, 5])),
}


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


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_counts_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    reference = None
    for backend in available_backends():
        snapshots, state = _trajectory(
            CountsEngine, protocol, counts, seed, backend, steps=40, chunk=23
        )
        if reference is None:
            reference = (snapshots, state)
        else:
            assert snapshots == reference[0], f"{backend} trajectory diverged"
            assert state == reference[1], f"{backend} consumed a different stream"


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_batch_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    reference = None
    for backend in available_backends():
        snapshots, state = _trajectory(
            BatchEngine,
            protocol,
            counts * 50,
            seed,
            backend,
            steps=30,
            chunk=401,
            epsilon=0.01,
        )
        if reference is None:
            reference = (snapshots, state)
        else:
            assert snapshots == reference[0], f"{backend} trajectory diverged"
            assert state == reference[1], f"{backend} consumed a different stream"


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_multibatch_trajectories_bit_identical_across_backends(name, seed):
    # the epoch kernel is numpy everywhere, but its hand-over near
    # absorption runs each backend's own counts kernel
    protocol, counts = PROTOCOLS[name]
    reference = None
    for backend in available_backends():
        snapshots, state = _trajectory(
            MultiBatchEngine, protocol, counts * 20, seed, backend, steps=30, chunk=97
        )
        if reference is None:
            reference = (snapshots, state)
        else:
            assert snapshots == reference[0], f"{backend} trajectory diverged"
            assert state == reference[1], f"{backend} consumed a different stream"


@pytest.mark.parametrize("backend", ["numpy", "numba", "cython"])
def test_simulate_results_identical_for_every_backend_request(backend):
    """End to end: a seeded simulate() gives the same RunResult numbers
    whatever backend is requested (including unavailable ones, which
    fall back)."""
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


def test_scalar_kernel_algorithm_matches_numpy_reference():
    """The numba kernel's *algorithm*, run uncompiled, passes the same
    self-check the compiled kernel must pass at load time — so the
    linear-scan pair selection and -1 sentinel are verified to be
    draw-for-draw identical to the numpy reference even on machines
    without numba."""
    from repro.core.kernels import numba_backend

    scalar = numba_backend._wrap_counts_step(numba_backend._counts_step_scalar)
    assert numba_backend._self_check(scalar) is None


def test_scalar_kernel_on_real_protocols():
    """Drive CountsEngine through the uncompiled scalar kernel on the
    real protocol grid and compare against the numpy backend."""
    from repro.core.kernels import numba_backend

    scalar = numba_backend._wrap_counts_step(numba_backend._counts_step_scalar)
    for name, (protocol, counts) in PROTOCOLS.items():
        inputs = KernelInputs.from_table(protocol.table, int(counts.sum()))
        for seed in (0, 3, 11):
            outcomes = []
            for step_fn in (get_backend("numpy").counts_step, scalar):
                state = counts.copy()
                rng = np.random.Generator(np.random.PCG64(seed))
                result = step_fn(inputs, state, rng, 0, 400)
                outcomes.append((result, state.tolist(), rng.bit_generator.state))
            assert outcomes[0] == outcomes[1], f"{name} seed {seed} diverged"


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
