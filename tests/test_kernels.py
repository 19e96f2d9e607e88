"""The compute-kernel seam and the ``backend`` document key.

The engines call the numpy kernels of ``repro.core.kernels.numpy_backend``
directly.  ``backend`` survives only as a schema-v1 spec-document key
(and an experiment parameter) that ``get_backend`` checks once per run:
every accepted name runs the numpy kernels, the removed ``'numba'`` and
``'cython'`` warn once, and any other name raises.  Covers that check,
the key's placement property (*a run's outcome is the same whatever
the key holds*, on every engine), what engines and results record, and
a pinned seeded trajectory that no kernel change may move.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    AgentEngine,
    BatchEngine,
    CountsEngine,
    MultiBatchEngine,
    make_engine,
    simulate,
)
from repro.core.kernels import (
    KERNEL_NAMES,
    KernelInputs,
    available_backends,
    get_backend,
    reset_backend_state,
)
from repro.errors import SimulationError, SpecError
from repro.gossip import GossipUSD
from repro.gossip.engine import GossipEngine
from repro.obs import metrics as obs_metrics
from repro.obs.config import ObsConfig
from repro.obs.runtime import activated
from repro.protocols import FourStateExactMajority, UndecidedStateDynamics, VoterModel
from repro.specs import (
    InitialSpec,
    ProtocolSpec,
    RecordingSpec,
    RunSpec,
    run_spec,
    to_document,
)

# every name the ``backend`` key accepts, the retired ones included
BACKEND_REQUESTS = (None, "auto", "default", "numpy", "numba", "cython")


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
        # a name and its provenance, nothing to call: the engines reach
        # their kernels directly, never through the check
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert not any(hasattr(backend, kernel) for kernel in KERNEL_NAMES)

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


def _spec(engine, protocol, counts, seed, horizon, snapshot_every, backend=None):
    """A run spec of ``protocol`` from raw state counts."""
    counts = [int(c) for c in counts]
    return RunSpec(
        protocol=ProtocolSpec.from_protocol(protocol),
        initial=InitialSpec(
            kind="state-counts", n=sum(counts), params={"counts": counts}
        ),
        engine=engine,
        backend=backend,
        seed=seed,
        max_interactions=horizon,
        recording=RecordingSpec(snapshot_every=snapshot_every),
    )


@pytest.mark.usefixtures("fresh_backend_state")
@pytest.mark.parametrize("name", ["numba", "cython"])
class TestRetiredBackends:
    """Removed backend names stay accepted, so spec documents and sweep
    checkpoints naming them warn once and run numpy."""

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
        spec = _spec("counts", protocol, [10, 30, 20], 3, 500, 250, backend=name)
        with pytest.warns(RuntimeWarning, match="removed"):
            result = run_spec(spec)
        assert result.metadata["backend"] == "numpy"
        assert result.final_counts.sum() == 60


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
    """No engine, ``make_engine`` or ``simulate`` takes ``backend``; each
    engine records the kernels it calls, and results carry that."""

    def test_engine_reports_backend(self):
        protocol = UndecidedStateDynamics(k=2)
        for engine_cls in (CountsEngine, MultiBatchEngine, BatchEngine):
            engine = engine_cls(protocol, np.array([4, 3, 3]))
            assert engine.backend == "numpy"
            with pytest.raises(TypeError):
                engine_cls(protocol, np.array([4, 3, 3]), backend="numpy")

    def test_agent_engine_never_resolves_a_backend(self):
        protocol = UndecidedStateDynamics(k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = AgentEngine(protocol, np.array([4, 3, 3]))
        assert engine.backend is None
        assert GossipEngine.backend is None
        engine.step(50)
        assert engine.counts.sum() == 10

    def test_make_engine_threads_backend(self):
        protocol = UndecidedStateDynamics(k=2)
        engine = make_engine(protocol, np.array([4, 3, 3]), engine="batch")
        assert engine.backend == "numpy"
        with pytest.raises(TypeError):
            make_engine(protocol, np.array([4, 3, 3]), backend="numpy")

    def test_simulate_records_backend_in_metadata(self):
        protocol = UndecidedStateDynamics(k=2)
        result = simulate(
            protocol, np.array([20, 50, 30]), seed=5, max_parallel_time=50.0
        )
        assert result.metadata["backend"] == "numpy"
        with pytest.raises(TypeError):
            simulate(
                protocol,
                np.array([20, 50, 30]),
                seed=5,
                max_parallel_time=50.0,
                backend="numpy",
            )

    def test_every_experiment_accepts_backend(self):
        from repro.experiments.registry import EXPERIMENTS

        for cls in EXPERIMENTS.values():
            experiment = cls(backend="numpy")
            assert experiment.params["backend"] == "numpy"

    def test_cli_exposes_backend_flag(self):
        # only as a filter on what stored runs recorded; `repro run`
        # takes the document key through --set instead
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["trace", "query", "ds", "--ask", "throughput", "--backend", "numpy"]
        )
        assert args.backend == "numpy"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig1-left", "--backend", "numpy"])


def test_backend_key_is_checked_once_per_run_and_selects_nothing():
    """Every accepted ``backend`` key gives the outcome and summary of
    ``backend: null`` on every engine; a retired name counts one
    fallback per run; an unknown name raises on every engine, the
    agent engine included."""
    protocol = UndecidedStateDynamics(k=3)
    for engine in ("agent", "counts", "multibatch", "batch", "auto"):
        base = _spec(engine, protocol, [0, 120, 90, 90], 11, 60_000, 150)
        reference = to_document(run_spec(base), base)
        assert reference["metadata"]["backend"] == (
            None if engine == "agent" else "numpy"
        )
        for name in BACKEND_REQUESTS:
            spec = replace(base, backend=name)
            assert spec.spec_hash() == base.spec_hash()
            obs_metrics.REGISTRY.reset()
            with warnings.catch_warnings(), activated(ObsConfig(metrics=True)):
                warnings.simplefilter("ignore", RuntimeWarning)
                document = to_document(run_spec(spec), spec)
                counters = obs_metrics.REGISTRY.snapshot()["counters"]
            obs_metrics.REGISTRY.reset()
            fallbacks = counters.get("backend_fallbacks_total", {})
            retired = name in ("numba", "cython")
            assert fallbacks == ({f"backend={name}": 1.0} if retired else {})
            for key in ("spec_hash", "outcome", "summary", "metadata"):
                assert document[key] == reference[key], (engine, name, key)
        with pytest.raises(SimulationError, match="unknown kernel backend"):
            run_spec(replace(base, backend="cuda"))
    # gossip runs call no kernel: any key is refused when the spec is built
    gossip = ProtocolSpec.from_protocol(GossipUSD(k=3))
    for name in ("numpy", "cuda"):
        with pytest.raises(SpecError, match="backend"):
            RunSpec(
                protocol=gossip,
                initial=InitialSpec(kind="uniform", n=600),
                backend=name,
                max_parallel_time=50,
            )


def test_experiment_backend_parameter_is_checked_once_per_run():
    from repro.specs import ExperimentSpec

    params = {"n_values": (300, 400), "num_seeds": 2, "max_parallel_time": 200.0}
    obs_metrics.REGISTRY.reset()
    with warnings.catch_warnings(), activated(ObsConfig(metrics=True)):
        warnings.simplefilter("ignore", RuntimeWarning)
        run = run_spec(
            ExperimentSpec(name="usd2-logn", params={**params, "backend": "numba"})
        )
        counters = obs_metrics.REGISTRY.snapshot()["counters"]
    obs_metrics.REGISTRY.reset()
    # four simulated runs, one check
    assert counters["backend_fallbacks_total"] == {"backend=numba": 1.0}
    assert run.params["backend"] == "numba"
    with pytest.raises(SimulationError, match="unknown kernel backend"):
        run_spec(ExperimentSpec(name="usd2-logn", params={**params, "backend": "cuda"}))


def test_backend_key_is_checked_when_a_run_resumes_from_disk(tmp_path):
    protocol = UndecidedStateDynamics(k=2)
    spec = replace(
        _spec("counts", protocol, [10, 30, 20], 3, 500, 250),
        recording=RecordingSpec(snapshot_every=250, persist_to=str(tmp_path)),
    )
    run_spec(spec)
    with pytest.raises(SimulationError, match="unknown kernel backend"):
        run_spec(replace(spec, backend="cuda"))


# ----------------------------------------------------------------------
# The placement property, engine by engine: each case runs one seeded
# spec through ``run_spec`` under every accepted ``backend`` key and
# compares with ``backend: null``, draw for draw.
# ----------------------------------------------------------------------

PROTOCOLS = {
    "usd-k2": (UndecidedStateDynamics(k=2), np.array([10, 40, 25])),
    "usd-k4": (UndecidedStateDynamics(k=4), np.array([0, 40, 30, 20, 10])),
    "voter-k3": (VoterModel(k=3), np.array([40, 35, 25])),
    "four-state-majority": (FourStateExactMajority(), np.array([30, 20, 5, 5])),
}


def _observed(result):
    return (
        result.trace.times.tolist(),
        result.trace.counts.tolist(),
        result.final_counts.tolist(),
        result.interactions,
        result.stabilization_interactions,
        result.winner,
        result.metadata["backend"],
        result.metadata["spec_hash"],
    )


def _assert_identical_for_every_request(engine, protocol, counts, seed, steps, chunk):
    base = _spec(engine, protocol, counts, seed, steps * chunk, chunk)
    reference = _observed(run_spec(base))
    assert reference[-2] == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for backend in BACKEND_REQUESTS[1:]:
            observed = _observed(run_spec(replace(base, backend=backend)))
            assert observed == reference, f"{backend!r} run diverged"


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_counts_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    _assert_identical_for_every_request(
        "counts", protocol, counts, seed, steps=40, chunk=23
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_batch_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    _assert_identical_for_every_request(
        "batch", protocol, counts * 50, seed, steps=30, chunk=401
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1848, 9001])
def test_multibatch_trajectories_bit_identical_across_backends(name, seed):
    protocol, counts = PROTOCOLS[name]
    _assert_identical_for_every_request(
        "multibatch", protocol, counts * 20, seed, steps=30, chunk=97
    )


@pytest.mark.parametrize("backend", ["numpy", "numba", "cython"])
def test_simulate_results_identical_for_every_backend_request(backend):
    """End to end: the spec that a seeded keyword ``simulate`` call
    normalises to, run with any ``backend`` key, gives that call's
    numbers (the retired names included, which run numpy)."""
    protocol = UndecidedStateDynamics(k=3)
    counts = np.array([0, 120, 90, 90])
    reference = simulate(protocol, counts, seed=11, max_parallel_time=300.0)
    spec = _spec("auto", protocol, counts, 11, 300 * 300, 150, backend=backend)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_spec(spec)
    assert result.metadata["spec_hash"] == reference.metadata["spec_hash"]
    assert result.interactions == reference.interactions
    assert result.stabilized == reference.stabilized
    assert result.winner == reference.winner
    assert np.array_equal(result.final_counts, reference.final_counts)
    assert np.array_equal(result.trace.counts, reference.trace.counts)


def test_refactored_counts_engine_preserves_seeded_trajectory():
    """A pinned regression: the kernel seam must not move any draw.

    The expected values were produced by the pre-kernel engines (PR 2);
    a kernel or engine change that shifts the stream breaks this.
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
