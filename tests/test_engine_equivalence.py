"""Cross-engine equivalence: the heart of the methodology.

The agent engine is the ground truth.  The counts and multibatch
engines must match it *exactly in distribution* (same process,
different representation); the batch engine must match within its
O(B/n) τ-leaping error.  We check first moments of several observables
after a fixed number of interactions, over independent-seed ensembles,
with generous multiple-of-standard-error tolerances so the suite is
stable.
"""

import numpy as np
import pytest

from repro import AgentEngine, BatchEngine, CountsEngine, MultiBatchEngine
from repro.core.kernels import available_backends
from repro.protocols import UndecidedStateDynamics

N = 300
K = 3
COUNTS = np.array([0, 130, 100, 70])
HORIZON = 450  # 1.5 parallel times: mid-ramp, far from absorption
RUNS = 120


def ensemble_moments(engine_cls, backend=None, **kwargs):
    protocol = UndecidedStateDynamics(k=K)
    undecided, majority, gaps = [], [], []
    for index in range(RUNS):
        engine = engine_cls(protocol, COUNTS, seed=5000 + index, **kwargs)
        assert engine.backend == backend  # the kernels it calls, or None
        engine.step(HORIZON)
        counts = engine.counts
        undecided.append(counts[0])
        majority.append(counts[1])
        gaps.append(counts[1] - counts[3])
    out = {}
    for name, values in (
        ("undecided", undecided),
        ("majority", majority),
        ("gap", gaps),
    ):
        arr = np.asarray(values, dtype=float)
        out[name] = (arr.mean(), arr.std(ddof=1) / np.sqrt(RUNS))
    return out


@pytest.fixture(scope="module")
def agent_moments():
    return ensemble_moments(AgentEngine)


# Parametrized over the kernel implementations the engines call (only
# numpy); each engine reports the one it ran as ``engine.backend``.
@pytest.fixture(scope="module", params=available_backends())
def counts_moments(request):
    return ensemble_moments(CountsEngine, backend=request.param)


@pytest.fixture(scope="module", params=available_backends())
def multibatch_moments(request):
    return ensemble_moments(MultiBatchEngine, backend=request.param)


@pytest.fixture(scope="module", params=available_backends())
def batch_moments(request):
    return ensemble_moments(BatchEngine, epsilon=0.01, backend=request.param)


def assert_close(a, b, sigmas=4.0):
    mean_a, se_a = a
    mean_b, se_b = b
    tolerance = sigmas * float(np.hypot(se_a, se_b))
    assert abs(mean_a - mean_b) < max(tolerance, 1e-9), (
        f"means {mean_a:.2f} vs {mean_b:.2f} differ by more than "
        f"{sigmas}σ = {tolerance:.2f}"
    )


class TestCountsMatchesAgent:
    """Counts engine is exact: every observable's mean must agree."""

    def test_undecided(self, agent_moments, counts_moments):
        assert_close(agent_moments["undecided"], counts_moments["undecided"])

    def test_majority(self, agent_moments, counts_moments):
        assert_close(agent_moments["majority"], counts_moments["majority"])

    def test_gap(self, agent_moments, counts_moments):
        assert_close(agent_moments["gap"], counts_moments["gap"])


class TestMultiBatchMatchesAgent:
    """Multibatch engine is exact: every observable's mean must agree."""

    def test_undecided(self, agent_moments, multibatch_moments):
        assert_close(agent_moments["undecided"], multibatch_moments["undecided"])

    def test_majority(self, agent_moments, multibatch_moments):
        assert_close(agent_moments["majority"], multibatch_moments["majority"])

    def test_gap(self, agent_moments, multibatch_moments):
        assert_close(agent_moments["gap"], multibatch_moments["gap"])


class TestBatchMatchesAgent:
    """τ-leaping at ε=0.01 matches within the same statistical band."""

    def test_undecided(self, agent_moments, batch_moments):
        assert_close(agent_moments["undecided"], batch_moments["undecided"])

    def test_majority(self, agent_moments, batch_moments):
        assert_close(agent_moments["majority"], batch_moments["majority"])

    def test_gap(self, agent_moments, batch_moments):
        assert_close(agent_moments["gap"], batch_moments["gap"])


class TestBatchRejectionHalvingNearAbsorption:
    """The τ-leaping rejection path with opinion counts of 1–2 agents.

    Oversized batches on a nearly-absorbed configuration routinely
    sample deltas that would drive a count negative; the engine must
    halve, stay non-negative, recover its batch size, and keep the exact
    one-step law.
    """

    #: u = 10, x = (2, 2): cancellations can exceed the 2 available agents
    #: of either opinion whenever a batch requests two of them.
    COUNTS = np.array([10, 2, 2])

    def make_engine(self, seed):
        protocol = UndecidedStateDynamics(k=2)
        # epsilon = 0.5 → nominal batch 7 on n = 14: large enough that
        # multinomial draws regularly over-consume a 2-agent opinion.
        return BatchEngine(protocol, self.COUNTS, seed=seed, epsilon=0.5)

    def test_halving_fires_and_batch_recovers_to_nominal(self):
        saw_halving = saw_recovery = False
        for seed in range(40):
            engine = self.make_engine(seed)
            engine.step(2000)
            # invariants hold through every rejection/retry
            assert engine.counts.sum() == self.COUNTS.sum()
            assert np.all(engine.counts >= 0)
            if engine.rejection_halvings:
                saw_halving = True
                if engine._batch == engine.nominal_batch_size:
                    saw_recovery = True
        assert saw_halving, "no seed exercised the rejection-halving path"
        assert saw_recovery, "batch size never recovered to nominal"

    def test_one_step_law_matches_counts_engine_near_absorption(self):
        """From a 1–2-agent state the batch engine's single-interaction
        law must equal the exact closed form (batch of 1 is exact)."""
        counts = np.array([2, 2, 1])  # u = 2, x = (2, 1), n = 5
        n = int(counts.sum())
        protocol = UndecidedStateDynamics(k=2)
        table = protocol.table

        exact = {}
        for a in range(protocol.num_states):
            for b in range(protocol.num_states):
                weight = counts[a] * (counts[b] - (1 if a == b else 0))
                if weight == 0:
                    continue
                outcome = tuple((counts + table.delta_of(a, b)).tolist())
                exact[outcome] = exact.get(outcome, 0.0) + weight / (n * (n - 1))
        assert sum(exact.values()) == pytest.approx(1.0)

        samples = 4000
        for engine_cls, kwargs in (
            (CountsEngine, {}),
            (BatchEngine, {"epsilon": 0.5}),  # nominal batch 2–3, step(1) → 1
        ):
            empirical = {}
            for seed in range(samples):
                engine = engine_cls(protocol, counts, seed=seed, **kwargs)
                engine.step(1)
                outcome = tuple(engine.counts.tolist())
                empirical[outcome] = empirical.get(outcome, 0) + 1
            assert set(empirical) <= set(exact)
            for outcome, probability in exact.items():
                observed = empirical.get(outcome, 0) / samples
                std_error = np.sqrt(probability * (1 - probability) / samples)
                assert abs(observed - probability) < 4 * std_error + 1e-9, (
                    f"{engine_cls.__name__}: outcome {outcome} has frequency "
                    f"{observed:.4f}, expected {probability:.4f}"
                )


class TestStabilizationDistribution:
    """Median stabilization times agree across engines on a toy workload."""

    @pytest.mark.parametrize("engine_cls", [CountsEngine, BatchEngine])
    def test_median_matches_agent(self, engine_cls):
        from repro import Configuration, simulate

        protocol = UndecidedStateDynamics(k=2)
        config = Configuration([70, 30])
        runs = 40

        def medians(cls_name):
            times = []
            for index in range(runs):
                result = simulate(
                    protocol,
                    config,
                    engine=cls_name,
                    seed=900 + index,
                    max_parallel_time=10_000,
                )
                assert result.stabilized
                times.append(result.stabilization_parallel_time)
            return np.median(times)

        reference = medians("agent")
        other = medians(
            "counts" if engine_cls is CountsEngine else "batch"
        )
        # medians of a ~log n-spread distribution: 35% tolerance is ample
        assert abs(reference - other) / reference < 0.35
