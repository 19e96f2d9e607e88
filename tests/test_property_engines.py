"""Property-based tests on engine invariants (hypothesis).

Whatever the configuration, seed and step pattern, every engine must
conserve the population, keep counts non-negative, and account for
interactions exactly.  USD additionally conserves the *parity-style*
invariant that the number of decided agents only changes by recruitment
(+1 decided) or cancellation (−2 decided).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AgentEngine, BatchEngine, CountsEngine, MultiBatchEngine
from repro.protocols import UndecidedStateDynamics, VoterModel

engines = st.sampled_from([AgentEngine, CountsEngine, BatchEngine, MultiBatchEngine])

usd_counts = st.lists(
    st.integers(min_value=0, max_value=60), min_size=3, max_size=6
).filter(lambda xs: sum(xs) >= 2)

step_patterns = st.lists(
    st.integers(min_value=0, max_value=200), min_size=1, max_size=5
)


class TestUniversalInvariants:
    @given(engines, usd_counts, st.integers(0, 2**31 - 1), step_patterns)
    @settings(max_examples=120, deadline=None)
    def test_conservation_and_accounting(self, engine_cls, counts, seed, steps):
        protocol = UndecidedStateDynamics(k=len(counts) - 1)
        engine = engine_cls(protocol, np.asarray(counts), seed=seed)
        n = sum(counts)
        total = 0
        for chunk in steps:
            engine.step(chunk)
            total += chunk
            current = engine.counts
            assert current.sum() == n
            assert np.all(current >= 0)
            assert engine.interactions == total

    @given(engines, usd_counts, st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_absorbed_flag_is_sound(self, engine_cls, counts, seed):
        """is_absorbed=True must imply a genuinely absorbing configuration."""
        protocol = UndecidedStateDynamics(k=len(counts) - 1)
        engine = engine_cls(protocol, np.asarray(counts), seed=seed)
        engine.step(300)
        if engine.is_absorbed:
            assert protocol.is_absorbing(engine.counts)

    @given(engines, usd_counts, st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_last_change_within_bounds(self, engine_cls, counts, seed):
        protocol = UndecidedStateDynamics(k=len(counts) - 1)
        engine = engine_cls(protocol, np.asarray(counts), seed=seed)
        engine.step(150)
        change = engine.last_change_interaction
        if change is not None:
            assert 1 <= change <= engine.interactions


class TestUSDReachability:
    @given(usd_counts, st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_undecided_zero_stays_reachable_only_via_dynamics(self, counts, seed):
        """u can only change by +2 (cancellation) or −1 (recruitment):
        check the step-to-step deltas of the exact engine."""
        protocol = UndecidedStateDynamics(k=len(counts) - 1)
        engine = CountsEngine(protocol, np.asarray(counts), seed=seed)
        previous = engine.counts[0]
        for _ in range(60):
            engine.step(1)
            current = engine.counts[0]
            assert current - previous in (-1, 0, 2)
            previous = current

    @given(engines, usd_counts, st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_step_plays_one_interaction(self, engine_cls, counts, seed):
        """``step(1)`` is one interaction: u moves by −1, 0 or +2 and at
        most two agents change state.  An epoch clipped one interaction
        late (or early) at the call's target breaks this."""
        protocol = UndecidedStateDynamics(k=len(counts) - 1)
        engine = engine_cls(protocol, np.asarray(counts), seed=seed)
        previous = engine.counts
        for _ in range(40):
            engine.step(1)
            current = engine.counts
            assert current[0] - previous[0] in (-1, 0, 2)
            assert np.abs(current - previous).sum() <= 4
            previous = current

    @given(usd_counts, st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dead_opinions_stay_dead(self, counts, seed):
        """An opinion with zero support can never come back."""
        protocol = UndecidedStateDynamics(k=len(counts) - 1)
        engine = CountsEngine(protocol, np.asarray(counts), seed=seed)
        dead = np.flatnonzero(engine.counts[1:] == 0) + 1
        engine.step(400)
        assert np.all(engine.counts[dead] == 0)


class TestVoterInvariants:
    @given(
        engines,
        st.lists(st.integers(0, 50), min_size=2, max_size=5).filter(
            lambda xs: sum(xs) >= 2
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_voter_conservation(self, engine_cls, counts, seed):
        protocol = VoterModel(k=len(counts))
        engine = engine_cls(protocol, np.asarray(counts), seed=seed)
        engine.step(200)
        assert engine.counts.sum() == sum(counts)
        dead = np.flatnonzero(np.asarray(counts) == 0)
        assert np.all(engine.counts[dead] == 0)
