"""Tests for the shared BaseEngine.run loop semantics.

The loop is engine-agnostic: the cases that hold for any engine run on
the counts engine (one step = one interaction) and on the gossip engine
(one step = one synchronous round of n interactions).
"""

import numpy as np
import pytest

from repro import CountsEngine, SimulationError, TrajectoryRecorder
from repro.gossip import GossipEngine, GossipUSD
from repro.protocols import UndecidedStateDynamics


def make_engine(counts=(0, 60, 40), seed=0):
    protocol = UndecidedStateDynamics(k=len(counts) - 1)
    return protocol, CountsEngine(protocol, np.array(counts), seed=seed)


class EngineAgnosticRunLoop:
    """Run-loop contracts every engine keeps, whatever its step unit.

    Not collected itself: each subclass supplies ``build(counts, seed)``
    for one engine, so the same cases run once per engine.
    """

    def test_run_rejects_past_horizon(self):
        engine = self.build((0, 600, 400))
        engine.run(5, snapshot_every=1)
        assert engine.interactions == 5 * engine.step_interactions
        with pytest.raises(SimulationError, match="past"):
            engine.run(2)

    def test_run_rejects_bad_cadence(self):
        engine = self.build((0, 60, 40))
        with pytest.raises(SimulationError):
            engine.run(100, snapshot_every=0)

    def test_recorder_gets_initial_snapshot_only_once(self):
        engine = self.build((0, 60, 40))
        recorder = TrajectoryRecorder()
        engine.run(20, snapshot_every=10, recorder=recorder)
        times = [t for t in recorder._times]
        assert times.count(0) == 1

    def test_stop_true_at_start_runs_zero_interactions(self):
        """Regression: a predicate already true at entry must execute no
        interactions (it used to burn a whole chunk first)."""
        engine = self.build((10, 60, 30), seed=1)
        engine.run(10_000, snapshot_every=7, stop=lambda e: True)
        assert engine.interactions == 0

    def test_started_absorbed_runs_zero_interactions(self):
        engine = self.build((0, 100, 0))  # consensus at entry
        assert engine.is_absorbed
        engine.run(10_000, snapshot_every=100)
        assert engine.interactions == 0

    def test_stop_at_start_still_records_initial_snapshot(self):
        engine = self.build((0, 60, 40))
        recorder = TrajectoryRecorder()
        engine.run(10_000, snapshot_every=10, stop=lambda e: True, recorder=recorder)
        trace = recorder.build(
            n=engine.n, state_names=("a", "b", "c"), protocol_name="p"
        )
        assert list(trace.times) == [0]


class TestGossipRunLoop(EngineAgnosticRunLoop):
    """The shared loop with one step = one synchronous round."""

    @staticmethod
    def build(counts, seed=0):
        return GossipEngine(GossipUSD(k=len(counts) - 1), np.array(counts), seed=seed)


class TestRunLoop(EngineAgnosticRunLoop):
    """The shared loop on the counts engine, plus its counts-only cases."""

    @staticmethod
    def build(counts, seed=0):
        return make_engine(counts, seed)[1]

    def test_snapshot_cadence(self):
        _, engine = make_engine()
        recorder = TrajectoryRecorder()
        engine.run(100, snapshot_every=25, recorder=recorder)
        trace = recorder.build(
            n=engine.n, state_names=("a", "b", "c"), protocol_name="p"
        )
        # initial + one per chunk (minus duplicates when absorbed early)
        assert trace.times[0] == 0
        assert np.all(np.diff(trace.times) <= 25)

    def test_default_cadence_is_half_round(self):
        _, engine = make_engine()
        recorder = TrajectoryRecorder()
        engine.run(100, recorder=recorder)  # n = 100 → chunk 50
        trace = recorder.build(
            n=engine.n, state_names=("a", "b", "c"), protocol_name="p"
        )
        assert list(trace.times) == [0, 50, 100] or len(trace) <= 3

    def test_stop_checked_at_chunk_granularity(self):
        _, engine = make_engine(seed=5)
        engine.run(
            10_000,
            snapshot_every=10,
            stop=lambda e: e.counts[0] >= 5,
        )
        # stopped at some multiple of 10 interactions once u >= 5
        assert engine.counts[0] >= 5
        assert engine.interactions % 10 == 0 or engine.is_absorbed

    def test_run_stops_at_absorption(self):
        _, engine = make_engine(counts=(0, 99, 1), seed=1)
        engine.run(10_000_000, snapshot_every=1000)
        assert engine.is_absorbed
        # loop must not have continued pointlessly past absorption
        assert engine.interactions <= 10_000_000

    def test_resume_after_run(self):
        _, engine = make_engine(seed=2)
        engine.run(40, snapshot_every=20)
        first = engine.interactions
        if not engine.is_absorbed:
            engine.run(80, snapshot_every=20)
            assert engine.interactions >= first

    def test_stop_condition_met_at_start_runs_zero_interactions(self):
        _, engine = make_engine(counts=(30, 40, 30))
        # u = 30 already satisfies the threshold before any stepping
        engine.run(10_000, stop=lambda e: e.counts[0] >= 30)
        assert engine.interactions == 0
        assert engine.counts[0] == 30


class TestRunWithScheduler:
    def test_graph_scheduler_through_run_loop(self):
        """A custom scheduler is an engine argument; ``BaseEngine.run``
        plays it to the horizon (the ``graph-topology`` experiment's path)."""
        import networkx as nx

        from repro import AgentEngine, GraphPairScheduler

        protocol = UndecidedStateDynamics(k=2)
        scheduler = GraphPairScheduler(nx.cycle_graph(30))
        engine = AgentEngine(
            protocol, np.array([0, 20, 10]), seed=3, scheduler=scheduler
        )
        engine.run(50 * 30)
        assert engine.counts.sum() == 30
        assert engine.interactions == 50 * 30 or engine.is_absorbed
