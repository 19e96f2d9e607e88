"""Unit tests for repro.core.recorder (Trace and TrajectoryRecorder)."""

import numpy as np
import pytest

from repro import (
    CountsEngine,
    SimulationError,
    Trace,
    TrajectoryRecorder,
)
from repro.protocols import UndecidedStateDynamics


def make_trace(times, counts, **kwargs):
    defaults = dict(
        n=int(np.sum(counts[0])),
        state_names=("⊥", "a", "b"),
        protocol_name="usd",
        undecided_index=0,
    )
    defaults.update(kwargs)
    return Trace(
        times=np.asarray(times, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        **defaults,
    )


class TestTrace:
    def test_basic_accessors(self):
        trace = make_trace([0, 10], [[2, 5, 3], [4, 4, 2]])
        assert len(trace) == 2
        assert trace.num_states == 3
        assert list(trace.parallel_times) == [0.0, 1.0]

    def test_undecided_and_opinion_series(self):
        trace = make_trace([0, 10], [[2, 5, 3], [4, 4, 2]])
        assert list(trace.undecided_series()) == [2, 4]
        assert list(trace.opinion_series(1)) == [5, 4]
        assert list(trace.opinion_series(2)) == [3, 2]

    def test_opinion_series_range(self):
        trace = make_trace([0], [[2, 5, 3]])
        with pytest.raises(SimulationError):
            trace.opinion_series(3)

    def test_opinion_matrix(self):
        trace = make_trace([0, 10], [[2, 5, 3], [4, 4, 2]])
        assert trace.opinion_matrix().tolist() == [[5, 3], [4, 2]]

    def test_no_undecided_state(self):
        trace = make_trace([0], [[5, 3, 2]], undecided_index=None)
        with pytest.raises(SimulationError):
            trace.undecided_series()
        # opinions start at index 0 when there is no ⊥.
        assert list(trace.opinion_series(1)) == [5]

    def test_times_must_be_monotone(self):
        with pytest.raises(SimulationError):
            make_trace([10, 0], [[2, 5, 3], [4, 4, 2]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            make_trace([0], [[2, 5, 3], [4, 4, 2]])

    def test_arrays_readonly(self):
        trace = make_trace([0], [[2, 5, 3]])
        with pytest.raises(ValueError):
            trace.times[0] = 9

    def test_final_counts_is_copy(self):
        trace = make_trace([0, 1], [[2, 5, 3], [4, 4, 2]])
        final = trace.final_counts()
        final[0] = 99
        assert trace.counts[-1][0] == 4

    def test_slice(self):
        trace = make_trace([0, 10, 20, 30], [[2, 5, 3]] * 4)
        sub = trace.slice(5, 25)
        assert list(sub.times) == [10, 20]
        assert sub.n == trace.n


class TestRecorder:
    def test_records_engine_snapshots(self):
        protocol = UndecidedStateDynamics(k=2)
        engine = CountsEngine(protocol, np.array([0, 30, 20]), seed=0)
        recorder = TrajectoryRecorder()
        recorder.record(engine)
        engine.step(25)
        recorder.record(engine)
        trace = recorder.build(
            n=engine.n,
            state_names=protocol.state_names(),
            protocol_name=protocol.name,
        )
        assert list(trace.times) == [0, 25]
        assert trace.counts[0].tolist() == [0, 30, 20]

    def test_duplicate_snapshots_dropped(self):
        protocol = UndecidedStateDynamics(k=2)
        engine = CountsEngine(protocol, np.array([0, 30, 20]), seed=0)
        recorder = TrajectoryRecorder()
        assert recorder.record(engine) is True
        assert recorder.record(engine) is False  # same interaction index
        assert len(recorder) == 1

    def test_empty_recorder_cannot_build(self):
        recorder = TrajectoryRecorder()
        with pytest.raises(SimulationError):
            recorder.build(n=2, state_names=("a",), protocol_name="p")

    def test_metadata_propagates(self):
        protocol = UndecidedStateDynamics(k=2)
        engine = CountsEngine(protocol, np.array([0, 30, 20]), seed=0)
        recorder = TrajectoryRecorder()
        recorder.record(engine)
        trace = recorder.build(
            n=engine.n,
            state_names=protocol.state_names(),
            protocol_name=protocol.name,
            metadata={"seed": 7},
        )
        assert trace.metadata["seed"] == 7
