"""The spill-to-disk trajectory recorder.

The contract: :class:`~repro.core.PersistentTrajectoryRecorder` streams
the *exact* snapshot sequence the in-memory recorder would hold to
chunk files under a run directory, keeps only a bounded window in
memory, survives a hard kill with every spilled chunk intact and the
manifest honestly marked incomplete, and closes idempotently even
under concurrent ``close()`` calls.
"""

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import PersistentTrajectoryRecorder, TrajectoryRecorder, simulate
from repro.core import persistent_recorder
from repro.core.counts_engine import CountsEngine
from repro.errors import SimulationError
from repro.io.streaming import (
    StreamedTrace,
    find_persisted_by_hash,
    load_manifest,
)
from repro.protocols import UndecidedStateDynamics


class _StubEngine:
    """A minimal SupportsCounts with settable time, for synthetic streams."""

    def __init__(self, num_states=3):
        self.interactions = 0
        self._counts = np.zeros(num_states, dtype=np.int64)

    def advance(self, dt, rng):
        self.interactions += dt
        self._counts = rng.integers(0, 50, size=self._counts.shape)

    @property
    def counts(self):
        return self._counts


def _feed(recorder, steps, *, seed=0, allow_duplicates=True):
    """Drive a stub engine through ``steps`` snapshots; returns the engine."""
    rng = np.random.default_rng(seed)
    engine = _StubEngine()
    recorder.record(engine)
    for i in range(steps):
        dt = int(rng.integers(0, 3)) if allow_duplicates else 1 + int(rng.integers(2))
        engine.advance(dt, rng)
        recorder.record(engine)
    return engine


class TestSpilling:
    def test_chunks_appear_and_memory_stays_bounded(self, tmp_path):
        run_dir = tmp_path / "run"
        with PersistentTrajectoryRecorder(
            run_dir, chunk_snapshots=16, window_snapshots=8
        ) as recorder:
            _feed(recorder, 200)
            assert len(recorder._times) <= 16
            assert len(recorder._window) <= 8
            assert recorder.spilled_snapshots >= 100
            assert any(p.name.startswith("chunk-") for p in run_dir.iterdir())
        manifest = load_manifest(run_dir)
        assert manifest["complete"] is True
        assert manifest["num_snapshots"] == len(StreamedTrace(run_dir))

    def test_stream_is_identical_to_in_memory_recorder(self, tmp_path):
        sync = TrajectoryRecorder()
        _feed(sync, 150, seed=42)
        recorder = PersistentTrajectoryRecorder(tmp_path / "run", chunk_snapshots=7)
        _feed(recorder, 150, seed=42)
        recorder.close()
        reference = sync.build(n=100, state_names=("a", "b", "c"), protocol_name="x")
        streamed = StreamedTrace(tmp_path / "run")
        assert np.array_equal(streamed.times, reference.times)
        full = streamed.materialize()
        assert np.array_equal(full.times, reference.times)
        assert np.array_equal(full.counts, reference.counts)

    def test_duplicate_times_deduplicated_across_chunk_boundary(self, tmp_path):
        recorder = PersistentTrajectoryRecorder(tmp_path / "run", chunk_snapshots=2)
        engine = _StubEngine()
        rng = np.random.default_rng(3)
        for step in range(8):
            engine.advance(1, rng)
            recorder.record(engine)
            recorder.record(engine)  # same interaction index: must drop
        recorder.close()
        times = StreamedTrace(tmp_path / "run").times
        assert np.array_equal(times, np.arange(1, 9))

    def test_build_returns_tail_window(self, tmp_path):
        recorder = PersistentTrajectoryRecorder(
            tmp_path / "run", chunk_snapshots=8, window_snapshots=4
        )
        _feed(recorder, 50, seed=1, allow_duplicates=False)
        recorder.close()
        trace = recorder.build(n=100, state_names=("a", "b", "c"), protocol_name="x")
        assert len(trace) == 4
        streamed = StreamedTrace(tmp_path / "run")
        assert trace.times[-1] == streamed.times[-1]
        assert trace.metadata["persist_dir"] == str(tmp_path / "run")

    def test_stale_directory_cleared_on_reopen(self, tmp_path):
        run_dir = tmp_path / "run"
        recorder = PersistentTrajectoryRecorder(run_dir, chunk_snapshots=4)
        _feed(recorder, 40, seed=5, allow_duplicates=False)
        recorder.close()
        first = StreamedTrace(run_dir).times
        recorder = PersistentTrajectoryRecorder(run_dir, chunk_snapshots=4)
        _feed(recorder, 10, seed=6, allow_duplicates=False)
        recorder.close()
        second = StreamedTrace(run_dir)
        assert len(second) == 11  # one run's snapshots, not a mix
        assert len(second) != len(first)


class TestCrashSafety:
    def test_unclosed_run_reads_as_incomplete_with_whole_chunks(self, tmp_path):
        run_dir = tmp_path / "run"
        recorder = PersistentTrajectoryRecorder(
            run_dir, chunk_snapshots=8, run_info={"spec_hash": "h"}
        )
        _feed(recorder, 50, seed=9, allow_duplicates=False)
        # no close(): simulates a process killed mid-run
        manifest = load_manifest(run_dir)
        assert manifest["complete"] is False
        streamed = StreamedTrace(run_dir)
        assert not streamed.complete
        assert len(streamed) >= 8  # every spilled chunk is whole and loadable
        assert len(streamed) % 8 == 0
        full = streamed.materialize()
        assert np.array_equal(full.times, streamed.times)
        # incomplete => no resume
        assert find_persisted_by_hash(run_dir, "h") is None
        recorder.close()
        assert find_persisted_by_hash(run_dir, "h") is None  # no summary yet
        recorder.record_summary({"stabilized": False})
        assert find_persisted_by_hash(run_dir, "h") == run_dir

    def test_write_failure_leaves_manifest_incomplete(self, tmp_path, monkeypatch):
        class DiskFull(OSError):
            pass

        real_write_chunk = persistent_recorder.write_chunk

        def write_chunk(directory, index, times, counts):
            if index < 3:
                return real_write_chunk(directory, index, times, counts)
            # the temp file a writer dying mid-chunk leaves behind
            (Path(directory) / f"chunk-{index:05d}.npz.tmp").write_bytes(b"torn")
            raise DiskFull("no space left on device")

        monkeypatch.setattr(persistent_recorder, "write_chunk", write_chunk)
        run_dir = tmp_path / "run"
        kwargs = dict(seed=77, max_parallel_time=5.0, snapshot_every=50)
        with pytest.raises(DiskFull):  # the original error, not a wrapper
            simulate(
                UndecidedStateDynamics(k=3),
                np.array([0, 600, 450, 450]),
                persist_to=run_dir,
                persist_chunk_snapshots=8,
                **kwargs,
            )
        assert load_manifest(run_dir)["complete"] is False
        streamed = StreamedTrace(run_dir)
        assert len(streamed.manifest["chunks"]) == 3
        reference = simulate(
            UndecidedStateDynamics(k=3), np.array([0, 600, 450, 450]), **kwargs
        ).trace
        full = streamed.materialize()  # every chunk written before the failure
        assert np.array_equal(full.times, reference.times[:24])
        assert np.array_equal(full.counts, reference.counts[:24])
        assert list(run_dir.glob("*.tmp"))
        PersistentTrajectoryRecorder(run_dir).close()  # reopen the directory
        assert not list(run_dir.glob("*.tmp"))


class TestCloseConcurrency:
    @pytest.fixture(autouse=True)
    def _frequent_thread_switches(self):
        # switch threads as often as possible, so a record() or close()
        # that is not serialized by the recorder's lock tears the stream
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(previous)

    def test_close_is_idempotent(self, tmp_path):
        recorder = PersistentTrajectoryRecorder(tmp_path / "run", chunk_snapshots=4)
        _feed(recorder, 20, seed=2, allow_duplicates=False)
        recorder.close()
        snapshots = len(StreamedTrace(tmp_path / "run"))
        recorder.close()
        recorder.close()
        assert len(StreamedTrace(tmp_path / "run")) == snapshots

    def test_concurrent_closes_finalize_exactly_once(self, tmp_path):
        run_dir = tmp_path / "run"
        recorder = PersistentTrajectoryRecorder(run_dir, chunk_snapshots=4)
        _feed(recorder, 30, seed=7, allow_duplicates=False)
        errors = []

        def closer():
            try:
                recorder.close()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        streamed = StreamedTrace(run_dir)
        assert streamed.complete
        # a double finalize would duplicate the tail chunk's snapshots
        assert len(streamed) == 31
        assert np.all(np.diff(streamed.times) > 0)

    def test_record_racing_close_never_corrupts_the_stream(self, tmp_path):
        run_dir = tmp_path / "run"
        recorder = PersistentTrajectoryRecorder(run_dir, chunk_snapshots=4)
        engine = _StubEngine()
        recorder.record(engine)
        stop = threading.Event()
        outcomes = []
        recorded = []

        class _YieldingEngine(_StubEngine):
            @property
            def counts(self):
                time.sleep(0)  # let close() run in the middle of a record()
                return self._counts

        def producer():
            rng = np.random.default_rng(11)
            local = _YieldingEngine()
            local.interactions = 1
            while not stop.is_set():
                try:
                    local.advance(1, rng)
                    recorder.record(local)
                    recorded.append(local.interactions)
                    recording.set()
                except SimulationError:
                    outcomes.append("rejected")
                    return
            outcomes.append("stopped")

        recording = threading.Event()
        thread = threading.Thread(target=producer)
        thread.start()
        assert recording.wait(timeout=30)
        recorder.close()
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcomes in (["rejected"], ["stopped"])
        streamed = StreamedTrace(run_dir)
        assert streamed.complete
        assert np.all(np.diff(streamed.times) > 0)
        # a record() that returned is on disk: never lost to the close
        assert set(recorded) <= set(streamed.times.tolist())


class TestValidation:
    def test_rejects_bad_chunk_and_window_sizes(self, tmp_path):
        with pytest.raises(SimulationError, match="chunk_snapshots"):
            PersistentTrajectoryRecorder(tmp_path / "a", chunk_snapshots=0)
        with pytest.raises(SimulationError, match="window_snapshots"):
            PersistentTrajectoryRecorder(tmp_path / "b", window_snapshots=0)

    def test_record_after_close_rejected(self, tmp_path):
        recorder = PersistentTrajectoryRecorder(tmp_path / "run")
        engine = CountsEngine(
            UndecidedStateDynamics(k=2), np.array([2, 5, 3]), seed=1
        )
        recorder.record(engine)
        recorder.close()
        with pytest.raises(SimulationError, match="closed recorder"):
            recorder.record(engine)
