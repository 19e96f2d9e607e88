"""Streamed-trace persistence: round-trip, equivalence and resume.

The headline contract (ISSUE 4 acceptance): a ``persist_to=`` run holds
at most the configured window of snapshots in memory, and
``StreamedTrace.materialize()`` is *bit-identical* to the trace the
same run records in memory — across engines, backends and snapshot
cadences, including chunk-boundary slicing and resume-from-manifest.
"""

import gc
import math
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Configuration, PersistentTrajectoryRecorder, simulate
from repro.analysis import usd_stabilization_ensemble
from repro.analytics.codec import read_columnar, write_columnar
from repro.cli import main
from repro.core.kernels import available_backends
from repro.errors import SerializationError, SimulationError
from repro.core.recorder import Trace
from repro.io import load_trace, save_trace
from repro.io.streaming import (
    StreamedTrace,
    find_persisted_by_hash,
    load_chunk,
    load_chunk_times,
    load_manifest,
    write_chunk,
)
from repro.protocols import UndecidedStateDynamics
from repro.rng import derive_seed


def _paper_run(tmp_path=None, *, engine="counts", snapshot_every=37,
               chunk_snapshots=64, window=16, n=900, seed=5):
    protocol = UndecidedStateDynamics(k=3)
    initial = Configuration.equal_minorities_with_bias(n=n, k=3, bias=n // 10)
    kwargs = dict(
        engine=engine,
        seed=seed,
        max_parallel_time=400.0,
        snapshot_every=snapshot_every,
    )
    if tmp_path is None:
        return simulate(protocol, initial, **kwargs)
    return simulate(
        protocol,
        initial,
        persist_to=tmp_path,
        persist_chunk_snapshots=chunk_snapshots,
        persist_window=window,
        **kwargs,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["agent", "counts", "batch", "multibatch"])
    @pytest.mark.parametrize("snapshot_every", [1, 37, 5000])
    def test_materialize_matches_in_memory_trace(
        self, tmp_path, engine, snapshot_every
    ):
        n = 300 if engine == "agent" else 900
        mem = _paper_run(engine=engine, snapshot_every=snapshot_every, n=n)
        per = _paper_run(
            tmp_path / "run", engine=engine, snapshot_every=snapshot_every, n=n
        )
        full = StreamedTrace(per.persist_dir).materialize()
        assert np.array_equal(full.times, mem.trace.times)
        assert np.array_equal(full.counts, mem.trace.counts)
        assert full.times.dtype == mem.trace.times.dtype
        assert full.counts.dtype == mem.trace.counts.dtype
        assert full.n == mem.trace.n
        assert full.state_names == mem.trace.state_names
        assert full.undecided_index == mem.trace.undecided_index
        assert per.winner == mem.winner
        assert per.interactions == mem.interactions

    @pytest.mark.parametrize("backend", available_backends())
    def test_materialize_matches_across_backends(self, tmp_path, backend):
        mem = _paper_run()
        per = _paper_run(tmp_path / "run")
        stream = per.streamed_trace()
        # both record the kernels that ran, in the manifest too
        assert mem.metadata["backend"] == stream.run_info["backend"] == backend
        full = stream.materialize()
        assert np.array_equal(full.times, mem.trace.times)
        assert np.array_equal(full.counts, mem.trace.counts)

    def test_run_result_trace_is_bounded_tail_window(self, tmp_path):
        mem = _paper_run()
        per = _paper_run(tmp_path / "run", window=16, chunk_snapshots=64)
        assert len(mem.trace) > 16
        assert len(per.trace) == 16
        assert np.array_equal(per.trace.times, mem.trace.times[-16:])
        assert per.trace.metadata["trace_window"] == "tail"
        assert per.persist_dir == tmp_path / "run"

    def test_streamed_trace_accessor_requires_persistence(self):
        mem = _paper_run()
        with pytest.raises(SimulationError, match="not persisted"):
            mem.streamed_trace()


class TestChunkEncoding:
    """How a chunk is stored today, and that older chunks still read."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """A full chunk of a seeded USD run, and the run's in-memory trace."""
        protocol = UndecidedStateDynamics(k=11)
        initial = Configuration.equal_minorities_with_bias(n=5000, k=11, bias=500)
        kwargs = dict(
            engine="batch", seed=4, max_parallel_time=400.0, snapshot_every=50
        )
        run_dir = tmp_path_factory.mktemp("encoding") / "run"
        simulate(
            protocol, initial, persist_to=run_dir, persist_chunk_snapshots=512, **kwargs
        )
        reference = simulate(protocol, initial, **kwargs).trace
        return run_dir / "chunk-00000.npz", reference

    def test_counts_are_deflated_column_major(self, written):
        path, reference = written
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
            names = [member.filename for member in members]
            assert names == ["times.npy", "counts.npy"]
            assert all(m.compress_type == zipfile.ZIP_DEFLATED for m in members)
            with archive.open("counts.npy") as member:
                assert np.lib.format.read_magic(member) == (1, 0)
                header = np.lib.format.read_array_header_1_0(member)
        # (shape, fortran_order, dtype)
        assert header == ((512, 12), True, np.dtype(np.int64))
        with np.load(path, allow_pickle=False) as archive:
            assert np.array_equal(archive["times"], reference.times[:512])
            assert np.array_equal(archive["counts"], reference.counts[:512])

    def test_load_chunk_returns_c_ordered_int64(self, written):
        path, reference = written
        times, counts = load_chunk(path)
        for array in (times, counts):
            assert array.dtype == np.int64 and array.flags.c_contiguous
        assert np.array_equal(counts, reference.counts[:512])

    def test_no_larger_than_numpy_default_encoding(self, written, tmp_path):
        path, _ = written
        times, counts = load_chunk(path)
        np.savez_compressed(tmp_path / "numpy.npz", times=times, counts=counts)
        assert path.stat().st_size <= (tmp_path / "numpy.npz").stat().st_size

    def test_older_level_six_row_major_chunk_loads_identically(
        self, written, tmp_path
    ):
        path, reference = written
        times, counts = load_chunk(path)
        old = tmp_path / "chunk-00000.npz"
        np.savez_compressed(old, times=times, counts=counts)
        old_times, old_counts = load_chunk(old)
        assert np.array_equal(old_times, times) and np.array_equal(old_counts, counts)
        assert old_counts.dtype == np.int64 and old_counts.flags.c_contiguous
        assert np.array_equal(load_chunk_times(old), reference.times[:512])


TORN_TIMES = np.arange(0, 4000, 10, dtype=np.int64)
TORN_COUNTS = np.stack([TORN_TIMES % 7, 900 - TORN_TIMES % 7], axis=1)


def _write_trace(directory):
    path = directory / "trace.npz"
    trace = Trace(
        times=TORN_TIMES,
        counts=TORN_COUNTS,
        n=900,
        state_names=("a", "b"),
        protocol_name="voter",
        undecided_index=None,
    )
    save_trace(trace, path)
    return path


def _write_columnar(directory):
    path = directory / "fragment.npz"
    write_columnar(path, [(TORN_TIMES, TORN_COUNTS)], identity={"run": "torn"})
    return path


#: Each npz reader, with a writer of the files it reads.
NPZ_READERS = {
    "load_chunk": (lambda d: write_chunk(d, 0, TORN_TIMES, TORN_COUNTS), load_chunk),
    "load_chunk_times": (
        lambda d: write_chunk(d, 0, TORN_TIMES, TORN_COUNTS),
        load_chunk_times,
    ),
    "load_trace": (_write_trace, load_trace),
    "read_columnar": (_write_columnar, read_columnar),
}


@pytest.mark.parametrize("kept", [0.5, 0.0], ids=["half", "empty"])
@pytest.mark.parametrize("reader", sorted(NPZ_READERS))
def test_torn_npz_raises_and_closes_its_file(reader, kept, tmp_path):
    """A truncated archive raises ``SerializationError``, and the reader
    leaves no file open behind it (no ``ResourceWarning``)."""
    write, read = NPZ_READERS[reader]
    path = write(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * kept)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SerializationError):
            read(path)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


class TestSlicing:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("slicing")
        mem = _paper_run()
        per = _paper_run(tmp / "run", chunk_snapshots=7)  # many chunk boundaries
        return mem.trace, StreamedTrace(per.persist_dir)

    def test_slices_cross_chunk_boundaries(self, pair):
        reference, stream = pair
        total = len(stream)
        assert total == len(reference)
        for sl in (
            slice(0, 5),
            slice(3, 20),
            slice(6, 8),  # inside one chunk
            slice(5, 200, 7),
            slice(None, None, 3),
            slice(-25, None),
            slice(None, None, None),
        ):
            got = stream[sl]
            assert np.array_equal(got.times, reference.times[sl])
            assert np.array_equal(got.counts, reference.counts[sl])

    def test_time_slice_matches_trace_slice(self, pair):
        reference, stream = pair
        lo = int(reference.times[4])
        hi = int(reference.times[-5])
        got = stream.time_slice(lo, hi)
        want = reference.slice(lo, hi)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.counts, want.counts)

    def test_empty_selection_rejected(self, pair):
        _, stream = pair
        with pytest.raises(SerializationError):
            stream[5:5]
        with pytest.raises(SerializationError):
            stream.time_slice(-10, -5)
        with pytest.raises(SerializationError):
            stream.time_slice(0, int(stream.times[-1]), every=0)
        with pytest.raises(SerializationError):
            stream["not-a-slice"]


class TestPropertyEquivalence:
    @given(
        num_snapshots=st.integers(min_value=1, max_value=120),
        chunk_snapshots=st.integers(min_value=1, max_value=40),
        window=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_chunking_reproduces_the_reference_stream(
        self, tmp_path_factory, num_snapshots, chunk_snapshots, window, seed
    ):
        """Chunk/window geometry must never change the recorded stream."""
        tmp = tmp_path_factory.mktemp("prop")
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.integers(0, 4, size=num_snapshots))
        counts = rng.integers(0, 100, size=(num_snapshots, 3))

        class _Stub:
            interactions = 0
            counts_row = None

            @property
            def counts(self):
                return self.counts_row

        stub = _Stub()
        stub.counts_row = counts[0]
        recorder = PersistentTrajectoryRecorder(
            tmp / "run", chunk_snapshots=chunk_snapshots, window_snapshots=window
        )
        reference_times = []
        reference_counts = []
        for i in range(num_snapshots):
            stub.interactions = int(times[i])
            stub.counts_row = counts[i]
            recorder.record(stub)
            if not reference_times or reference_times[-1] != times[i]:
                reference_times.append(int(times[i]))
                reference_counts.append(counts[i])
        recorder.close()
        stream = StreamedTrace(tmp / "run")
        full = stream.materialize()
        assert np.array_equal(full.times, np.asarray(reference_times))
        assert np.array_equal(full.counts, np.asarray(reference_counts))
        assert stream.num_chunks == math.ceil(len(reference_times) / chunk_snapshots)


class TestResume:
    def test_ensemble_resumes_from_manifest_without_resimulating(
        self, tmp_path, monkeypatch
    ):
        initial = Configuration.equal_minorities_with_bias(n=600, k=3, bias=60)
        kwargs = dict(num_seeds=3, seed=11, max_parallel_time=500.0)
        baseline = usd_stabilization_ensemble(initial, **kwargs)
        first = usd_stabilization_ensemble(
            initial, persist_to=tmp_path / "ens", **kwargs
        )
        assert np.array_equal(baseline.times, first.times)
        assert np.array_equal(baseline.winners, first.winners)

        def bomb(*args, **kw):  # pragma: no cover - must never run
            raise AssertionError("resume path re-simulated a persisted run")

        monkeypatch.setattr("repro.core.run.simulate", bomb)
        resumed = usd_stabilization_ensemble(
            initial, persist_to=tmp_path / "ens", **kwargs
        )
        assert np.array_equal(baseline.times, resumed.times)
        assert np.array_equal(baseline.winners, resumed.winners)
        assert baseline.censored == resumed.censored

    def test_mismatched_manifest_triggers_resimulation(self, tmp_path):
        initial = Configuration.equal_minorities_with_bias(n=600, k=3, bias=60)
        kwargs = dict(num_seeds=1, seed=11, max_parallel_time=500.0)
        usd_stabilization_ensemble(initial, persist_to=tmp_path / "ens", **kwargs)
        before = load_manifest(tmp_path / "ens" / "run-0000")["run_info"]["seed"]
        # a different root seed must not trust the stale run directory
        other = usd_stabilization_ensemble(
            initial, persist_to=tmp_path / "ens", num_seeds=1, seed=12,
            max_parallel_time=500.0,
        )
        manifest = load_manifest(tmp_path / "ens" / "run-0000")
        assert manifest["complete"] is True
        assert manifest["run_info"]["seed"] != before  # re-simulated, not reused
        assert other.runs == 1

    def test_changed_bias_or_k_must_not_resume_a_stale_run(
        self, tmp_path, monkeypatch
    ):
        """The resume guard matches the exact initial counts, so a
        re-run with a different bias (same n, seed, horizon) re-simulates."""
        kwargs = dict(num_seeds=1, seed=11, max_parallel_time=500.0)
        initial_a = Configuration.equal_minorities_with_bias(n=600, k=3, bias=60)
        usd_stabilization_ensemble(initial_a, persist_to=tmp_path / "ens", **kwargs)

        def bomb(*args, **kw):
            raise RuntimeError("re-simulated (correctly!)")

        monkeypatch.setattr("repro.core.run.simulate", bomb)
        initial_b = Configuration.equal_minorities_with_bias(n=600, k=3, bias=120)
        with pytest.raises(RuntimeError, match="re-simulated"):
            usd_stabilization_ensemble(
                initial_b, persist_to=tmp_path / "ens", **kwargs
            )
        # while the identical configuration still resumes cleanly
        resumed = usd_stabilization_ensemble(
            initial_a, persist_to=tmp_path / "ens", **kwargs
        )
        assert resumed.runs == 1

    def test_hashless_manifest_never_answers_for_a_member(self, tmp_path):
        """A keyword run that cannot normalise (here: a callable stop)
        records no spec_hash.  Its stream must not answer for ensemble
        member 0, although its protocol, n, seed, engine, cadence,
        horizon and initial counts all equal the member's."""
        initial = Configuration.equal_minorities_with_bias(n=600, k=3, bias=60)
        kwargs = dict(num_seeds=1, seed=11, max_parallel_time=500.0)
        clean = usd_stabilization_ensemble(initial, **kwargs)
        run_dir = tmp_path / "ens" / "run-0000"
        simulate(
            UndecidedStateDynamics(k=3),
            initial,
            seed=derive_seed(11, 0),
            max_parallel_time=500.0,
            stop=lambda engine: engine.interactions >= 1000,
            persist_to=run_dir,
        )
        manifest = load_manifest(run_dir)
        assert manifest["complete"] and "spec_hash" not in manifest["run_info"]
        assert manifest["summary"]["stabilized"] is False  # cut short
        resumed = usd_stabilization_ensemble(
            initial, persist_to=tmp_path / "ens", **kwargs
        )
        assert resumed.censored == 0
        assert np.array_equal(resumed.times, clean.times)
        assert np.array_equal(resumed.winners, clean.winners)

    def test_corrupt_manifest_is_no_match_not_a_crash(self, tmp_path):
        kwargs = dict(num_seeds=1, seed=11, max_parallel_time=500.0)
        initial = Configuration.equal_minorities_with_bias(n=600, k=3, bias=60)
        usd_stabilization_ensemble(initial, persist_to=tmp_path / "ens", **kwargs)
        run_dir = tmp_path / "ens" / "run-0000"
        spec_hash = load_manifest(run_dir)["run_info"]["spec_hash"]
        manifest_path = run_dir / "manifest.json"
        manifest_path.write_text(
            manifest_path.read_text().replace(
                '"format_version": 1', '"format_version": "1"'
            )
        )
        assert find_persisted_by_hash(run_dir, spec_hash) is None
        # the ensemble silently re-simulates over the corrupt directory
        again = usd_stabilization_ensemble(
            initial, persist_to=tmp_path / "ens", **kwargs
        )
        assert again.runs == 1

    def test_aborted_run_leaves_manifest_incomplete(self, tmp_path):
        """An exception mid-run (engine/stop failure, Ctrl-C) must not
        certify the stream: spilled data survives, complete stays false."""
        protocol = UndecidedStateDynamics(k=3)
        initial = Configuration.equal_minorities_with_bias(n=900, k=3, bias=90)
        calls = {"n": 0}

        def exploding_stop(engine):
            calls["n"] += 1
            if calls["n"] > 5:
                raise RuntimeError("mid-run abort")
            return False

        with pytest.raises(RuntimeError, match="mid-run abort"):
            simulate(
                protocol,
                initial,
                seed=5,
                max_parallel_time=400.0,
                snapshot_every=37,
                stop=exploding_stop,
                persist_to=tmp_path / "run",
                persist_chunk_snapshots=2,
            )
        manifest = load_manifest(tmp_path / "run")
        assert manifest["complete"] is False
        assert manifest.get("summary") is None
        stream = StreamedTrace(tmp_path / "run")
        assert len(stream) >= 2  # the ingested prefix was still spilled

    def test_fig1_ensemble_member_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        experiment_kwargs = dict(
            n=800, k=3, bias=80, num_seeds=2, engine="counts",
            max_parallel_time=500.0,
        )
        from repro.experiments import get_experiment

        experiment = get_experiment("fig1-ensemble")
        fresh = experiment(persist=tmp_path / "fig1", **experiment_kwargs).run()

        def bomb(*args, **kw):  # pragma: no cover - must never run
            raise AssertionError("resume path re-simulated a persisted member")

        monkeypatch.setattr("repro.core.run.simulate", bomb)
        resumed = experiment(
            persist=tmp_path / "fig1", **experiment_kwargs
        ).run()
        assert len(fresh.rows) == len(resumed.rows)
        for row_a, row_b in zip(fresh.rows, resumed.rows):
            assert set(row_a) == set(row_b)
            for key in row_a:
                a, b = row_a[key], row_b[key]
                if isinstance(a, float) and math.isnan(a):
                    assert isinstance(b, float) and math.isnan(b)
                else:
                    assert a == b, key
        for key in fresh.series:
            assert np.array_equal(fresh.series[key], resumed.series[key])


class TestTraceCli:
    def test_info_and_export_roundtrip(self, tmp_path, capsys):
        per = _paper_run(tmp_path / "run")
        assert main(["trace", "info", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "undecided-state-dynamics" in out
        assert "summary:" in out

        target = tmp_path / "export.npz"
        assert (
            main(
                ["trace", "export", str(tmp_path / "run"), "--to", str(target),
                 "--every", "3"]
            )
            == 0
        )
        exported = load_trace(target)
        full = per.streamed_trace().materialize()
        assert np.array_equal(exported.times, full.times[::3])
        assert np.array_equal(exported.counts, full.counts[::3])

    def test_info_on_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "info", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err
