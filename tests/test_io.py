"""Unit tests for repro.io (tables and serialization)."""

import os
import stat

import numpy as np
import pytest

from repro import SerializationError, Trace
from repro.io import (
    atomic_write,
    format_table,
    load_result_rows,
    load_trace,
    save_result_rows,
    save_trace,
)


@pytest.fixture
def rows():
    return [
        {"k": 4, "time": 12.5, "ok": True},
        {"k": 8, "time": 25.0, "ok": False, "extra": None},
    ]


class TestTables:
    def test_format_table_alignment(self, rows):
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("k")
        assert "12.500" in text
        assert "yes" in text and "no" in text
        assert "—" in text  # None rendering

    def test_format_table_title_and_columns(self, rows):
        text = format_table(rows, title="My table")
        assert text.splitlines()[0] == "My table"
        # every key of every row, in order of first appearance
        assert text.splitlines()[1].split() == ["k", "time", "ok", "extra"]

    def test_empty_rows_rejected(self):
        with pytest.raises(SerializationError):
            format_table([])

    def test_float_format_override(self, rows):
        # floats always render to three places; no keyword overrides it
        assert "0.333 " in format_table([{"x": 1 / 3, "n": 2}])
        with pytest.raises(TypeError):
            format_table(rows, float_format=".1f")


class TestTraceSerialization:
    @pytest.fixture
    def trace(self):
        return Trace(
            times=np.array([0, 50, 100], dtype=np.int64),
            counts=np.array([[0, 6, 4], [3, 4, 3], [1, 9, 0]], dtype=np.int64),
            n=10,
            state_names=("⊥", "opinion1", "opinion2"),
            protocol_name="undecided-state-dynamics",
            undecided_index=0,
            metadata={"seed": 7, "engine": "counts"},
        )

    def test_roundtrip(self, trace, tmp_path):
        # a path without the .npz suffix is written as given, not as
        # "plain.npz"
        for name in ("trace.npz", "plain"):
            path = tmp_path / name
            save_trace(trace, path)
            loaded = load_trace(path)
            assert np.array_equal(loaded.times, trace.times)
            assert np.array_equal(loaded.counts, trace.counts)
            assert loaded.n == trace.n
            assert loaded.state_names == trace.state_names
            assert loaded.protocol_name == trace.protocol_name
            assert loaded.undecided_index == 0
            assert loaded.metadata["seed"] == 7
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "trace.npz"]

    def test_none_undecided_index_roundtrip(self, trace, tmp_path):
        voter_trace = Trace(
            times=trace.times.copy(),
            counts=trace.counts.copy(),
            n=10,
            state_names=("a", "b", "c"),
            protocol_name="voter",
            undecided_index=None,
        )
        path = tmp_path / "voter.npz"
        save_trace(voter_trace, path)
        assert load_trace(path).undecided_index is None

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_trace(tmp_path / "nope.npz")

    def test_load_garbage(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(SerializationError):
            load_trace(path)


class TestResultRows:
    def test_roundtrip_with_numpy_values(self, tmp_path):
        rows = [
            {"k": np.int64(4), "time": np.float64(1.5), "flag": np.bool_(True)},
            {"series": np.array([1, 2, 3])},
        ]
        path = tmp_path / "rows.json"
        save_result_rows(rows, path, extra={"note": "hi", "values": np.arange(2)})
        loaded, extra = load_result_rows(path)
        assert loaded[0]["k"] == 4
        assert loaded[0]["flag"] is True
        assert loaded[1]["series"] == [1, 2, 3]
        assert extra["note"] == "hi"
        assert extra["values"] == [0, 1]

    def test_load_rejects_non_result_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SerializationError):
            load_result_rows(path)

    def test_load_missing(self, tmp_path):
        with pytest.raises(SerializationError):
            load_result_rows(tmp_path / "missing.json")


class TestAtomicWrite:
    def test_bytes_and_writer_forms(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write(path, b"first")
        atomic_write(path, lambda handle: handle.write(b"second"))
        assert path.read_bytes() == b"second"
        assert [entry.name for entry in tmp_path.iterdir()] == ["doc.json"]

    def test_file_mode_follows_the_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            atomic_write(tmp_path / "atomic.json", b"{}")
            (tmp_path / "plain.json").write_text("{}")
        finally:
            os.umask(previous)
        modes = {
            entry.name: stat.S_IMODE(entry.stat().st_mode)
            for entry in tmp_path.iterdir()
        }
        assert modes == {"atomic.json": 0o644, "plain.json": 0o644}

    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write(path, b"intact")

        def torn(handle):
            handle.write(b"half")
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError):
            atomic_write(path, torn)
        assert path.read_bytes() == b"intact"
        assert [entry.name for entry in tmp_path.iterdir()] == ["doc.json"]
