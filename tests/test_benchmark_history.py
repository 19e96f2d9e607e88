"""Tests for the benchmark-history persistence (benchmarks/history.py).

The module lives outside the package, next to the committed series it
reads and writes, so the tests import it by path, the same way
``perfbench`` and ``scripts/ci_obs_overhead.py`` do.
"""

import sys
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS_DIR))

from history import (  # noqa: E402 (path bootstrap above)
    check_history,
    current_commit,
    format_trajectory,
    load_history,
    record_benchmark,
)


class TestRecordAndLoad:
    def test_roundtrip(self, tmp_path):
        record_benchmark(
            "demo", {"speedup": 3.2, "workers": 8}, commit="aaa111",
            history_dir=tmp_path,
        )
        entries = load_history("demo", history_dir=tmp_path)
        assert len(entries) == 1
        assert entries[0]["commit"] == "aaa111"
        assert entries[0]["metrics"] == {"speedup": 3.2, "workers": 8}

    def test_same_commit_overwrites_not_duplicates(self, tmp_path):
        record_benchmark("demo", {"speedup": 1.0}, commit="c1", history_dir=tmp_path)
        record_benchmark("demo", {"speedup": 2.0}, commit="c2", history_dir=tmp_path)
        record_benchmark("demo", {"speedup": 2.5}, commit="c2", history_dir=tmp_path)
        entries = load_history("demo", history_dir=tmp_path)
        assert [entry["commit"] for entry in entries] == ["c1", "c2"]
        assert entries[-1]["metrics"]["speedup"] == 2.5

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history("nothing", history_dir=tmp_path) == []

    def test_trajectory_rendering(self, tmp_path):
        record_benchmark("demo", {"speedup": 3.21}, commit="c1", history_dir=tmp_path)
        record_benchmark("demo", {"speedup": 3.5}, commit="c2", history_dir=tmp_path)
        text = format_trajectory("demo", history_dir=tmp_path)
        assert "demo (2 commits)" in text
        assert "c1" in text and "speedup=3.210" in text
        assert format_trajectory("nope", history_dir=tmp_path).endswith(
            "no recorded history"
        )

    def test_check_accepts_recorded_history(self, tmp_path):
        record_benchmark("demo", {"speedup": 1.5}, commit="c1", history_dir=tmp_path)
        record_benchmark("other", {"rate": 2}, commit="c1", history_dir=tmp_path)
        assert check_history(history_dir=tmp_path) == []

    def test_check_flags_corruption(self, tmp_path):
        record_benchmark("demo", {"speedup": 1.5}, commit="c1", history_dir=tmp_path)
        (tmp_path / "garbage.json").write_text("{not json")
        (tmp_path / "misnamed.json").write_text(
            '{"name": "something-else", "entries": []}'
        )
        (tmp_path / "badentry.json").write_text(
            '{"name": "badentry", "entries": [{"metrics": {}}]}'
        )
        problems = "\n".join(check_history(history_dir=tmp_path))
        assert "invalid JSON" in problems
        assert "does not match file stem" in problems
        assert "missing commit" in problems
        assert "demo" not in problems  # the healthy file stays clean

    def test_check_of_missing_directory_is_clean(self, tmp_path):
        assert check_history(history_dir=tmp_path / "nothing") == []

    def test_current_commit_marks_dirty_trees(self):
        """Measurements from uncommitted code must not impersonate HEAD."""
        commit = current_commit()
        # runs from a dirty tree during development and a clean one in CI,
        # so only the shape is assertable: '<hash>', '<hash>+dirty', 'unknown'
        assert commit
        head, _, suffix = commit.partition("+")
        assert head == "unknown" or head.isalnum()
        assert suffix in ("", "dirty")
