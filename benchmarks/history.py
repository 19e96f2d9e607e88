"""Benchmark history: measurements persisted across commits.

Throughput numbers that are only printed get lost, and regressions get
eyeballed instead of caught.  :func:`record_benchmark` appends one
entry per (benchmark, commit) to
``benchmarks/results/history/<name>.json``; re-recording at the same
commit overwrites that commit's entry instead of duplicating it.
``perfbench/run.py --record`` and ``scripts/ci_obs_overhead.py
overhead`` write through it.  :func:`load_history` /
:func:`format_trajectory` read the series back:

    python benchmarks/history.py                      # list benchmarks
    python benchmarks/history.py perfbench-fig1-batch-numpy

prints the commit-by-commit trajectory of the recorded metrics, and

    python benchmarks/history.py --check

validates every history file (parses, schema, entries well-formed) and
exits non-zero on problems — the CI ``perfbench`` leg runs it so a
malformed history file fails the push instead of silently corrupting
the trajectory.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

HISTORY_DIR = Path(__file__).parent / "results" / "history"


def _repo_state() -> Dict[str, Any]:
    """The library's git probe, importable with or without PYTHONPATH=src."""
    try:
        from repro.sweep.provenance import repo_state
    except ImportError:  # standalone `python benchmarks/history.py`
        sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
        from repro.sweep.provenance import repo_state
    return repo_state()


def current_commit() -> str:
    """Short hash of HEAD, or ``'unknown'`` outside a git checkout.

    A dirty working tree is keyed as ``<hash>+dirty``: the measured code
    is *not* the committed code, so the measurement must neither claim
    the commit's identity nor overwrite its genuine trajectory entry.
    """
    state = _repo_state()
    if state["commit"] == "unknown":
        return "unknown"
    commit = state["commit"][:7]
    return f"{commit}+dirty" if state["dirty"] else commit


def _history_path(name: str, history_dir: Optional[Union[str, Path]]) -> Path:
    directory = Path(history_dir) if history_dir is not None else HISTORY_DIR
    return directory / f"{name}.json"


def record_benchmark(
    name: str,
    metrics: Dict[str, Any],
    *,
    commit: Optional[str] = None,
    history_dir: Optional[Union[str, Path]] = None,
) -> Path:
    """Persist one benchmark measurement keyed by commit.

    Returns the history file path.  ``metrics`` must be JSON-encodable
    scalars (speedups, seconds, counts).
    """
    commit = commit or current_commit()
    path = _history_path(name, history_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = load_history(name, history_dir=history_dir)
    entries = [entry for entry in entries if entry["commit"] != commit]
    entries.append(
        {
            "commit": commit,
            "recorded_at": datetime.now(timezone.utc).isoformat(),
            "metrics": metrics,
        }
    )
    path.write_text(json.dumps({"name": name, "entries": entries}, indent=2))
    return path


def load_history(
    name: str, *, history_dir: Optional[Union[str, Path]] = None
) -> List[Dict[str, Any]]:
    """All recorded entries for ``name``, oldest first ([] if none)."""
    path = _history_path(name, history_dir)
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    return list(payload.get("entries", []))


def format_trajectory(
    name: str, *, history_dir: Optional[Union[str, Path]] = None
) -> str:
    """The commit-by-commit metric trajectory as aligned text lines."""
    entries = load_history(name, history_dir=history_dir)
    if not entries:
        return f"{name}: no recorded history"
    lines = [f"{name} ({len(entries)} commits)"]
    for entry in entries:
        metrics = "  ".join(
            f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sorted(entry["metrics"].items())
        )
        lines.append(f"  {entry['commit']:>10}  {entry['recorded_at'][:10]}  {metrics}")
    return "\n".join(lines)


def check_history(
    *, history_dir: Optional[Union[str, Path]] = None
) -> List[str]:
    """Validate every history file; returns a list of problems ([] = ok).

    Checked per file: valid JSON with the ``{"name", "entries"}`` shape,
    the name matching the file stem, and every entry carrying a
    non-empty ``commit``, a ``recorded_at`` timestamp and a dict of
    metrics — with no duplicate commit keys (``record_benchmark``'s
    overwrite contract).
    """
    directory = Path(history_dir) if history_dir is not None else HISTORY_DIR
    problems: List[str] = []
    if not directory.exists():
        return problems
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            problems.append(f"{path}: invalid JSON ({exc})")
            continue
        if not isinstance(payload, dict) or "entries" not in payload:
            problems.append(f"{path}: not a history file (missing 'entries')")
            continue
        if payload.get("name") != path.stem:
            problems.append(
                f"{path}: name {payload.get('name')!r} does not match file stem"
            )
        commits = []
        for position, entry in enumerate(payload["entries"]):
            label = f"{path} entry {position}"
            if not isinstance(entry, dict):
                problems.append(f"{label}: not an object")
                continue
            if not entry.get("commit"):
                problems.append(f"{label}: missing commit")
            if not entry.get("recorded_at"):
                problems.append(f"{label}: missing recorded_at")
            if not isinstance(entry.get("metrics"), dict):
                problems.append(f"{label}: metrics must be an object")
            commits.append(entry.get("commit"))
        duplicates = {c for c in commits if commits.count(c) > 1}
        if duplicates:
            problems.append(f"{path}: duplicate commit entries {sorted(duplicates)}")
    return problems


def main(argv: List[str]) -> int:
    if argv and argv[0] == "--check":
        problems = check_history()
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        if problems:
            return 1
        count = len(list(HISTORY_DIR.glob("*.json"))) if HISTORY_DIR.exists() else 0
        print(f"history check ok ({count} files under {HISTORY_DIR})")
        return 0
    if argv:
        for name in argv:
            print(format_trajectory(name))
        return 0
    if not HISTORY_DIR.exists():
        print(f"no benchmark history under {HISTORY_DIR}")
        return 0
    names = sorted(path.stem for path in HISTORY_DIR.glob("*.json"))
    if not names:
        print(f"no benchmark history under {HISTORY_DIR}")
        return 0
    for name in names:
        print(format_trajectory(name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
