"""Structured run journals: append-only JSONL event streams.

A :class:`RunJournal` is one file per run, written next to the
persisted run directory (``journal.jsonl``) or wherever
``ObsConfig.journal_path`` points.  Records are single JSON objects
per line, every one carrying ``t`` — seconds on the *monotonic* clock
relative to the journal's open (wall-clock anchoring lives in the
``journal.open`` header event).  Work with duration is bracketed in
spans::

    {"event": "span_begin", "span": "engine.run", "id": 0, "t": 0.0001, ...}
    {"event": "span_end",   "span": "engine.run", "id": 0, "t": 2.71,
     "seconds": 2.7099, ...}

Each line is flushed as it is written, so a process killed mid-run
leaves every completed event on disk plus at most one torn final line
— :func:`read_journal` tolerates exactly that, and
:func:`summarize_journal` reconstructs the timeline (per-span time
totals, still-open spans, timestamp monotonicity) from whatever
survived.

Safety properties: writes are lock-serialized per process, and the
journal remembers the PID that opened it — a forked child inheriting
the object (module state crosses ``fork``) drops its writes instead of
interleaving with the parent.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "JOURNAL_NAME",
    "JournalSummary",
    "RunJournal",
    "read_journal",
    "summarize_journal",
]

#: File name used inside persisted run directories.
JOURNAL_NAME = "journal.jsonl"


class RunJournal:
    """Append-only JSONL event stream for one run (thread-safe)."""

    def __init__(self, path: Union[str, Path], *, meta: Optional[Dict[str, Any]] = None):
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[io.TextIOWrapper] = open(  # noqa: SIM115 - long-lived
            self._path, "w", encoding="utf-8"
        )
        self._lock = threading.Lock()
        self._origin = time.monotonic()
        self._pid = os.getpid()
        self._next_span_id = 0
        header = {"pid": self._pid, "unix_time": time.time()}
        if meta:
            header.update(meta)
        self.event("journal.open", **header)

    @property
    def path(self) -> Path:
        return self._path

    def _write(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if self._fh is None or os.getpid() != self._pid:
                # closed, or a fork-inherited copy in a child process:
                # writing would interleave with the true owner
                return
            self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            # flush per event: a SIGKILL must lose at most the torn tail
            self._fh.flush()

    def event(self, name: str, **fields: Any) -> None:
        """Record a point-in-time event."""
        record = {"event": name, "t": round(time.monotonic() - self._origin, 6)}
        record.update(fields)
        self._write(record)

    def span_begin(self, span: str, **fields: Any) -> int:
        """Open a span; returns the id :meth:`span_end` must echo."""
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        record = {
            "event": "span_begin",
            "span": span,
            "id": span_id,
            "t": round(time.monotonic() - self._origin, 6),
        }
        record.update(fields)
        self._write(record)
        return span_id

    def span_end(self, span: str, span_id: int, **fields: Any) -> None:
        record = {
            "event": "span_end",
            "span": span,
            "id": span_id,
            "t": round(time.monotonic() - self._origin, 6),
        }
        record.update(fields)
        self._write(record)

    def close(self) -> None:
        if self._fh is None:
            return
        if os.getpid() == self._pid:
            self.event("journal.close")
        with self._lock:
            if self._fh is not None and os.getpid() == self._pid:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading side (standalone — no simulation imports)
# ----------------------------------------------------------------------


def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a journal file into its event records.

    A torn final line (the signature a SIGKILL leaves) is dropped
    silently.  A torn line anywhere *except* the end is corruption and
    raises.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # a well-formed journal ends with "\n", so the final split element
    # is "" — anything else is the torn tail
    for position, line in enumerate(lines):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position != len(lines) - 1:
                raise ValueError(
                    f"{path}: unparseable journal line {position + 1}: {line[:80]!r}"
                ) from None
            continue
        if not isinstance(record, dict):
            raise ValueError(
                f"{path}: journal line {position + 1} is not an object"
            )
        records.append(record)
    return records


@dataclass
class SpanStats:
    """Aggregated view of one span name across a journal."""

    count: int = 0
    total_seconds: float = 0.0
    open: int = 0  # begun but never ended (crash or still running)


@dataclass
class JournalSummary:
    """What :func:`summarize_journal` reconstructs from the event stream."""

    events: int = 0
    last_t: float = 0.0
    monotone: bool = True
    orphan_ends: int = 0  # span_end without a matching span_begin
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    closed: bool = False


def summarize_journal(records: List[Dict[str, Any]]) -> JournalSummary:
    """Reconstruct the timeline: span totals, open spans, monotonicity."""
    summary = JournalSummary()
    open_spans: Dict[Any, float] = {}
    previous_t = None
    for record in records:
        summary.events += 1
        name = record.get("event", "?")
        summary.event_counts[name] = summary.event_counts.get(name, 0) + 1
        t = record.get("t")
        if isinstance(t, (int, float)):
            if previous_t is not None and t < previous_t:
                summary.monotone = False
            previous_t = t
            summary.last_t = max(summary.last_t, float(t))
        if name == "journal.open":
            summary.meta = {
                k: v for k, v in record.items() if k not in ("event", "t")
            }
        elif name == "journal.close":
            summary.closed = True
        elif name == "span_begin":
            key = (record.get("span"), record.get("id"))
            open_spans[key] = float(record.get("t", 0.0))
            stats = summary.spans.setdefault(record.get("span", "?"), SpanStats())
            stats.count += 1
        elif name == "span_end":
            key = (record.get("span"), record.get("id"))
            stats = summary.spans.setdefault(record.get("span", "?"), SpanStats())
            begun = open_spans.pop(key, None)
            if begun is not None and isinstance(t, (int, float)):
                stats.total_seconds += float(t) - begun
            elif begun is None:
                summary.orphan_ends += 1
    for span, _begun in open_spans.items():
        summary.spans[span[0]].open += 1
    return summary


def format_journal_summary(summary: JournalSummary) -> str:
    """Human-readable per-layer time breakdown of a journal."""
    lines = [
        f"events: {summary.events}"
        + ("" if summary.closed else "  (journal never closed — crash or live run)"),
        f"span of recording: {summary.last_t:.3f}s (monotone: "
        + ("yes" if summary.monotone else "NO")
        + ")",
    ]
    if summary.meta:
        interesting = {
            k: summary.meta[k]
            for k in ("protocol", "engine", "backend", "n", "pid", "spec_hash")
            if summary.meta.get(k) is not None
        }
        if interesting:
            lines.append(
                "run: " + ", ".join(f"{k}={v}" for k, v in interesting.items())
            )
    if summary.spans:
        lines.append("time by span:")
        ordered = sorted(
            summary.spans.items(), key=lambda kv: kv[1].total_seconds, reverse=True
        )
        for span, stats in ordered:
            flag = f"  ({stats.open} never closed)" if stats.open else ""
            lines.append(
                f"  {span:<24} x{stats.count:<5} {stats.total_seconds:.4f}s{flag}"
            )
    if summary.event_counts:
        lines.append("events by type:")
        for name in sorted(summary.event_counts):
            lines.append(f"  {name:<24} x{summary.event_counts[name]}")
    return "\n".join(lines)


def iter_tail(path: Union[str, Path], limit: int) -> Iterator[Dict[str, Any]]:
    """The last ``limit`` parseable records of a journal."""
    records = read_journal(path)
    yield from records[-limit:] if limit > 0 else records
