"""Process-local metrics: counters and fixed-bucket histograms.

One module-level :data:`REGISTRY` serves the whole process.  It is
*refcount-gated*: instrumentation sites call :meth:`MetricsRegistry.inc`
/ :meth:`observe` unconditionally, and those are no-ops (one attribute
read and a branch) unless an :func:`repro.obs.runtime.activated` scope
holds the registry enabled.  That keeps call sites branch-free and the
off path free.

Snapshots are plain JSON-able dicts::

    {
      "counters": {"interactions_total": {"": 12345.0},
                   "surrogate_verdicts_total": {"verdict=TRUSTED": 3.0}},
      "histograms": {"kernel_step_seconds": {
          "buckets": [0.001, ...], "counts": [4, ...], "sum": 1.2,
          "count": 9}},
    }

with algebra for the multiprocessing plumbing: a pool worker takes a
baseline snapshot, runs the task, and ships
``snapshot_delta(baseline, snapshot())`` home, where the parent
:meth:`merge_snapshot`\\ s it — counters and histograms add.
:func:`prometheus_text` renders a snapshot in the Prometheus text
exposition format.  Snapshots that older versions wrote may carry a
``"gauges"`` map (always empty: no site ever set one); every reader
here ignores it.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "MetricsRegistry",
    "REGISTRY",
    "format_summary",
    "prometheus_text",
    "snapshot_delta",
]

#: Histogram buckets for sub-second timings (seconds).  Fixed — merge
#: semantics require every process to bucket identically.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


def _label_key(labels: Mapping[str, Any]) -> str:
    """Canonical label encoding: ``""`` or ``"k1=v1,k2=v2"`` sorted."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class MetricsRegistry:
    """Thread-safe counters and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # counter name -> label key -> value
        self._counters: Dict[str, Dict[str, float]] = {}
        # histogram name -> {"buckets": tuple, "counts": list, "sum", "count"}
        self._histograms: Dict[str, Dict[str, Any]] = {}
        # refcount of activated() scopes holding the registry on; the
        # public hot-path gate is the `enabled` property
        self._active = 0

    # ------------------------------------------------------------------
    # Gating (driven by repro.obs.runtime)
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._active > 0

    def activate(self) -> None:
        with self._lock:
            self._active += 1

    def deactivate(self) -> None:
        with self._lock:
            self._active = max(0, self._active - 1)

    def ensure_enabled(self) -> None:
        """Force the registry on for the rest of this process.

        For pool *workers*: under ``spawn`` the child starts with a
        fresh, disabled registry, so the task wrapper calls this before
        running the task (idempotent; workers are reused).
        """
        with self._lock:
            if self._active == 0:
                self._active = 1

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if self._active == 0:
            return
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(value)

    def observe(self, name: str, value: float) -> None:
        """Count ``value`` into histogram ``name`` (:data:`DEFAULT_TIME_BUCKETS`)."""
        if self._active == 0:
            return
        value = float(value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = {
                    "buckets": list(DEFAULT_TIME_BUCKETS),
                    # one cumulative-style slot per bucket plus +Inf
                    "counts": [0] * (len(DEFAULT_TIME_BUCKETS) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._histograms[name] = hist
            counts = hist["counts"]
            for i, upper in enumerate(hist["buckets"]):
                if value <= upper:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            hist["sum"] += value
            hist["count"] += 1

    # ------------------------------------------------------------------
    # Snapshots and algebra
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A deep, JSON-able copy of the current state."""
        with self._lock:
            return {
                "counters": {
                    name: dict(series) for name, series in self._counters.items()
                },
                "histograms": {
                    name: {
                        "buckets": list(hist["buckets"]),
                        "counts": list(hist["counts"]),
                        "sum": hist["sum"],
                        "count": hist["count"],
                    }
                    for name, hist in self._histograms.items()
                },
            }

    def merge_snapshot(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold a snapshot (e.g. a child-process delta) into this registry.

        Counters and histograms add.  Merging is allowed even while
        disabled — the parent may have left its activation scope by the
        time a straggler result arrives.
        """
        if not snapshot:
            return
        with self._lock:
            for name, series in snapshot.get("counters", {}).items():
                mine = self._counters.setdefault(name, {})
                for key, value in series.items():
                    mine[key] = mine.get(key, 0.0) + float(value)
            for name, hist in snapshot.get("histograms", {}).items():
                mine_hist = self._histograms.get(name)
                if mine_hist is None:
                    self._histograms[name] = {
                        "buckets": list(hist["buckets"]),
                        "counts": list(hist["counts"]),
                        "sum": float(hist["sum"]),
                        "count": int(hist["count"]),
                    }
                    continue
                counts = mine_hist["counts"]
                for i, c in enumerate(hist["counts"]):
                    counts[i] += c
                mine_hist["sum"] += float(hist["sum"])
                mine_hist["count"] += int(hist["count"])

    def reset(self) -> None:
        """Drop every recorded value (test hook; keeps the refcount)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


#: The process-wide registry every instrumentation site talks to.
REGISTRY = MetricsRegistry()


def snapshot_delta(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> Dict[str, Any]:
    """What happened between two snapshots of the *same* registry.

    Counters and histogram counts subtract (zero series are dropped).
    The result is what a pool worker ships back so pre-existing process
    state (a forked parent's counts, a reused worker's earlier tasks) is
    never double-counted.
    """
    counters: Dict[str, Dict[str, float]] = {}
    for name, series in after.get("counters", {}).items():
        base = before.get("counters", {}).get(name, {})
        delta = {
            key: value - base.get(key, 0.0)
            for key, value in series.items()
            if value != base.get(key, 0.0)
        }
        if delta:
            counters[name] = delta
    histograms: Dict[str, Any] = {}
    for name, hist in after.get("histograms", {}).items():
        base = before.get("histograms", {}).get(name)
        if base is None:
            if hist["count"]:
                histograms[name] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
            continue
        counts = [c - b for c, b in zip(hist["counts"], base["counts"])]
        count = hist["count"] - base["count"]
        if count:
            histograms[name] = {
                "buckets": list(hist["buckets"]),
                "counts": counts,
                "sum": hist["sum"] - base["sum"],
                "count": count,
            }
    return {"counters": counters, "histograms": histograms}


def prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        lines.append(f"# TYPE {name} counter")
        series = snapshot["counters"][name]
        for key in sorted(series):
            if key:
                labels = ",".join(
                    '{}="{}"'.format(*pair.split("=", 1)) for pair in key.split(",")
                )
                lines.append(f"{name}{{{labels}}} {_num(series[key])}")
            else:
                lines.append(f"{name} {_num(series[key])}")
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for upper, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{_num(upper)}"}} {cumulative}')
        cumulative += hist["counts"][-1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_num(hist['sum'])}")
        lines.append(f"{name}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_summary(snapshot: Mapping[str, Any], indent: str = "") -> str:
    """Human-readable snapshot summary (``repro obs summary``)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(f"{indent}counters:")
        for name in sorted(counters):
            for key in sorted(counters[name]):
                label = f"{{{key}}}" if key else ""
                lines.append(
                    f"{indent}  {name}{label} = {_num(counters[name][key])}"
                )
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append(f"{indent}histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            lines.append(
                f"{indent}  {name}: count={hist['count']} "
                f"sum={hist['sum']:.6g}s mean={mean:.6g}s"
            )
    if not lines:
        lines.append(f"{indent}(no metrics recorded)")
    return "\n".join(lines)


def _num(value: float) -> str:
    """Integers render without a trailing ``.0`` (``12345``, not ``12345.0``)."""
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)
