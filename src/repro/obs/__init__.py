"""Observability: metrics, run journals, progress heartbeats.

Three pillars, all hanging off one :class:`ObsConfig` (carried on
``RunSpec``, excluded from ``spec_hash``, because telemetry never
changes the answer):

* :mod:`repro.obs.metrics` — a process-local registry of counters
  and fixed-bucket histograms with ``snapshot()`` /
  ``merge_snapshot()`` semantics (child-process deltas fold into the
  parent through the ``repro.parallel`` result plumbing) and
  Prometheus text exposition.
* :mod:`repro.obs.journal` — an append-only JSONL event stream with
  monotonic-clock spans, written next to persisted run directories and
  readable standalone (:func:`read_journal` tolerates the torn final
  line a SIGKILL leaves behind).
* :mod:`repro.obs.progress` — a throttled stderr/callback heartbeat
  (interactions/s, completion vs. horizon, undecided fraction).

The contract that makes this safe to ship everywhere: **off is free**.
With no active :func:`repro.obs.runtime.activated` scope and
``ObsConfig()`` defaults, the only cost on the engine hot path is one
``observer is None`` check per *chunk* (never per interaction), no RNG
is ever consumed, and trajectories/`spec_hash` are bit-identical to an
uninstrumented build — CI-checked (``tests/test_obs_integration.py``,
``scripts/ci_obs_overhead.py``).
"""

from .config import ObsConfig
from .journal import (
    JOURNAL_NAME,
    RunJournal,
    read_journal,
    summarize_journal,
)
from .metrics import (
    REGISTRY,
    MetricsRegistry,
    prometheus_text,
    snapshot_delta,
)
from .progress import ProgressReporter
from .timing import wall_timer

__all__ = [
    "JOURNAL_NAME",
    "MetricsRegistry",
    "ObsConfig",
    "ProgressReporter",
    "REGISTRY",
    "RunJournal",
    "prometheus_text",
    "read_journal",
    "snapshot_delta",
    "summarize_journal",
    "wall_timer",
]
