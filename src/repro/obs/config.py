"""The one observability switchboard: :class:`ObsConfig`.

Carried on :class:`repro.specs.RunSpec` (defaulting to fully off) and
activatable ambiently for a whole process via
:func:`repro.obs.runtime.activated` (the ``--obs``/``--progress`` CLI
flags).  It is *excluded* from ``spec_hash`` and from sweep/ensemble
row payloads: telemetry describes how a run was watched, never what it
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..errors import SpecError

__all__ = ["ObsConfig"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class ObsConfig:
    """What telemetry a run emits.  Everything defaults to off.

    ``metrics`` feeds the process-local registry
    (:data:`repro.obs.metrics.REGISTRY`); ``journal`` writes a JSONL
    event stream (to ``journal_path``, or to ``journal.jsonl`` inside
    the run's persistence directory when one exists); ``progress``
    emits throttled heartbeats, at most one per ``progress_interval``
    seconds.  The same interval throttles the journal's in-run
    progress events, so journal volume stays bounded by wall time, not
    by interaction count.
    """

    metrics: bool = False
    journal: bool = False
    journal_path: Optional[str] = None
    progress: bool = False
    progress_interval: float = 1.0

    def __post_init__(self) -> None:
        # no bool() coercion — a truthy string like "false" must fail
        # loudly, exactly like RunSpec's other boolean knobs
        for name in ("metrics", "journal", "progress"):
            value = getattr(self, name)
            _require(
                isinstance(value, bool),
                f"obs.{name} must be a boolean, got {value!r}",
            )
        if self.journal_path is not None:
            object.__setattr__(self, "journal_path", str(self.journal_path))
        interval = self.progress_interval
        _require(
            isinstance(interval, (int, float)) and not isinstance(interval, bool),
            f"obs.progress_interval must be a number, got {interval!r}",
        )
        object.__setattr__(self, "progress_interval", float(interval))
        _require(
            self.progress_interval >= 0.0,
            f"obs.progress_interval must be >= 0, got {interval!r}",
        )
        if self.journal_path is not None and not self.journal:
            raise SpecError(
                "obs.journal_path names a journal file but obs.journal is "
                "off; it would be silently ignored"
            )

    @property
    def enabled(self) -> bool:
        """Whether *any* telemetry pillar is on."""
        return self.metrics or self.journal or self.progress

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metrics": self.metrics,
            "journal": self.journal,
            "journal_path": self.journal_path,
            "progress": self.progress,
            "progress_interval": self.progress_interval,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ObsConfig":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"obs config must be an object, got {type(payload).__name__}"
            )
        known = (
            "metrics",
            "journal",
            "journal_path",
            "progress",
            "progress_interval",
        )
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise SpecError(
                f"obs config has unknown key(s) {unknown}; known keys: "
                f"{sorted(known)}"
            )
        return cls(
            metrics=payload.get("metrics", False),
            journal=payload.get("journal", False),
            journal_path=payload.get("journal_path"),
            progress=payload.get("progress", False),
            progress_interval=payload.get("progress_interval", 1.0),
        )
