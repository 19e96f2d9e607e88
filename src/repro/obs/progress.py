"""Progress heartbeats: throttled stderr reporting.

A :class:`ProgressReporter` is fed at chunk boundaries by the engine
observer (:mod:`repro.obs.runtime`) and emits at most one heartbeat
per ``interval`` seconds — interactions done vs. the horizon, the
recent interactions/s rate, an ETA extrapolated from it, and the
undecided fraction when the protocol exposes one.  Lines go to stderr
(stdout stays parseable); :meth:`ProgressReporter.maybe_report` also
returns each heartbeat, which the observer mirrors into the journal.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Rate-limited progress heartbeats for one run."""

    def __init__(self, *, interval: float = 1.0, label: str = "") -> None:
        self._interval = max(0.0, float(interval))
        self._label = label
        self._started = time.monotonic()
        self._last_emit: Optional[float] = None
        self._last_interactions = 0
        self._last_time = self._started
        self.emitted = 0

    def maybe_report(
        self,
        *,
        interactions: int,
        horizon: Optional[int],
        undecided_fraction: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """Emit a heartbeat if the throttle interval has elapsed.

        Returns the heartbeat payload when one was emitted (the
        observer mirrors it into the journal), else ``None``.
        """
        now = time.monotonic()
        if self._last_emit is not None and now - self._last_emit < self._interval:
            return None
        window = max(now - self._last_time, 1e-9)
        rate = (interactions - self._last_interactions) / window
        payload: Dict[str, Any] = {
            "label": self._label,
            "interactions": int(interactions),
            "elapsed_seconds": round(now - self._started, 3),
            "rate_per_second": round(rate, 3),
        }
        if horizon:
            payload["horizon"] = int(horizon)
            payload["fraction_done"] = round(interactions / horizon, 6)
            if rate > 0:
                payload["eta_seconds"] = round(
                    max(0.0, (horizon - interactions) / rate), 3
                )
        if undecided_fraction is not None:
            payload["undecided_fraction"] = round(float(undecided_fraction), 6)
        self._last_emit = now
        self._last_interactions = int(interactions)
        self._last_time = now
        self.emitted += 1
        self._deliver(payload)
        return payload

    def _deliver(self, payload: Dict[str, Any]) -> None:
        parts = [f"[obs] {payload['label']}" if payload["label"] else "[obs]"]
        done = payload["interactions"]
        if "horizon" in payload:
            parts.append(
                f"{done:,}/{payload['horizon']:,} ({payload['fraction_done']:.1%})"
            )
        else:
            parts.append(f"{done:,} interactions")
        parts.append(f"{payload['rate_per_second']:,.0f}/s")
        if "eta_seconds" in payload:
            parts.append(f"eta {payload['eta_seconds']:.0f}s")
        if "undecided_fraction" in payload:
            parts.append(f"undecided {payload['undecided_fraction']:.3f}")
        print("  ".join(parts), file=sys.stderr)
