"""Deprecated: the worker-thread recorder is gone.

Recording is synchronous everywhere; spill-to-disk persistence happens
on the simulation thread inside
:class:`~repro.core.persistent_recorder.PersistentTrajectoryRecorder`.
:class:`AsyncTrajectoryRecorder` remains only so code that imports this
module keeps importing: it *is* a :class:`TrajectoryRecorder`.  It is a
subclass rather than an alias so that wrapping its ``record`` never
wraps :meth:`TrajectoryRecorder.record` a second time.  Use
:class:`TrajectoryRecorder` instead.
"""

from __future__ import annotations

from .recorder import TrajectoryRecorder

__all__ = ["AsyncTrajectoryRecorder"]


class AsyncTrajectoryRecorder(TrajectoryRecorder):
    """Deprecated synonym of :class:`TrajectoryRecorder` (synchronous)."""
