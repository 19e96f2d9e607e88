"""The ``backend`` document key, checked against the one kernel implementation.

The engines call the numpy kernels of :mod:`.numpy_backend` directly;
nothing selects a kernel by name.  ``backend`` survives only as a
schema-v1 spec-document key (a run's ``backend``, an experiment's
``backend`` parameter) that never enters a ``spec_hash``, so every name
an old document or sweep checkpoint may hold is checked once per run by
:func:`get_backend`: ``None``, ``'auto'``, ``'default'`` and ``'numpy'``
pass silently, the removed ``'numba'`` and ``'cython'`` pass after one
:class:`RuntimeWarning` per name and process, and any other name raises
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...errors import SimulationError
from ...obs import metrics as obs_metrics

__all__ = [
    "KERNEL_NAMES",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "reset_backend_state",
]

#: The kernels of :mod:`.numpy_backend`, in display order.
KERNEL_NAMES = ("counts_step", "batch_step", "multibatch_step")

#: Names that pass silently.
_NUMPY_NAMES = (None, "auto", "default", "numpy")

#: Removed backends: accepted, warned about once.
_RETIRED_NAMES = ("numba", "cython")


@dataclass(frozen=True)
class KernelBackend:
    """The kernel implementation a ``backend`` name stands for: ``'numpy'``."""

    name: str

    @property
    def provenance_map(self) -> Dict[str, str]:
        """The implementation serving each kernel, in display order."""
        return {kernel: self.name for kernel in KERNEL_NAMES}


_NUMPY = KernelBackend(name="numpy")

#: Retired names already warned about, so each warns exactly once.
_WARNED: set = set()


def available_backends() -> Tuple[str, ...]:
    """The backends that can run: ``('numpy',)``."""
    return (_NUMPY.name,)


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Check a ``backend`` name; every accepted one is the numpy kernels.

    A retired name warns once per process and counts every check in
    ``backend_fallbacks_total``; an unknown name raises
    :class:`~repro.errors.SimulationError`.
    """
    if name in _NUMPY_NAMES:
        return _NUMPY
    if name not in _RETIRED_NAMES:
        raise SimulationError(
            f"unknown kernel backend {name!r}; the only backend is 'numpy'"
        )
    obs_metrics.REGISTRY.inc("backend_fallbacks_total", backend=name)
    if name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"kernel backend {name!r} was removed; running the numpy "
            "kernels — seeded results are the same, only throughput differs",
            RuntimeWarning,
            stacklevel=2,
        )
    return _NUMPY


def reset_backend_state() -> None:
    """Forget the one-time warnings (test hook)."""
    _WARNED.clear()
