"""The kernel backend: the ``backend`` knob resolved onto the numpy kernels.

A :class:`KernelBackend` bundles the three hot-loop kernels the engines
delegate to — ``counts_step`` (exact geometric null-skipping),
``batch_step`` (τ-leaping) and ``multibatch_step`` (exact
collision-free epochs).  There is one implementation, the numpy
kernels of :mod:`.numpy_backend`.

``backend`` is a placement knob that never enters a ``spec_hash``, so
every name a spec document, sweep checkpoint or ``--backend`` flag may
hold still resolves: ``None``, ``'auto'``, ``'default'`` and
``'numpy'`` run numpy, and the removed ``'numba'`` and ``'cython'``
backends run numpy too, after one :class:`RuntimeWarning` per name and
process.  Any other name raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ...errors import SimulationError
from ...obs import metrics as obs_metrics
from . import numpy_backend

__all__ = [
    "KERNEL_NAMES",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "reset_backend_state",
]

#: The kernels a backend provides, in display order.
KERNEL_NAMES = ("counts_step", "batch_step", "multibatch_step")

#: Names that resolve to the numpy kernels silently.
_NUMPY_NAMES = (None, "auto", "default", "numpy")

#: Removed backends: accepted, warned about once, run on numpy.
_RETIRED_NAMES = ("numba", "cython")


@dataclass(frozen=True)
class KernelBackend:
    """One named kernel implementation.

    Attributes
    ----------
    name:
        Backend name (``'numpy'``).
    counts_step:
        ``(inputs, counts, rng, start, target) -> (interactions,
        last_change, absorbed)`` — the exact counts kernel.
    batch_step:
        ``(inputs, counts, rng, num, start, batch, nominal_batch) ->
        (interactions, last_change, absorbed, batch, halvings)`` — the
        τ-leaping kernel.
    multibatch_step:
        ``(epoch_inputs, counts, rng, start, target) -> (interactions,
        last_change, absorbed)`` — the exact collision-free epoch
        kernel, which may return before ``target`` (see
        :func:`~repro.core.kernels.numpy_backend.multibatch_step`).
    """

    name: str
    counts_step: Callable
    batch_step: Callable
    multibatch_step: Callable

    @property
    def provenance_map(self) -> Dict[str, str]:
        """The implementation serving each kernel, in display order."""
        return {kernel: self.name for kernel in KERNEL_NAMES}


_NUMPY = KernelBackend(
    name="numpy",
    counts_step=numpy_backend.counts_step,
    batch_step=numpy_backend.batch_step,
    multibatch_step=numpy_backend.multibatch_step,
)

#: Retired names already warned about, so each warns exactly once.
_WARNED: set = set()


def available_backends() -> Tuple[str, ...]:
    """The backends that can run: ``('numpy',)``."""
    return (_NUMPY.name,)


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a ``backend`` name into the numpy :class:`KernelBackend`.

    A retired name warns once per process and counts every resolution
    in ``backend_fallbacks_total``; an unknown name raises
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
