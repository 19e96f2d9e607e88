"""Backend registry: named, pluggable compute kernels.

A :class:`KernelBackend` bundles the three hot-loop kernels the engines
delegate to — ``counts_step`` (exact geometric null-skipping),
``batch_step`` (τ-leaping) and ``multibatch_step`` (exact
collision-free epochs) — under a name.  :func:`get_backend`
resolves a requested name (or ``None``/``'auto'`` for the default)
into a backend, falling back to the NumPy reference with a one-time
warning when an optional backend cannot deliver; simulation therefore
*never* fails because an accelerator is missing.

All backends are bit-identical by contract: they consume the engine's
random stream in the same order and apply the same integer updates, so
``backend`` is a pure throughput knob — exactly like ``workers`` and
``shard`` one layer up.  The ladder is numpy → numba; new backends
(GPU) plug in behind the same seam via :func:`register_backend`.

A retired backend stays registered with a loader that always reports
it unavailable: ``'cython'`` (removed in favour of numba, which
compiles both kernels) therefore still resolves — to the default,
with the usual one-time warning — wherever a spec document, sweep
checkpoint or ``--backend`` flag names it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ...errors import SimulationError
from ...obs import metrics as obs_metrics
from . import numba_backend, numpy_backend

__all__ = [
    "KERNEL_NAMES",
    "KernelBackend",
    "available_backends",
    "backend_fallback_reason",
    "backend_fallbacks",
    "default_backend",
    "get_backend",
    "register_backend",
    "registered_backends",
    "reset_backend_state",
]

#: Names accepted as "use the default backend".
_DEFAULT_ALIASES = (None, "auto", "default")


#: The kernels every backend must provide, in display order.
KERNEL_NAMES = ("counts_step", "batch_step", "multibatch_step")


@dataclass(frozen=True)
class KernelBackend:
    """One named kernel implementation.

    Attributes
    ----------
    name:
        Registry name (``'numpy'``, ``'numba'``, ...).
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
    description:
        One line for ``repro backends``.
    compiled:
        Whether the backend runs machine-compiled kernels.
    provenance:
        ``(kernel, served_by)`` pairs recording which implementation
        *actually* serves each kernel — ``served_by`` is the backend's
        own name for a native kernel, or e.g. ``'numpy (delegated:
        <reason>)'`` when this backend hands a kernel to another one.
        Kernels not listed are served natively.  Delegation is
        therefore never silent: ``repro backends`` and ``repr()`` both
        surface it.
    """

    name: str
    counts_step: Callable
    batch_step: Callable
    multibatch_step: Callable
    description: str = ""
    compiled: bool = False
    provenance: Tuple[Tuple[str, str], ...] = ()

    def kernel_provenance(self, kernel: str) -> str:
        """Which implementation serves ``kernel`` (the backend's own
        name unless the kernel is delegated)."""
        for kernel_name, served_by in self.provenance:
            if kernel_name == kernel:
                return served_by
        return self.name

    @property
    def provenance_map(self) -> Dict[str, str]:
        """Per-kernel provenance for every kernel, display order."""
        return {kernel: self.kernel_provenance(kernel) for kernel in KERNEL_NAMES}

    def __repr__(self) -> str:
        served = ", ".join(
            f"{kernel}: {served_by}"
            for kernel, served_by in self.provenance_map.items()
        )
        return (
            f"KernelBackend(name={self.name!r}, {served}, "
            f"compiled={self.compiled})"
        )


#: Loader registry: name -> zero-argument callable returning
#: ``(KernelBackend, None)`` or ``(None, unavailability_reason)``.
_LOADERS: Dict[str, Callable[[], Tuple[Optional[KernelBackend], Optional[str]]]] = {}

#: Resolved backends / failure reasons, cached after first load.
_RESOLVED: Dict[str, Optional[KernelBackend]] = {}
_REASONS: Dict[str, str] = {}

#: Backend names already warned about, so fallback warns exactly once.
_WARNED: set = set()

#: How many times each unavailable backend fell back to the default —
#: the warning fires once and vanishes, this count survives for
#: ``repro backends`` / the ``backend_fallbacks_total`` metric.
_FALLBACKS: Dict[str, int] = {}


def register_backend(
    name: str,
    loader: Callable[[], Tuple[Optional[KernelBackend], Optional[str]]],
) -> None:
    """Register a backend loader under ``name`` (last write wins)."""
    _LOADERS[name] = loader
    _RESOLVED.pop(name, None)
    _REASONS.pop(name, None)
    _WARNED.discard(name)
    _FALLBACKS.pop(name, None)


def _load_numpy() -> Tuple[KernelBackend, None]:
    return (
        KernelBackend(
            name="numpy",
            counts_step=numpy_backend.counts_step,
            batch_step=numpy_backend.batch_step,
            multibatch_step=numpy_backend.multibatch_step,
            description="pure-NumPy reference kernels (always available)",
        ),
        None,
    )


def _load_numba() -> Tuple[Optional[KernelBackend], Optional[str]]:
    kernels, reason = numba_backend.load()
    if kernels is None:
        return None, reason
    return (
        KernelBackend(
            name="numba",
            counts_step=kernels["counts_step"],
            batch_step=kernels["batch_step"],
            multibatch_step=kernels["multibatch_step"],
            description=(
                "Numba-JIT counts + batched-RNG τ-leaping kernels, "
                "bit-identical to numpy (self-checked at load)"
            ),
            compiled=True,
            provenance=tuple(sorted(kernels["provenance"].items())),
        ),
        None,
    )


def _load_cython() -> Tuple[None, str]:
    """Retired name: always unavailable (see the module docstring)."""
    return None, "the Cython backend was removed; install numba for compiled kernels"


register_backend("numpy", _load_numpy)
register_backend("numba", _load_numba)
register_backend("cython", _load_cython)


def _resolve(name: str) -> Optional[KernelBackend]:
    """Load-and-cache the backend ``name``; ``None`` when unavailable."""
    if name not in _RESOLVED:
        backend, reason = _LOADERS[name]()
        _RESOLVED[name] = backend
        if backend is None:
            _REASONS[name] = reason or "backend failed to load"
    return _RESOLVED[name]


def registered_backends() -> Tuple[str, ...]:
    """All registered backend names, available or not."""
    return tuple(_LOADERS)


def available_backends() -> Tuple[str, ...]:
    """The registered backends that can actually run on this machine."""
    return tuple(name for name in _LOADERS if _resolve(name) is not None)


def backend_fallback_reason(name: str) -> Optional[str]:
    """Why ``name`` is unavailable, or ``None`` when it is usable."""
    if name not in _LOADERS:
        return f"backend {name!r} is not registered"
    if _resolve(name) is None:
        return _REASONS[name]
    return None


def default_backend() -> str:
    """The backend used when none is requested.

    The Numba JIT backend when it is importable *and* passes its
    load-time bit-identity self-check; else the NumPy reference.
    Backends are bit-identical by contract (numba is additionally
    self-checked draw-for-draw at load), so preferring it changes
    throughput only — results are byte-equal whatever optional
    dependencies are installed.  The resolved choice is recorded per
    run in ``RunResult.metadata['backend']`` and the persistence
    manifest's ``run_info``.
    """
    return "numba" if _resolve("numba") is not None else "numpy"


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend name into a :class:`KernelBackend`.

    ``None`` / ``'auto'`` / ``'default'`` resolve to
    :func:`default_backend`.  A registered-but-unavailable backend falls
    back to the default with a one-time :class:`RuntimeWarning`; an
    unregistered name raises :class:`~repro.errors.SimulationError`.
    """
    if name in _DEFAULT_ALIASES:
        name = default_backend()
    if name not in _LOADERS:
        raise SimulationError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{sorted(_LOADERS)} (or 'auto')"
        )
    backend = _resolve(name)
    if backend is not None:
        return backend
    # every fallback resolution counts (the warning below fires once):
    # "how often did this process silently run on numpy?" is exactly
    # the question `repro backends` must answer after the fact
    _FALLBACKS[name] = _FALLBACKS.get(name, 0) + 1
    obs_metrics.REGISTRY.inc("backend_fallbacks_total", backend=name)
    if name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"kernel backend {name!r} is unavailable ({_REASONS[name]}); "
            f"falling back to the {default_backend()!r} backend — results "
            "are bit-identical, only throughput differs",
            RuntimeWarning,
            stacklevel=2,
        )
    return _resolve(default_backend())


def backend_fallbacks() -> Dict[str, int]:
    """Fallback resolutions per unavailable backend, this process."""
    return dict(_FALLBACKS)


def reset_backend_state() -> None:
    """Forget cached resolutions and one-time warnings (test hook)."""
    _RESOLVED.clear()
    _REASONS.clear()
    _WARNED.clear()
    _FALLBACKS.clear()
