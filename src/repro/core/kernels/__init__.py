"""Pluggable compute-kernel backends for the simulation engines.

*How a step is computed* lives here; *engine classes* own only state,
bookkeeping and the run contract.  An engine builds one frozen
:class:`KernelInputs` from its transition table and delegates its hot
loops to the :class:`~repro.core.kernels.registry.KernelBackend`
resolved from its ``backend`` parameter:

* ``'numpy'`` — the reference kernels, a pure extraction of the
  original engine loops (always available);
* ``'numba'`` — ``@njit``-compiled counts *and* τ-leaping batch
  kernels drawing from the same ``np.random.Generator`` (the batch
  kernel's ``binomial``/``multinomial`` draws come from bit-exact
  ports of NumPy's C samplers in :mod:`.numba_rng`), with the
  vectorised ``multibatch_step`` epoch kernel delegated to numpy;
  optional, falls back to numpy with a one-time warning when the
  package is missing.

Backends are bit-identical by contract — the trajectory of a seeded run
does not depend on the backend, so ``backend`` is a pure throughput
knob (see ``tests/test_kernels.py``).  The compiled backend is accepted
only after a load-time draw-for-draw self-check against the numpy
reference; when a backend serves a kernel through another backend's
implementation (numba's batch kernel degrades to numpy if its own
self-check fails), :attr:`KernelBackend.provenance` records it
(``repro backends`` prints the per-kernel breakdown).  Retired backend
names stay registered as permanently unavailable, so requests naming
them fall back instead of failing.  Future backends (GPU) register
through :func:`register_backend` behind the same seam.
"""

from .inputs import EpochInputs, KernelInputs
from .registry import (
    KERNEL_NAMES,
    KernelBackend,
    available_backends,
    backend_fallback_reason,
    backend_fallbacks,
    default_backend,
    get_backend,
    register_backend,
    registered_backends,
    reset_backend_state,
)

__all__ = [
    "KERNEL_NAMES",
    "EpochInputs",
    "KernelBackend",
    "KernelInputs",
    "available_backends",
    "backend_fallback_reason",
    "backend_fallbacks",
    "default_backend",
    "get_backend",
    "register_backend",
    "registered_backends",
    "reset_backend_state",
]
