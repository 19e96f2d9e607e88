"""The compute kernels behind the simulation engines.

*How a step is computed* lives here; *engine classes* own only state,
bookkeeping and the run contract.  An engine builds one frozen
:class:`KernelInputs` (or :class:`EpochInputs`) from its transition
table and calls the numpy kernels of :mod:`.numpy_backend` directly.
:mod:`.registry` checks the ``backend`` spec-document key once per run
(:func:`get_backend`): every accepted name is these kernels, and the
removed ``'numba'`` and ``'cython'`` names warn once.
"""

from .inputs import EpochInputs, KernelInputs
from .registry import (
    KERNEL_NAMES,
    KernelBackend,
    available_backends,
    get_backend,
    reset_backend_state,
)

__all__ = [
    "KERNEL_NAMES",
    "EpochInputs",
    "KernelBackend",
    "KernelInputs",
    "available_backends",
    "get_backend",
    "reset_backend_state",
]
