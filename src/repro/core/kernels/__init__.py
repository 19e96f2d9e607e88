"""The compute kernels behind the simulation engines.

*How a step is computed* lives here; *engine classes* own only state,
bookkeeping and the run contract.  An engine builds one frozen
:class:`KernelInputs` from its transition table and delegates its hot
loops to the :class:`~repro.core.kernels.registry.KernelBackend` that
:func:`get_backend` resolves from its ``backend`` parameter.  The only
implementation is the numpy kernels of :mod:`.numpy_backend`;
``backend`` stays accepted for compatibility, and the removed
``'numba'`` and ``'cython'`` names warn once and run numpy.
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
