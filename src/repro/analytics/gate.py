"""Optional-dependency gating for the analytics subsystem.

``pyarrow`` is gated by a loader that resolves once per process into
either the module or a recorded unavailability *reason*, so every
caller — CLI, dataset export, tests — reports the same message instead
of a raw ``ImportError`` from some arbitrary depth.  The
always-available ``npz`` fragment codec is the reference
implementation the columnar formats must agree with, so nothing in the
query layer *requires* pyarrow to exist.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..errors import AnalyticsError

__all__ = [
    "load_pyarrow",
    "pyarrow_available",
    "pyarrow_unavailable_reason",
    "require_pyarrow",
]

#: ``(module, None)`` or ``(None, reason)`` once resolved; ``None`` before.
_RESOLVED: Optional[Tuple[Optional[Any], Optional[str]]] = None


def load_pyarrow() -> Tuple[Optional[Any], Optional[str]]:
    """Resolve ``pyarrow`` once: ``(module, None)`` or ``(None, reason)``.

    Both the core module and the ``parquet`` component must import —
    a pyarrow built without parquet support counts as unavailable,
    because ``--format parquet`` could not deliver on it.
    """
    global _RESOLVED
    if _RESOLVED is None:
        try:
            import pyarrow
            import pyarrow.parquet  # noqa: F401 — parquet is part of the deal

            _RESOLVED = (pyarrow, None)
        except Exception as exc:  # noqa: BLE001 — any import failure gates
            _RESOLVED = (
                None,
                f"pyarrow is not importable ({type(exc).__name__}: {exc}); "
                "install it with 'pip install pyarrow' to enable the "
                "arrow/parquet columnar formats",
            )
    return _RESOLVED


def pyarrow_available() -> bool:
    """Whether the arrow/parquet columnar formats can run here."""
    return load_pyarrow()[0] is not None


def pyarrow_unavailable_reason() -> Optional[str]:
    """Why pyarrow is unavailable, or ``None`` when it is usable."""
    return load_pyarrow()[1]


def require_pyarrow(feature: str) -> Any:
    """The ``pyarrow`` module, or an :class:`AnalyticsError` naming
    ``feature`` and the recorded unavailability reason."""
    module, reason = load_pyarrow()
    if module is None:
        raise AnalyticsError(f"{feature} requires pyarrow: {reason}")
    return module
