"""Persistence and report formatting."""

from .atomic import atomic_write
from .serialization import load_result_rows, load_trace, save_result_rows, save_trace
from .streaming import StreamedTrace, load_manifest
from .tables import format_table

__all__ = [
    "StreamedTrace",
    "atomic_write",
    "format_table",
    "load_manifest",
    "load_result_rows",
    "load_trace",
    "save_result_rows",
    "save_trace",
]
