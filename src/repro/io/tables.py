"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..errors import SerializationError

__all__ = ["format_table"]


def _format_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    if value is None:
        return "—"
    return str(value)


def _collect_columns(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """Every key of every row, in order of first appearance."""
    if not rows:
        raise SerializationError("cannot format an empty table")
    seen: List[str] = []
    for row in rows:
        for key in row:
            if key not in seen:
                seen.append(key)
    return seen


def format_table(
    rows: Sequence[Dict[str, Any]], *, title: Optional[str] = None
) -> str:
    """Render rows of dicts as an aligned ASCII table (floats to 3 places)."""
    cols = _collect_columns(rows)
    rendered = [[_format_cell(row.get(col), ".3f") for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered))
        for i, col in enumerate(cols)
    ]
    parts = []
    if title:
        parts.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    parts.append(header)
    parts.append("  ".join("-" * w for w in widths))
    for line in rendered:
        parts.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(parts)

