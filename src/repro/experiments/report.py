"""Rendering experiment results for terminals and EXPERIMENTS.md.

A report is the table, one ``claim:`` line per paper claim with its
verdict (``PASS``/``FAIL``), the notes, and for figures an ASCII plot.
"""

from __future__ import annotations

from typing import Optional

from ..io.tables import _format_cell
from .ascii_plot import ascii_line_plot
from .base import Claim, ExperimentResult
from .figure1 import Figure1Left, Figure1Right

__all__ = ["render_result"]


def render_result(result: ExperimentResult, *, plots: bool = True) -> str:
    """Full text report: table, claims, notes, and (for figures) ASCII plots."""
    parts = [result.table()]
    if result.claims:
        parts.append("")
        parts.extend(_format_claim(claim) for claim in result.claims)
    if result.notes:
        parts.append("")
        parts.extend(f"note: {note}" for note in result.notes)
    if plots:
        plot = _plot_for(result)
        if plot is not None:
            parts.append("")
            parts.append(plot)
    parts.append("")
    parts.append(f"(wall time: {result.wall_seconds:.1f}s)")
    return "\n".join(parts)


def _format_claim(claim: Claim) -> str:
    """One report line: ``claim: PASS <name> = <value> (<bound>)``."""
    verdict = "PASS" if claim.holds else "FAIL"
    value = _format_cell(claim.value, ".4g")
    return f"claim: {verdict} {claim.name} = {value} ({claim.bound})"


def _plot_for(result: ExperimentResult) -> Optional[str]:
    if result.experiment_id == Figure1Left.experiment_id:
        return Figure1Left.plot(result)
    if result.experiment_id == Figure1Right.experiment_id:
        return Figure1Right.plot(result)
    if (
        "k" in result.series
        and "population_parallel_time" in result.series
        and "gossip_rounds" in result.series
    ):
        return ascii_line_plot(
            {
                "population": (
                    result.series["k"],
                    result.series["population_parallel_time"],
                ),
                "gossip": (result.series["k"], result.series["gossip_rounds"]),
            },
            width=72,
            height=12,
            title=result.title,
            x_label="k",
            y_label="parallel time / rounds",
        )
    return None
