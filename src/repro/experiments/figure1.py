"""Figure 1 reproduction (both panels).

The paper's only figure shows one USD run with n = 10⁶ agents and
``k = √n/(ln n · ln ln n) = 27`` opinions, equal minorities and a
majority bias of ``√(n ln n)``:

* **left panel** — majority count, minority counts (scaled by k for
  visibility), undecided count, and the reference line ``n/2 − n/(4k)``
  over parallel time;
* **right panel** — zoom on the time it takes ``x₁`` to double from its
  initial support, plus the *maximum difference*
  ``max_{j≥2}(x₁ − x_j)``; the doubling consumes most of the
  stabilization time (≈70 of ≈90 parallel time units in the paper's
  run).

Default scale is n = 10⁵ (seconds instead of minutes); the full paper
scale n = 10⁶ runs with ``Figure1Left(n=1_000_000)`` and matches the
paper's shapes — all claims are scale-free in parallel time.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..analysis.trajectories import (
    doubling_time,
    majority_minority_gap_series,
    minority_band,
)
from ..core.recorder import Trace
from ..core.run import RunResult, simulate
from ..errors import ExperimentError
from ..protocols.usd import UndecidedStateDynamics
from ..theory.bounds import paper_k_schedule
from ..theory.lemmas import undecided_plateau
from ..workloads.initial import paper_bias, paper_initial_configuration
from .ascii_plot import ascii_line_plot
from .base import Claim, Experiment, ExperimentResult

__all__ = ["Figure1Left", "Figure1Right", "run_figure1_trace"]

_FIGURE1_DEFAULTS: Dict[str, Any] = {
    "n": 100_000,
    "k": None,  # None → the paper's schedule √n/(ln n · ln ln n)
    "bias": None,  # None → the paper's √(n ln n)
    # A seed on which the designated majority wins, like the paper's
    # displayed run.  At these defaults (n = 10^5, k = 11, bias 1073)
    # the majority won 55 of 60 seeds (0.92) on the exact auto engine,
    # in a 60-seed scan at commit 016e858.
    "seed": 2027,
    "engine": "auto",
    "max_parallel_time": 2_000.0,
    "snapshots_per_parallel_time": 10,
}


def run_figure1_trace(
    n: int,
    k: Optional[int],
    bias: Optional[int],
    seed: Any,
    engine: str,
    max_parallel_time: float,
    snapshots_per_parallel_time: int,
) -> Tuple[Trace, RunResult, int, int]:
    """Execute the Figure 1 run; returns (trace, result, k, bias)."""
    if k is None:
        k = paper_k_schedule(n)
    if bias is None:
        bias = paper_bias(n)
    config = paper_initial_configuration(n, k, bias)
    protocol = UndecidedStateDynamics(k=k)
    snapshot_every = max(1, n // snapshots_per_parallel_time)
    result = simulate(
        protocol,
        config,
        engine=engine,
        seed=seed,
        max_parallel_time=max_parallel_time,
        snapshot_every=snapshot_every,
    )
    return result.trace, result, k, bias


def _pick_highlight_minority(trace: Trace, k: int) -> int:
    """The minority whose peak most exceeds its initial support.

    The paper highlights one minority and notes it can surpass its
    initial count; picking the extremal one makes that observation
    visible deterministically.
    """
    if k < 2:
        raise ExperimentError("Figure 1 needs at least two opinions")
    opinions = trace.opinion_matrix()
    minorities = opinions[:, 1:]
    initial = np.maximum(minorities[0], 1)
    ratio = minorities.max(axis=0) / initial
    return int(np.argmax(ratio)) + 2  # 1-based opinion index


class Figure1Left(Experiment):
    """Figure 1 (left): evolution of all count series over parallel time."""

    experiment_id = "fig1-left"
    title = "Figure 1 (left): USD evolution — majority, minorities ×k, undecided"
    DEFAULTS = dict(_FIGURE1_DEFAULTS)

    def _execute(self) -> ExperimentResult:
        trace, run, k, bias = run_figure1_trace(**self.local_params)
        n = trace.n
        parallel = trace.parallel_times
        undecided = trace.undecided_series()
        majority = trace.opinion_series(1)
        highlight = _pick_highlight_minority(trace, k)
        highlight_series = trace.opinion_series(highlight)
        low, mean, high = minority_band(trace)
        plateau = undecided_plateau(n, k)

        # Shape checks corresponding to the paper's §2 observations.
        # The plateau claim concerns the long middle of the run: after the
        # initial u ramp-up (burn-in) and before the final collapse into
        # consensus, so the window ends at 3/4 of the stabilization time.
        scale = math.sqrt(n * math.log(n))
        stab = run.stabilization_parallel_time
        window_end = 0.75 * stab if stab else parallel[-1]
        burn_in = int(np.searchsorted(parallel, 5.0))
        settle_end = int(np.searchsorted(parallel, window_end))
        band_violation = None  # the settled window is empty
        if burn_in < settle_end:
            # Amir et al.'s band (quoted in §2): after the first n log n
            # interactions, n/2 − x₁/2 ≤ u(t) ≤ n/2.  u drifts downward
            # within the band as the majority grows, so we measure the
            # worst *violation* of the band, normalized by √(n ln n).
            settled_u = undecided[burn_in:settle_end].astype(float)
            settled_x1 = majority[burn_in:settle_end].astype(float)
            above = settled_u - n / 2.0
            below = (n / 2.0 - settled_x1 / 2.0) - settled_u
            band_violation = float(np.maximum(above, below).max() / scale)
        # One-sided Lemma 3.1 direction: u never substantially *exceeds* the
        # plateau at any time, including ramp-up and collapse.
        peak_exceedance = float((undecided.max() - plateau) / scale)
        # The paper notes minorities can *increase* for long stretches once
        # u settles; compare against the post-ramp-up level (the initial
        # count drops sharply while u grows, so t=0 is the wrong baseline).
        minorities = trace.opinion_matrix()[:, 1:]
        if burn_in < len(parallel):
            baseline = minorities[burn_in]
            peaks = minorities[burn_in:].max(axis=0)
            minority_rose = bool(np.any(peaks > baseline))
        else:  # pragma: no cover - degenerate horizon
            minority_rose = False
        exceeds_initial = bool(np.any(minorities.max(axis=0) > minorities[0]))

        rows = [
            {
                "n": n,
                "k": k,
                "bias": bias,
                "stabilized": run.stabilized,
                "winner": run.winner,
                "stab_parallel_time": stab,
                "plateau_predicted": plateau,
                "amir_band_violation_in_sqrt_nlogn": band_violation,
                "peak_exceedance_in_sqrt_nlogn": peak_exceedance,
                "minorities_rise_after_rampup": minority_rose,
                "minority_exceeds_initial": exceeds_initial,
            }
        ]
        series = {
            "parallel_time": parallel,
            "undecided": undecided.astype(float),
            "majority": majority.astype(float),
            "highlight_minority_scaled": highlight_series.astype(float) * k,
            "minority_mean_scaled": mean * k,
            "minority_min_scaled": low.astype(float) * k,
            "minority_max_scaled": high.astype(float) * k,
            "plateau_reference": np.full(parallel.shape, plateau),
        }
        claims = [
            Claim(
                "winner of the stabilized run",
                run.winner if run.stabilized else None,
                "= 1, the majority",
                run.stabilized and run.winner == 1,
            ),
            # Lemma 3.1: O(1) in these units
            Claim(
                "max_t u(t) above n/2 − n/(4k), in √(n ln n)",
                peak_exceedance,
                "< 5",
                peak_exceedance < 5.0,
            ),
            # paper §2: u stays in this band over the settled window
            Claim(
                "worst violation of Amir et al.'s band [n/2 − x₁/2, n/2], in √(n ln n)",
                band_violation,
                "< 5",
                band_violation is not None and band_violation < 5.0,
            ),
            # paper: many minorities increase over long periods
            Claim(
                "some minority rises after the ramp-up",
                minority_rose,
                "yes",
                minority_rose,
            ),
        ]
        return self._result(rows=rows, series=series, claims=claims)

    @staticmethod
    def plot(result: ExperimentResult) -> str:
        """ASCII rendering of the left panel, 72 × 18 characters."""
        t = result.series["parallel_time"]
        return ascii_line_plot(
            {
                "undecided": (t, result.series["undecided"]),
                "majority": (t, result.series["majority"]),
                "minority×k": (t, result.series["highlight_minority_scaled"]),
                "n/2−n/4k": (t, result.series["plateau_reference"]),
            },
            width=72,
            height=18,
            title=result.title,
            x_label="parallel time",
            y_label="agents",
        )


class Figure1Right(Experiment):
    """Figure 1 (right): majority doubling time and the maximum difference."""

    experiment_id = "fig1-right"
    title = "Figure 1 (right): x₁ doubling window and max difference"
    DEFAULTS = dict(_FIGURE1_DEFAULTS)

    def _execute(self) -> ExperimentResult:
        trace, run, k, bias = run_figure1_trace(**self.local_params)
        n = trace.n
        parallel = trace.parallel_times
        majority = trace.opinion_series(1)
        gap = majority_minority_gap_series(trace)
        double_at = doubling_time(trace, opinion=1)
        stab = run.stabilization_parallel_time
        fraction = double_at / stab if double_at is not None and stab else None
        highlight = _pick_highlight_minority(trace, k)

        rows = [
            {
                "n": n,
                "k": k,
                "bias": bias,
                "doubling_parallel_time": double_at,
                "stab_parallel_time": stab,
                "doubling_fraction_of_stab": fraction,
                "initial_majority": int(majority[0]),
                "max_difference_final": int(gap[-1]),
            }
        ]
        series = {
            "parallel_time": parallel,
            "majority": majority.astype(float),
            "minority": trace.opinion_series(highlight).astype(float),
            "max_difference": gap.astype(float),
        }
        # the paper's run doubles at ≈70 of ≈90 (78 %); a generous band
        claims = [
            Claim(
                "x₁ doubling time / stabilization time",
                fraction,
                "> 0.4",
                fraction is not None and fraction > 0.4,
            )
        ]
        return self._result(rows=rows, series=series, claims=claims)

    @staticmethod
    def plot(result: ExperimentResult) -> str:
        """ASCII rendering of the right panel (zoomed to the doubling window)."""
        t = result.series["parallel_time"]
        double_at = result.rows[0]["doubling_parallel_time"]
        cutoff = len(t)
        if double_at is not None:
            cutoff = int(np.searchsorted(t, double_at * 1.3)) + 1
        return ascii_line_plot(
            {
                "majority": (t[:cutoff], result.series["majority"][:cutoff]),
                "minority": (t[:cutoff], result.series["minority"][:cutoff]),
                "max diff": (t[:cutoff], result.series["max_difference"][:cutoff]),
            },
            width=72,
            height=18,
            title=result.title,
            x_label="parallel time",
            y_label="agents",
        )
