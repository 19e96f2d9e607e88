"""Experiment ``lem31-ceiling``: validate Lemma 3.1's bound on u(t).

Lemma 3.1 proves that for any initial configuration and all
``t ≤ n⁴``, w.h.p.

    u(t) ≤ ũ + (20·132 + 1)·√(n log n),   ũ = n/2 − n/(4k) + 10n/(k−1)².

The proof constant is enormous (2641·√(n log n) exceeds n at the sizes
we simulate), so the *measured* quantity of interest is the normalized
exceedance ``(max_t u(t) − ũ)/√(n log n)``: the lemma says it is below
2641; drift heuristics say it should be O(1).  This experiment runs a
grid of ``(n, k)`` with several seeds from the paper's initial
configuration and reports the worst normalized exceedance per point.

Two closed-form claims check the proof's premises at the same grid:
the exact drift ``E[Δu]`` is at most ``−√(ln n / n)`` on the line
``u = ũ + √(n ln n)`` (evaluated with the decided agents split evenly,
which maximises cancellations and so bounds every configuration on the
line), and the Oliveto–Witt instance the proof feeds it to meets its
conditions and survives ``n⁴`` steps.

The (n, k) grid executes through :mod:`repro.sweep` — one
:class:`~repro.workloads.sweeps.SweepPoint` per cell, per-point seeds
derived from the root seed and the grid index — so it shards,
checkpoints and resumes like every grid in the repo
(``shard``/``resume``/``out`` parameters, ``repro run <id> --shard``
then ``repro run <id> --resume``).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List, Optional

from ..analysis.trajectories import undecided_exceedance
from ..core.configuration import Configuration
from ..core.run import simulate
from ..errors import RegimeError
from ..protocols.usd import UndecidedStateDynamics
from ..rng import derive_seed
from ..theory.drift import expected_undecided_change
from ..theory.hitting_time import lemma31_oliveto_witt_instance
from ..theory.lemmas import (
    LEMMA31_SLACK_MULTIPLIER,
    lemma31_ceiling,
    lemma31_drift_margin,
    u_tilde,
    undecided_plateau,
)
from ..workloads.initial import paper_bias, paper_initial_configuration
from ..workloads.sweeps import SweepPoint
from .base import Claim, ExperimentResult, SweepExperiment

__all__ = ["UndecidedCeilingExperiment"]


def _ceiling_point(
    point: SweepPoint,
    point_seed: int,
    *,
    num_seeds: int,
    engine: str,
    max_parallel_time: float,
) -> Dict[str, Any]:
    """One (n, k) cell of the Lemma 3.1 grid (module-level so it pickles)."""
    n, k = point.n, point.k
    config = paper_initial_configuration(n, k, point.bias)
    protocol = UndecidedStateDynamics(k=k)
    worst = -math.inf
    for index in range(num_seeds):
        result = simulate(
            protocol,
            config,
            engine=engine,
            seed=derive_seed(point_seed, index),
            max_parallel_time=max_parallel_time,
            snapshot_every=max(1, n // 20),
        )
        exceedance = undecided_exceedance(result.trace, k)
        worst = max(worst, exceedance.normalized)
    return {
        "n": n,
        "k": k,
        "point_seed": point_seed,
        "u_tilde": u_tilde(n, k),
        "plateau": undecided_plateau(n, k),
        "max_exceedance_normalized": worst,
        "paper_slack_multiplier": LEMMA31_SLACK_MULTIPLIER,
        "lemma_ceiling": lemma31_ceiling(n, k),
        "within_lemma": worst < LEMMA31_SLACK_MULTIPLIER,
        "within_tight_band": worst < 5.0,
    }


def _drift_on_line(n: int, k: int) -> Optional[float]:
    """Exact ``E[Δu]`` at ``u = ⌈ũ + √(n ln n)⌉``, decided agents split evenly.

    ``None`` when ``ũ + √(n ln n) ≥ n``: no configuration lies above
    the line, so the drift premise holds vacuously.
    """
    line = u_tilde(n, k) + math.sqrt(n * math.log(n))
    if line >= n:
        return None
    undecided = math.ceil(line)
    base, extra = divmod(n - undecided, k)
    counts = [base + 1] * extra + [base] * (k - extra)
    return expected_undecided_change(Configuration(counts, undecided=undecided))


def _oliveto_witt_holds(n: int) -> bool:
    """Whether Lemma 3.1's Oliveto–Witt instance applies and survives n⁴."""
    try:
        bound = lemma31_oliveto_witt_instance(n)
    except RegimeError:
        return False
    return bound.conditions_hold and bound.survives_at_least(float(n) ** 4)


class UndecidedCeilingExperiment(SweepExperiment):
    """Grid validation of the Lemma 3.1 undecided-count ceiling."""

    experiment_id = "lem31-ceiling"
    title = "Lemma 3.1: u(t) never substantially exceeds n/2 − n/(4k)"
    DEFAULTS: Dict[str, Any] = {
        "n_values": (20_000, 50_000),
        "k_values": (8, 16, 32),
        "num_seeds": 5,
        "seed": 7,
        "engine": "auto",
        "max_parallel_time": 1_500.0,
    }

    def grid(self) -> List[SweepPoint]:
        return [
            SweepPoint(
                n=int(n), k=int(k), bias=paper_bias(int(n)), label=f"n={n}, k={k}"
            )
            for n in self.params["n_values"]
            for k in self.params["k_values"]
        ]

    def point_task(self):
        return partial(
            _ceiling_point,
            num_seeds=self.params["num_seeds"],
            engine=self.params["engine"],
            max_parallel_time=self.params["max_parallel_time"],
        )

    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        # u(t) ≤ ũ + (20·132+1)·√(n log n), and in fact O(1)·√(n log n)
        within = sum(row["within_lemma"] for row in rows)
        worst = max(row["max_exceedance_normalized"] for row in rows)
        # Lemma 3.1's premise: E[Δu] ≤ −√(ln n/n) above ũ + √(n ln n)
        drifts = [_drift_on_line(row["n"], row["k"]) for row in rows]
        vacuous = sum(drift is None for drift in drifts)
        drift_held = sum(
            drift is None or drift <= -lemma31_drift_margin(row["n"])
            for row, drift in zip(rows, drifts)
        )
        drift_bound = f"all {len(rows)}"
        if vacuous:
            drift_bound += f" ({vacuous} vacuous: ũ + √(n ln n) ≥ n)"
        grid_n = sorted({row["n"] for row in rows})
        survived = sum(_oliveto_witt_holds(n) for n in grid_n)
        claims = [
            Claim(
                f"grid points under ũ + {LEMMA31_SLACK_MULTIPLIER}·√(n log n)",
                within,
                f"all {len(rows)}",
                within == len(rows),
            ),
            Claim(
                "worst max_t u(t) − ũ over the grid, in √(n log n)",
                worst,
                "< 5",
                worst < 5.0,
            ),
            Claim(
                "grid points with exact E[Δu] ≤ −√(ln n/n) at u = ũ + √(n ln n)",
                drift_held,
                drift_bound,
                drift_held == len(rows),
            ),
            Claim(
                "grid n where the Oliveto–Witt instance meets its conditions "
                "and survives n⁴ steps",
                survived,
                f"all {len(grid_n)}",
                survived == len(grid_n),
            ),
        ]
        return self._result(rows=rows, claims=claims)
