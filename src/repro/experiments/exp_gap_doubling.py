"""Experiment ``lem34-gap``: validate Lemma 3.4's gap-doubling bound.

Lemma 3.4: with all supports ≤ 3n/(2k), ``u`` at its ceiling, and every
pairwise difference at most ``α/2`` (for ``α/2 = ω(√(n log n))``,
``α = o(n/k)``), w.h.p. no difference reaches ``α`` within ``k·n/24``
interactions.

Setup: a plateau configuration whose maximum gap is exactly ``α/2``
(opinion 1 half a gap above the common level, opinion k half below).
We measure the first time the maximum pairwise gap reaches ``α``; the
minimum over seeds must exceed ``k·n/24``.  A closed-form claim checks
Lemma 3.2's premise at the same start: the exact step probabilities of
the gap ``x_1 − x_k`` stay within the proof's ``(p, q) = (9/k, 6α/(nk))``.

The k-grid executes through :mod:`repro.sweep`; each point carries its
gap scale ``α`` in ``extras`` (part of the canonical label), and seeds
derive from the root seed and the grid index, so the grid shards,
checkpoints and resumes like every sweep experiment.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List

import numpy as np

from ..core import stopping
from ..core.run import simulate
from ..errors import ExperimentError
from ..protocols.usd import UndecidedStateDynamics
from ..rng import derive_seed
from ..theory.drift import gap_step_probabilities
from ..theory.lemmas import (
    lemma34_alpha_valid,
    lemma34_min_interactions,
    lemma34_walk_parameters,
)
from ..workloads.initial import plateau_gap_configuration
from ..workloads.sweeps import SweepPoint
from .base import Claim, ExperimentResult, SweepExperiment

__all__ = ["GapDoublingExperiment", "choose_alpha"]


def choose_alpha(n: int, k: int) -> int:
    """A gap scale honouring Lemma 3.4's window at finite size.

    ``α = 2.4·√(n ln n)`` (comfortably ω(√(n log n)) at the factor
    level) provided it stays below ``0.8·n/k``; raises when the window
    is empty, which happens once ``k`` approaches ``√n/log n``.
    """
    alpha = int(2.4 * math.sqrt(n * math.log(n)))
    if alpha >= 0.8 * n / k:
        raise ExperimentError(
            f"no admissible α at (n={n}, k={k}): need 2√(n ln n) < α < n/k"
        )
    return alpha


def _walk_premise_holds(n: int, k: int, alpha: int) -> bool:
    """Lemma 3.2's premise for x_1 − x_k at the start: P(move) ≤ p, drift ≤ q."""
    config = plateau_gap_configuration(n, k, gap=alpha // 2)
    p_up, p_down = gap_step_probabilities(config, 1, k)
    walk = lemma34_walk_parameters(n, k, alpha)
    return p_up + p_down <= walk.p and p_up - p_down <= walk.q


def _gap_point(
    point: SweepPoint,
    point_seed: int,
    *,
    num_seeds: int,
    engine: str,
    horizon_multiple: float,
) -> Dict[str, Any]:
    """One k of the Lemma 3.4 grid (module-level so it pickles)."""
    n, k = point.n, point.k
    alpha = int(point.extras["alpha"])
    protocol = UndecidedStateDynamics(k=k)
    config = plateau_gap_configuration(n, k, gap=alpha // 2)
    bound = lemma34_min_interactions(n, k)
    horizon = int(horizon_multiple * bound)
    double_times = []
    censored = 0
    for index in range(num_seeds):
        result = simulate(
            protocol,
            config,
            engine=engine,
            seed=derive_seed(point_seed, index),
            max_interactions=horizon,
            snapshot_every=max(1, n // 10),
            stop=stopping.gap_reached(protocol, alpha),
        )
        final = result.final_configuration()
        if final.max_gap() >= alpha:
            double_times.append(result.interactions)
        else:
            censored += 1
    measured_min = float(min(double_times)) if double_times else float("inf")
    return {
        "n": n,
        "k": k,
        "point_seed": point_seed,
        "alpha": alpha,
        "alpha_window_valid": lemma34_alpha_valid(n, k, alpha),
        "bound_interactions": bound,
        "min_measured": None if not double_times else measured_min,
        "median_measured": None
        if not double_times
        else float(np.median(double_times)),
        "min_over_bound": None if not double_times else measured_min / bound,
        "censored_runs": censored,
        "bound_holds": measured_min >= bound,
    }


class GapDoublingExperiment(SweepExperiment):
    """Measured α/2 → α gap-doubling times versus the k·n/24 bound."""

    experiment_id = "lem34-gap"
    title = "Lemma 3.4: doubling the max gap takes ≥ kn/24 interactions"
    DEFAULTS: Dict[str, Any] = {
        "n": 50_000,
        "k_values": (6, 10, 16),
        "num_seeds": 5,
        "seed": 34,
        "engine": "auto",
        "horizon_multiple": 12.0,  # horizon = multiple × (k n / 24)
    }

    def grid(self) -> List[SweepPoint]:
        n = self.params["n"]
        return [
            SweepPoint(
                n=n,
                k=int(k),
                bias=0,
                label=f"k={k}",
                extras={"alpha": choose_alpha(n, int(k))},
            )
            for k in self.params["k_values"]
        ]

    def point_task(self):
        return partial(
            _gap_point,
            num_seeds=self.params["num_seeds"],
            engine=self.params["engine"],
            horizon_multiple=self.params["horizon_multiple"],
        )

    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        valid = sum(row["alpha_window_valid"] for row in rows)
        held = sum(row["bound_holds"] for row in rows)
        premise = sum(
            _walk_premise_holds(row["n"], row["k"], row["alpha"]) for row in rows
        )
        claims = [
            Claim(
                "k with α inside Lemma 3.4's window",
                valid,
                f"all {len(rows)}",
                valid == len(rows),
            ),
            Claim(
                "k with every α/2 → α gap doubling ≥ kn/24 interactions",
                held,
                f"all {len(rows)}",
                held == len(rows),
            ),
            Claim(
                "k where the gap's exact steps at the start fit Lemma 3.2's "
                "p = 9/k, q = 6α/(nk)",
                premise,
                f"all {len(rows)}",
                premise == len(rows),
            ),
        ]
        return self._result(rows=rows, claims=claims)
