"""Experiment ``lem33-growth``: validate Lemma 3.3's opinion-growth bound.

Lemma 3.3: if opinion ``i`` has support ≤ 3n/(2k) at some time (with
``u`` below its Lemma 3.1 ceiling), then w.h.p. it needs at least
``k·n/25`` further interactions to reach ``2n/k``.

Setup: start from a *plateau configuration* — ``u`` already at
``n/2 − n/(4k)``, opinion 1 at exactly ``3n/(2k)`` (the worst case the
lemma permits), the rest equal — and measure the first time opinion 1's
support reaches ``⌈2n/k⌉``, over several seeds.  The measured minimum
must exceed ``k·n/25``; runs that never reach the target within the
horizon only reinforce the bound and are reported as censored.  A
closed-form claim checks Lemma 3.2's premise at the same start: the
exact step probabilities of ``x_1`` stay within the proof's
``(p, q) = (5/k, 6.25/k²)``.

The k-grid executes through :mod:`repro.sweep` (one
:class:`~repro.workloads.sweeps.SweepPoint` per k, seeds derived from
the root seed and the grid index), so it shards, checkpoints and
resumes like every grid in the repo.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List

import numpy as np

from ..core import stopping
from ..core.run import simulate
from ..protocols.usd import UndecidedStateDynamics
from ..rng import derive_seed
from ..theory.drift import opinion_step_probabilities
from ..theory.lemmas import (
    lemma33_min_interactions,
    lemma33_thresholds,
    lemma33_walk_parameters,
)
from ..workloads.initial import plateau_configuration
from ..workloads.sweeps import SweepPoint
from .base import Claim, ExperimentResult, SweepExperiment

__all__ = ["OpinionGrowthExperiment"]


def _growth_point(
    point: SweepPoint,
    point_seed: int,
    *,
    num_seeds: int,
    engine: str,
    horizon_multiple: float,
) -> Dict[str, Any]:
    """One k of the Lemma 3.3 grid (module-level so it pickles)."""
    n, k = point.n, point.k
    protocol = UndecidedStateDynamics(k=k)
    start_support, target_support = lemma33_thresholds(n, k)
    config = plateau_configuration(
        n, k, target_opinion_support=int(round(start_support))
    )
    bound = lemma33_min_interactions(n, k)
    horizon = int(horizon_multiple * bound)
    target = int(math.ceil(target_support))
    reach_times = []
    censored = 0
    for index in range(num_seeds):
        result = simulate(
            protocol,
            config,
            engine=engine,
            seed=derive_seed(point_seed, index),
            max_interactions=horizon,
            snapshot_every=max(1, n // 10),
            stop=stopping.opinion_reached(protocol, 1, target),
        )
        if int(result.final_counts[1]) >= target:
            reach_times.append(result.interactions)
        else:
            censored += 1
    measured_min = float(min(reach_times)) if reach_times else float("inf")
    return {
        "n": n,
        "k": k,
        "point_seed": point_seed,
        "start_support": int(round(start_support)),
        "target_support": target,
        "bound_interactions": bound,
        "min_measured": None if not reach_times else measured_min,
        "median_measured": None
        if not reach_times
        else float(np.median(reach_times)),
        "min_over_bound": None if not reach_times else measured_min / bound,
        "censored_runs": censored,
        "bound_holds": measured_min >= bound,
    }


def _walk_premise_holds(n: int, k: int, start_support: int) -> bool:
    """Lemma 3.2's premise for x_1 at the start: P(move) ≤ p, drift ≤ q."""
    config = plateau_configuration(n, k, target_opinion_support=start_support)
    p_up, p_down = opinion_step_probabilities(config, 1)
    walk = lemma33_walk_parameters(n, k)
    return p_up + p_down <= walk.p and p_up - p_down <= walk.q


class OpinionGrowthExperiment(SweepExperiment):
    """Measured 3n/2k → 2n/k growth times versus the k·n/25 bound."""

    experiment_id = "lem33-growth"
    title = "Lemma 3.3: growing 3n/2k → 2n/k takes ≥ kn/25 interactions"
    DEFAULTS: Dict[str, Any] = {
        "n": 50_000,
        "k_values": (8, 16, 32),
        "num_seeds": 5,
        "seed": 33,
        "engine": "auto",
        "horizon_multiple": 12.0,  # horizon = multiple × (k n / 25)
    }

    def grid(self) -> List[SweepPoint]:
        n = self.params["n"]
        return [
            SweepPoint(n=n, k=int(k), bias=0, label=f"k={k}")
            for k in self.params["k_values"]
        ]

    def point_task(self):
        return partial(
            _growth_point,
            num_seeds=self.params["num_seeds"],
            engine=self.params["engine"],
            horizon_multiple=self.params["horizon_multiple"],
        )

    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        # a censored run never reached 2n/k, so it cannot break the bound
        held = sum(row["bound_holds"] for row in rows)
        premise = sum(
            _walk_premise_holds(row["n"], row["k"], row["start_support"])
            for row in rows
        )
        claims = [
            Claim(
                "k with every 3n/2k → 2n/k growth ≥ kn/25 interactions",
                held,
                f"all {len(rows)}",
                held == len(rows),
            ),
            Claim(
                "k where x₁'s exact steps at the start fit Lemma 3.2's "
                "p = 5/k, q = 6.25/k²",
                premise,
                f"all {len(rows)}",
                premise == len(rows),
            ),
        ]
        return self._result(rows=rows, claims=claims)
