"""Experiment ``usd2-logn``: the k = 2 baseline law (Clementi et al.).

§1.2 of the paper recalls that for k = 2 the unconditional USD
stabilizes in O(log n) parallel time w.h.p. and in expectation
(Clementi et al., MFCS'18) — the starting point the k-opinion lower
bound generalises away from.  This experiment sweeps n with k = 2 and
bias √(n ln n), fits T ≈ c·ln n, and also verifies the trivial Ω(log n)
coupon-collector lower bound the paper invokes for small k.

The n-grid executes through :mod:`repro.sweep` (one
:class:`~repro.workloads.sweeps.SweepPoint` per n, seed derived from
the root seed and the grid index), so it shards and resumes like every
sweep experiment.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List

import numpy as np

from ..analysis.stabilization import usd_stabilization_ensemble
from ..analysis.stats import fit_proportional
from ..theory.bounds import trivial_lower_bound_parallel_time
from ..workloads.initial import paper_bias, paper_initial_configuration
from ..workloads.sweeps import SweepPoint
from .base import Claim, ExperimentResult, SweepExperiment

__all__ = ["BinaryLogNExperiment"]


def _logn_point(
    point: SweepPoint,
    point_seed: int,
    *,
    num_seeds: int,
    engine: str,
    max_parallel_time: float,
) -> Dict[str, Any]:
    """One n of the k = 2 grid (module-level so it pickles)."""
    config = paper_initial_configuration(point.n, 2)
    ensemble = usd_stabilization_ensemble(
        config,
        num_seeds=num_seeds,
        seed=point_seed,
        engine=engine,
        max_parallel_time=max_parallel_time,
        workers=0,
    )
    summary = ensemble.summary()
    return {
        "n": point.n,
        "ln_n": math.log(point.n),
        "point_seed": point_seed,
        "median_parallel_time": summary.median,
        "min_parallel_time": summary.minimum,
        "trivial_lb_ln_n": trivial_lower_bound_parallel_time(point.n),
        "majority_won": ensemble.majority_win_fraction,
        "censored_runs": ensemble.censored,
    }


class BinaryLogNExperiment(SweepExperiment):
    """k = 2 stabilization times across n, against the Θ(log n) law."""

    experiment_id = "usd2-logn"
    title = "k = 2 USD stabilizes in Θ(log n) parallel time"
    DEFAULTS: Dict[str, Any] = {
        "n_values": (5_000, 10_000, 20_000, 50_000, 100_000),
        "num_seeds": 5,
        "seed": 17,
        "engine": "auto",
        "max_parallel_time": 2_000.0,
    }

    def grid(self) -> List[SweepPoint]:
        return [
            SweepPoint(n=int(n), k=2, bias=paper_bias(int(n)), label=f"n={n}")
            for n in self.params["n_values"]
        ]

    def point_task(self):
        return partial(
            _logn_point,
            num_seeds=self.params["num_seeds"],
            engine=self.params["engine"],
            max_parallel_time=self.params["max_parallel_time"],
        )

    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        log_ns = [row["ln_n"] for row in rows]
        medians = [row["median_parallel_time"] for row in rows]
        fit = fit_proportional(log_ns, medians)
        for row, log_n in zip(rows, log_ns):
            row["fit_c_ln_n"] = fit.slope * log_n
        everywhere = f"all {len(rows)}"
        censored = sum(row["censored_runs"] for row in rows)
        won = sum(row["majority_won"] == 1.0 for row in rows)
        # Θ(log n): T/ln n stays within a narrow constant band
        in_band = sum(
            0.5 < row["median_parallel_time"] / row["ln_n"] < 4.0 for row in rows
        )
        # the trivial coupon-collector Ω(log n), with a generous constant
        trivial = sum(
            row["min_parallel_time"] > row["trivial_lb_ln_n"] / 4.0 for row in rows
        )
        claims = [
            Claim("censored runs", censored, "= 0", censored == 0),
            Claim(
                "n where the majority won every run",
                won,
                everywhere,
                won == len(rows),
            ),
            Claim(
                "n with 0.5 < median T / ln n < 4",
                in_band,
                everywhere,
                in_band == len(rows),
            ),
            Claim("n with min T > ln n / 4", trivial, everywhere, trivial == len(rows)),
        ]
        notes = [
            f"T ≈ c·ln n with c = {fit.slope:.2f}, R² = {fit.r_squared:.4f} "
            "(Clementi et al.: Θ(log n) for k = 2)",
        ]
        series = {
            "ln_n": np.asarray(log_ns),
            "median_parallel_time": np.asarray(medians),
            "fit": fit.slope * np.asarray(log_ns),
        }
        return self._result(rows=rows, series=series, claims=claims, notes=notes)
