"""Experiment ``thm35-scaling``: the stabilization-time scaling in k.

Theorem 3.5 plus Amir et al. sandwich USD's parallel stabilization time
between ``Ω(k·log(√n/(k log n)))`` and ``O(k·log n)``.  This experiment
sweeps ``k`` at fixed ``n`` with the paper's initial configuration,
measures median stabilization times over seed ensembles, fits the
candidate laws and claims:

* every grid point lies inside the theorem's regime k = o(√n/log n):
  ``regime_ratio(n, k) ≤ 0.5`` (the default n = 10⁶ puts k = 32 at
  0.44; n = 5·10⁴ would put it at 1.55);
* no run is censored, and the measured times respect the explicit
  finite-n lower bound (constant 1/25 included);
* ``T/(k·log n)`` does not grow in ``k`` (upper-bound consistency);
* the *doubling law* ``k·log₂((n/k)/bias)`` — the finite-n form of the
  paper's mechanism (Lemma 3.4's Θ(kn) per doubling × the number of
  doublings from the bias to the Θ(n/k) scale) — explains the data:
  R² ≥ :data:`MIN_DOUBLING_R2`.

The k-grid executes through :mod:`repro.sweep`: each k is one
:class:`~repro.workloads.sweeps.SweepPoint` whose seed derives from the
experiment's root ``seed`` and the grid index, so the sweep shards
across processes and hosts (``shard``/``resume``/``out`` parameters,
``repro run <id> --shard`` then ``repro run <id> --resume``) without
changing a single number.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List

from ..analysis.scaling import compare_scaling_laws, law_value
from ..analysis.stabilization import usd_stabilization_ensemble
from ..theory.bounds import (
    amir_upper_bound_parallel_time,
    lower_bound_parallel_time,
    regime_ratio,
)
from ..workloads.initial import paper_initial_configuration
from ..workloads.sweeps import SweepPoint, k_sweep
from .base import Claim, ExperimentResult, SweepExperiment

__all__ = ["ScalingExperiment"]

#: The doubling law k·log₂((n/k)/bias) must explain this much of the
#: variance of the medians.
MIN_DOUBLING_R2 = 0.9


def _scaling_point(
    point: SweepPoint,
    point_seed: int,
    *,
    num_seeds: int,
    engine: str,
    max_parallel_time: float,
) -> Dict[str, Any]:
    """One k of the Theorem 3.5 grid (module-level so it pickles)."""
    config = paper_initial_configuration(point.n, point.k, point.bias)
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
        "k": point.k,
        "bias": point.bias,
        "point_seed": point_seed,
        "median_parallel_time": summary.median,
        "min_parallel_time": summary.minimum,
        "paper_lower_bound": lower_bound_parallel_time(point.n, point.k),
        "amir_k_log_n": amir_upper_bound_parallel_time(point.n, point.k),
        "censored_runs": ensemble.censored,
        "majority_won": ensemble.majority_win_fraction,
    }


class ScalingExperiment(SweepExperiment):
    """Median stabilization time vs k, with fitted scaling laws."""

    experiment_id = "thm35-scaling"
    title = "Theorem 3.5: parallel stabilization time scaling in k"
    DEFAULTS: Dict[str, Any] = {
        "n": 1_000_000,
        "k_values": (4, 8, 12, 16, 24, 32),
        "num_seeds": 3,
        "seed": 35,
        "engine": "auto",
        "max_parallel_time": 5_000.0,
    }

    def grid(self) -> List[SweepPoint]:
        return k_sweep(self.params["n"], self.params["k_values"])

    def point_task(self):
        return partial(
            _scaling_point,
            num_seeds=self.params["num_seeds"],
            engine=self.params["engine"],
            max_parallel_time=self.params["max_parallel_time"],
        )

    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        n = self.params["n"]
        ks = [row["k"] for row in rows]
        medians = [row["median_parallel_time"] for row in rows]
        biases = [row["bias"] for row in rows]
        comparison = compare_scaling_laws([n] * len(ks), ks, medians, biases)
        for row, k, bias in zip(rows, ks, biases):
            for law, fit in comparison.fits.items():
                row[f"fit_{law}"] = fit.slope * law_value(law, n, k, bias)

        doubling_fit = comparison.fits.get("doubling")
        r2 = None if doubling_fit is None else doubling_fit.r_squared
        regime = max(regime_ratio(n, k) for k in ks)
        censored = sum(row["censored_runs"] for row in rows)
        above = sum(
            row["median_parallel_time"] >= row["paper_lower_bound"] for row in rows
        )
        claims = [
            Claim("max k·ln n/√n over the grid", regime, "≤ 0.5", regime <= 0.5),
            Claim("censored runs", censored, "= 0", censored == 0),
            Claim(
                "k whose median T ≥ the paper's lower bound",
                above,
                f"all {len(rows)}",
                above == len(rows),
            ),
            Claim(
                "T ≥ c₁·k·log(√n/(k log n)) with c₁ = 1/25 at every k",
                comparison.lower_bound_ok,
                "yes",
                comparison.lower_bound_ok,
            ),
            Claim(
                "T/(k·log n) non-increasing in k (O(k log n) shape)",
                comparison.upper_shape_ok,
                "yes",
                comparison.upper_shape_ok,
            ),
            Claim(
                "doubling law T ≈ c·k·log₂((n/k)/bias) R²",
                r2,
                f"≥ {MIN_DOUBLING_R2}",
                r2 is not None and r2 >= MIN_DOUBLING_R2,
            ),
        ]
        notes = [
            f"best-fitting law: {comparison.best_law} "
            f"(R² = {comparison.fits[comparison.best_law].r_squared:.4f})",
        ]
        return self._result(rows=rows, claims=claims, notes=notes)
