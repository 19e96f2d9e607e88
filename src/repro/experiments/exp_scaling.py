"""Experiment ``thm35-scaling``: the stabilization-time scaling in k.

Theorem 3.5 plus Amir et al. sandwich USD's parallel stabilization time
between ``Ω(k·log(√n/(k log n)))`` and ``O(k·log n)``.  This experiment
sweeps ``k`` at fixed ``n`` with the paper's initial configuration,
measures median stabilization times over seed ensembles, fits the
candidate laws and checks:

* the measured times respect the explicit finite-n lower bound
  (constant 1/25 included);
* ``T/(k·log n)`` does not grow in ``k`` (upper-bound consistency);
* the *doubling law* ``k·log₂((n/k)/bias)`` — the finite-n form of the
  paper's mechanism (Lemma 3.4's Θ(kn) per doubling × the number of
  doublings from the bias to the Θ(n/k) scale) — explains the data.

The k-grid executes through :mod:`repro.sweep`: each k is one
:class:`~repro.workloads.sweeps.SweepPoint` whose seed derives from the
experiment's root ``seed`` and the grid index, so the sweep shards
across processes and hosts (``shard``/``resume``/``out`` parameters,
``repro run <id> --shard`` then ``repro run <id> --resume``) without
changing a single number.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional

from ..analysis.scaling import compare_scaling_laws, law_value
from ..analysis.stabilization import usd_stabilization_ensemble
from ..theory.bounds import (
    amir_upper_bound_parallel_time,
    lower_bound_parallel_time,
)
from ..workloads.initial import paper_initial_configuration
from ..workloads.sweeps import SweepPoint, k_sweep
from .base import ExperimentResult, SweepExperiment

__all__ = ["ScalingExperiment"]


def _scaling_point(
    point: SweepPoint,
    point_seed: int,
    *,
    num_seeds: int,
    engine: str,
    backend: Optional[str],
    max_parallel_time: float,
) -> Dict[str, Any]:
    """One k of the Theorem 3.5 grid (module-level so it pickles)."""
    config = paper_initial_configuration(point.n, point.k, point.bias)
    ensemble = usd_stabilization_ensemble(
        config,
        num_seeds=num_seeds,
        seed=point_seed,
        engine=engine,
        backend=backend,
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
        "n": 50_000,
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
            backend=self.params["backend"],
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
        notes = [
            f"best-fitting law: {comparison.best_law} "
            f"(R² = {comparison.fits[comparison.best_law].r_squared:.4f})",
            f"explicit finite-n lower bound (×1/25): "
            f"{'respected at every k' if comparison.lower_bound_ok else 'VIOLATED'}",
            f"T/(k·log n) non-increasing in k (O(k log n) consistency): "
            f"{'holds' if comparison.upper_shape_ok else 'VIOLATED'}",
        ]
        if doubling_fit is not None:
            notes.append(
                f"doubling law T ≈ c·k·log₂((n/k)/bias) fits with "
                f"c = {doubling_fit.slope:.2f}, R² = {doubling_fit.r_squared:.4f} "
                "(the finite-n form of the paper's mechanism)"
            )
        return self._result(rows=rows, notes=notes)
