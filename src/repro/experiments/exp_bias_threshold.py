"""Experiment ``bias-threshold``: the √(n log n) bias threshold.

The paper (§1.1, §4) recalls why the Ω(√(n log n)) initial bias is
assumed: with a bias of order √n the system can stabilize on a minority
with non-negligible probability (Clementi et al.), while Ω(√(n log n))
guarantees the initial majority wins w.h.p. (Amir et al.).

This experiment sweeps the initial bias through
``{0, ½√n, √n, 2√n, √(n ln n), 2√(n ln n)}`` for k = 2 and a larger k,
runs a seed ensemble at each point and reports the majority's win
fraction — expected to rise from ≈ coin-flip at bias 0 towards 1 around
the √(n log n) scale.

The (k, bias) grid executes through :mod:`repro.sweep`.  Distinct grid
points can share the same numeric bias (e.g. ``√(n·ln n)`` and ``2·√n``
coincide for small n), so each point carries its grid label in
``extras`` — which is part of the canonical label, keeping checkpoints
collision-free.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List

from ..analysis.stabilization import usd_stabilization_ensemble
from ..workloads.initial import paper_initial_configuration
from ..workloads.sweeps import SweepPoint
from .base import Claim, ExperimentResult, SweepExperiment

__all__ = ["BiasThresholdExperiment"]


def _bias_grid(n: int) -> Dict[str, int]:
    root = math.sqrt(n)
    root_log = math.sqrt(n * math.log(n))
    return {
        "0": 0,
        "0.5·√n": int(0.5 * root),
        "√n": int(root),
        "2·√n": int(2 * root),
        "√(n·ln n)": int(root_log),
        "2·√(n·ln n)": int(2 * root_log),
    }


def _threshold_point(
    point: SweepPoint,
    point_seed: int,
    *,
    num_seeds: int,
    engine: str,
    max_parallel_time: float,
) -> Dict[str, Any]:
    """One (k, bias) cell of the threshold grid (module-level: pickles)."""
    config = paper_initial_configuration(point.n, point.k, bias=point.bias)
    ensemble = usd_stabilization_ensemble(
        config,
        num_seeds=num_seeds,
        seed=point_seed,
        engine=engine,
        max_parallel_time=max_parallel_time,
        workers=0,
    )
    return {
        "n": point.n,
        "k": point.k,
        "bias_label": point.extras["bias_label"],
        "bias": point.bias,
        "point_seed": point_seed,
        "majority_win_fraction": ensemble.majority_win_fraction,
        "all_undecided_fraction": ensemble.undetermined_fraction,
        "median_stab_time": None
        if ensemble.times.size == 0
        else float(ensemble.summary().median),
        "censored_runs": ensemble.censored,
    }


class BiasThresholdExperiment(SweepExperiment):
    """Majority win fraction as a function of the initial bias."""

    experiment_id = "bias-threshold"
    title = "Bias threshold: majority win fraction vs initial bias"
    DEFAULTS: Dict[str, Any] = {
        "n": 20_000,
        "k_values": (2, 8),
        "num_seeds": 24,
        "seed": 99,
        "engine": "auto",
        "max_parallel_time": 3_000.0,
    }

    def grid(self) -> List[SweepPoint]:
        n = self.params["n"]
        return [
            SweepPoint(
                n=n,
                k=k,
                bias=bias,
                label=f"k={k}, bias={label}",
                extras={"bias_label": label},
            )
            for k in self.params["k_values"]
            for label, bias in _bias_grid(n).items()
        ]

    def point_task(self):
        return partial(
            _threshold_point,
            num_seeds=self.params["num_seeds"],
            engine=self.params["engine"],
            max_parallel_time=self.params["max_parallel_time"],
        )

    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        # the paper expects ≈ chance at bias 0 and w.h.p. at 2·√(n ln n)
        claims = []
        for k in self.params["k_values"]:
            wins = {
                row["bias_label"]: row["majority_win_fraction"]
                for row in rows
                if row["k"] == k
            }
            fair, high = wins.get("0"), wins.get("2·√(n·ln n)")
            rise = None if fair is None or high is None else high - fair
            claims += [
                Claim(
                    f"k={k}: win fraction at bias 0",
                    fair,
                    "< 0.8",
                    fair is not None and fair < 0.8,
                ),
                Claim(
                    f"k={k}: win fraction at bias 2·√(n ln n)",
                    high,
                    "> 0.9",
                    high is not None and high > 0.9,
                ),
                # monotone trend across the grid, allowing small sampling dips
                Claim(
                    f"k={k}: win-fraction rise from bias 0 to 2·√(n ln n)",
                    rise,
                    "≥ 0.2",
                    rise is not None and high >= fair + 0.2,
                ),
            ]
        return self._result(rows=rows, claims=claims)
