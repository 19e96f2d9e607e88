"""Experiment ``memory-usd``: does slightly more memory break the barrier?

The paper's conclusion asks at which point extra per-node memory (and
synchrony) can beat the Ω(k·log(√n/(k log n))) barrier.  This
experiment runs :class:`repro.protocols.hysteresis.HysteresisUSD` with
``r ∈ {1, 2, 3}`` confidence levels (``r = 1`` is the paper's USD) on a
*sub-threshold* workload — bias ≈ √n, below the √(n log n) scale where
plain USD is reliable — and measures

* the majority win fraction (what the memory buys), and
* the median stabilization time (what it costs),

per ``r``.  The qualitative outcome: hysteresis suppresses the
stochastic minority takeovers at small bias, at a multiplicative
time cost — memory trades time for robustness rather than beating the
time barrier, consistent with the lower bound's mechanism (the gap
random walk slows down even more when cancellations need r hits).
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from ..core.run import simulate
from ..protocols.hysteresis import HysteresisUSD
from ..rng import derive_seed
from ..workloads.initial import paper_initial_configuration
from .base import Claim, Experiment, ExperimentResult

__all__ = ["MemoryUSDExperiment"]


class MemoryUSDExperiment(Experiment):
    """Hysteresis-USD sweep over confidence levels r."""

    experiment_id = "memory-usd"
    title = "§4 extension: USD with r confidence levels at sub-threshold bias"
    DEFAULTS: Dict[str, Any] = {
        "n": 10_000,
        "k": 4,
        "r_values": (1, 2, 3),
        "bias_factor": 1.0,  # bias = factor × √n (below √(n log n))
        "num_seeds": 12,
        "seed": 2718,
        "engine": "auto",
        "max_parallel_time": 5_000.0,
    }

    def _execute(self) -> ExperimentResult:
        n = self.params["n"]
        k = self.params["k"]
        bias = int(self.params["bias_factor"] * math.sqrt(n))
        config = paper_initial_configuration(n, k, bias)
        rows = []
        for r in self.params["r_values"]:
            protocol = HysteresisUSD(k=k, r=r)
            times, wins, censored = [], 0, 0
            for index in range(self.params["num_seeds"]):
                result = simulate(
                    protocol,
                    config,
                    engine=self.params["engine"],
                    seed=derive_seed(self.params["seed"] + r, index),
                    max_parallel_time=self.params["max_parallel_time"],
                )
                if not result.stabilized:
                    censored += 1
                    continue
                times.append(result.stabilization_parallel_time)
                final = protocol.decode_counts(result.final_counts)
                wins += final.plurality_winner() == 1
            rows.append(
                {
                    "r": r,
                    "states": protocol.num_states,
                    "n": n,
                    "k": k,
                    "bias": bias,
                    "majority_win_fraction": wins / self.params["num_seeds"],
                    "median_parallel_time": None
                    if not times
                    else float(np.median(times)),
                    "censored_runs": censored,
                }
            )
        # at sub-threshold bias memory must not hurt correctness (fixed
        # seeds), and it costs time: it trades time for robustness rather
        # than beating the barrier (§4's open question, explored)
        by_r = {row["r"]: row for row in rows}
        top, plain = by_r[max(by_r)], by_r.get(1)
        wins, time = top["majority_win_fraction"], top["median_parallel_time"]
        base_wins = None if plain is None else plain["majority_win_fraction"]
        base_time = None if plain is None else plain["median_parallel_time"]
        measured = None not in (time, base_time)
        claims = [
            Claim(
                f"majority win fraction at r={top['r']} minus at r=1",
                None if base_wins is None else wins - base_wins,
                "≥ 0",
                base_wins is not None and wins >= base_wins,
            ),
            Claim(
                f"median T at r={top['r']} / at r=1",
                time / base_time if measured else None,
                "> 1",
                measured and time > base_time,
            ),
        ]
        return self._result(rows=rows, claims=claims)
