"""Experiment ``engine-throughput``: engine agreement and speed ablation.

The methodology claim behind every exact number the experiments
report: the collision-free batched engine (``multibatch``, what
``engine='auto'`` runs) samples the same law as the per-agent and
per-event exact engines, and is several times faster than per-event
counts simulation.  The τ-leaping batch engine runs beside them as the
approximate baseline.  This experiment runs the same workload under all
four engines (several seeds each), compares the stabilization-time
distributions and winners against the exact counts engine, and measures
raw interaction throughput.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..core.run import make_engine, simulate
from ..obs.timing import wall_timer
from ..protocols.usd import UndecidedStateDynamics
from ..rng import derive_seed
from ..workloads.initial import paper_initial_configuration
from .base import Claim, Experiment, ExperimentResult

__all__ = ["EngineAblationExperiment"]


class EngineAblationExperiment(Experiment):
    """Agreement + throughput of agent / counts / multibatch / batch engines."""

    experiment_id = "engine-throughput"
    title = "Engine ablation: exact vs τ-leaping agreement and speed"
    DEFAULTS: Dict[str, Any] = {
        "n": 3_000,
        "k": 5,
        "num_seeds": 8,
        "seed": 42,
        "max_parallel_time": 5_000.0,
        "throughput_interactions": 200_000,
        "throughput_n": 50_000,
    }

    def _execute(self) -> ExperimentResult:
        n = self.params["n"]
        k = self.params["k"]
        config = paper_initial_configuration(n, k)
        protocol = UndecidedStateDynamics(k=k)
        rows = []
        medians, throughputs = {}, {}
        for engine_name in ("agent", "counts", "multibatch", "batch"):
            times, winners = [], []
            for index in range(self.params["num_seeds"]):
                result = simulate(
                    protocol,
                    config,
                    engine=engine_name,
                    seed=derive_seed(self.params["seed"], index),
                    max_parallel_time=self.params["max_parallel_time"],
                )
                if result.stabilized and result.stabilization_parallel_time is not None:
                    times.append(result.stabilization_parallel_time)
                    # -1 mirrors analysis.stabilization.UNDETERMINED_WINNER:
                    # a no-winner absorption must not count as an opinion.
                    winners.append(result.winner if result.winner is not None else -1)
            medians[engine_name] = float(np.median(times))
            throughputs[engine_name] = self._throughput(engine_name, protocol)
            rows.append(
                {
                    "engine": engine_name,
                    "n": n,
                    "k": k,
                    "median_stab_time": medians[engine_name],
                    "mean_stab_time": float(np.mean(times)),
                    "majority_won": float(np.mean([w == 1 for w in winners])),
                    "throughput_per_sec": throughputs[engine_name],
                }
            )
        exact = medians["counts"]
        claims = []
        for name in ("agent", "multibatch", "batch"):
            deviation = abs(medians[name] - exact) / exact
            claims.append(
                Claim(
                    f"|median T({name}) − median T(counts)| / median T(counts)",
                    deviation,
                    "< 0.4",
                    deviation < 0.4,
                )
            )
        # both batched engines must beat the per-event counts engine by a
        # wide margin: τ-leaping by approximating, multibatch exactly
        for name in ("batch", "multibatch"):
            speedup = throughputs[name] / throughputs["counts"]
            label = f"{name} throughput / counts throughput"
            claims.append(Claim(label, speedup, "> 5", speedup > 5))
        notes = [
            "throughput measured on a fresh n="
            f"{self.params['throughput_n']} workload, interactions/second",
        ]
        return self._result(rows=rows, claims=claims, notes=notes)

    def _throughput(self, engine_name: str, protocol: UndecidedStateDynamics) -> float:
        """Interactions per second on a mid-run workload."""
        budget = self.params["throughput_interactions"]
        big_n = self.params["throughput_n"]
        if engine_name == "agent":
            # The reference engine is deliberately benchmarked at its own
            # scale; at n = 50k a fair budget would dominate the runtime.
            big_n = self.params["n"]
        config = paper_initial_configuration(big_n, self.params["k"])
        engine = make_engine(
            protocol if config.k == protocol.k else UndecidedStateDynamics(config.k),
            config,
            engine=engine_name,
            seed=self.params["seed"],
        )
        with wall_timer() as timer:
            engine.step(budget)
        return budget / max(timer.seconds, 1e-9)
