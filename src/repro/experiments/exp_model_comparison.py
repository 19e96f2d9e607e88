"""Experiment ``model-comparison``: population model vs Gossip model.

§1.2 of the paper stresses that USD behaves *qualitatively differently*
under the population-protocol scheduler and the synchronous Gossip
scheduler, "even in the case when k = 2", for two mechanical reasons:

* in the Gossip model every node interacts exactly once per round and
  changes opinion at most once, while in the population model a node
  may change opinion up to Ω(log n) times in one parallel round while a
  constant fraction of nodes is not selected at all;
* in the Gossip model the time to consensus is Θ(md(c)·log n)
  (Becchetti et al.), far below the population model's Ω(k·log(...)).

This experiment measures both: the stabilization-time gap across a
``k`` sweep, and the per-round interaction statistics (max opinion
changes per node, fraction of untouched nodes) via a direct agent-level
round simulation.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

from ..analysis.stabilization import usd_stabilization_ensemble
from ..core.scheduler import UniformPairScheduler
from ..gossip.dynamics import GossipUSD
from ..gossip.engine import GossipEngine
from ..gossip.monochromatic import md_time_bound, monochromatic_distance
from ..protocols.usd import UndecidedStateDynamics
from ..rng import derive_seed, make_rng
from ..types import SeedLike
from ..workloads.initial import paper_initial_configuration
from .base import Claim, Experiment, ExperimentResult

__all__ = ["ModelComparisonExperiment", "one_parallel_round_agent_stats"]


def one_parallel_round_agent_stats(
    n: int, k: int, seed: SeedLike = None
) -> Tuple[int, float]:
    """Agent-level statistics of one parallel round (n interactions).

    Runs n population-model interactions of USD from the paper's
    initial configuration, tracking per-agent state changes and
    selections.  Returns ``(max state changes of any agent, fraction of
    agents never selected)`` — the quantities behind the paper's
    "Ω(log n) changes vs constant fraction untouched" remark.
    """
    rng = make_rng(seed)
    protocol = UndecidedStateDynamics(k=k)
    config = paper_initial_configuration(n, k)
    states: list = []
    for state, count in enumerate(config.to_state_counts()):
        states.extend([state] * int(count))
    table = protocol.table
    out_a = table.out_initiator.tolist()
    out_b = table.out_responder.tolist()
    scheduler = UniformPairScheduler(n)
    changes = np.zeros(n, dtype=np.int64)
    touched = np.zeros(n, dtype=bool)
    initiators, responders = scheduler.sample_pairs(rng, n)
    for i, j in zip(initiators.tolist(), responders.tolist()):
        touched[i] = touched[j] = True
        a, b = states[i], states[j]
        new_a, new_b = out_a[a][b], out_b[a][b]
        if new_a != a:
            states[i] = new_a
            changes[i] += 1
        if new_b != b:
            states[j] = new_b
            changes[j] += 1
    return int(changes.max()), float(1.0 - touched.mean())


class ModelComparisonExperiment(Experiment):
    """Population vs Gossip USD: stabilization times and round anatomy."""

    experiment_id = "model-comparison"
    title = "Population vs Gossip scheduling of USD"
    DEFAULTS: Dict[str, Any] = {
        "n": 20_000,
        "k_values": (4, 8, 16),
        "num_seeds": 3,
        "seed": 77,
        "engine": "auto",
        "max_parallel_time": 3_000.0,
        "round_stats_n": 4_000,
    }

    def _execute(self) -> ExperimentResult:
        n = self.params["n"]
        rows = []
        gossip_runs = gossip_stabilized = 0
        for k in self.params["k_values"]:
            config = paper_initial_configuration(n, k)
            population = usd_stabilization_ensemble(
                config,
                num_seeds=self.params["num_seeds"],
                seed=self.params["seed"] + k,
                engine=self.params["engine"],
                max_parallel_time=self.params["max_parallel_time"],
                workers=self.params["workers"],
            )
            gossip_rounds = []
            dynamics = GossipUSD(k=k)
            for index in range(self.params["num_seeds"]):
                engine = GossipEngine(
                    dynamics,
                    dynamics.encode_configuration(config),
                    seed=derive_seed(self.params["seed"] + 7 * k, index),
                )
                engine.run(int(self.params["max_parallel_time"]))
                gossip_runs += 1
                if engine.is_absorbed and engine.last_change_round is not None:
                    gossip_rounds.append(engine.last_change_round)
                    gossip_stabilized += 1
            md = monochromatic_distance(config)
            md_log_n = md_time_bound(config, n)
            pop_median = float(population.summary().median)
            gossip_median = float(np.median(gossip_rounds)) if gossip_rounds else None
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "population_parallel_time": pop_median,
                    "gossip_rounds": gossip_median,
                    "speedup": None
                    if gossip_median is None
                    else pop_median / gossip_median,
                    "md": md,
                    "md_log_n": md_log_n,
                    "gossip_over_md_log_n": None
                    if gossip_median is None
                    else gossip_median / md_log_n,
                }
            )

        stats_n = self.params["round_stats_n"]
        max_changes, untouched = one_parallel_round_agent_stats(
            stats_n, min(self.params["k_values"]), seed=self.params["seed"]
        )
        # the Becchetti et al. law: rounds/(md·ln n) is a bounded constant
        # across k, while population time follows the k-dependent doubling
        # law — different mechanisms, per §1.2
        md_ratios = [row["gossip_over_md_log_n"] for row in rows]
        measured = None not in md_ratios
        top = max(md_ratios) if measured else None
        spread = max(md_ratios) / min(md_ratios) if measured else None
        claims = [
            Claim(
                "stabilized gossip runs",
                gossip_stabilized,
                f"all {gossip_runs}",
                gossip_stabilized == gossip_runs,
            ),
            Claim("max gossip rounds/(md·ln n)", top, "< 3", measured and top < 3.0),
            Claim(
                "max/min of gossip rounds/(md·ln n) across k",
                spread,
                "< 3",
                measured and spread < 3.0,
            ),
            # per-round anatomy: some agent changes opinion several times
            # while a constant fraction is untouched
            Claim(
                f"most opinion changes of one agent in a parallel round, n={stats_n}",
                max_changes,
                "≥ 2",
                max_changes >= 2,
            ),
            Claim(
                f"fraction of agents never selected in a parallel round, n={stats_n}",
                untouched,
                "> 0",
                untouched > 0,
            ),
        ]
        notes = [
            f"one population parallel round at n={stats_n}: Ω(log n) opinion "
            f"changes of one agent are possible (ln n ≈ {math.log(stats_n):.1f}), "
            "and ≈ e⁻² ≈ 13.5% of agents are expected never to be selected",
        ]
        series = {
            "k": np.array([row["k"] for row in rows], dtype=float),
            "population_parallel_time": np.array(
                [row["population_parallel_time"] for row in rows], dtype=float
            ),
            "gossip_rounds": np.array(
                [row["gossip_rounds"] for row in rows], dtype=float
            ),
        }
        return self._result(rows=rows, series=series, claims=claims, notes=notes)
