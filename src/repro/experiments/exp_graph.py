"""Experiment ``graph-topology``: USD beyond the clique.

The paper analyses the clique with a uniform scheduler, but the
population-protocol model of Angluin et al. (§1) allows any interaction
graph.  This experiment runs USD with the agent-level engine under
graph-restricted schedulers — clique, random regular graph, cycle,
star — and measures stabilization time and winner quality on the same
biased workload.

Expected shape: expander-like graphs (random regular) behave like the
clique up to constants, while low-conductance topologies (cycle) slow
stabilization dramatically — context for why the clique assumption
matters to the paper's time bounds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..analysis.stabilization import UNDETERMINED_WINNER
from ..core.agent_engine import AgentEngine
from ..core.scheduler import GraphPairScheduler, PairScheduler, UniformPairScheduler
from ..protocols.usd import UndecidedStateDynamics
from ..rng import derive_seed
from ..workloads.initial import paper_initial_configuration
from .base import Claim, Experiment, ExperimentResult

__all__ = ["GraphTopologyExperiment", "TOPOLOGIES", "build_scheduler"]


def _clique(n: int, _seed: int) -> PairScheduler:
    return UniformPairScheduler(n)


# networkx is imported inside these graph topologies: the experiment
# registry imports this module on every `import repro`, and only this
# experiment needs graphs
def _random_regular(n: int, seed: int) -> PairScheduler:
    import networkx as nx

    degree = 8 if n > 8 else max(2, n - 2)
    if (degree * n) % 2:
        degree += 1
    return GraphPairScheduler(nx.random_regular_graph(degree, n, seed=seed))


def _cycle(n: int, _seed: int) -> PairScheduler:
    import networkx as nx

    return GraphPairScheduler(nx.cycle_graph(n))


def _star(n: int, _seed: int) -> PairScheduler:
    import networkx as nx

    return GraphPairScheduler(nx.star_graph(n - 1))


#: Named topology builders: name → (n, seed) → scheduler.
TOPOLOGIES: Dict[str, Callable[[int, int], PairScheduler]] = {
    "clique": _clique,
    "random-regular(8)": _random_regular,
    "cycle": _cycle,
    "star": _star,
}


def build_scheduler(topology: str, n: int, seed: int) -> PairScheduler:
    """Instantiate one of the named interaction topologies."""
    try:
        builder = TOPOLOGIES[topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
    return builder(n, seed)


class GraphTopologyExperiment(Experiment):
    """USD stabilization across interaction topologies (agent engine)."""

    experiment_id = "graph-topology"
    title = "USD on restricted interaction graphs (Angluin et al. model)"
    DEFAULTS: Dict[str, Any] = {
        "n": 1_000,
        "k": 4,
        "num_seeds": 3,
        "seed": 404,
        "topologies": ("clique", "random-regular(8)", "cycle", "star"),
        "max_parallel_time": 3_000.0,
    }

    def _run_one(
        self, topology: str, seed_index: int
    ) -> Tuple[float, int, bool]:
        """One run; returns (parallel time, winner, stabilized).

        ``winner`` is -1 (:data:`UNDETERMINED_WINNER`) for runs without
        a single surviving opinion — unstabilized or all-undecided.
        """
        n = self.params["n"]
        k = self.params["k"]
        protocol = UndecidedStateDynamics(k=k)
        config = paper_initial_configuration(n, k)
        run_seed = derive_seed(self.params["seed"], seed_index)
        scheduler = build_scheduler(topology, n, run_seed % 2**31)
        engine = AgentEngine(
            protocol,
            protocol.encode_configuration(config),
            seed=run_seed,
            scheduler=scheduler,
        )
        engine.run(int(self.params["max_parallel_time"] * n))
        stabilized = engine.is_absorbed
        winner = UNDETERMINED_WINNER
        if stabilized:
            final = engine.counts
            alive = np.flatnonzero(final[1:] == n)
            if alive.size == 1:
                winner = int(alive[0]) + 1
        time = (
            engine.last_change_interaction / n
            if stabilized and engine.last_change_interaction is not None
            else engine.parallel_time
        )
        return time, winner, stabilized

    def _execute(self) -> ExperimentResult:
        rows: List[dict] = []
        clique_median = None
        for topology in self.params["topologies"]:
            times, winners, stabilized_count = [], [], 0
            for index in range(self.params["num_seeds"]):
                time, winner, stabilized = self._run_one(topology, index)
                times.append(time)
                winners.append(winner)
                stabilized_count += stabilized
            median = float(np.median(times))
            if topology == "clique":
                clique_median = median
            rows.append(
                {
                    "topology": topology,
                    "n": self.params["n"],
                    "k": self.params["k"],
                    "median_parallel_time": median,
                    "stabilized_runs": stabilized_count,
                    "majority_won": float(np.mean([w == 1 for w in winners])),
                    "slowdown_vs_clique": None,
                }
            )
        if clique_median:
            for row in rows:
                row["slowdown_vs_clique"] = (
                    row["median_parallel_time"] / clique_median
                )
        # conductance governs USD's speed off the clique: an expander
        # tracks it up to a small constant, the cycle is far slower
        by_name = {row["topology"]: row for row in rows}
        seeds = self.params["num_seeds"]
        clique = by_name.get("clique", {}).get("stabilized_runs")
        expander = by_name.get("random-regular(8)", {}).get("slowdown_vs_clique")
        cycle = by_name.get("cycle", {}).get("slowdown_vs_clique")
        claims = [
            Claim("stabilized clique runs", clique, f"all {seeds}", clique == seeds),
            Claim(
                "random-regular(8) slowdown vs the clique",
                expander,
                "< 5",
                expander is not None and expander < 5.0,
            ),
            Claim(
                "cycle slowdown vs the clique",
                cycle,
                "> 10",
                cycle is not None and cycle > 10.0,
            ),
        ]
        notes = [
            "the paper's bounds are for the clique; this experiment is the "
            "Angluin-model context, not a paper claim"
        ]
        return self._result(rows=rows, claims=claims, notes=notes)
