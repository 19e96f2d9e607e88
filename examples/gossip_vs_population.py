#!/usr/bin/env python
"""USD under the population scheduler vs the synchronous Gossip model.

Reproduces the §1.2 comparison:

* stabilization times in both models across k, with the Becchetti et
  al. md(c)·log n law overlaid for the Gossip side;
* the per-round anatomy of the population model — some agents change
  opinion many times within one parallel round while ≈ e⁻² of them are
  never selected at all (the mechanical reason the two models resist a
  common analysis).

Run:  python examples/gossip_vs_population.py
"""

import math

import numpy as np

from repro.analysis import usd_stabilization_ensemble
from repro.experiments import one_parallel_round_agent_stats
from repro.gossip import (
    GossipEngine,
    GossipUSD,
    md_time_bound,
    monochromatic_distance,
)
from repro.io import format_table
from repro.workloads import paper_initial_configuration


def main() -> None:
    n = 10_000
    rows = []
    for k in (4, 8, 16):
        config = paper_initial_configuration(n, k)
        population = usd_stabilization_ensemble(
            config, num_seeds=3, seed=11 + k, engine="batch",
            max_parallel_time=3_000.0,
        )
        dynamics = GossipUSD(k=k)
        rounds = []
        for seed in range(3):
            engine = GossipEngine(
                dynamics, dynamics.encode_configuration(config), seed=seed
            )
            engine.run(5_000)
            rounds.append(engine.last_change_round)
        md = monochromatic_distance(config)
        md_log_n = md_time_bound(config, n)
        rows.append(
            {
                "k": k,
                "population_T": population.summary().median,
                "gossip_rounds": float(np.median(rounds)),
                "md(c)": md,
                "md·ln n": md_log_n,
                "rounds/(md·ln n)": float(np.median(rounds)) / md_log_n,
            }
        )
    print(format_table(rows, title=f"population vs gossip USD at n={n}"))

    stats_n = 4_000
    max_changes, untouched = one_parallel_round_agent_stats(stats_n, 4, seed=3)
    print(
        f"\none population parallel round at n={stats_n}:\n"
        f"  busiest agent changed opinion {max_changes} times "
        f"(Ω(log n) possible; ln n ≈ {math.log(stats_n):.1f})\n"
        f"  {untouched:.1%} of agents were never selected (e⁻² ≈ 13.5% expected)\n"
        f"\nIn the Gossip model every agent interacts exactly once per round —\n"
        f"the qualitative difference §1.2 highlights."
    )


if __name__ == "__main__":
    main()
