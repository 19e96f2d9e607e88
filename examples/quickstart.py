#!/usr/bin/env python
"""Quickstart: run the Undecided State Dynamics once and inspect it.

Builds the paper's initial configuration (equal minorities, majority
ahead by √(n ln n)), runs USD to stabilization on the exact engine, and
prints the headline quantities plus a terminal plot of the trajectory.

Run:  python examples/quickstart.py
"""

from repro import Configuration, UndecidedStateDynamics, simulate
from repro.experiments import ascii_line_plot
from repro.theory import undecided_plateau
from repro.workloads import paper_bias


def main() -> None:
    n, k = 20_000, 8
    bias = paper_bias(n)
    initial = Configuration.equal_minorities_with_bias(n=n, k=k, bias=bias)
    print(f"initial configuration: {initial}")
    print(
        f"bias = {bias} = ⌈√(n ln n)⌉, "
        f"plurality = opinion {initial.plurality_winner()}"
    )

    protocol = UndecidedStateDynamics(k=k)
    result = simulate(
        protocol,
        initial,
        seed=7,
        max_parallel_time=2_000.0,
        snapshot_every=n // 10,
    )

    print(f"\nstabilized: {result.stabilized}")
    print(f"winner:     opinion {result.winner}")
    print(f"time:       {result.stabilization_parallel_time:.2f} parallel time "
          f"({result.stabilization_interactions:,} interactions)")
    print(f"engine:     {result.engine_name} ({result.wall_seconds:.2f}s wall)")

    trace = result.trace
    plateau = undecided_plateau(n, k)
    print()
    print(
        ascii_line_plot(
            {
                "undecided": (trace.parallel_times, trace.undecided_series()),
                "majority": (trace.parallel_times, trace.opinion_series(1)),
                "a minority": (trace.parallel_times, trace.opinion_series(2)),
            },
            width=70,
            height=14,
            title=f"USD at n={n}, k={k}  (plateau n/2 − n/4k = {plateau:,.0f})",
            x_label="parallel time",
            y_label="agents",
        )
    )


if __name__ == "__main__":
    main()
