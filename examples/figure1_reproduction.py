#!/usr/bin/env python
"""Reproduce Figure 1 of the paper (both panels).

Default scale is n = 10⁵ (seconds); pass ``--full`` for the paper's
n = 10⁶ / k = 27 (still under a minute on the exact default engine).
Prints each panel's report: the measured table, the paper's claims with
their verdicts, and an ASCII rendering of the panel.

Run:  python examples/figure1_reproduction.py [--full]
"""

import argparse

from repro.experiments import Figure1Left, Figure1Right, render_result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="paper scale n = 1,000,000"
    )
    args = parser.parse_args()
    overrides = {"n": 1_000_000} if args.full else {}

    for panel in (Figure1Left, Figure1Right):
        print(render_result(panel(**overrides).run()))
        print()


if __name__ == "__main__":
    main()
