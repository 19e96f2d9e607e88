"""The paper's claims, checked on every registry experiment at its defaults.

Each experiment states the claims it reproduces (Figure 1's shape,
Lemmas 3.1/3.3/3.4, the Theorem 3.5 scaling, the √(n log n) bias
threshold, the extensions and the engine ablation) as ``Claim``
records with verdicts it computed itself.  This script runs every
experiment, prints its report with one ``claim: PASS|FAIL`` line per
claim, and exits 1 if any claim fails or any experiment states none.
``workers=None`` only places the work on every CPU; rows are
bit-identical for every worker count.

    PYTHONPATH=src python scripts/ci_claims_check.py

The whole set takes a few minutes on 2 CPUs.
"""

from __future__ import annotations

import sys

from repro.experiments import EXPERIMENTS, get_experiment, render_result


def main() -> int:
    stated, failures = 0, []
    for experiment_id in EXPERIMENTS:
        result = get_experiment(experiment_id)(workers=None).run()
        print()
        print(render_result(result, plots=False))
        stated += len(result.claims)
        if not result.claims:
            failures.append(f"{experiment_id} states no claim")
        failures += [
            f"{experiment_id}: {claim.name}"
            for claim in result.claims
            if not claim.holds
        ]
    print()
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{stated} claims, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
