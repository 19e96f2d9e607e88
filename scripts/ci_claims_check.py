"""The paper's claims, checked on every registry experiment at its defaults.

Each experiment in ``repro.experiments.EXPERIMENTS`` has one entry in
:data:`CLAIMS`: the check that its rows and notes bear out the paper
artifact it reproduces (Figure 1's shape, Lemmas 3.1/3.3/3.4, the
Theorem 3.5 scaling, the √(n log n) bias threshold, the extensions and
the engine ablation).  The script stops before running anything if an
experiment has no entry, then runs every experiment, prints its table
and notes and one PASS/FAIL line per claim, and exits 1 if any claim
fails.  Rows are printed, not saved; ``repro run <id> --out DIR``
persists them.

    PYTHONPATH=src python scripts/ci_claims_check.py

The whole set takes a few minutes on 2 CPUs.
"""

from __future__ import annotations

import re
import sys

from repro.experiments import EXPERIMENTS, get_experiment

#: The doubling law k·log₂((n/k)/bias) must explain this much of the
#: variance of the ``thm35-scaling`` medians.
MIN_DOUBLING_R2 = 0.9


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _fig1_left(result) -> None:
    row = result.rows[0]
    _require(row["stabilized"], "the run did not stabilize")
    _require(row["winner"] == 1, f"winner {row['winner']}, not the majority")
    _require(
        row["peak_exceedance_in_sqrt_nlogn"] < 5.0,
        "u(t) exceeds the n/2 − n/(4k) plateau by ≥ 5·√(n ln n)",
    )
    _require(
        row["amir_band_violation_in_sqrt_nlogn"] < 5.0,
        "u(t) leaves Amir et al.'s band by ≥ 5·√(n ln n)",
    )
    _require(
        row["minorities_rise_after_rampup"],
        "minorities never rise after the ramp-up",
    )


def _fig1_right(result) -> None:
    row = result.rows[0]
    _require(row["stab_parallel_time"] is not None, "no stabilization time")
    _require(row["doubling_parallel_time"] is not None, "x₁ never doubled")
    # the paper's run doubles at ≈70 of ≈90 (78 %); a generous band
    _require(
        row["doubling_fraction_of_stab"] > 0.4,
        f"doubling takes {row['doubling_fraction_of_stab']:.2f} of the run",
    )


def _fig1_ensemble(result) -> None:
    row = result.rows[0]
    _require(
        row["majority_win_fraction"] >= 0.7,
        f"majority wins {row['majority_win_fraction']:.2f} < 0.7",
    )
    _require(
        row["mean_u_plateau_dev_in_sqrt_nlogn"] < 5.0,
        "mean u(t) deviates from the plateau by ≥ 5·√(n ln n)",
    )
    # doubling consumes the bulk of the run on average, not just in the
    # paper's single displayed trajectory
    median = row["doubling_fraction_median"]
    _require(
        median is None or median > 0.4,
        f"median doubling fraction {median} ≤ 0.4",
    )


def _lem31_ceiling(result) -> None:
    # u(t) ≤ ũ + (20·132+1)·√(n log n), and in fact O(1)·√(n log n)
    for row in result.rows:
        _require(row["within_lemma"], f"ceiling violated at {row}")
        _require(
            row["max_exceedance_normalized"] < 5.0,
            f"exceedance not O(1) in √(n log n) units at {row}",
        )


def _lem33_growth(result) -> None:
    # growing an opinion 3n/2k → 2n/k takes ≥ kn/25 interactions
    for row in result.rows:
        _require(row["bound_holds"], f"kn/25 bound violated at {row}")


def _lem34_gap(result) -> None:
    # doubling the maximum pairwise gap takes ≥ kn/24 interactions
    for row in result.rows:
        _require(row["alpha_window_valid"], f"α window invalid at {row}")
        _require(row["bound_holds"], f"kn/24 bound violated at {row}")


def _doubling_r2(notes) -> float | None:
    """The R² printed by the doubling-law note, or ``None`` if absent."""
    for note in notes:
        match = re.search(r"doubling law .*R² = (-?[0-9.]+)", note)
        if match:
            return float(match.group(1))
    return None


def _thm35_scaling(result) -> None:
    for row in result.rows:
        _require(
            row["median_parallel_time"] >= row["paper_lower_bound"],
            f"explicit lower bound violated at k={row['k']}",
        )
        _require(row["censored_runs"] == 0, f"censored runs at k={row['k']}")
    notes = "\n".join(result.notes)
    _require("respected at every k" in notes, "lower bound not respected")
    _require("holds" in notes, "O(k log n) shape violated")
    r2 = _doubling_r2(result.notes)
    _require(r2 is not None, "no doubling-law fit in the notes")
    _require(
        r2 >= MIN_DOUBLING_R2,
        f"doubling-law fit R² = {r2:.4f} < {MIN_DOUBLING_R2}",
    )


def _bias_threshold(result) -> None:
    for k in (2, 8):
        k_rows = [row for row in result.rows if row["k"] == k]
        by_label = {row["bias_label"]: row for row in k_rows}
        # zero bias: essentially a fair draw among the front-runners
        _require(
            by_label["0"]["majority_win_fraction"] < 0.8,
            f"k={k}: the majority wins ≥ 0.8 at zero bias",
        )
        # 2·√(n ln n): the majority should essentially always win
        _require(
            by_label["2·√(n·ln n)"]["majority_win_fraction"] > 0.9,
            f"k={k}: the majority wins ≤ 0.9 at 2·√(n ln n)",
        )
        # monotone trend across the grid (allowing small sampling dips)
        fractions = [row["majority_win_fraction"] for row in k_rows]
        _require(
            fractions[-1] >= fractions[0] + 0.2,
            f"k={k}: win fraction rises by < 0.2 over the grid: {fractions}",
        )


def _usd2_logn(result) -> None:
    for row in result.rows:
        n = row["n"]
        _require(row["censored_runs"] == 0, f"censored runs at n={n}")
        _require(row["majority_won"] == 1.0, f"majority lost at n={n}")
        # Θ(log n): T/ln n stays within a narrow constant band
        ratio = row["median_parallel_time"] / row["ln_n"]
        _require(0.5 < ratio < 4.0, f"T/ln n = {ratio:.2f} at n={n}")
        # trivial Ω(log n) bound (generous constant)
        _require(
            row["min_parallel_time"] > row["trivial_lb_ln_n"] / 4.0,
            f"trivial Ω(log n) bound violated at n={n}",
        )


def _model_comparison(result) -> None:
    ratios = []
    for row in result.rows:
        _require(row["gossip_rounds"] is not None, "a gossip run did not stabilize")
        ratios.append(row["gossip_over_md_log_n"])
    # the Becchetti law: rounds/(md·ln n) is a bounded constant across k
    _require(max(ratios) < 3.0, f"rounds/(md·ln n) reaches {max(ratios):.2f}")
    _require(
        max(ratios) / min(ratios) < 3.0,
        f"rounds/(md·ln n) spreads {max(ratios) / min(ratios):.2f}x across k",
    )
    # per-round anatomy: some agent changes opinion several times while
    # a constant fraction is untouched
    _require(
        any("never selected" in note for note in result.notes),
        "per-round anatomy note missing",
    )


def _graph_topology(result) -> None:
    by_name = {row["topology"]: row for row in result.rows}
    _require(
        by_name["clique"]["stabilized_runs"] == 3,
        "not every clique run stabilized",
    )
    # expander ≈ clique (small constant), cycle ≫ clique
    _require(
        by_name["random-regular(8)"]["slowdown_vs_clique"] < 5.0,
        "the expander is ≥ 5x slower than the clique",
    )
    _require(
        by_name["cycle"]["slowdown_vs_clique"] > 10.0,
        "the cycle is ≤ 10x slower than the clique",
    )


def _memory_usd(result) -> None:
    # §4 extension: hysteresis memory at sub-threshold bias
    by_r = {row["r"]: row for row in result.rows}
    max_r = max(by_r)
    # memory must not hurt correctness at sub-threshold bias (fixed seeds)
    _require(
        by_r[max_r]["majority_win_fraction"] >= by_r[1]["majority_win_fraction"],
        f"memory r={max_r} lowers the majority's win fraction",
    )
    # and it costs time: median stabilization grows with r
    _require(
        by_r[max_r]["median_parallel_time"] > by_r[1]["median_parallel_time"],
        f"memory r={max_r} does not slow stabilization",
    )


def _engine_throughput(result) -> None:
    by_engine = {row["engine"]: row for row in result.rows}
    exact = by_engine["counts"]["median_stab_time"]
    for name in ("agent", "multibatch", "batch"):
        deviation = abs(by_engine[name]["median_stab_time"] - exact) / exact
        _require(
            deviation < 0.4,
            f"{name} disagrees with the exact engine by {deviation:.0%}",
        )
    # both batched engines must beat the per-event counts engine by a
    # wide margin: τ-leaping by approximating, multibatch exactly
    for name in ("batch", "multibatch"):
        speedup = (
            by_engine[name]["throughput_per_sec"]
            / by_engine["counts"]["throughput_per_sec"]
        )
        _require(speedup > 5, f"{name} throughput is {speedup:.1f}x counts, not > 5x")


#: One claim check per registry experiment id.
CLAIMS = {
    "fig1-left": _fig1_left,
    "fig1-right": _fig1_right,
    "fig1-ensemble": _fig1_ensemble,
    "lem31-ceiling": _lem31_ceiling,
    "lem33-growth": _lem33_growth,
    "lem34-gap": _lem34_gap,
    "thm35-scaling": _thm35_scaling,
    "bias-threshold": _bias_threshold,
    "usd2-logn": _usd2_logn,
    "model-comparison": _model_comparison,
    "graph-topology": _graph_topology,
    "memory-usd": _memory_usd,
    "engine-throughput": _engine_throughput,
}


def main() -> int:
    unmatched = sorted(set(EXPERIMENTS) ^ set(CLAIMS))
    if unmatched:
        print(f"claims table and registry disagree on: {', '.join(unmatched)}")
        return 1
    verdicts = []
    for experiment_id, check in CLAIMS.items():
        result = get_experiment(experiment_id)().run()
        print()
        print(result.table())
        for note in result.notes:
            print(f"note: {note}")
        try:
            check(result)
        except AssertionError as exc:
            verdicts.append(f"FAIL {experiment_id}: {exc}")
        else:
            verdicts.append(f"PASS {experiment_id}")
        print(f"{verdicts[-1]} ({result.wall_seconds:.1f} s)")
    failed = sum(verdict.startswith("FAIL") for verdict in verdicts)
    print()
    print("\n".join(verdicts))
    print(f"{len(verdicts) - failed} claims passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
