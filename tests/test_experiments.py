"""Unit tests for the experiment framework and scaled-down experiment runs.

Experiments run here with drastically reduced parameters: the goal is to
exercise every code path (rows, series, claims, notes, persistence), not
to reproduce the paper's numbers — at toy scale a claim may fail.
``scripts/ci_claims_check.py`` checks that every claim holds at full
experiment scale.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    BiasThresholdExperiment,
    EngineAblationExperiment,
    Figure1Left,
    Figure1Right,
    GapDoublingExperiment,
    ModelComparisonExperiment,
    OpinionGrowthExperiment,
    ScalingExperiment,
    UndecidedCeilingExperiment,
    ascii_line_plot,
    choose_alpha,
    get_experiment,
    list_experiments,
    one_parallel_round_agent_stats,
    render_result,
)
from repro.experiments.base import Claim, ExperimentResult
from repro.io import load_result_rows
from repro.specs.hashing import canonicalize


def assert_states_claims(result):
    """The run states at least one claim, each one plain JSON."""
    assert result.claims
    for claim in result.claims:
        assert isinstance(claim, Claim)
        assert canonicalize(claim.as_dict()) == claim.as_dict()


class TestFramework:
    def test_unknown_parameters_rejected(self):
        with pytest.raises(ExperimentError):
            Figure1Left(warp_factor=9)

    def test_params_merge(self):
        experiment = Figure1Left(n=5_000)
        assert experiment.params["n"] == 5_000
        assert experiment.params["engine"] == "auto"

    def test_registry_contains_all_ids(self):
        expected = {
            "fig1-left",
            "fig1-right",
            "fig1-ensemble",
            "lem31-ceiling",
            "lem33-growth",
            "lem34-gap",
            "thm35-scaling",
            "bias-threshold",
            "usd2-logn",
            "model-comparison",
            "graph-topology",
            "memory-usd",
            "engine-throughput",
        }
        assert set(EXPERIMENTS) == expected

    def test_get_experiment(self):
        assert get_experiment("fig1-left") is Figure1Left
        with pytest.raises(ExperimentError):
            get_experiment("fig9")

    def test_list_experiments_sorted(self):
        lines = list_experiments()
        assert len(lines) == len(EXPERIMENTS)
        assert lines == sorted(lines)

    def test_result_table_requires_rows(self):
        result = ExperimentResult(experiment_id="x", title="t")
        with pytest.raises(ExperimentError):
            result.table()

    def test_result_save(self, tmp_path):
        result = ExperimentResult(
            experiment_id="demo",
            title="demo",
            rows=[{"a": 1}],
            series={"xs": np.array([1.0, 2.0])},
            claims=[Claim("a", 1, "= 1", True)],
            notes=["fine"],
        )
        written = result.save(tmp_path)
        assert (tmp_path / "demo.json").exists()
        assert (tmp_path / "demo_series.npz").exists()
        assert len(written) == 2
        _, extra = load_result_rows(tmp_path / "demo.json")
        assert extra["claims"] == [
            {"name": "a", "value": 1, "bound": "= 1", "holds": True}
        ]

    def test_claim_values_are_plain_json(self):
        """NumPy scalars unwrap; a non-finite value is a missing one."""
        claim = Claim("x", np.float64(0.5), "< 1", np.bool_(True))
        assert type(claim.value) is float and claim.holds is True
        missing = Claim("x", float("nan"), "< 5", float("nan") < 5)
        assert missing.as_dict() == {
            "name": "x",
            "value": None,
            "bound": "< 5",
            "holds": False,
        }


class TestFigure1:
    @pytest.fixture(scope="class")
    def left(self):
        return Figure1Left(n=4_000, k=5, seed=11, max_parallel_time=500.0).run()

    @pytest.fixture(scope="class")
    def right(self):
        return Figure1Right(n=4_000, k=5, seed=11, max_parallel_time=500.0).run()

    def test_left_rows_and_series(self, left):
        assert_states_claims(left)
        row = left.rows[0]
        assert row["n"] == 4_000 and row["k"] == 5
        assert row["stabilized"]
        assert set(left.series) >= {
            "parallel_time",
            "undecided",
            "majority",
            "highlight_minority_scaled",
            "plateau_reference",
        }
        lengths = {len(v) for v in left.series.values()}
        assert len(lengths) == 1  # all series share the time grid

    def test_left_peak_exceedance_is_small(self, left):
        """The Lemma 3.1 direction at toy scale: O(1)·√(n ln n)."""
        assert left.rows[0]["peak_exceedance_in_sqrt_nlogn"] < 5.0

    def test_left_plot_renders(self, left):
        plot = Figure1Left.plot(left)
        assert "legend:" in plot and "undecided" in plot

    def test_right_rows(self, right):
        assert_states_claims(right)
        row = right.rows[0]
        assert row["stab_parallel_time"] is not None
        if row["doubling_parallel_time"] is not None:
            assert 0 < row["doubling_fraction_of_stab"] <= 1.0

    def test_right_plot_renders(self, right):
        assert "max diff" in Figure1Right.plot(right)

    def test_render_result_includes_plot_and_claims(self, left):
        text = render_result(left)
        claim_lines = [line for line in text.splitlines() if line.startswith("claim:")]
        assert len(claim_lines) == len(left.claims)
        assert "legend:" in text
        assert "wall time" in text

    def test_params_recorded(self, left):
        assert left.params["n"] == 4_000
        assert left.wall_seconds > 0


def claim_named(result, words):
    """The one claim whose name contains ``words``."""
    (claim,) = [claim for claim in result.claims if words in claim.name]
    return claim


class TestLemmaExperiments:
    def test_undecided_ceiling_small(self):
        result = UndecidedCeilingExperiment(
            n_values=(2_000,),
            k_values=(4,),
            num_seeds=2,
            max_parallel_time=200.0,
            engine="counts",
        ).run()
        assert_states_claims(result)
        row = result.rows[0]
        assert row["within_lemma"]
        assert row["max_exceedance_normalized"] < 2641
        # at k = 4, ũ ≈ 1.55·n: no configuration lies above the drift line
        drift = claim_named(result, "exact E[Δu]")
        assert drift.holds and drift.value == 1
        assert "1 vacuous" in drift.bound
        oliveto_witt = claim_named(result, "Oliveto–Witt")
        assert oliveto_witt.holds and oliveto_witt.value == 1

    def test_undecided_ceiling_drift_claim_off_the_vacuous_case(self):
        """At k = 8 the line ũ + √(n ln n) lies below n, and the exact
        drift there is negative enough: the claim holds on real values."""
        experiment = UndecidedCeilingExperiment(n_values=(20_000,), k_values=(8,))
        row = {"n": 20_000, "k": 8, "within_lemma": True}
        result = experiment.finalize([{**row, "max_exceedance_normalized": 0.5}])
        drift = claim_named(result, "exact E[Δu]")
        assert drift.holds and drift.bound == "all 1"

    def test_opinion_growth_small(self):
        result = OpinionGrowthExperiment(
            n=3_000, k_values=(4,), num_seeds=2, engine="counts"
        ).run()
        assert_states_claims(result)
        premise = claim_named(result, "p = 5/k, q = 6.25/k²")
        assert premise.holds and premise.value == 1
        row = result.rows[0]
        assert row["bound_interactions"] == pytest.approx(4 * 3_000 / 25)
        assert row["censored_runs"] + (
            0 if row["min_measured"] is None else 1
        ) >= 1

    def test_gap_doubling_small(self):
        result = GapDoublingExperiment(
            n=4_000, k_values=(4,), num_seeds=2, engine="counts",
            horizon_multiple=4.0,
        ).run()
        assert_states_claims(result)
        premise = claim_named(result, "p = 9/k, q = 6α/(nk)")
        assert premise.holds and premise.value == 1
        row = result.rows[0]
        assert row["bound_interactions"] == pytest.approx(4 * 4_000 / 24)

    def test_choose_alpha_window(self):
        alpha = choose_alpha(50_000, 8)
        assert 2 * np.sqrt(50_000 * np.log(50_000)) < alpha < 50_000 / 8
        with pytest.raises(ExperimentError):
            choose_alpha(10_000, 60)


class TestOtherExperiments:
    @pytest.mark.slow
    def test_scaling_small(self):
        result = ScalingExperiment(
            n=3_000, k_values=(3, 5, 8), num_seeds=2, engine="counts",
            max_parallel_time=2_000.0,
        ).run()
        assert len(result.rows) == 3
        assert_states_claims(result)
        assert any("best-fitting law" in note for note in result.notes)
        assert "fit_doubling" in result.rows[0]

    @pytest.mark.slow
    def test_bias_threshold_small(self):
        result = BiasThresholdExperiment(
            n=2_000, k_values=(2,), num_seeds=4, engine="counts",
            max_parallel_time=2_000.0,
        ).run()
        assert len(result.rows) == 6  # six bias grid points
        assert_states_claims(result)
        fractions = [row["majority_win_fraction"] for row in result.rows]
        assert fractions[-1] >= fractions[0]  # more bias, more wins

    def test_model_comparison_small(self):
        result = ModelComparisonExperiment(
            n=2_000, k_values=(3,), num_seeds=2, engine="counts",
            max_parallel_time=2_000.0, round_stats_n=500,
        ).run()
        assert_states_claims(result)
        row = result.rows[0]
        assert row["gossip_rounds"] is not None
        assert row["md"] > 1.0
        assert "population" in render_result(result)

    def test_one_round_agent_stats(self):
        max_changes, untouched = one_parallel_round_agent_stats(500, 3, seed=1)
        assert max_changes >= 1
        assert 0.0 < untouched < 0.5

    def test_engine_ablation_small(self):
        result = EngineAblationExperiment(
            n=800, k=3, num_seeds=3, max_parallel_time=2_000.0,
            throughput_interactions=5_000, throughput_n=2_000,
        ).run()
        assert {row["engine"] for row in result.rows} == {
            "agent",
            "counts",
            "multibatch",
            "batch",
        }
        assert all(row["throughput_per_sec"] > 0 for row in result.rows)
        assert_states_claims(result)

    def test_run_experiment_by_id(self):
        result = get_experiment("engine-throughput")(
            n=600,
            k=3,
            num_seeds=2,
            throughput_interactions=2_000,
            throughput_n=1_000,
        ).run()
        assert result.experiment_id == "engine-throughput"


class TestAsciiPlot:
    def test_renders_curves(self):
        xs = np.linspace(0, 10, 50)
        text = ascii_line_plot(
            {"rise": (xs, xs), "fall": (xs, 10 - xs)},
            width=40,
            height=10,
            title="demo",
            x_label="t",
        )
        assert text.splitlines()[0] == "demo"
        assert "legend: * rise   o fall" in text
        assert "(t)" in text

    def test_flat_curve_ok(self):
        xs = np.array([0.0, 1.0])
        text = ascii_line_plot({"flat": (xs, np.array([5.0, 5.0]))})
        assert "flat" in text

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ascii_line_plot({})
        with pytest.raises(ExperimentError):
            ascii_line_plot({"bad": ([1, 2], [1])})
        with pytest.raises(ExperimentError):
            ascii_line_plot({"x": ([1], [1])}, width=2, height=2)
