"""Unit tests for the extension experiments (ensemble, topology, log n)."""

import pytest

from repro.core.scheduler import GraphPairScheduler, UniformPairScheduler
from repro.experiments import (
    BinaryLogNExperiment,
    Figure1EnsembleExperiment,
    GraphTopologyExperiment,
    TOPOLOGIES,
    build_scheduler,
)
from repro.specs.hashing import canonicalize


def assert_states_claims(result):
    """The run states at least one claim, each one plain JSON."""
    assert result.claims
    for claim in result.claims:
        assert canonicalize(claim.as_dict()) == claim.as_dict()


class TestBuildScheduler:
    def test_clique_is_uniform(self):
        scheduler = build_scheduler("clique", 50, seed=0)
        assert isinstance(scheduler, UniformPairScheduler)

    def test_graph_topologies(self):
        for name in ("random-regular(8)", "cycle", "star"):
            scheduler = build_scheduler(name, 50, seed=1)
            assert isinstance(scheduler, GraphPairScheduler)
            assert scheduler.n == 50

    def test_random_regular_degree_parity(self):
        # odd n × odd degree would be invalid; builder must fix parity
        scheduler = build_scheduler("random-regular(8)", 51, seed=2)
        assert scheduler.n == 51

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            build_scheduler("hypercube", 16, seed=0)

    def test_registry_names(self):
        assert set(TOPOLOGIES) == {"clique", "random-regular(8)", "cycle", "star"}


class TestGraphTopologyExperiment:
    def test_small_run(self):
        result = GraphTopologyExperiment(
            n=120,
            k=3,
            num_seeds=2,
            topologies=("clique", "star"),
            max_parallel_time=2_000.0,
        ).run()
        assert_states_claims(result)
        by_name = {row["topology"]: row for row in result.rows}
        assert by_name["clique"]["stabilized_runs"] == 2
        assert by_name["clique"]["slowdown_vs_clique"] == pytest.approx(1.0)
        assert by_name["star"]["median_parallel_time"] > 0


class TestFigure1Ensemble:
    @pytest.mark.slow
    def test_small_ensemble(self):
        result = Figure1EnsembleExperiment(
            n=3_000, k=4, num_seeds=4, engine="counts", max_parallel_time=500.0
        ).run()
        assert_states_claims(result)
        row = result.rows[0]
        assert row["runs"] == 4
        assert 0.0 <= row["majority_win_fraction"] <= 1.0
        assert row["stab_time_min"] <= row["stab_time_median"] <= row["stab_time_max"]
        assert set(result.series) >= {
            "grid",
            "undecided_mean",
            "undecided_lower",
            "undecided_upper",
            "undecided_meanfield",
            "stab_times",
        }
        # band ordering everywhere
        assert (
            result.series["undecided_lower"] <= result.series["undecided_upper"]
        ).all()
        # the fluid-limit overlay is always computed, on the band's grid
        overlay = result.series["undecided_meanfield"]
        assert overlay.shape == result.series["grid"].shape
        assert any(
            note.startswith("ensemble mean u(t) tracks the mean-field surrogate")
            for note in result.notes
        )

    def test_partial_shard_report_summarises_polylines(self, tmp_path):
        """A partial-shard report must not dump the raw u(t) polylines
        (checkpoints keep them; the terminal table shows a summary)."""
        result = Figure1EnsembleExperiment(
            n=400,
            k=2,
            bias=40,
            num_seeds=3,
            engine="counts",
            max_parallel_time=2_000.0,
            shard="0/2",
            out=tmp_path,
        ).run()
        assert result.rows  # shard 0/2 of 3 members owns members 0 and 2
        for row in result.rows:
            assert "trace_parallel_times" not in row
            assert "trace_undecided" not in row
            assert "trace_points" in row
        assert result.claims == []  # a partial shard skips finalize

    def test_no_member_stabilized_reports_failing_claims(self):
        result = Figure1EnsembleExperiment(
            n=400, num_seeds=2, max_parallel_time=1.0
        ).run()
        row = result.rows[0]
        assert row["runs"] == 0
        assert row["majority_win_fraction"] is None
        assert row["stab_time_median"] is None
        claims = {claim.name: claim for claim in result.claims}
        win = claims["majority win fraction"]
        assert win.value is None and not win.holds
        assert result.notes == ["no member stabilized within max_parallel_time"]


class TestBinaryLogN:
    @pytest.mark.slow
    def test_small_sweep(self):
        result = BinaryLogNExperiment(
            n_values=(1_000, 2_000, 4_000),
            num_seeds=3,
            engine="counts",
            max_parallel_time=1_000.0,
        ).run()
        assert len(result.rows) == 3
        assert_states_claims(result)
        for row in result.rows:
            assert row["censored_runs"] == 0
            assert row["median_parallel_time"] > 0
            assert "fit_c_ln_n" in row
        assert any("c·ln n" in note or "ln n" in note for note in result.notes)
