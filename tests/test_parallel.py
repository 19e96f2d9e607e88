"""Tests for the process-pool ensemble runner (repro.parallel).

The central contract: for a fixed root seed, results are bit-identical
for every worker count — ``workers=0`` (in-process), ``workers=1`` and
``workers=2`` must all agree, and the ordering must follow submission
order regardless of completion order.
"""

import numpy as np
import pytest

from repro import Configuration, ParallelError
from repro.analysis import UNDETERMINED_WINNER, usd_stabilization_ensemble
from repro.parallel import (
    available_workers,
    parallel_map,
    resolve_workers,
)
from repro.rng import derive_seed, make_rng, spawn_seeds


def echo_task(item):
    """Module-level so it pickles into worker processes."""
    return item


def draw_task(index):
    """A task whose output depends on the index-derived stream."""
    return float(make_rng(derive_seed(3, index)).random())


def seed_entropy_task(seed_sequence):
    return float(make_rng(seed_sequence).random())


class TestResolveWorkers:
    def test_zero_means_in_process(self):
        assert resolve_workers(0) == 0

    def test_none_means_available_cpus(self):
        assert resolve_workers(None) == available_workers()
        assert available_workers() >= 1

    def test_negative_rejected(self):
        with pytest.raises(ParallelError):
            resolve_workers(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(ParallelError):
            resolve_workers(1.5)


class TestRunEnsemble:
    """The pool contract an ensemble run rests on, through parallel_map."""

    def test_pool_matches_in_process_bitwise(self):
        serial = parallel_map(draw_task, range(8), workers=0)
        for workers in (1, 2):
            assert parallel_map(draw_task, range(8), workers=workers) == serial

    def test_pool_preserves_submission_order(self):
        results = parallel_map(echo_task, range(6), workers=2)
        assert results == list(range(6))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_on_result_sees_every_item_once(self, workers):
        seen = {}
        results = parallel_map(
            echo_task,
            range(5),
            workers=workers,
            on_result=lambda index, value: seen.setdefault(index, value),
        )
        assert results == list(range(5))
        assert seen == {i: i for i in range(5)}

    def test_zero_runs(self):
        assert parallel_map(echo_task, [], workers=0) == []

    def test_lambda_fine_in_process(self):
        assert parallel_map(lambda i: i, range(3), workers=0) == [0, 1, 2]

    def test_lambda_rejected_with_workers(self):
        with pytest.raises(ParallelError, match="pickle"):
            parallel_map(lambda i: i, range(3), workers=1)


class TestMapSeeds:
    def test_spawned_sequences_cross_process(self):
        seeds = spawn_seeds(13, 6)
        serial = parallel_map(seed_entropy_task, seeds, workers=0)
        pooled = parallel_map(seed_entropy_task, spawn_seeds(13, 6), workers=2)
        assert pooled == serial

    def test_parallel_map_identity(self):
        assert parallel_map(abs, [-2, 3, -4], workers=0) == [2, 3, 4]


class TestStabilizationEnsembleParallel:
    def test_workers_bit_identical(self):
        config = Configuration([70, 30])
        kwargs = dict(
            num_seeds=6, seed=1, engine="counts", max_parallel_time=10_000
        )
        serial = usd_stabilization_ensemble(config, workers=0, **kwargs)
        pooled = usd_stabilization_ensemble(config, workers=2, **kwargs)
        assert np.array_equal(serial.times, pooled.times)
        assert np.array_equal(serial.winners, pooled.winners)
        assert serial.censored == pooled.censored

    def test_undetermined_winner_sentinel(self):
        # n = 2 with opinions 1/1: the single effective interaction is a
        # cancellation into the all-undecided absorption — no winner.
        ensemble = usd_stabilization_ensemble(
            Configuration([1, 1]),
            num_seeds=4,
            seed=5,
            engine="counts",
            max_parallel_time=1_000,
        )
        assert ensemble.censored == 0
        assert np.all(ensemble.winners == UNDETERMINED_WINNER)
        assert ensemble.num_undetermined == 4
        assert ensemble.undetermined_fraction == 1.0
        # the sentinel must not leak into winner-frequency statistics
        assert ensemble.majority_win_fraction == 0.0

    def test_decided_ensemble_has_no_undetermined(self):
        ensemble = usd_stabilization_ensemble(
            Configuration([70, 30]),
            num_seeds=5,
            seed=1,
            engine="counts",
            max_parallel_time=10_000,
        )
        assert ensemble.num_undetermined == 0
        assert np.all(ensemble.winners != UNDETERMINED_WINNER)


class TestExperimentWorkersParameter:
    def test_every_experiment_accepts_workers(self):
        from repro.experiments.registry import EXPERIMENTS

        for cls in EXPERIMENTS.values():
            experiment = cls(workers=2)
            assert experiment.params["workers"] == 2

    def test_unknown_parameter_message_lists_workers(self):
        from repro.errors import ExperimentError
        from repro.experiments.figure1 import Figure1Left

        with pytest.raises(ExperimentError, match="workers"):
            Figure1Left(bogus=1)

    def test_cli_exposes_workers_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig1-ensemble", "--workers", "2"])
        assert args.workers == 2

    def test_fig1_ensemble_parallel_matches_serial(self):
        from repro.experiments import get_experiment

        kwargs = dict(
            n=600,
            k=2,
            bias=60,
            num_seeds=3,
            seed=4,
            engine="counts",
            max_parallel_time=4_000.0,
        )
        experiment = get_experiment("fig1-ensemble")
        serial = experiment(workers=0, **kwargs).run()
        pooled = experiment(workers=2, **kwargs).run()
        assert np.array_equal(
            serial.series["stab_times"], pooled.series["stab_times"]
        )
        assert np.array_equal(
            serial.series["undecided_mean"], pooled.series["undecided_mean"]
        )
        assert (
            serial.rows[0]["majority_win_fraction"]
            == pooled.rows[0]["majority_win_fraction"]
        )
