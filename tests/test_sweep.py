"""Tests for the sharded sweep-execution subsystem (repro.sweep).

The two contracts under test, straight from the subsystem's spec:

1. **Sharding determinism** — a sweep executed as m shards (any m ≥ 1,
   any worker count) and merged by a full ``resume=True`` run is
   bit-identical to the serial single-host sweep: same rows, same
   per-point seeds, and the ``merged.json`` artifact is byte-for-byte
   equal.
2. **Resume semantics** — a sweep killed mid-shard and re-run with
   ``resume=True`` completes without re-executing checkpointed points,
   and the merged result is byte-identical to an uninterrupted run.
"""

import json

import pytest

from repro.errors import ExperimentError, SweepError
from repro.rng import derive_seed
from repro.sweep import (
    ShardSpec,
    SweepPlan,
    load_checkpoint,
    run_sweep,
    sweep_status,
)
from repro.sweep.runner import sweep_directory
from repro.workloads.sweeps import SweepPoint


def toy_task(point, point_seed):
    """Module-level so it pickles into pool workers."""
    return {
        "n": point.n,
        "k": point.k,
        "bias": point.bias,
        "seed": point_seed,
        "value": point_seed % 9973,
    }


class ExplodingTask:
    """Simulates a sweep killed mid-shard: dies on a chosen grid point."""

    def __init__(self, explode_at):
        self.explode_at = explode_at

    def __call__(self, point, point_seed):
        if point.label == self.explode_at:
            raise RuntimeError(f"killed at {point.label}")
        return toy_task(point, point_seed)


class CountingTask:
    """Counts executions (workers=0 only — state lives in-process)."""

    def __init__(self):
        self.calls = []

    def __call__(self, point, point_seed):
        self.calls.append(point.label)
        return toy_task(point, point_seed)


def make_plan(num_points=6, root_seed=123, sweep_id="toy"):
    points = tuple(
        SweepPoint(n=1_000 + 10 * i, k=3, bias=7, label=f"p{i}")
        for i in range(num_points)
    )
    return SweepPlan(sweep_id, points, root_seed=root_seed, meta={"kind": "toy"})


class TestShardSpec:
    def test_parse_forms(self):
        assert ShardSpec.parse(None) == ShardSpec(0, 1)
        assert ShardSpec.parse("2/5") == ShardSpec(2, 5)
        assert ShardSpec.parse(" 1 / 3 ") == ShardSpec(1, 3)
        spec = ShardSpec(1, 4)
        assert ShardSpec.parse(spec) is spec

    def test_invalid_specs_rejected(self):
        for bad in ("2/2", "-1/2", "a/b", "1", "1/0", ""):
            with pytest.raises(SweepError):
                ShardSpec.parse(bad)
        with pytest.raises(SweepError):
            ShardSpec(3, 3)
        with pytest.raises(SweepError):
            ShardSpec(0, 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_shards_partition_the_grid(self, m):
        """Disjoint and jointly exhaustive for every shard count."""
        indices = range(17)
        owners = [
            [i for i in indices if ShardSpec(s, m).owns(i)] for s in range(m)
        ]
        flat = sorted(i for owned in owners for i in owned)
        assert flat == list(indices)

    def test_str_roundtrip(self):
        assert str(ShardSpec(2, 7)) == "2/7"
        assert ShardSpec.parse(str(ShardSpec(2, 7))) == ShardSpec(2, 7)


class TestSweepPlan:
    def test_point_seed_contract(self):
        """Seed = derive_seed(root, grid index) — nothing else enters."""
        plan = make_plan(root_seed=99)
        for index in range(len(plan)):
            assert plan.point_seed(index) == derive_seed(99, index)
        assert plan.point_seeds() == [
            derive_seed(99, i) for i in range(len(plan))
        ]

    def test_point_seed_out_of_range(self):
        plan = make_plan(3)
        with pytest.raises(SweepError):
            plan.point_seed(3)

    def test_items_follow_shards(self):
        plan = make_plan(5)
        assert [i for i, _ in plan.items("0/2")] == [0, 2, 4]
        assert [i for i, _ in plan.items("1/2")] == [1, 3]
        assert [i for i, _ in plan.items(None)] == [0, 1, 2, 3, 4]

    def test_duplicate_canonical_labels_rejected(self):
        points = (
            SweepPoint(n=100, k=2, bias=5),
            SweepPoint(n=100, k=2, bias=5, label="other display label"),
        )
        with pytest.raises(ExperimentError):
            SweepPlan("dup", points, root_seed=0)

    def test_extras_disambiguate_points(self):
        """Same (n, k, bias), different extras → distinct labels, valid plan."""
        points = (
            SweepPoint(n=100, k=2, bias=5, extras={"alpha": 1}),
            SweepPoint(n=100, k=2, bias=5, extras={"alpha": 2}),
        )
        plan = SweepPlan("alphas", points, root_seed=0)
        labels = {p.canonical_label for p in plan.points}
        assert len(labels) == 2

    def test_empty_plan_rejected(self):
        with pytest.raises(SweepError):
            SweepPlan("empty", (), root_seed=0)

    def test_bad_sweep_id_rejected(self):
        point = SweepPoint(n=100, k=2, bias=5)
        with pytest.raises(SweepError):
            SweepPlan("bad id/with slash", (point,), root_seed=0)

    def test_checkpoint_names_unique_and_safe(self):
        points = (
            SweepPoint(n=100, k=2, bias=5, extras={"bias_label": "√(n·ln n)"}),
            SweepPoint(n=100, k=2, bias=5, extras={"bias_label": "2·√n"}),
        )
        plan = SweepPlan("uni", points, root_seed=0)
        names = [plan.checkpoint_name(i) for i in range(2)]
        assert len(set(names)) == 2
        for name in names:
            assert name.endswith(".json")
            assert "/" not in name and "√" not in name


class TestRunSweep:
    def test_rows_in_grid_order(self, tmp_path):
        plan = make_plan(5)
        run = run_sweep(plan, toy_task, out_dir=tmp_path)
        assert [o.index for o in run.outcomes] == [0, 1, 2, 3, 4]
        assert len(run.outcomes) - run.reused == 5 and run.reused == 0
        assert [row["seed"] for row in run.rows] == plan.point_seeds()

    def test_checkpoints_written_per_point(self, tmp_path):
        plan = make_plan(4)
        run = run_sweep(plan, toy_task, out_dir=tmp_path, shard="1/2")
        directory = sweep_directory(plan, tmp_path)
        written = sorted(p.name for p in directory.iterdir())
        assert written == [plan.checkpoint_name(1), plan.checkpoint_name(3)]
        assert run.artifacts == ()  # a partial shard merges nothing
        payload = load_checkpoint(directory / plan.checkpoint_name(1))
        assert payload["shard"] == "1/2"
        assert payload["root_seed"] == plan.root_seed
        assert payload["seed"] == plan.point_seed(1)

    def test_no_out_dir_means_no_checkpoints(self):
        plan = make_plan(3)
        run = run_sweep(plan, toy_task)
        assert len(run.outcomes) == 3
        assert run.artifacts == ()

    def test_resume_requires_out_dir(self):
        plan = make_plan(2)
        with pytest.raises(SweepError):
            run_sweep(plan, toy_task, resume=True)

    def test_partial_shard_requires_out_dir(self):
        """The one home of the check every sweep front-end relies on."""
        plan = make_plan(2)
        with pytest.raises(SweepError, match="needs an 'out'"):
            run_sweep(plan, toy_task, shard="0/2")
        assert len(run_sweep(plan, toy_task, shard="0/1").outcomes) == 2

    def test_pool_workers_match_serial(self, tmp_path):
        """Worker count is a pure throughput knob — same rows either way."""
        plan = make_plan(6)
        serial = run_sweep(plan, toy_task)
        pooled = run_sweep(plan, toy_task, workers=2, out_dir=tmp_path)
        assert serial.rows == pooled.rows

    def test_checkpoint_from_other_plan_rejected(self, tmp_path):
        plan = make_plan(3, root_seed=1)
        run_sweep(plan, toy_task, out_dir=tmp_path)
        imposter = make_plan(3, root_seed=2)
        with pytest.raises(SweepError):
            run_sweep(imposter, toy_task, out_dir=tmp_path, resume=True)
        with pytest.raises(SweepError):
            sweep_status(imposter, tmp_path)

    def test_checkpoint_with_other_meta_rejected(self, tmp_path):
        """Same grid + seed but different computation parameters: not
        reusable — the checkpointed numbers were computed differently."""
        plan = make_plan(3)
        run_sweep(plan, toy_task, out_dir=tmp_path)
        other = SweepPlan(
            plan.sweep_id, plan.points, plan.root_seed, meta={"kind": "other"}
        )
        with pytest.raises(SweepError, match="meta"):
            run_sweep(other, toy_task, out_dir=tmp_path, resume=True)
        with pytest.raises(SweepError, match="meta"):
            sweep_status(other, tmp_path)

    def test_non_dict_row_rejected(self):
        plan = make_plan(1)
        with pytest.raises(SweepError):
            run_sweep(plan, lambda point, seed: [1, 2, 3])


class TestResumeSemantics:
    """The acceptance contract: kill mid-shard, resume, byte-identical."""

    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        plan = make_plan(6)
        clean_dir = tmp_path / "clean"
        interrupted_dir = tmp_path / "interrupted"

        # the uninterrupted reference run
        reference = run_sweep(plan, toy_task, out_dir=clean_dir).artifacts

        # a run killed at grid point p3: p0–p2 are checkpointed, the rest lost
        with pytest.raises(RuntimeError, match="killed at p3"):
            run_sweep(plan, ExplodingTask("p3"), out_dir=interrupted_dir)
        directory = sweep_directory(plan, interrupted_dir)
        assert len(list(directory.glob("point-*.json"))) == 3

        # resume: only the 3 unfinished points execute
        counter = CountingTask()
        resumed = run_sweep(plan, counter, out_dir=interrupted_dir, resume=True)
        assert counter.calls == ["p3", "p4", "p5"]
        assert resumed.reused == 3 and len(resumed.outcomes) - resumed.reused == 3

        # the merged artifact is byte-identical to the uninterrupted run
        merged = resumed.artifacts
        assert reference[0].read_bytes() == merged[0].read_bytes()

    def test_resume_on_complete_sweep_executes_nothing(self, tmp_path):
        plan = make_plan(4)
        run_sweep(plan, toy_task, out_dir=tmp_path)
        counter = CountingTask()
        resumed = run_sweep(plan, counter, out_dir=tmp_path, resume=True)
        assert counter.calls == []
        assert resumed.reused == 4 and len(resumed.outcomes) - resumed.reused == 0
        assert resumed.rows == run_sweep(plan, toy_task).rows


class TestMergeAndStatus:
    """A whole-plan run with an out_dir is the merge."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_any_sharding_merges_bit_identical(self, tmp_path, m):
        plan = make_plan(7)
        serial_dir = tmp_path / "serial"
        sharded_dir = tmp_path / f"sharded{m}"
        serial = run_sweep(plan, toy_task, out_dir=serial_dir).artifacts
        for shard_index in range(m):
            run_sweep(
                plan, toy_task, out_dir=sharded_dir, shard=f"{shard_index}/{m}"
            )
        merge = run_sweep(plan, toy_task, out_dir=sharded_dir, resume=True)
        assert merge.reused == len(merge.outcomes)
        assert serial[0].read_bytes() == merge.artifacts[0].read_bytes()

    def test_merged_provenance(self, tmp_path):
        plan = make_plan(4)
        run_sweep(plan, toy_task, out_dir=tmp_path, shard="0/2")
        run_sweep(plan, toy_task, out_dir=tmp_path, shard="1/2")
        merge = run_sweep(plan, toy_task, out_dir=tmp_path, resume=True)
        shards = [outcome.shard for outcome in merge.outcomes]
        assert shards == ["0/2", "1/2", "0/2", "1/2"]
        provenance = json.loads(merge.artifacts[1].read_text())
        assert provenance["root_seed"] == plan.root_seed
        assert provenance["point_seeds"] == plan.point_seeds()
        assert provenance["shard_map"][plan.points[0].canonical_label] == "0/2"
        assert provenance["shard_map"][plan.points[1].canonical_label] == "1/2"
        assert provenance["meta"] == {"kind": "toy"}
        assert {"shard_map", "repo_state", "point_seeds"} <= set(provenance)
        assert "commit" in provenance["repo_state"]

    def test_merge_after_one_shard_computes_only_the_missing(self, tmp_path):
        """Merging an incomplete sweep computes the rest as shard 0/1."""
        plan = make_plan(5)
        run_sweep(plan, toy_task, out_dir=tmp_path, shard="0/2")
        counter = CountingTask()
        merge = run_sweep(plan, counter, out_dir=tmp_path, resume=True)
        assert counter.calls == ["p1", "p3"]
        provenance = json.loads(merge.artifacts[1].read_text())
        shards = [provenance["shard_map"][p.canonical_label] for p in plan.points]
        assert shards == ["0/2", "0/1", "0/2", "0/1", "0/2"]
        assert merge.rows == run_sweep(plan, toy_task).rows

    def test_status_tracks_progress(self, tmp_path):
        plan = make_plan(5)
        status = sweep_status(plan, tmp_path)
        assert not status.complete and len(status.missing) == 5
        run_sweep(plan, toy_task, out_dir=tmp_path, shard="0/2")
        status = sweep_status(plan, tmp_path)
        assert status.done == (0, 2, 4) and status.missing == (1, 3)
        assert status.shards_seen == ("0/2",)
        run_sweep(plan, toy_task, out_dir=tmp_path, shard="1/2")
        status = sweep_status(plan, tmp_path)
        assert status.complete and status.shards_seen == ("0/2", "1/2")

    def test_artifact_files(self, tmp_path):
        plan = make_plan(2)
        written = run_sweep(plan, toy_task, out_dir=tmp_path).artifacts
        directory = sweep_directory(plan, tmp_path)
        assert written == (
            directory / "merged.json",
            directory / "provenance.json",
        )
        merged_payload = json.loads(written[0].read_text())
        assert merged_payload["extra"]["root_seed"] == plan.root_seed
        assert merged_payload["extra"]["points"] == [
            p.canonical_label for p in plan.points
        ]
        assert len(merged_payload["rows"]) == 2
        provenance_payload = json.loads(written[1].read_text())
        assert provenance_payload["meta"] == {"kind": "toy"}


class TestSweepExperiments:
    """The rewired registry experiments ride the sweep layer."""

    COMMON = dict(
        n_values=(400, 600, 900),
        num_seeds=2,
        engine="counts",
        max_parallel_time=400.0,
    )

    def test_partial_shard_returns_partial_result(self, tmp_path):
        from repro.experiments import BinaryLogNExperiment

        result = BinaryLogNExperiment(
            shard="0/2", out=tmp_path, **self.COMMON
        ).run()
        assert len(result.rows) == 2  # points 0 and 2 of 3
        assert "partial sweep" in result.notes[0]

    def test_partial_shard_without_out_rejected(self):
        """A shard with nowhere to checkpoint would silently lose its work."""
        from repro.experiments import BinaryLogNExperiment

        with pytest.raises(SweepError, match="out"):
            BinaryLogNExperiment(shard="0/2", **self.COMMON).run()

    def test_experiment_resume_with_changed_params_rejected(self, tmp_path):
        """Changing --set overrides between shards must not mix results."""
        from repro.experiments import BinaryLogNExperiment

        BinaryLogNExperiment(out=tmp_path, **self.COMMON).run()
        changed = dict(self.COMMON, num_seeds=3)
        with pytest.raises(SweepError, match="meta"):
            BinaryLogNExperiment(out=tmp_path, resume=True, **changed).run()

    def test_sharded_experiment_merge_matches_unsharded(self, tmp_path):
        from repro.experiments import BinaryLogNExperiment

        unsharded = BinaryLogNExperiment(**self.COMMON).run()
        for shard in ("0/2", "1/2"):
            BinaryLogNExperiment(shard=shard, out=tmp_path, **self.COMMON).run()
        final = BinaryLogNExperiment(out=tmp_path, resume=True, **self.COMMON).run()
        assert final.rows == unsharded.rows
        assert final.notes == unsharded.notes
        assert (tmp_path / "usd2-logn" / "merged.json").exists()

    def test_resume_skips_finished_experiment_points(self, tmp_path):
        from repro.experiments import BinaryLogNExperiment

        first = BinaryLogNExperiment(out=tmp_path, **self.COMMON).run()
        resumed = BinaryLogNExperiment(
            out=tmp_path, resume=True, **self.COMMON
        ).run()
        assert resumed.rows == first.rows

    @pytest.mark.slow
    def test_full_grid_scaling_sharded_vs_unsharded(self, tmp_path):
        """Full thm35-scaling grid, 3 shards vs serial — identical rows."""
        from repro.experiments import ScalingExperiment

        common = dict(
            n=2_000,
            k_values=(3, 4, 5, 6),
            num_seeds=2,
            engine="counts",
            max_parallel_time=2_000.0,
        )
        unsharded = ScalingExperiment(**common).run()
        for shard_index in range(3):
            ScalingExperiment(
                shard=f"{shard_index}/3", out=tmp_path, **common
            ).run()
        final = ScalingExperiment(out=tmp_path, resume=True, **common).run()
        assert final.rows == unsharded.rows

    @pytest.mark.slow
    def test_full_grid_bias_threshold_sharded_vs_unsharded(self, tmp_path):
        """Full bias-threshold grid (2 k-values × 6 biases), 2 shards."""
        from repro.experiments import BiasThresholdExperiment

        common = dict(
            n=2_000,
            k_values=(2, 3),
            num_seeds=2,
            engine="counts",
            max_parallel_time=2_000.0,
        )
        unsharded = BiasThresholdExperiment(**common).run()
        for shard in ("0/2", "1/2"):
            BiasThresholdExperiment(shard=shard, out=tmp_path, **common).run()
        final = BiasThresholdExperiment(out=tmp_path, resume=True, **common).run()
        assert final.rows == unsharded.rows
        assert len(final.rows) == 12
