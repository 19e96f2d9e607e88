"""Unit tests for the repro command-line interface."""

import json

import pytest

from repro.cli import main, parse_overrides
from repro.errors import ReproError
from repro.io import load_result_rows


class TestParseOverrides:
    def test_literals(self):
        overrides = parse_overrides(["n=5000", "epsilon=0.01", "ks=(2,4)"])
        assert overrides == {"n": 5000, "epsilon": 0.01, "ks": (2, 4)}

    def test_bare_strings_kept(self):
        assert parse_overrides(["engine=batch"]) == {"engine": "batch"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ReproError):
            parse_overrides(["n5000"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1-left" in out
        assert "thm35-scaling" in out

    def test_run_with_overrides(self, capsys, tmp_path):
        code = main(
            [
                "run",
                "engine-throughput",
                "--set", "n=600",
                "--set", "k=3",
                "--set", "num_seeds=2",
                "--set", "throughput_interactions=2000",
                "--set", "throughput_n=1000",
                "--out", str(tmp_path),
                "--no-plots",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "agent" in out and "batch" in out
        assert (tmp_path / "engine-throughput.json").exists()

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "nope"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_bad_override_fails(self, capsys):
        assert main(["run", "fig1-left", "--set", "bogus=1"]) == 1
        assert "unknown parameters" in capsys.readouterr().err



class TestSweepCommands:
    """Shards run through ``repro run <id> --shard``; a full ``repro run
    <id> --out DIR --resume`` merges them; ``repro sweep status`` stays."""

    OVERRIDES = [
        "--set", "n_values=(400,600,900)",
        "--set", "num_seeds=2",
        "--set", "engine=counts",
        "--set", "max_parallel_time=400.0",
    ]

    def _run(self, *argv, out):
        return main(["run", *argv, "--out", str(out), *self.OVERRIDES])

    def _status(self, out):
        return main(
            ["sweep", "status", "usd2-logn", "--out", str(out), *self.OVERRIDES]
        )

    def test_sharded_run_status_merge(self, capsys, tmp_path):
        assert self._run("usd2-logn", "--shard", "0/2", out=tmp_path) == 0
        capsys.readouterr()

        assert self._status(tmp_path) == 0
        out = capsys.readouterr().out
        assert "2/3 points checkpointed" in out and "missing" in out

        assert self._run("usd2-logn", "--shard", "1/2", out=tmp_path) == 0
        capsys.readouterr()
        # a partial shard writes only its checkpoints, never the artifact
        assert not (tmp_path / "usd2-logn.json").exists()
        assert not (tmp_path / "usd2-logn" / "merged.json").exists()

        assert self._status(tmp_path) == 0
        assert "--resume" in capsys.readouterr().out

        assert self._run("usd2-logn", "--resume", out=tmp_path) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "usd2-logn" / "merged.json").exists()
        assert (tmp_path / "usd2-logn" / "provenance.json").exists()
        provenance = json.loads(
            (tmp_path / "usd2-logn" / "provenance.json").read_text()
        )
        assert set(provenance["shard_map"].values()) == {"0/2", "1/2"}

    def test_full_run_merged_json_matches_shards_plus_resume(self, tmp_path):
        unsharded, sharded = tmp_path / "unsharded", tmp_path / "sharded"
        assert self._run("usd2-logn", out=unsharded) == 0
        for shard in ("0/2", "1/2"):
            assert self._run("usd2-logn", "--shard", shard, out=sharded) == 0
        assert self._run("usd2-logn", "--resume", out=sharded) == 0
        assert (unsharded / "usd2-logn" / "merged.json").read_bytes() == (
            sharded / "usd2-logn" / "merged.json"
        ).read_bytes()

    def test_resume_after_one_shard_computes_the_missing_points(self, tmp_path):
        assert self._run("usd2-logn", "--shard", "0/2", out=tmp_path) == 0
        assert self._run("usd2-logn", "--resume", out=tmp_path) == 0
        provenance = json.loads(
            (tmp_path / "usd2-logn" / "provenance.json").read_text()
        )
        # points 0 and 2 came from the shard; the merging run computed 1
        assert provenance["shard_map"] == {
            "n=400,k=2,bias=49": "0/2",
            "n=600,k=2,bias=62": "0/1",
            "n=900,k=2,bias=79": "0/2",
        }

    def test_empty_shard_is_a_noop_not_a_failure(self, capsys, tmp_path):
        """More shards than grid points: the extra shards own nothing."""
        assert self._run("usd2-logn", "--shard", "4/5", out=tmp_path) == 0
        out = capsys.readouterr().out
        assert "0/3 grid points" in out

    def test_resume_flag_accepted(self, capsys, tmp_path):
        assert self._run("usd2-logn", out=tmp_path) == 0
        capsys.readouterr()
        assert self._run("usd2-logn", "--resume", out=tmp_path) == 0

    def test_sweep_merge_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "merge", "usd2-logn", "--out", str(tmp_path)])
        assert "invalid choice" in capsys.readouterr().err

    def test_non_sweep_experiment_rejected(self, capsys, tmp_path):
        code = main(["run", "fig1-left", "--shard", "0/2", "--out", str(tmp_path)])
        assert code == 1
        assert "not a sweep experiment" in capsys.readouterr().err

    def test_bad_shard_spec_fails(self, capsys, tmp_path):
        code = main(
            [
                "run", "usd2-logn",
                "--shard", "9/3",
                "--out", str(tmp_path),
                *self.OVERRIDES,
            ]
        )
        assert code == 1
        assert "shard" in capsys.readouterr().err


class TestOneExecutor:
    """``repro run <id>`` and ``repro run --spec`` share one executor:
    flags an experiment cannot honour fail naming themselves, and both
    forms write the same artifacts."""

    PARAMS = {
        "n_values": [400, 600, 900],
        "num_seeds": 2,
        "engine": "counts",
        "max_parallel_time": 400.0,
    }

    def _experiment_doc(self, tmp_path, name, params):
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "experiment",
                    "name": name,
                    "params": params,
                }
            )
        )
        return path

    def test_fidelity_on_an_experiment_fails_naming_it(self, capsys):
        assert main(["run", "fig1-left", "--fidelity", "surrogate"]) == 1
        assert "fidelity" in capsys.readouterr().err

    def test_persist_outside_fig1_ensemble_fails_naming_it(self, capsys, tmp_path):
        code = main(["run", "lem31-ceiling", "--persist", str(tmp_path / "p")])
        assert code == 1
        assert "persist" in capsys.readouterr().err

    def test_spec_shard_on_non_sweep_experiment_fails(self, capsys, tmp_path):
        code = main(
            [
                "run",
                "--spec",
                "examples/scenarios/experiment_fig1.json",
                "--shard",
                "0/2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "not a sweep experiment" in capsys.readouterr().err

    def test_spec_empty_shard_is_a_noop(self, capsys, tmp_path):
        doc = self._experiment_doc(tmp_path, "usd2-logn", self.PARAMS)
        code = main(
            ["run", "--spec", str(doc), "--shard", "4/5", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "0/3 grid points" in capsys.readouterr().out

    def test_id_and_spec_forms_write_the_same_artifacts(self, tmp_path):
        overrides = []
        for name, value in self.PARAMS.items():
            literal = tuple(value) if isinstance(value, list) else value
            overrides += ["--set", f"{name}={literal!r}"]
        by_id, by_spec = tmp_path / "by-id", tmp_path / "by-spec"
        assert main(["run", "usd2-logn", "--out", str(by_id), *overrides]) == 0
        doc = self._experiment_doc(tmp_path, "usd2-logn", self.PARAMS)
        assert main(["run", "--spec", str(doc), "--out", str(by_spec)]) == 0

        def written(root):
            return sorted(str(path.relative_to(root)) for path in root.rglob("*"))

        assert written(by_id) == written(by_spec)
        assert "usd2-logn.json" in written(by_id)
        assert any(name.startswith("usd2-logn/point-") for name in written(by_id))
        rows_id, extra_id = load_result_rows(by_id / "usd2-logn.json")
        rows_spec, extra_spec = load_result_rows(by_spec / "usd2-logn.json")
        assert rows_id == rows_spec
        assert extra_id["notes"] == extra_spec["notes"]


class TestFidelityCommands:
    SCENARIO = "examples/scenarios/meanfield_fastpath.json"

    def test_parsers_accept_fidelity(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "fig1-left", "--fidelity", "auto"])
        assert args.fidelity == "auto"

    def test_run_spec_surrogate_fast_path(self, capsys):
        assert main(["run", "--spec", self.SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "auto -> surrogate" in out
        assert "TRUSTED" in out

    def test_run_spec_fidelity_flag_overrides(self, capsys):
        assert main(
            ["run", "--spec", self.SCENARIO, "--fidelity", "exact",
             "--set", "initial.n=600", "--set", "initial.params.bias=80",
             "--set", "max_parallel_time=600.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "fidelity" not in out  # exact rows stay pre-fidelity shaped

    def test_spec_validate_rejects_unknown_fidelity(self, capsys):
        code = main(
            ["spec", "validate", self.SCENARIO, "--set", "fidelity=psychic"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown fidelity" in err and "surrogate" in err

    def test_surrogate_run_prints_validity(self, capsys):
        assert main(
            ["run", "--spec", self.SCENARIO, "--fidelity", "surrogate"]
        ) == 0
        out = capsys.readouterr().out
        assert "TRUSTED" in out and "bias margin" in out
        # the ODE timescales of the surrogate answer
        for label in ("plateau entry", "maj. doubling", "consensus"):
            assert f"\n{label:<16} " in out

    def test_meanfield_fixed_points(self, capsys):
        assert main(["meanfield", "fixed-points", self.SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "undecided v*" in out
        assert "unstable" in out and "stable" in out

