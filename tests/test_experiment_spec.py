"""``ExperimentSpec``: registry experiments as first-class spec documents.

The contract: an experiment invocation gets the same declarative
identity as runs/ensembles/sweeps — a canonical ``spec_hash`` over its
*physics* parameters (placement knobs like ``workers``/``backend``
never enter), exact ``to_dict``/``from_dict`` round-trips, dispatch
through ``run_spec`` / ``load_spec``, and the CLI ``--spec`` path.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SpecError
from repro.specs import (
    SCHEMA_VERSION,
    ExperimentSpec,
    ExperimentSpecRun,
    load_spec,
    run_spec,
)

SMALL = {"n": 1500, "max_parallel_time": 200.0}


def test_requires_registered_experiment():
    with pytest.raises(SpecError, match="unknown experiment"):
        ExperimentSpec(name="no-such-experiment")


def test_rejects_unknown_parameters():
    with pytest.raises(SpecError):
        ExperimentSpec(name="fig1-left", params={"not_a_param": 1})


def test_rejects_empty_name():
    with pytest.raises(SpecError):
        ExperimentSpec(name="")


def test_hash_ignores_placement_knobs():
    plain = ExperimentSpec(name="fig1-left", params=SMALL)
    placed = ExperimentSpec(
        name="fig1-left", params={**SMALL, "workers": 4, "backend": "numpy"}
    )
    assert plain.spec_hash() == placed.spec_hash()
    # the sweep trio and fig1-ensemble's persist are placement too
    ensemble = ExperimentSpec(name="fig1-ensemble")
    placed = ExperimentSpec(
        name="fig1-ensemble",
        params={"shard": "0/2", "out": "results", "persist": "runs"},
    )
    assert ensemble.spec_hash() == placed.spec_hash()


#: ``spec_hash`` prefixes at the registry defaults.  Placement
#: parameters never enter the hash, so moving one between experiments
#: (or dropping one) must leave every pin where it is.
PINNED_HASHES = {
    "bias-threshold": "41dc15df1946426f",
    "engine-throughput": "8c554ce422265591",
    "fig1-ensemble": "b7bbdccc5cf6ec11",
    "fig1-left": "c87c55aa9dc1e712",
    "fig1-right": "04bfef99ca494883",
    "graph-topology": "60e856c994cf21ea",
    "lem31-ceiling": "acc4d2dbb3f24662",
    "lem33-growth": "da96f39c0cd8165f",
    "lem34-gap": "202987b8c501fdc4",
    "memory-usd": "294c4699aa605b20",
    "model-comparison": "e8ca5b00be3938fd",
    "thm35-scaling": "1701903fd6454bdd",
    "usd2-logn": "17a42a2058065c3b",
}


def test_default_hashes_are_pinned():
    from repro.experiments import EXPERIMENTS
    from repro.specs import load_spec_file

    hashes = {name: ExperimentSpec(name=name).spec_hash()[:16] for name in EXPERIMENTS}
    assert hashes == PINNED_HASHES
    scenario = load_spec_file("examples/scenarios/experiment_fig1.json")
    assert scenario.spec_hash().startswith("4fb30cd6af99c3d0")


@pytest.mark.parametrize(
    "name, params",
    [
        ("fig1-left", {"fidelity": "auto"}),
        ("lem31-ceiling", {"persist": "runs"}),
        ("fig1-left", {"shard": "0/2"}),
        ("engine-throughput", {"resume": True}),
    ],
)
def test_placement_an_experiment_cannot_honour_is_rejected(name, params):
    with pytest.raises(SpecError, match=next(iter(params))):
        ExperimentSpec(name=name, params=params)


def test_run_spec_rejects_shard_for_non_sweep_experiment(tmp_path):
    from repro.errors import ExperimentError

    spec = ExperimentSpec(name="fig1-left", params=SMALL)
    with pytest.raises(ExperimentError, match="not a sweep experiment"):
        run_spec(spec, shard="0/2", out=tmp_path)


def test_hash_matches_spelled_out_defaults():
    implicit = ExperimentSpec(name="fig1-left", params=SMALL)
    explicit = ExperimentSpec(
        name="fig1-left", params={**SMALL, "seed": 2027, "engine": "auto"}
    )
    assert implicit.spec_hash() == explicit.spec_hash()


def test_hash_sensitive_to_physics():
    base = ExperimentSpec(name="fig1-left", params=SMALL)
    other = ExperimentSpec(name="fig1-left", params={**SMALL, "n": 1501})
    assert base.spec_hash() != other.spec_hash()
    assert base.spec_hash() != ExperimentSpec(name="fig1-right").spec_hash()


def test_metadata_never_enters_the_hash():
    base = ExperimentSpec(name="fig1-left", params=SMALL)
    tagged = ExperimentSpec(
        name="fig1-left", params=SMALL, metadata={"campaign": "x"}
    )
    assert base.spec_hash() == tagged.spec_hash()


def test_dict_round_trip_exact():
    spec = ExperimentSpec(
        name="fig1-left", params=SMALL, metadata={"note": "round trip"}
    )
    payload = spec.to_dict()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["kind"] == "experiment"
    rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == spec
    assert rebuilt.spec_hash() == spec.spec_hash()


def test_from_dict_rejects_unknown_keys():
    payload = ExperimentSpec(name="fig1-left").to_dict()
    payload["extra"] = 1
    with pytest.raises(SpecError, match="unknown"):
        ExperimentSpec.from_dict(payload)


def test_load_spec_dispatches_experiment_kind():
    payload = ExperimentSpec(name="fig1-left", params=SMALL).to_dict()
    spec = load_spec(payload)
    assert isinstance(spec, ExperimentSpec)
    assert spec.name == "fig1-left"


def test_run_spec_executes_experiment():
    spec = ExperimentSpec(name="fig1-left", params=SMALL)
    result = run_spec(spec)
    assert isinstance(result, ExperimentSpecRun)
    assert result.spec_hash == spec.spec_hash()
    assert result.experiment_id == "fig1-left"
    assert len(result.rows) == 1
    assert result.rows[0]["n"] == SMALL["n"]
    assert result.result is not None
    assert result.wall_seconds >= 0.0


def test_cli_runs_experiment_scenario(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(ExperimentSpec(name="fig1-left", params=SMALL).to_dict())
    )
    assert (
        main(
            [
                "run",
                "--spec",
                str(path),
                "--set",
                "params.n=1000",
                "--no-plots",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "spec hash" in out
    assert "1000" in out
