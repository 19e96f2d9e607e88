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
    "bias-threshold": "6a0cf404f831a2f7",
    "engine-throughput": "8c554ce422265591",
    "fig1-ensemble": "e31d35ea824c4173",
    "fig1-left": "cb41113597c79361",
    "fig1-right": "015e096488bed5be",
    "graph-topology": "60e856c994cf21ea",
    "lem31-ceiling": "f6fa325f1d618c61",
    "lem33-growth": "be9b0aae0d0e2d64",
    "lem34-gap": "c2b95b9330491948",
    "memory-usd": "f5fee608e9873677",
    "model-comparison": "858f77b51c02d8e4",
    "thm35-scaling": "e92ad36b4c3cbcd1",
    "usd2-logn": "23f7fa76701d1544",
}


def test_default_hashes_are_pinned():
    from repro.experiments import EXPERIMENTS
    from repro.specs import load_spec_file

    hashes = {name: ExperimentSpec(name=name).spec_hash()[:16] for name in EXPERIMENTS}
    assert hashes == PINNED_HASHES
    scenario = load_spec_file("examples/scenarios/experiment_fig1.json")
    assert scenario.spec_hash().startswith("f92779060152cacf")


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
        name="fig1-left", params={**SMALL, "seed": 2027, "engine": "batch"}
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
