"""The unified result-document schema: one wire shape for every result.

The contract under test: ``to_document`` renders any result kind into
a canonical, versioned JSON document; ``result_from_document`` inverts
it so that re-rendering reproduces the document *bit for bit*
(``document_bytes`` equality — the same identity the serve layer's
cache-hit guarantee rests on); and ``document_from_persisted_run``
builds the identical document from a persisted run directory alone.
"""

from __future__ import annotations

import json

import pytest

from repro.core.run import RunResult
from repro.errors import SpecError
from repro.specs import (
    EnsembleSpec,
    ExperimentSpec,
    RunSpec,
    document_bytes,
    document_from_persisted_run,
    result_from_document,
    run_spec,
    summary_row,
    to_document,
)

SPEC_PAYLOAD = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "usd", "k": 3},
    "initial": {"kind": "equal-minorities", "n": 2000, "params": {"bias": 150}},
    "engine": "batch",
    "seed": 424,
    "max_parallel_time": 300.0,
    "stop_when_stable": True,
}


@pytest.fixture(scope="module")
def run_and_spec():
    spec = RunSpec.from_dict(SPEC_PAYLOAD)
    return run_spec(spec), spec


def test_run_document_shape(run_and_spec):
    result, spec = run_and_spec
    document = to_document(result, spec)
    assert document["kind"] == "result"
    assert document["result_kind"] == "run"
    assert document["spec_hash"] == spec.spec_hash()
    assert document["spec"] == spec.to_dict()
    outcome = document["outcome"]
    assert outcome["stabilized"] == result.stabilized
    assert outcome["winner"] == result.winner
    assert outcome["interactions"] == result.interactions
    # the summary block is exactly the tabular summary_row vocabulary
    assert set(document["summary"]) == {
        "stabilized",
        "winner",
        "interactions",
        "parallel_time",
        "stabilization_parallel_time",
    }


def test_run_document_round_trips_bit_for_bit(run_and_spec):
    result, spec = run_and_spec
    document = to_document(result, spec)
    rebuilt = result_from_document(json.loads(json.dumps(document)))
    assert document_bytes(to_document(rebuilt, spec)) == document_bytes(document)
    assert rebuilt.winner == result.winner
    assert rebuilt.interactions == result.interactions
    assert list(rebuilt.final_counts) == list(result.final_counts)


def test_document_without_spec_has_null_spec(run_and_spec):
    result, _spec = run_and_spec
    document = to_document(result)
    assert document["spec"] is None
    rebuilt = result_from_document(document)
    assert document_bytes(to_document(rebuilt)) == document_bytes(document)


def test_spec_hash_mismatch_is_rejected(run_and_spec):
    result, _spec = run_and_spec
    other = RunSpec.from_dict({**SPEC_PAYLOAD, "seed": 99})
    with pytest.raises(SpecError, match="hash"):
        to_document(result, other)


def test_obs_metrics_hoisted_to_top_level(run_and_spec):
    result, spec = run_and_spec
    result.metadata["obs_metrics"] = {"counters": {"x_total": 3.0}}
    try:
        document = to_document(result, spec)
        assert document["obs_metrics"] == {"counters": {"x_total": 3.0}}
        assert "obs_metrics" not in document["metadata"]
        rebuilt = result_from_document(document)
        assert rebuilt.metadata["obs_metrics"] == {"counters": {"x_total": 3.0}}
        assert document_bytes(to_document(rebuilt, spec)) == document_bytes(
            document
        )
    finally:
        del result.metadata["obs_metrics"]


def test_ensemble_document_round_trips():
    spec = EnsembleSpec.from_dict(
        {
            "schema_version": 1,
            "kind": "ensemble",
            "run": {**SPEC_PAYLOAD, "seed": None},
            "num_runs": 3,
            "root_seed": 11,
        }
    )
    document = to_document(run_spec(spec), spec)
    assert document["result_kind"] == "ensemble"
    assert document["summary"]["members"] == 3
    rebuilt = result_from_document(document)
    assert document_bytes(to_document(rebuilt, spec)) == document_bytes(document)


def test_experiment_document_round_trips():
    spec = ExperimentSpec(
        name="fig1-left", params={"n": 1500, "max_parallel_time": 200.0}
    )
    result = run_spec(spec)
    document = to_document(result, spec)
    assert document["result_kind"] == "experiment"
    assert document["outcome"]["experiment_id"] == "fig1-left"
    claims = document["outcome"]["claims"]
    assert claims == [claim.as_dict() for claim in result.result.claims]
    assert {tuple(claim) for claim in claims} == {("name", "value", "bound", "holds")}
    rebuilt = result_from_document(json.loads(json.dumps(document)))
    assert rebuilt.claims == tuple(claims)
    assert document_bytes(to_document(rebuilt, spec)) == document_bytes(document)


@pytest.mark.parametrize(
    "name, params, field, claim_name",
    [
        (
            "fig1-left",
            {"n": 1000, "max_parallel_time": 3.0},
            "amir_band_violation_in_sqrt_nlogn",
            "Amir et al.'s band",
        ),
        (
            "fig1-ensemble",
            {"n": 400, "k": 2, "bias": 300, "num_seeds": 2},
            "mean_u_plateau_dev_in_sqrt_nlogn",
            "settled window",
        ),
        # no member stabilizes: every statistic is None, not an exception
        (
            "fig1-ensemble",
            {"n": 400, "num_seeds": 2, "max_parallel_time": 1.0},
            "mean_u_plateau_dev_in_sqrt_nlogn",
            "settled window",
        ),
    ],
)
def test_experiment_with_empty_settled_window_round_trips(
    name, params, field, claim_name
):
    """A run too short to have a settled window records its band
    measurement as ``None`` (not NaN), so its document builds; the
    claim on it reads ``null`` and fails."""
    spec = ExperimentSpec(name=name, params=params)
    result = run_spec(spec)
    assert result.result.rows[0][field] is None
    document = to_document(result, spec)
    (claim,) = [
        claim for claim in document["outcome"]["claims"] if claim_name in claim["name"]
    ]
    assert claim["value"] is None and claim["holds"] is False
    rebuilt = result_from_document(json.loads(json.dumps(document)))
    assert rebuilt.rows[0][field] is None
    assert document_bytes(to_document(rebuilt, spec)) == document_bytes(document)


def test_experiment_document_without_claims_round_trips_bit_for_bit():
    """An experiment document written before experiments stated claims
    has no ``outcome.claims``; it loads with none and re-renders to the
    same bytes."""
    spec = ExperimentSpec(name="lem33-growth", params={"n": 3000, "k_values": [4]})
    document = {
        "schema_version": 1,
        "kind": "result",
        "result_kind": "experiment",
        "spec_hash": spec.spec_hash(),
        "spec": spec.to_dict(),
        "outcome": {
            "experiment_id": "lem33-growth",
            "title": "Lemma 3.3: growing 3n/2k → 2n/k takes ≥ kn/25 interactions",
            "rows": [{"n": 3000, "k": 4, "bound_holds": True, "censored_runs": 5}],
            "notes": ["all measured growth times respect the kn/25 lower bound"],
            "params": {"n": 3000, "k_values": [4], "seed": 33, "workers": 0},
            "series": [],
        },
        "summary": {"rows": 1, "notes": 1},
        "obs_metrics": None,
        "persist_dir": None,
        "wall_seconds": 0.25,
        "metadata": {},
    }
    rebuilt = result_from_document(document)
    assert rebuilt.claims == ()
    assert document_bytes(to_document(rebuilt, spec)) == document_bytes(document)


def test_rejects_foreign_documents(run_and_spec):
    result, spec = run_and_spec
    document = to_document(result, spec)
    with pytest.raises(SpecError):
        result_from_document({**document, "kind": "not-a-result"})
    with pytest.raises(SpecError):
        result_from_document({**document, "result_kind": "mystery"})
    with pytest.raises(SpecError):
        result_from_document({**document, "schema_version": 999})


def test_persisted_run_yields_identical_document(tmp_path):
    spec = RunSpec.from_dict(
        {
            **SPEC_PAYLOAD,
            "recording": {"persist_to": str(tmp_path / "runs")},
        }
    )
    result = run_spec(spec)
    assert result.persist_dir is not None
    live = to_document(result, spec)
    from_disk = document_from_persisted_run(result.persist_dir)
    assert from_disk is not None
    # modulo the persist_dir pointer (the live result carries it, the
    # disk document *is* it), the two renderings agree byte for byte
    assert document_bytes(from_disk) == document_bytes(live)


GOSSIP_SPEC_PAYLOAD = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "gossip-usd", "k": 3},
    "initial": {"kind": "equal-minorities", "n": 1500, "params": {"bias": 90}},
    "seed": 11,
    "max_parallel_time": 300.0,
}


def test_gossip_run_document_round_trips_bit_for_bit():
    spec = RunSpec.from_dict(GOSSIP_SPEC_PAYLOAD)
    result = run_spec(spec)
    document = to_document(result, spec)
    assert document["result_kind"] == "run"
    assert document["outcome"]["engine"] == "gossip"
    assert document["outcome"]["interactions"] == result.rounds * spec.n
    # gossip summary rows keep speaking rounds
    assert document["summary"] == {
        "stabilized": True,
        "winner": result.winner,
        "rounds": result.rounds,
        "parallel_time": float(result.rounds),
        "stabilization_parallel_time": float(result.stabilization_rounds),
    }
    rebuilt = result_from_document(json.loads(json.dumps(document)))
    assert document_bytes(to_document(rebuilt, spec)) == document_bytes(document)
    assert rebuilt.rounds == result.rounds
    assert rebuilt.stabilization_rounds == result.stabilization_rounds


def test_gossip_document_of_the_old_shape_still_loads():
    """``result_kind: "gossip"`` documents, written before gossip runs
    became ``"run"`` documents, load as the equivalent RunResult."""
    spec_hash = "1838f65948afaa6cefc1d474439084e7c86c640f908bcc7969c46bdc7478ce5e"
    document = {
        "schema_version": 1,
        "kind": "result",
        "result_kind": "gossip",
        "spec_hash": spec_hash,
        "spec": RunSpec.from_dict(GOSSIP_SPEC_PAYLOAD).to_dict(),
        "outcome": {
            "stabilized": True,
            "winner": 1,
            "rounds": 15,
            "stabilization_rounds": 15,
            "final_counts": [0, 1500, 0, 0],
        },
        "summary": {
            "stabilized": True,
            "winner": 1,
            "rounds": 15,
            "parallel_time": 15.0,
            "stabilization_parallel_time": 15.0,
        },
        "obs_metrics": None,
        "persist_dir": None,
        "wall_seconds": 0.0011,
        "metadata": {
            "engine": "gossip",
            "dynamics": "gossip-usd",
            "n": 1500,
            "spec_hash": spec_hash,
        },
    }
    result = result_from_document(document)
    assert isinstance(result, RunResult)
    assert summary_row(result) == document["summary"]
    assert result.rounds == 15
    assert result.stabilization_rounds == 15
    assert result.winner == 1
    assert list(result.final_counts) == [0, 1500, 0, 0]
    assert result.interactions == 15 * 1500


def test_persisted_scan_skips_incomplete(tmp_path):
    run_dir = tmp_path / "torn"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text("{not json")
    assert document_from_persisted_run(run_dir) is None
