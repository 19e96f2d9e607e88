"""Artifacts that older commits wrote, opened through today's doors.

Every file under ``tests/corpus/`` was written by an older commit of this
repository, or by hand where no commit here could write it;
``tests/corpus/README.md`` names the commit and the command behind each.
An artifact of a kind that still loads must give the answers recorded
beside it.  An artifact of a retired kind must raise the error that
names its replacement, and must never be read as something else.
"""

from __future__ import annotations

import json
import shutil
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import analytics
from repro.cli import main
from repro.core.kernels import reset_backend_state
from repro.errors import AnalyticsError
from repro.io.streaming import StreamedTrace
from repro.obs.journal import read_journal
from repro.serve import (
    ResultStore,
    ServeClient,
    ServeConfig,
    make_server,
    shutdown_server,
)
from repro.specs import (
    document_bytes,
    load_spec,
    result_from_document,
    run_spec,
    to_document,
)

CORPUS = Path(__file__).parent / "corpus"


def _npz_dataset(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())
    assert expected["answers"]
    for entry in expected["answers"]:
        query = ["trace", "query", str(path / "ds"), *entry["args"], "--json"]
        assert main(query) == 0
        assert json.loads(capsys.readouterr().out) == entry["answer"]


def _parquet_dataset(path, tmp_path, capsys):
    copy = tmp_path / "ds"
    shutil.copytree(path, copy)
    manifest = (copy / analytics.DATASET_MANIFEST_NAME).read_bytes()
    for attempt in (
        lambda: analytics.dataset(copy),
        lambda: analytics.export_dataset(copy, runs_roots=[tmp_path / "none"]),
    ):
        with pytest.raises(AnalyticsError) as err:
            attempt()
        assert "'parquet'" in str(err.value)
        assert "repro trace dataset NEW --runs ROOT" in str(err.value)
    assert (copy / analytics.DATASET_MANIFEST_NAME).read_bytes() == manifest
    assert main(["trace", "query", str(copy), "--ask", "winners"]) == 1
    assert "repro trace dataset NEW --runs ROOT" in capsys.readouterr().err


def _parquet_trace(path, tmp_path, capsys):
    with pytest.raises(AnalyticsError) as err:
        analytics.read_columnar(path / "trace.parquet")
    assert "repro trace export RUN_DIR --to FILE.npz" in str(err.value)
    # that command writes the save_trace layout, which load_trace reads
    assert "repro.io.load_trace" in str(err.value)


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _daemon(root, requests, runs_roots=()):
    """Run ``requests(client)`` against a daemon over ``root``."""
    httpd = make_server(ServeConfig(port=0, root=root, runs_roots=runs_roots))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        return requests(ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}"))
    finally:
        shutdown_server(httpd)
        thread.join(timeout=5.0)


def _serve_store(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())
    spec_hash = expected["spec_hash"]
    committed = (path / "store" / "documents" / f"{spec_hash}.json").read_bytes()
    copy = tmp_path / "serve" / "store"
    shutil.copytree(path / "store", copy)
    before = _files(copy)
    response, served = _daemon(
        tmp_path / "serve",
        lambda client: (
            client.submit(expected["spec"]),
            client.result_bytes(spec_hash),
        ),
    )
    assert response["status"] == "cached"
    assert response["spec_hash"] == spec_hash
    assert served == committed
    document = json.loads(served)
    spec = load_spec(document["spec"])
    assert spec.spec_hash() == spec_hash
    assert document_bytes(to_document(result_from_document(document), spec)) == served
    # the old index.json is neither read nor rewritten
    assert _files(copy) == before


def _surrogate_store(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())
    spec_hash = expected["spec_hash"]
    assert expected["spec"]["fidelity"] == "auto"
    stored = path / "store" / "documents" / f"{spec_hash}.json"
    assert json.loads(stored.read_bytes())["result_kind"] == "surrogate"
    copy = tmp_path / "serve" / "store"
    shutil.copytree(path / "store", copy)
    # the scan skips the surrogate answer with a reason and leaves it
    store = ResultStore(copy)
    assert spec_hash not in store
    [(skipped, reason)] = store.skipped
    assert Path(skipped).name == stored.name and "exact answers only" in reason
    assert _files(copy) == _files(path / "store")

    exact = {**expected["spec"], "fidelity": "exact"}

    def requests(client):
        first = client.submit_and_wait(exact, timeout=60.0)
        return first, client.submit(exact), client.result_bytes(spec_hash)

    first, second, served = _daemon(tmp_path / "serve", requests)
    # the first exact job is a miss, and its answer replaces the old one
    assert first["status"] == "accepted" and first["spec_hash"] == spec_hash
    assert first["result"]["result_kind"] == "run"
    assert second["status"] == "cached"
    assert served == (copy / "documents" / stored.name).read_bytes()
    assert json.loads(served)["outcome"]["engine"] != "meanfield"


def _checkpoints(directory):
    return {
        path.name: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(directory.glob("point-*.json"))
    }


def _sweep_checkpoint(path, tmp_path, capsys):
    spec_file = CORPUS / "specs" / "spec-4bb0996" / "sweep.json"
    committed = path / "out" / "spec-4bb0996"
    copy = tmp_path / "out"
    shutil.copytree(path / "out", copy)  # copy2: the mtimes come along
    directory = copy / "spec-4bb0996"
    points = _checkpoints(directory)
    assert len(points) == 2
    command = ["run", "--spec", str(spec_file), "--out", str(copy), "--resume"]
    assert main(command) == 0
    capsys.readouterr()
    # every point is restored, none recomputed or rewritten
    assert _checkpoints(directory) == points
    merged = (directory / "merged.json").read_bytes()
    assert merged == (committed / "merged.json").read_bytes()
    # each restored point keeps the shard its checkpoint records
    old, new = (
        json.loads((where / "provenance.json").read_text())
        for where in (committed, directory)
    )
    assert old.pop("repo_state")["commit"].startswith("7959d43")
    new.pop("repo_state")
    assert new == old


def _persisted_run(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())
    copy = tmp_path / "runs"
    shutil.copytree(path, copy)
    run_dir = copy / "run"
    before = _files(run_dir)
    stream = StreamedTrace(run_dir)
    assert stream.complete and stream.num_chunks == expected["chunks"] > 1
    trace = stream.materialize()
    assert trace.times.dtype == trace.counts.dtype == np.int64
    assert trace.times.tolist() == expected["times"]
    assert trace.counts.tolist() == expected["counts"]

    # the journal the run kept beside its chunks records each spill
    spills = [
        record["chunk"]
        for record in read_journal(run_dir / "journal.jsonl")
        if record["event"] == "recorder.spill"
    ]
    assert spills == list(range(expected["chunks"]))

    assert main(["trace", "info", str(run_dir)]) == 0
    info = capsys.readouterr().out
    assert "[complete]" in info
    lines = [line.split() for line in info.splitlines()]
    assert ["seed", "11"] in lines
    assert ["snapshots", str(len(expected["times"]))] in lines

    # the spec names the run directory relative to the working directory
    document = json.loads((copy / "spec.json").read_text())
    assert document["recording"]["persist_to"] == "run"
    document["recording"]["persist_to"] = str(run_dir)
    spec = load_spec(document)
    assert spec.spec_hash() == expected["spec_hash"]
    with pytest.MonkeyPatch.context() as patch:

        def no_simulation(*args, **kwargs):
            raise AssertionError("the persisted run was simulated again")

        patch.setattr("repro.core.run.simulate", no_simulation)
        result = run_spec(spec)
    outcome = to_document(result, spec)["outcome"]
    assert {key: outcome[key] for key in expected["outcome"]} == expected["outcome"]

    response = _daemon(
        tmp_path / "serve",
        lambda client: client.submit(json.loads((path / "spec.json").read_text())),
        runs_roots=(copy,),
    )
    assert response["status"] == "cached"
    assert response["spec_hash"] == expected["spec_hash"]
    served = response["result"]["outcome"]
    assert {key: served[key] for key in expected["outcome"]} == expected["outcome"]
    # reading, resuming and serving the run rewrote none of its files
    assert _files(run_dir) == before


def _recording(document):
    """The recording block of a run, ensemble or sweep spec document."""
    template = document.get("run") or document.get("base") or document
    return template["recording"]


def _spec_documents(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())["spec_hash"]
    assert set(expected) == {"run.json", "ensemble.json", "sweep.json"}
    specs = {}
    for name, spec_hash in expected.items():
        document = json.loads((path / name).read_text())
        spec = specs[name] = load_spec(document)
        assert spec.spec_hash() == spec_hash
        # record_async is read and ignored: it re-serializes as false
        assert _recording(document)["record_async"] is True
        assert _recording(spec.to_dict())["record_async"] is False
    run = specs["run.json"]
    assert (run.engine, run.backend) == ("batch", "numba")
    reset_backend_state()  # an earlier test may have had the one warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_spec(run)
    messages = [str(warning.message) for warning in caught]
    assert len(messages) == 1 and "'numba'" in messages[0]
    numpy_result = run_spec(replace(run, backend=None))
    assert np.array_equal(result.final_counts, numpy_result.final_counts)
    assert result.interactions == numpy_result.interactions


def _experiment_document(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())
    committed = (path / "document.json").read_bytes()
    document = json.loads(committed)
    # written before experiments stated claims: the key is absent
    assert "claims" not in document["outcome"]
    result = result_from_document(document)
    assert result.claims == ()
    assert len(result.rows) == expected["rows"]
    spec = load_spec(document["spec"])
    assert spec.spec_hash() == document["spec_hash"] == expected["spec_hash"]
    assert document_bytes(to_document(result, spec)) == committed


def _gossip_document(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())
    document = json.loads((path / "document.json").read_text())
    # written before gossip ran on the shared engine loop, counted in rounds
    assert document["result_kind"] == "gossip"
    spec = load_spec(document["spec"])
    assert spec.spec_hash() == document["spec_hash"] == expected["spec_hash"]
    loaded = result_from_document(document)
    fresh = run_spec(spec)
    n = spec.n
    assert loaded.engine_name == fresh.engine_name == "gossip"
    assert loaded.metadata["spec_hash"] == fresh.metadata["spec_hash"]
    assert loaded.rounds == fresh.rounds == expected["rounds"]
    assert loaded.interactions == fresh.interactions == expected["rounds"] * n
    assert loaded.stabilized and fresh.stabilized
    assert loaded.stabilization_rounds == fresh.stabilization_rounds
    assert loaded.stabilization_rounds == expected["stabilization_rounds"]
    assert loaded.stabilization_interactions == fresh.stabilization_interactions
    assert loaded.winner == fresh.winner == expected["winner"]
    assert loaded.final_counts.tolist() == fresh.final_counts.tolist()
    assert loaded.final_counts.tolist() == expected["final_counts"]


ARTIFACTS = {
    "analytics/npz-dataset-7959d43": _npz_dataset,
    "analytics/parquet-dataset": _parquet_dataset,
    "analytics/parquet-trace": _parquet_trace,
    "experiment/fig1-left-7959d43": _experiment_document,
    "gossip/document-90c692c": _gossip_document,
    "persist/run-7959d43": _persisted_run,
    "serve/batch-store-7959d43": _serve_store,
    "serve/store-7959d43": _serve_store,
    "serve/surrogate-store-93adf4a": _surrogate_store,
    "specs/spec-4bb0996": _spec_documents,
    "sweep/checkpoint-7959d43": _sweep_checkpoint,
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_old_artifact_through_todays_door(artifact, tmp_path, capsys):
    ARTIFACTS[artifact](CORPUS / artifact, tmp_path, capsys)
