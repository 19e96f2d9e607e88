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
from pathlib import Path

import pytest

from repro import analytics
from repro.cli import main
from repro.errors import AnalyticsError
from repro.serve import ServeClient, ServeConfig, make_server, shutdown_server
from repro.specs import document_bytes, load_spec, result_from_document, to_document

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


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _serve_store(path, tmp_path, capsys):
    expected = json.loads((path / "expected.json").read_text())
    spec_hash = expected["spec_hash"]
    committed = (path / "store" / "documents" / f"{spec_hash}.json").read_bytes()
    copy = tmp_path / "serve" / "store"
    shutil.copytree(path / "store", copy)
    before = _files(copy)
    httpd = make_server(ServeConfig(port=0, root=tmp_path / "serve"))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        response = client.submit(expected["spec"])
        served = client.result_bytes(spec_hash)
    finally:
        shutdown_server(httpd)
        thread.join(timeout=5.0)
    assert response["status"] == "cached"
    assert response["spec_hash"] == spec_hash
    assert served == committed
    document = json.loads(served)
    spec = load_spec(document["spec"])
    assert spec.spec_hash() == spec_hash
    assert document_bytes(to_document(result_from_document(document), spec)) == served
    # the old index.json is neither read nor rewritten
    assert _files(copy) == before


ARTIFACTS = {
    "analytics/npz-dataset-7959d43": _npz_dataset,
    "analytics/parquet-dataset": _parquet_dataset,
    "analytics/parquet-trace": _parquet_trace,
    "serve/store-7959d43": _serve_store,
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_old_artifact_through_todays_door(artifact, tmp_path, capsys):
    ARTIFACTS[artifact](CORPUS / artifact, tmp_path, capsys)
