"""The columnar analytics subsystem (PR 10).

Contracts under test, layer by layer:

* codec — the npz codec round-trips a streamed run bit-identically to
  ``StreamedTrace.materialize()``; ``repro trace export`` writes only a
  ``.npz`` destination;
* dataset — export partitions by protocol/n/spec_hash, re-export of an
  unchanged fleet rewrites nothing (incremental manifest), changed runs
  are re-exported, serve result stores contribute summary-only records,
  and a manifest of a retired format is an error naming the re-export;
* corrupt/partial inputs — incomplete manifests (``complete: false``),
  runs missing summaries, truncated fragments: skipped with recorded
  reasons, never fatal to an export or a query;
* query — hitting-time quantiles are bit-identical to a per-run NumPy
  reference computed straight from ``StreamedTrace`` manifests through
  the same helpers (the acceptance contract the CI leg re-checks over
  a 100-run fleet), envelopes/winners/throughput answer from one scan.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Configuration, simulate
from repro import analytics
from repro.analytics import codec
from repro.analytics.query import quantiles_exact, sample_step_function, time_grid
from repro.cli import main
from repro.errors import AnalyticsError
from repro.io.streaming import StreamedTrace, iter_persisted_manifests
from repro.protocols import UndecidedStateDynamics


OLD_DATASET = (
    Path(__file__).parent / "corpus" / "analytics" / "npz-dataset-7959d43" / "ds"
)


def _export_run_and_its_document(tmp_path, *, seed):
    """Export one seeded USD run by its run directory and by its document.

    Writes the datasets ``tmp_path/by-run`` and ``tmp_path/by-store``
    and returns the run's spec.
    """
    from repro.specs import document_bytes, load_spec, run_spec, to_document

    spec = load_spec(
        {
            "schema_version": 1,
            "kind": "run",
            "protocol": {"name": "usd", "k": 3, "params": {}},
            "initial": {"kind": "paper", "n": 400},
            "engine": "counts",
            "seed": seed,
            "max_parallel_time": 300.0,
            "recording": {"persist_to": str(tmp_path / "runs" / "r0")},
        }
    )
    result = run_spec(spec)
    documents = tmp_path / "store" / "documents"
    documents.mkdir(parents=True)
    (documents / f"{spec.spec_hash()}.json").write_bytes(
        document_bytes(to_document(result, spec))
    )
    analytics.export_dataset(tmp_path / "by-run", runs_roots=[tmp_path / "runs"])
    analytics.export_dataset(tmp_path / "by-store", store=tmp_path / "store")
    return spec


def _persist_run(run_dir, *, n=300, k=2, seed=11, snapshot_every=17):
    protocol = UndecidedStateDynamics(k=k)
    initial = Configuration.equal_minorities_with_bias(n=n, k=k, bias=n // 10)
    return simulate(
        protocol,
        initial,
        engine="counts",
        seed=seed,
        max_parallel_time=400.0,
        snapshot_every=snapshot_every,
        persist_to=run_dir,
        persist_chunk_snapshots=16,
        persist_window=8,
    )


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Six persisted runs under one root (a small but real fleet)."""
    root = tmp_path_factory.mktemp("fleet-runs")
    grid = [(300, 2), (300, 3), (500, 2), (500, 3), (700, 2), (700, 3)]
    for index, (n, k) in enumerate(grid):
        _persist_run(root / f"r{index}", n=n, k=k, seed=40 + index)
    return root


# ---------------------------------------------------------------- codec


class TestCodec:
    def test_npz_round_trip_is_bit_identical(self, tmp_path):
        _persist_run(tmp_path / "run")
        stream = StreamedTrace(tmp_path / "run")
        reference = stream.materialize()
        identity = codec.run_identity(
            stream.run_info, run_key=stream.run_info["spec_hash"]
        )
        dest = tmp_path / "trace.npz"
        rows = codec.write_columnar(
            dest,
            stream.iter_chunks(),
            identity=identity,
            run_info=stream.run_info,
            undecided_index=stream.undecided_index,
        )
        data = codec.read_columnar(dest)
        assert rows == len(reference)
        assert np.array_equal(data["times"], reference.times)
        assert np.array_equal(data["counts"], reference.counts)
        assert data["times"].dtype == np.int64
        assert data["counts"].dtype == np.int64
        assert np.array_equal(
            data["undecided"], reference.counts[:, stream.undecided_index]
        )
        assert data["meta"]["identity"] == identity

    def test_numpy_integer_seed_is_exported_as_an_int(self, tmp_path):
        # seeding from an array hands simulate() an np.int64; the manifest
        # must record the seed itself, not its repr, or the export loses it
        _persist_run(tmp_path / "run", seed=np.int64(7))
        run_info = StreamedTrace(tmp_path / "run").run_info
        assert run_info["seed"] == 7
        assert run_info["spec"]["seed"] == 7
        assert codec.run_identity(run_info, run_key="r")["seed"] == 7

    def test_cli_export_npz_default_unchanged(self, tmp_path, capsys):
        _persist_run(tmp_path / "run")
        assert (
            main(
                [
                    "trace",
                    "export",
                    str(tmp_path / "run"),
                    "--to",
                    str(tmp_path / "out.npz"),
                ]
            )
            == 0
        )
        from repro.io import load_trace

        trace = load_trace(tmp_path / "out.npz")
        reference = StreamedTrace(tmp_path / "run").materialize()
        assert np.array_equal(trace.times, reference.times)
        assert np.array_equal(trace.counts, reference.counts)

    def test_cli_export_rejects_a_non_npz_destination(self, tmp_path, capsys):
        _persist_run(tmp_path / "run")
        dest = tmp_path / "out.parquet"
        assert main(["trace", "export", str(tmp_path / "run"), "--to", str(dest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and ".npz" in err
        assert list(tmp_path.glob("out.*")) == []


# --------------------------------------------------------------- dataset


class TestDataset:
    def test_export_partitions_and_manifest(self, fleet, tmp_path):
        report = analytics.export_dataset(tmp_path / "ds", runs_roots=[fleet])
        assert report.exported == 6 and report.unchanged == 0
        assert report.rows > 0 and not report.skipped
        ds = analytics.dataset(tmp_path / "ds")
        assert len(ds) == 6
        # still recorded: older readers take a missing key for parquet
        manifest = json.loads((tmp_path / "ds" / "dataset.json").read_text())
        assert manifest["fragment_format"] == "npz"
        for record in ds.runs:
            fragment = tmp_path / "ds" / record["fragment"]
            assert fragment.is_file()
            parts = record["fragment"].split("/")
            assert parts[0] == "fragments"
            assert parts[1] == f"protocol={record['protocol']}"
            assert parts[2] == f"n={record['n']}"
            assert parts[3] == f"spec_hash={record['spec_hash']}"
            assert record["summary"]["stabilized"] is not None

    def test_reexport_unchanged_fleet_rewrites_nothing(self, fleet, tmp_path):
        dest = tmp_path / "ds"
        analytics.export_dataset(dest, runs_roots=[fleet])
        stats = {path: path.stat().st_mtime_ns for path in dest.rglob("*.npz")}
        assert stats
        report = analytics.export_dataset(dest, runs_roots=[fleet])
        assert report.exported == 0 and report.unchanged == 6
        for path, mtime_ns in stats.items():
            assert path.stat().st_mtime_ns == mtime_ns

    def test_changed_run_is_reexported(self, fleet, tmp_path):
        import os

        dest = tmp_path / "ds"
        analytics.export_dataset(dest, runs_roots=[fleet])
        manifest = sorted(fleet.glob("*/manifest.json"))[0]
        os.utime(manifest, ns=(1, 1))  # a re-run rewrites the manifest
        report = analytics.export_dataset(dest, runs_roots=[fleet])
        assert report.exported == 1 and report.unchanged == 5

    def test_fragment_format_mismatch_is_an_error(self, fleet, tmp_path):
        # a manifest recording a retired format (or none, which older
        # readers took for parquet) is refused on opening and on export
        dest = tmp_path / "ds"
        analytics.export_dataset(dest, runs_roots=[fleet])
        manifest_path = dest / analytics.DATASET_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        for recorded in ("arrow", None):
            if recorded is None:
                manifest.pop("fragment_format")
            else:
                manifest["fragment_format"] = recorded
            manifest_path.write_text(json.dumps(manifest))
            retired = "parquet" if recorded is None else recorded
            for attempt in (
                lambda: analytics.dataset(dest),
                lambda: analytics.export_dataset(dest, runs_roots=[fleet]),
            ):
                with pytest.raises(AnalyticsError) as err:
                    attempt()
                assert f"fragment format {retired!r}" in str(err.value)
                assert "repro trace dataset NEW --runs ROOT" in str(err.value)
        assert json.loads(manifest_path.read_text()) == manifest

    def test_store_documents_become_summary_only_records(self, fleet, tmp_path):
        store_root = tmp_path / "store"
        (store_root / "documents").mkdir(parents=True)
        run_doc = {
            "schema_version": 1,
            "kind": "result",
            "result_kind": "run",
            "spec_hash": "ab" * 32,
            "spec": {
                "kind": "run",
                "protocol": {"name": "usd", "k": 3},
                "initial": {"kind": "paper", "n": 4000},
                "seed": 9,
                "backend": "numpy",
            },
            "outcome": {
                "stabilized": True,
                "winner": 1,
                "interactions": 52000,
                "parallel_time": 13.0,
                "stabilization_interactions": 48000,
                "engine": "batch",
            },
            "wall_seconds": 0.5,
        }
        sweep_doc = {
            "schema_version": 1,
            "kind": "result",
            "result_kind": "sweep",
            "spec_hash": "cd" * 32,
        }
        (store_root / "documents" / f"{'ab' * 32}.json").write_text(json.dumps(run_doc))
        (store_root / "documents" / f"{'cd' * 32}.json").write_text(
            json.dumps(sweep_doc)
        )
        report = analytics.export_dataset(
            tmp_path / "ds",
            runs_roots=[fleet],
            store=store_root,
        )
        assert report.summary_only == 1
        assert any("sweep" in reason for _, reason in report.skipped)
        ds = analytics.dataset(tmp_path / "ds")
        assert len(ds) == 7
        record = next(r for r in ds.runs if r["run_key"] == "ab" * 32)
        assert record["fragment"] is None
        assert record["protocol"] == "usd" and record["n"] == 4000
        assert record["summary"]["stabilization_interactions"] == 48000
        # the summary-only record joins summary queries but not scans
        answer = ds.query(spec_hash="ab" * 32).hitting_time_quantiles((0.5,))
        assert answer["runs"] == 1 and answer["quantiles"]["0.5"] == 48000.0
        # its protocol filter also finds the six run-directory records
        assert len(ds.query(protocol="usd")) == 7

    def test_store_and_run_directory_records_agree_on_what_ran(self, tmp_path):
        # one seeded run, exported from its run directory and from its
        # store document: both records name the kernels that ran
        spec = _export_run_and_its_document(tmp_path, seed=7)
        answers = []
        for name in ("by-run", "by-store"):
            ds = analytics.dataset(tmp_path / name)
            (record,) = ds.runs
            assert record["spec_hash"] == spec.spec_hash()
            assert record["backend"] == "numpy"
            winners = ds.query(backend="numpy").winner_breakdown()
            assert winners["runs"] == 1
            answers.append(sorted(ds.query().backend_throughput()["groups"]))
        assert answers[0] == answers[1] == ["counts/numpy"]

    def test_protocol_filter_takes_either_name(self, tmp_path, capsys):
        # a run directory files its run under the protocol object's name,
        # a store document under the spec's: either name finds both
        _export_run_and_its_document(tmp_path, seed=5)
        for name, filed_as in (
            ("by-run", "undecided-state-dynamics"),
            ("by-store", "usd"),
        ):
            ds = analytics.dataset(tmp_path / name)
            (record,) = ds.runs
            assert record["protocol"] == filed_as
            fragment = record["fragment"]
            assert fragment is None or fragment.startswith(
                f"fragments/protocol={filed_as}/"
            )
            for protocol in ("usd", "undecided-state-dynamics"):
                assert len(ds.query(protocol=protocol)) == 1
                query = ["trace", "query", str(tmp_path / name), "--ask", "winners"]
                assert main([*query, "--protocol", protocol, "--json"]) == 0
                assert json.loads(capsys.readouterr().out)["runs"] == 1
            assert len(ds.query(protocol="voter")) == 0

    def test_protocol_filter_takes_either_name_on_an_old_dataset(self):
        # the three USD runs that 7959d43 exported from run directories
        ds = analytics.dataset(OLD_DATASET)
        assert {record["protocol"] for record in ds.runs} == {
            "undecided-state-dynamics"
        }
        for protocol in ("usd", "undecided-state-dynamics"):
            assert len(ds.query(protocol=protocol)) == 3

    def test_opening_a_non_dataset_directory_is_an_error(self, tmp_path):
        with pytest.raises(AnalyticsError, match="not an analytics dataset"):
            analytics.dataset(tmp_path)

    def test_newer_manifest_version_is_an_error(self, tmp_path):
        (tmp_path / "dataset.json").write_text(
            json.dumps(
                {
                    "format_version": 99,
                    "kind": "analytics-dataset",
                    "runs": {},
                }
            )
        )
        with pytest.raises(AnalyticsError, match="format version 99"):
            analytics.dataset(tmp_path)


# ------------------------------------------------- corrupt/partial inputs


class TestCorruptInputs:
    def test_incomplete_stream_skipped_with_reason(self, tmp_path):
        _persist_run(tmp_path / "runs" / "good")
        _persist_run(tmp_path / "runs" / "partial")
        manifest_path = tmp_path / "runs" / "partial" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["complete"] = False
        manifest_path.write_text(json.dumps(manifest))
        report = analytics.export_dataset(
            tmp_path / "ds", runs_roots=[tmp_path / "runs"]
        )
        assert report.exported == 1
        assert any(
            "incomplete" in reason and "partial" in path
            for path, reason in report.skipped
        )

    def test_missing_summary_skipped_with_reason(self, tmp_path):
        _persist_run(tmp_path / "runs" / "good")
        _persist_run(tmp_path / "runs" / "nosummary")
        manifest_path = tmp_path / "runs" / "nosummary" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("summary", None)
        manifest_path.write_text(json.dumps(manifest))
        report = analytics.export_dataset(
            tmp_path / "ds", runs_roots=[tmp_path / "runs"]
        )
        assert report.exported == 1
        assert any(
            "summary" in reason and "nosummary" in path
            for path, reason in report.skipped
        )
        # the skip reasons survive into the dataset manifest
        manifest = json.loads(
            (tmp_path / "ds" / analytics.DATASET_MANIFEST_NAME).read_text()
        )
        assert any("summary" in reason for _, reason in manifest["skipped"])

    def test_corrupt_run_manifest_skipped_not_fatal(self, tmp_path):
        _persist_run(tmp_path / "runs" / "good")
        bad = tmp_path / "runs" / "bad"
        bad.mkdir(parents=True)
        (bad / "manifest.json").write_text("{not json")
        report = analytics.export_dataset(
            tmp_path / "ds", runs_roots=[tmp_path / "runs"]
        )
        assert report.exported == 1 and report.skipped

    def test_truncated_fragment_never_crashes_a_query(self, fleet, tmp_path):
        dest = tmp_path / "ds"
        analytics.export_dataset(dest, runs_roots=[fleet])
        victim = sorted(dest.rglob("*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])  # torn mid-header
        ds = analytics.dataset(dest)
        answer = ds.query().undecided_envelope(grid_points=8)
        assert answer["runs"] == 5
        assert answer["skipped"] == 1
        assert len(ds.skipped) == 1
        path, reason = ds.skipped[0]
        assert path.endswith(".npz") and reason
        # summary-backed answers never touch the torn fragment at all
        assert ds.query().hitting_time_quantiles()["runs"] == 6

    def test_vanished_fragment_skipped_with_reason(self, fleet, tmp_path):
        dest = tmp_path / "ds"
        analytics.export_dataset(dest, runs_roots=[fleet])
        sorted(dest.rglob("*.npz"))[0].unlink()
        ds = analytics.dataset(dest)
        answer = ds.query().undecided_envelope(grid_points=8)
        assert answer["runs"] == 5 and answer["skipped"] == 1


# ----------------------------------------------------------------- query


class TestQuery:
    @pytest.fixture(scope="class")
    def ds(self, fleet, tmp_path_factory):
        dest = tmp_path_factory.mktemp("dataset") / "ds"
        analytics.export_dataset(dest, runs_roots=[fleet])
        return analytics.dataset(dest)

    def test_hitting_time_quantiles_bit_match_numpy_reference(self, fleet, ds):
        # the reference: per-run values straight from the streamed
        # manifests, through the same shared quantile helper
        values = []
        for _, manifest in iter_persisted_manifests(fleet):
            summary = manifest["summary"]
            if summary.get("stabilized"):
                values.append(float(summary["stabilization_interactions"]))
        quantiles = (0.25, 0.5, 0.9, 0.99)
        reference = quantiles_exact(values, quantiles)
        answer = ds.query().hitting_time_quantiles(quantiles)
        assert answer["quantiles"] == reference  # == on floats: bit match
        assert answer["stabilized"] == len(values)

    def test_parallel_unit_divides_by_each_runs_n(self, fleet, ds):
        values = []
        for _, manifest in iter_persisted_manifests(fleet):
            summary = manifest["summary"]
            if summary.get("stabilized"):
                values.append(
                    float(summary["stabilization_interactions"])
                    / float(manifest["run_info"]["n"])
                )
        reference = quantiles_exact(values, (0.5,))
        answer = ds.query().hitting_time_quantiles((0.5,), unit="parallel")
        assert answer["quantiles"] == reference

    def test_unknown_unit_and_question_are_listed_errors(self, ds):
        with pytest.raises(AnalyticsError, match="interactions, parallel"):
            ds.query().hitting_time_quantiles(unit="wallclock")
        with pytest.raises(AnalyticsError, match="hitting-quantiles"):
            ds.query().ask("median")

    def test_envelope_matches_per_run_step_sampling(self, fleet, ds):
        answer = ds.query().undecided_envelope(grid_points=12, quantiles=(0.5,))
        assert answer["runs"] == 6
        # reference: sample each streamed run by hand onto the same grid
        series = []
        for run_dir, manifest in iter_persisted_manifests(fleet):
            stream = StreamedTrace(run_dir)
            trace = stream.materialize()
            undecided = trace.counts[:, stream.undecided_index].astype(
                np.float64
            ) / np.float64(manifest["run_info"]["n"])
            series.append((trace.times.astype(np.float64), undecided))
        t_max = max(float(times[-1]) for times, _ in series)
        grid = time_grid(t_max, 12)
        matrix = np.stack([sample_step_function(t, v, grid) for t, v in series])
        reference = np.quantile(matrix, np.asarray([0.5]), axis=0)
        assert answer["grid"] == [float(t) for t in grid]
        assert answer["quantiles"]["0.5"] == [float(v) for v in reference[0]]

    def test_filters_restrict_the_scan(self, ds):
        assert len(ds.query(n=300)) == 2
        assert len(ds.query(protocol="no-such-protocol")) == 0
        filtered = ds.query(n=300).hitting_time_quantiles()
        assert filtered["runs"] == 2

    def test_winner_and_throughput_breakdowns(self, ds):
        winners = ds.query().winner_breakdown()
        assert winners["runs"] == 6
        assert sum(winners["winners"].values()) == 6
        assert winners["by_engine"] == {"counts": 6}
        throughput = ds.query().backend_throughput()
        (group,) = throughput["groups"].keys()
        assert group == "counts/numpy"
        row = throughput["groups"][group]
        assert row["runs"] == 6 and row["interactions_per_second"] > 0

    def test_cli_dataset_and_query_round_trip(self, fleet, tmp_path, capsys):
        dest = tmp_path / "ds"
        assert (
            main(
                [
                    "trace",
                    "dataset",
                    str(dest),
                    "--runs",
                    str(fleet),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "6 exported" in out
        assert (
            main(
                [
                    "trace",
                    "query",
                    str(dest),
                    "--ask",
                    "hitting-quantiles",
                    "--json",
                ]
            )
            == 0
        )
        answer = json.loads(capsys.readouterr().out)
        reference = analytics.dataset(dest).query().hitting_time_quantiles()
        assert answer["quantiles"] == reference["quantiles"]

    def test_cli_query_unknown_ask_is_a_clean_error(self, fleet, tmp_path, capsys):
        dest = tmp_path / "ds"
        analytics.export_dataset(dest, runs_roots=[fleet])
        assert main(["trace", "query", str(dest), "--ask", "nonsense"]) == 1
        assert "unknown query 'nonsense'" in capsys.readouterr().err
