"""Tests of the benchmark itself: its manifest, its checks and its tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import child  # noqa: E402
import manifest  # noqa: E402
import run  # noqa: E402
import stamp  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.core.engine import BaseEngine  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small_workload(tmp_path, **kwargs):
    return child.RunWorkload("small", 3, 600, "counts", tmp_path, **kwargs)


# -- manifest ----------------------------------------------------------------


def test_benchmark_json_is_the_rendered_manifest():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest.benchmark_json()


def test_manifest_within_contract_limits():
    document = manifest.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= document["run_seconds"] <= 60
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    runs = 4 + 22 * len(document["workloads"])
    # every run: measured seconds plus at most ~15 s of set-up samples
    assert runs * (document["run_seconds"] + 15) < 3420


# -- statistics and inputs ---------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 31))
    value, percentile = stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_operation_seeds_come_from_the_workload_seed():
    assert child.op_seed("fig1-batch", 7, 3) == child.op_seed("fig1-batch", 7, 3)
    assert child.op_seed("fig1-batch", 7, 3) != child.op_seed("fig1-batch", 8, 3)
    assert child.op_seed("fig1-batch", 7, 3) != child.op_seed("fig1-batch", 7, 4)
    workload = child.make_workload("fig1-batch", Path("unused"))
    document = workload.document(7, 0)
    assert document["seed"] == child.op_seed("fig1-batch", 7, 0)
    assert document["protocol"]["k"] == 27 and document["initial"]["n"] == 10**6


def test_consensus_check_accepts_any_winner():
    assert child.consensus_problems([0, 0, 0, 10], 10) == []
    assert child.consensus_problems([0, 4, 6, 0], 10) == [
        "final state is not a consensus"
    ]
    assert "final counts sum to 9, not n=10" in child.consensus_problems([0, 9], 10)


# -- checks feed error_rate --------------------------------------------------


def test_clean_operations_pass_every_check(tmp_path):
    done = child.run_pass(small_workload(tmp_path), 1, seconds=None, count=2,
                          tracer=None, hits=0)
    assert run.count_failures(done) == (2, 0)
    # each untraced run is timed between two readings of the machine's speed
    assert all(len(r["unit_s"]) == 2 * calibration.SAMPLES for r in done["records"])


def test_timings_are_scaled_to_the_reference_speed():
    unit = calibration.REFERENCE_S
    # the median reading counts: one unit caught in a burst does not
    assert calibration.to_reference(3.0, [2 * unit, 2 * unit, 9 * unit]) == pytest.approx(1.5)
    payload = {
        "records": [
            {"wall_s": 2.0, "unit_s": [2 * unit] * 6, "interactions": 100},
            {"wall_s": 3.0, "unit_s": [unit] * 6, "interactions": 600},
            {"wall_s": 9.0, "unit_s": [unit] * 6, "interactions": 900},
        ],
        "peak_rss_mb": 60.0,
    }
    metrics = run.end_to_end(payload, [0.4, 0.5, 0.6])
    assert metrics["run_p50_ref_s"] == pytest.approx(3.0)
    assert metrics["interactions_per_ref_s"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert set(metrics) == set(manifest.END_TO_END)


def test_a_wrong_output_raises_error_rate_without_aborting(tmp_path, monkeypatch):
    original = child.specs.run_spec
    calls = []

    def lossy_run_spec(spec):
        calls.append(spec)
        result = original(spec)
        if len(calls) == 1:  # the first run loses an agent
            counts = result.final_counts.copy()
            counts[counts.argmax()] -= 1
            return dataclasses.replace(result, final_counts=counts)
        if len(calls) == 2:
            raise RuntimeError("engine exploded")
        return result

    monkeypatch.setattr(child.specs, "run_spec", lossy_run_spec)
    done = child.run_pass(small_workload(tmp_path), 1, seconds=None, count=3,
                          tracer=None, hits=0)
    records = done["records"]
    assert len(records) == 3  # the loop went on after both failures
    assert any("final counts sum to 599" in p for p in records[0]["problems"])
    assert "engine exploded" in records[1]["error"]
    assert records[2]["problems"] == []
    assert run.count_failures(done) == (3, 2)


def test_persisted_run_checks(tmp_path, monkeypatch):
    workload = small_workload(tmp_path, snapshot_every=20, persist=True)
    records = child.run_pass(workload, 1, seconds=None, count=1, tracer=None,
                             hits=0)["records"]
    assert records[0]["problems"] == []
    assert records[0]["chunks_written"] >= 1 and records[0]["bytes_written"] > 0

    class Incomplete(child.StreamedTrace):
        complete = False

    monkeypatch.setattr(child, "StreamedTrace", Incomplete)
    records = child.run_pass(workload, 2, seconds=None, count=1, tracer=None,
                             hits=0)["records"]
    assert records[0]["problems"] == ["persisted manifest is not complete"]


# -- tracing -----------------------------------------------------------------


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    times = tracer.layer_times(0)
    outer = times["outer"]
    assert outer["self"] == pytest.approx(outer["total"] - times["inner"]["total"])


def test_traced_pass_is_identical_and_reports_every_layer(tmp_path):
    original_step = BaseEngine.step
    payload = child.measure(small_workload(tmp_path), 3, 0.2, trace=True)
    assert BaseEngine.step is original_step  # the wrappers are gone again
    assert payload["identical"] == len(payload["records"])
    assert set(payload["layers"]) == set(manifest.PER_LAYER) - {
        name for name in manifest.PER_LAYER if name.startswith("serve.")
    }
    assert payload["layers"]["core.kernels.step_calls"] >= 1
    assert payload["layers"]["core.counts_engine.effective_fraction"] > 0
    assert payload["obs_kernel_step_s"] > 0


def test_serve_hits_must_match_the_miss(tmp_path, monkeypatch):
    workload = child.ServeWorkload(tmp_path)
    workload.n = 600
    # count_polls patches ServeClient.job for the process; undo it afterwards
    monkeypatch.setattr(ServeClient, "job", ServeClient.job)
    workload.setup()
    try:
        workload.count_polls()
        payload_ok = child.run_pass(workload, 1, seconds=None, count=1,
                                    tracer=None, hits=5)
        original = ServeClient.result_bytes
        fetched = []

        def drifting(client, spec_hash):
            fetched.append(spec_hash)
            data = original(client, spec_hash)
            return data if len(fetched) == 1 else data + b" "

        monkeypatch.setattr(ServeClient, "result_bytes", drifting)
        payload_bad = child.run_pass(workload, 2, seconds=None, count=1,
                                     tracer=None, hits=5)
    finally:
        workload.teardown()
    assert run.count_failures(payload_ok) == (1 + 5, 0)
    assert payload_ok["records"][0]["polls"] >= 1
    # the miss is fine; every hit returns bytes that differ from the miss
    assert run.count_failures(payload_bad) == (1 + 5, 5)


# -- history and the empty checkout -----------------------------------------


def test_history_refuses_dirty_and_splits_backend_sets(tmp_path, monkeypatch):
    context = stamp.context_stamp()
    assert {"nproc", "python", "numpy", "backends", "kernel_provenance", "commit"} <= set(
        context
    )
    dirty = dict(context, commit="abc1234+dirty")
    assert stamp.record("fig1-batch", {"setup_s": 1.0}, dirty).startswith("not recorded")
    monkeypatch.setattr(stamp.history, "HISTORY_DIR", tmp_path)
    clean = dict(context, commit="abc1234", backends=["numba", "numpy"])
    stamp.record("fig1-batch", {"setup_s": 1.0}, clean)
    entries = stamp.history.load_history("perfbench-fig1-batch-numba+numpy")
    assert [entry["commit"] for entry in entries] == ["abc1234"]
    assert entries[0]["metrics"]["backends"] == "numba+numpy"


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
