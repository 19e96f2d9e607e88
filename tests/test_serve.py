"""The simulation service: store, job manager, daemon, client.

The contracts under test, layer by layer:

* ``ResultStore`` — content-addressed byte identity, refusal of
  mis-keyed documents, the startup scan of the documents directory and
  of plain persisted run directories at every start (skipping unseeded
  runs, whose outcomes must never answer for a fresh random draw, and
  specs that are not exact-tier, whose answers must never stand under
  the exact answer's hash), corrupt-entry skips with recorded reasons,
  and no ``index.json``;
* cacheability — only seeded, exact-tier work is looked up, stored or
  coalesced;
* ``JobManager`` — duplicate submissions of an active ``spec_hash``
  coalesce onto one job instead of simulating twice, and settled jobs
  are evicted beyond the retention bound (both with
  ``JobManager._run_in_process`` replaced, so no worker is forked);
* the HTTP daemon end to end, every job in a worker forked from the
  preloaded forkserver — submit/miss/hit, byte-identical result
  fetches, an exact request after a TRUSTED ``auto`` one simulating,
  live ``/metrics``, job status and journal progress, 400 on invalid
  specs and queries, 404 on unknown routes, and a ``ServeClient.wait``
  that returns as its job settles (the daemon holds ``GET
  /runs/{id}?wait=``) and polls without spinning a daemon that
  answers at once; plus a stress test of forked
  workers, worker starts that must not take a finished worker's exit
  status from its job, concurrent ensemble jobs that each journal only
  their own runs, workers killed by SIGKILL and SIGSEGV whose job
  errors say so, a shutdown that starts no queued job, a cold-start
  check for a daemon whose forkserver could not preload ``repro``, and
  stop signals that end the daemon after it answers the requests it
  holds.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlparse

import pytest

import repro
from repro.cli import main as cli_main
from repro.errors import ServeError
from repro.io.streaming import find_persisted_by_hash, iter_persisted_manifests
from repro.obs import metrics as obs_metrics
from repro.obs.journal import read_journal
from repro.serve import (
    JobManager,
    ResultStore,
    ServeApp,
    ServeClient,
    ServeConfig,
    make_server,
    shutdown_server,
)
from repro.serve.server import _cacheable
from repro.specs import RunSpec, load_spec, run_spec, to_document

#: A run ``fidelity='auto'`` answers from the surrogate (TRUSTED).
FASTPATH = (
    Path(__file__).resolve().parents[1]
    / "examples"
    / "scenarios"
    / "meanfield_fastpath.json"
)

FAST_PAYLOAD = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "usd", "k": 3},
    "initial": {"kind": "equal-minorities", "n": 2000, "params": {"bias": 150}},
    "engine": "batch",
    "seed": 31,
    "max_parallel_time": 300.0,
    "stop_when_stable": True,
}


def fast_document():
    spec = RunSpec.from_dict(FAST_PAYLOAD)
    return spec.spec_hash(), to_document(run_spec(spec), spec)


# ---------------------------------------------------------------- store


class TestResultStore:
    def test_put_get_byte_identity(self, tmp_path):
        spec_hash, document = fast_document()
        store = ResultStore(tmp_path / "store")
        store.put(spec_hash, document)
        first = store.get_bytes(spec_hash)
        assert first == store.get_bytes(spec_hash)
        assert store.get(spec_hash) == document
        assert spec_hash in store and len(store) == 1

    def test_put_rejects_non_hash_keys(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ServeError, match="non-hash"):
            store.put("../escape", {"spec_hash": "../escape"})

    def test_put_rejects_mismatched_document(self, tmp_path):
        spec_hash, document = fast_document()
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ServeError, match="cannot store"):
            store.put("f" * 64, document)

    def test_rebuild_after_index_delete(self, tmp_path):
        spec_hash, document = fast_document()
        root = tmp_path / "store"
        first = ResultStore(root)
        first.put(spec_hash, document)
        reference = first.get_bytes(spec_hash)
        # a fresh store (daemon restart) scans the document files and
        # serves the identical bytes; the directory is the whole store
        rebuilt = ResultStore(root)
        assert spec_hash in rebuilt
        assert rebuilt.get_bytes(spec_hash) == reference
        assert not (root / "index.json").exists()

    def test_runs_root_rescanned_at_every_start(self, tmp_path):
        runs_root = tmp_path / "runs"
        runs_root.mkdir()
        root = tmp_path / "store"
        ResultStore(root, runs_roots=[runs_root]).put(*fast_document())
        spec = RunSpec.from_dict(
            {
                **FAST_PAYLOAD,
                "seed": 32,
                "recording": {"persist_to": str(runs_root / "later")},
            }
        )
        result = run_spec(spec)
        # persisted after the first start: the restart's scan finds it
        restarted = ResultStore(root, runs_roots=[runs_root])
        assert spec.spec_hash() in restarted and len(restarted) == 2
        stored = restarted.get(spec.spec_hash())
        assert stored["outcome"]["winner"] == result.winner

    def test_rebuild_from_persisted_runs(self, tmp_path):
        runs_root = tmp_path / "runs"
        spec = RunSpec.from_dict(
            {**FAST_PAYLOAD, "recording": {"persist_to": str(runs_root)}}
        )
        result = run_spec(spec)
        store = ResultStore(tmp_path / "store", runs_roots=[runs_root])
        assert spec.spec_hash() in store
        stored = store.get(spec.spec_hash())
        assert stored["outcome"]["winner"] == result.winner

    def test_rebuild_skips_unseeded_runs(self, tmp_path):
        runs_root = tmp_path / "runs"
        spec = RunSpec.from_dict(
            {
                **FAST_PAYLOAD,
                "seed": None,
                "recording": {"persist_to": str(runs_root)},
            }
        )
        run_spec(spec)
        store = ResultStore(tmp_path / "store", runs_roots=[runs_root])
        # an unseeded run is a fresh draw every time; its recorded
        # outcome must never be served as the answer to a new submission
        assert len(store) == 0

    def test_rebuild_records_skip_reasons(self, tmp_path):
        runs_root = tmp_path / "runs"
        bad = runs_root / "corrupt"
        bad.mkdir(parents=True)
        (bad / "manifest.json").write_text("{torn")
        store = ResultStore(tmp_path / "store", runs_roots=[runs_root])
        assert any("corrupt" in path for path, _reason in store.skipped)

    def test_rebuild_skips_non_exact_documents(self, tmp_path):
        run = {"kind": "run", "fidelity": "exact"}
        specs = {
            "exact-run": run,
            "pre-fidelity-run": {"kind": "run"},
            "auto-run": {**run, "fidelity": "auto"},
            "surrogate-ensemble": {
                "kind": "ensemble",
                "run": {**run, "fidelity": "surrogate"},
            },
            "auto-sweep": {"kind": "sweep", "base": {**run, "fidelity": "auto"}},
            "axis-sweep": {
                "kind": "sweep",
                "base": run,
                "axes": {"fidelity": ["exact", "auto"]},
            },
            "experiment": {"kind": "experiment", "experiment": "fig1-ensemble"},
        }
        documents = tmp_path / "store" / "documents"
        documents.mkdir(parents=True)
        hashes = {}
        for index, (name, spec) in enumerate(specs.items()):
            hashes[name] = f"{index:02d}" * 32
            path = documents / f"{hashes[name]}.json"
            path.write_text(json.dumps({"spec_hash": hashes[name], "spec": spec}))
        (documents / f"{'ee' * 32}.json").write_text("{torn")
        store = ResultStore(tmp_path / "store")
        assert store.hashes() == sorted(
            hashes[name] for name in ("exact-run", "pre-fidelity-run", "experiment")
        )
        reasons = {Path(path).stem: reason for path, reason in store.skipped}
        for name in ("auto-run", "surrogate-ensemble", "auto-sweep", "axis-sweep"):
            assert "exact answers only" in reasons[hashes[name]], name
        assert "unreadable" in reasons["ee" * 32]
        # skipped documents stay on disk, for the first exact job to replace
        assert len(list(documents.glob("*.json"))) == len(specs) + 1


def test_find_persisted_by_hash_skips_corrupt_with_reason(tmp_path):
    runs_root = tmp_path / "runs"
    spec = RunSpec.from_dict(
        {**FAST_PAYLOAD, "recording": {"persist_to": str(runs_root / "real")}}
    )
    result = run_spec(spec)
    bad = runs_root / "aaa-corrupt"  # sorts before the valid run dir
    bad.mkdir()
    (bad / "manifest.json").write_text("{torn")
    found = find_persisted_by_hash(runs_root, spec.spec_hash())
    assert found is not None
    assert str(found) == str(result.persist_dir)
    # the lookup walks iter_persisted_manifests, which records the reason
    skips = []
    list(iter_persisted_manifests(runs_root, on_skip=lambda p, r: skips.append((p, r))))
    assert any("aaa-corrupt" in str(path) for path, _reason in skips)


# ------------------------------------------------------------- coalescing


def test_concurrent_duplicate_submissions_coalesce(tmp_path, monkeypatch):
    release = threading.Event()
    spec_hash = "ab" * 32

    def slow_run(self, job, payload):
        release.wait(timeout=30.0)
        return {"spec_hash": spec_hash, "kind": "result"}

    monkeypatch.setattr(JobManager, "_run_in_process", slow_run)
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=2)
    try:
        first, coalesced_first = jobs.submit(
            {}, spec_hash=spec_hash, kind="run", cacheable=True
        )
        assert not coalesced_first
        second, coalesced_second = jobs.submit(
            {}, spec_hash=spec_hash, kind="run", cacheable=True
        )
        # while the first job is active, the same hash coalesces onto it
        assert coalesced_second and second.id == first.id
        release.set()
        deadline = threading.Event()
        for _ in range(100):
            if first.status == "done":
                break
            deadline.wait(0.05)
        assert first.status == "done"
        assert spec_hash in store
        # once settled, a resubmission is a cache hit, not a new job
        third, coalesced_third = jobs.submit(
            {}, spec_hash=spec_hash, kind="run", cacheable=True
        )
        assert not coalesced_third and third.id != first.id
    finally:
        release.set()
        jobs.shutdown()


def test_only_seeded_exact_tier_specs_are_cacheable():
    run = RunSpec.from_dict(FAST_PAYLOAD)
    assert _cacheable(run)
    assert not _cacheable(run.with_seed(None))
    assert not _cacheable(run.with_fidelity("auto"))
    assert not _cacheable(run.with_fidelity("surrogate"))
    ensemble = _ensemble_payload(2000, root_seed=3)
    assert _cacheable(load_spec(ensemble))
    auto_run = {**ensemble["run"], "fidelity": "auto"}
    assert not _cacheable(load_spec({**ensemble, "run": auto_run}))
    sweep = {
        "schema_version": 1,
        "kind": "sweep",
        "sweep_id": "tiers",
        "base": ensemble["run"],
        "axes": {"initial.params.bias": [100, 150]},
        "root_seed": 3,
    }
    assert _cacheable(load_spec(sweep))
    assert not _cacheable(load_spec({**sweep, "base": auto_run}))
    one_auto_point = {**sweep["axes"], "fidelity": ["exact", "auto"]}
    assert not _cacheable(load_spec({**sweep, "axes": one_auto_point}))


def test_non_cacheable_submissions_never_coalesce(tmp_path, monkeypatch):
    release = threading.Event()
    monkeypatch.setattr(
        JobManager,
        "_run_in_process",
        lambda self, job, payload: (
            release.wait(timeout=30.0),
            {"spec_hash": "cd" * 32, "kind": "result"},
        )[1],
    )
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=2)
    try:
        first, _ = jobs.submit(
            {}, spec_hash="cd" * 32, kind="run", cacheable=False
        )
        second, coalesced = jobs.submit(
            {}, spec_hash="cd" * 32, kind="run", cacheable=False
        )
        assert not coalesced and second.id != first.id
    finally:
        release.set()
        jobs.shutdown()


def test_settled_jobs_evicted_beyond_retention_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(
        JobManager,
        "_run_in_process",
        lambda self, job, payload: {"spec_hash": "ee" * 32, "kind": "result"},
    )
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=1, max_retained_jobs=2)
    try:
        settled = []
        for index in range(5):
            job, _ = jobs.submit(
                {"index": index},
                spec_hash=f"{index:02d}" * 32,
                kind="run",
                cacheable=False,
            )
            jobs.wait_settled(job, 10.0)
            assert job.status == "done"
            settled.append(job)
        # the status flip precedes the evicting thread's cleanup by a
        # hair: give the final eviction a moment to land
        gate = threading.Event()
        for _ in range(200):
            if jobs.counts()["done"] == 2 and not settled[2].dir.exists():
                break
            gate.wait(0.02)
        # only the two newest settled jobs survive: older ones vanish
        # from the status view and their directories are deleted
        assert jobs.counts()["done"] == 2
        for job in settled[:3]:
            assert jobs.get(job.id) is None
            assert not job.dir.exists()
        for job in settled[3:]:
            assert jobs.get(job.id) is job
            assert job.dir.exists()
        job_dirs = [p for p in (tmp_path / "jobs").iterdir() if p.is_dir()]
        assert len(job_dirs) == 2
    finally:
        jobs.shutdown()


def test_eviction_counts_failed_jobs_and_records_metric(tmp_path, monkeypatch):
    def failing_run(self, job, payload):
        raise ServeError("synthetic job failure")

    monkeypatch.setattr(JobManager, "_run_in_process", failing_run)
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=1, max_retained_jobs=1)
    obs_metrics.REGISTRY.activate()
    # the registry is process-wide: an earlier test may have counted
    # evictions already, so count this test's from a baseline
    baseline = obs_metrics.REGISTRY.snapshot()

    def evicted():
        delta = obs_metrics.snapshot_delta(baseline, obs_metrics.REGISTRY.snapshot())
        return delta["counters"].get("serve_jobs_evicted_total", {}).get("", 0.0)

    try:
        first, _ = jobs.submit({}, spec_hash="aa" * 32, kind="run", cacheable=False)
        jobs.wait_settled(first, 10.0)
        second, _ = jobs.submit({}, spec_hash="bb" * 32, kind="run", cacheable=False)
        jobs.wait_settled(second, 10.0)
        assert first.status == second.status == "failed"
        # the evicting thread removes the directory, then counts: wait
        # for the count
        deadline = time.monotonic() + 10.0
        while evicted() < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert evicted() == 1.0, f"{evicted()} evictions counted within 10 s"
        assert jobs.get(first.id) is None, "the first job is still listed"
        assert not first.dir.exists(), "the first job's directory is still there"
        assert jobs.get(second.id) is second
        assert second.dir.exists()
    finally:
        obs_metrics.REGISTRY.deactivate()
        jobs.shutdown()


def test_shutdown_waits_for_evictions_after_a_job_settles(tmp_path, monkeypatch):
    """A job's thread evicts after its job settles; ``shutdown`` waits
    for that too, so no eviction lands after it returns."""
    monkeypatch.setattr(
        JobManager,
        "_run_in_process",
        lambda self, job, payload: {"spec_hash": "ee" * 32, "kind": "result"},
    )
    evict = JobManager._evict_settled

    def late_evict(self):
        time.sleep(0.2)
        evict(self)

    monkeypatch.setattr(JobManager, "_evict_settled", late_evict)
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=1, max_retained_jobs=1)
    first, _ = jobs.submit({}, spec_hash="aa" * 32, kind="run", cacheable=False)
    jobs.wait_settled(first, 10.0)
    second, _ = jobs.submit({}, spec_hash="bb" * 32, kind="run", cacheable=False)
    jobs.wait_settled(second, 10.0)
    jobs.shutdown()
    assert jobs.get(first.id) is None and not first.dir.exists()
    assert jobs.get(second.id) is second


def test_unbounded_retention_keeps_every_settled_job(tmp_path, monkeypatch):
    monkeypatch.setattr(
        JobManager,
        "_run_in_process",
        lambda self, job, payload: {"spec_hash": "ff" * 32, "kind": "result"},
    )
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=1)
    try:
        for index in range(4):
            job, _ = jobs.submit(
                {}, spec_hash=f"{index:02d}" * 32, kind="run", cacheable=False
            )
            jobs.wait_settled(job, 10.0)
        assert jobs.counts()["done"] == 4
    finally:
        jobs.shutdown()


def test_retention_bound_must_be_positive(tmp_path):
    store = ResultStore(tmp_path / "store")
    with pytest.raises(ServeError, match="max_retained_jobs"):
        JobManager(store, tmp_path, max_retained_jobs=0)


# ------------------------------------------------------------ HTTP daemon


def _settles_after(seconds):
    """A fake ``JobManager._run_in_process``: done after ``seconds``."""

    def run(self, job, payload):
        time.sleep(seconds)
        return {"spec_hash": job.spec_hash, "kind": "result"}

    return run


@pytest.fixture()
def daemon(tmp_path):
    obs_metrics.REGISTRY.reset()
    httpd = make_server(ServeConfig(port=0, root=tmp_path / "serve", max_jobs=2))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client, httpd
    shutdown_server(httpd)
    thread.join(timeout=5.0)


class TestDaemon:
    def test_health(self, daemon):
        client, _httpd = daemon
        health = client.health()
        assert health["status"] == "ok"
        assert health["store_documents"] == 0

    def test_miss_then_hit_byte_identical(self, daemon):
        client, _httpd = daemon
        first = client.submit_and_wait(FAST_PAYLOAD, timeout=60.0)
        assert first["status"] == "accepted"
        reference = client.result_bytes(first["spec_hash"])

        second = client.submit(FAST_PAYLOAD)
        assert second["status"] == "cached"
        assert client.result_bytes(second["spec_hash"]) == reference

        metrics = client.metrics_text()
        assert "serve_cache_hits_total 1" in metrics
        assert "serve_cache_misses_total 1" in metrics
        # one miss, one observation of each stage, the worker start too
        assert "serve_queue_wait_seconds_count 1" in metrics
        assert "serve_job_seconds_count 1" in metrics
        assert "serve_worker_start_seconds_count 1" in metrics

    def test_unseeded_specs_are_never_cached(self, daemon):
        client, _httpd = daemon
        payload = {**FAST_PAYLOAD, "seed": None}
        first = client.submit_and_wait(payload, timeout=60.0)
        assert first["status"] == "accepted"
        assert first["result"] is not None
        # the result exists on the job, but a resubmission simulates anew
        second = client.submit(payload)
        assert second["status"] == "accepted"
        client.wait(second["job"]["id"], timeout=60.0)

    def test_invalid_spec_is_a_400(self, daemon):
        client, _httpd = daemon
        with pytest.raises(ServeError, match="HTTP 400"):
            client.submit({**FAST_PAYLOAD, "protocol": {"name": "nope"}})
        with pytest.raises(ServeError, match="HTTP 400"):
            client.submit({"kind": "run"})

    def test_unknown_routes_are_404(self, daemon):
        client, _httpd = daemon
        with pytest.raises(ServeError, match="HTTP 404"):
            client.job("job-does-not-exist")
        start = time.monotonic()
        with pytest.raises(ServeError, match="HTTP 404"):
            client.wait("job-does-not-exist", poll=30.0)
        assert time.monotonic() - start < 5.0, "an unknown job is never held"
        with pytest.raises(ServeError, match="HTTP 404"):
            client.result_bytes("0" * 64)
        with pytest.raises(ServeError, match="HTTP 404"):
            client._request("GET", "/no/such/route")

    def test_progress_serves_the_job_journal(self, daemon):
        client, _httpd = daemon
        response = client.submit(FAST_PAYLOAD)
        job_id = response["job"]["id"]
        client.wait(job_id, timeout=60.0)
        records = list(client.progress(job_id))
        events = {record.get("event") for record in records}
        assert "journal.open" in events
        assert any(record.get("span") == "engine.run" for record in records)

    def test_job_status_carries_result_when_done(self, daemon):
        client, _httpd = daemon
        response = client.submit(FAST_PAYLOAD)
        final = client.wait(response["job"]["id"], timeout=60.0)
        assert final["result"]["spec_hash"] == response["spec_hash"]
        assert final["result"]["kind"] == "result"

    def test_exact_request_after_trusted_auto_is_a_miss(self, daemon, capsys):
        # fidelity stays out of spec_hash, so the surrogate answer a
        # TRUSTED auto request gets must never answer an exact request
        client, _httpd = daemon
        auto = json.loads(FASTPATH.read_text())
        exact = {**auto, "fidelity": "exact"}
        first = client.submit_and_wait(auto, timeout=60.0)
        assert first["status"] == "accepted"
        assert first["result"]["result_kind"] == "surrogate"
        second = client.submit_and_wait(exact, timeout=60.0)
        assert second["spec_hash"] == first["spec_hash"]
        assert second["status"] == "accepted"
        assert second["result"]["result_kind"] == "run"
        assert second["result"]["outcome"]["engine"] != "meanfield"
        assert client.submit(exact)["status"] == "cached"
        # an auto job answers with its own document, not the stored one
        third = client.submit_and_wait(auto, timeout=60.0)
        assert third["status"] == "accepted"
        assert third["result"]["result_kind"] == "surrogate"
        fetched = {}
        for name, job in (("exact", second["job"]), ("auto", third["job"])):
            assert cli_main(["fetch", job["id"], "--server", client.base_url]) == 0
            fetched[name] = capsys.readouterr().out.encode("utf-8")
        assert fetched["exact"] == client.result_bytes(first["spec_hash"])
        assert json.loads(fetched["auto"])["result_kind"] == "surrogate"

    def test_wait_returns_as_the_job_settles(self, daemon, monkeypatch):
        client, _httpd = daemon
        monkeypatch.setattr(JobManager, "_run_in_process", _settles_after(0.3))
        job_id = client.submit(FAST_PAYLOAD)["job"]["id"]
        start = time.monotonic()
        final = client.wait(job_id, poll=5.0)
        # a client that slept ``poll`` between requests would take 5 s
        assert time.monotonic() - start < 2.0
        assert final["status"] == "done"
        assert final["result"]["spec_hash"] == final["spec_hash"]

    def test_wait_polls_a_daemon_that_answers_at_once(self, daemon, monkeypatch):
        client, _httpd = daemon
        monkeypatch.setattr(JobManager, "_run_in_process", _settles_after(1.0))
        held = ServeApp.job_status
        monkeypatch.setattr(
            ServeApp,
            "job_status",
            lambda self, job_id, wait: held(self, job_id, 0.0),
        )
        job_id = client.submit(FAST_PAYLOAD)["job"]["id"]
        assert client.wait(job_id, poll=0.2)["status"] == "done"
        # about one request per ``poll`` over the 1 s job, no busy loop
        requests = obs_metrics.REGISTRY.snapshot()["counters"]
        assert 2 <= requests["serve_requests_total"]["endpoint=get_run"] <= 8

    def test_wait_survives_a_two_argument_job_replacement(
        self, daemon, monkeypatch
    ):
        # perfbench counts polls by replacing ``ServeClient.job`` with a
        # ``(client, job_id)`` function; ``wait`` must keep working
        client, _httpd = daemon
        monkeypatch.setattr(JobManager, "_run_in_process", _settles_after(0.2))
        plain = ServeClient.job
        monkeypatch.setattr(
            ServeClient, "job", lambda client, job_id: plain(client, job_id)
        )
        job_id = client.submit(FAST_PAYLOAD)["job"]["id"]
        final = client.wait(job_id, poll=0.02)
        assert final["id"] == job_id and final["status"] == "done"

    def test_seconds_queries_are_validated(self, daemon, monkeypatch):
        client, _httpd = daemon
        monkeypatch.setattr(JobManager, "_run_in_process", _settles_after(0.0))
        job_id = client.submit(FAST_PAYLOAD)["job"]["id"]
        for bad in ("abc", "-1", "nan"):
            with pytest.raises(ServeError, match="HTTP 400: [?]wait="):
                client._request("GET", f"/runs/{job_id}?wait={bad}")
        with pytest.raises(ServeError, match="HTTP 400: [?]timeout="):
            client._request("GET", f"/runs/{job_id}/progress?timeout=abc")
        _status, data = client._request("GET", f"/runs/{job_id}?wait=10")
        assert json.loads(data)["status"] == "done"


def test_process_mode_smoke(tmp_path):
    """One job slot: every stage of a miss is timed, and the start is warm."""
    obs_metrics.REGISTRY.reset()
    httpd = make_server(ServeConfig(port=0, root=tmp_path / "serve", max_jobs=1))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        first = client.submit_and_wait(FAST_PAYLOAD, timeout=120.0)
        assert first["status"] == "accepted"
        metrics = client.metrics_text()
        for histogram in (
            "serve_queue_wait_seconds",
            "serve_job_seconds",
            "serve_worker_start_seconds",
        ):
            assert f"{histogram}_count 1" in metrics, histogram
        # PYTHONPATH makes repro importable in the forkserver: a warm start
        assert "serve_worker_cold_starts_total" not in metrics
        assert client.submit(FAST_PAYLOAD)["status"] == "cached"
        document = json.loads(
            client.result_bytes(first["spec_hash"]).decode("utf-8")
        )
        assert document["outcome"]["stabilized"] is True
    finally:
        shutdown_server(httpd)
        thread.join(timeout=5.0)


def test_forked_workers_under_load_match_in_process_runs(tmp_path):
    """More workers than CPUs, all submitted at once, then fresh entropy.

    Every forked job must reproduce the in-process outcome of its spec,
    and three unseeded jobs must not all agree: randomness drawn at
    import time in the forkserver would be copied into every job it
    forks.  Two independent draws of this spec collide about once in
    200, so a chance failure needs two collisions.
    """
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=3)
    payloads = [{**FAST_PAYLOAD, "seed": 100 + i} for i in range(6)]
    specs = [RunSpec.from_dict(payload) for payload in payloads]
    submitted = [None] * len(payloads)

    def submit(i):
        submitted[i], _ = jobs.submit(
            payloads[i],
            spec_hash=specs[i].spec_hash(),
            kind="run",
            cacheable=True,
        )

    try:
        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(len(payloads))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "a submission never returned"
        deadline = time.monotonic() + 120.0
        for job in submitted:
            jobs.wait_settled(job, max(0.0, deadline - time.monotonic()))
        for job, spec in zip(submitted, specs):
            assert job.status == "done", job.error
            local = to_document(run_spec(spec), spec)["outcome"]
            assert store.get(job.spec_hash)["outcome"] == local

        unseeded = {**FAST_PAYLOAD, "seed": None}
        spec_hash = RunSpec.from_dict(unseeded).spec_hash()
        draws = [
            jobs.submit(
                unseeded, spec_hash=spec_hash, kind="run", cacheable=False
            )[0]
            for _ in range(3)
        ]
        outcomes = []
        for job in draws:
            jobs.wait_settled(job, 60.0)
            assert job.status == "done", job.error
            document = json.loads((job.dir / "result.json").read_text())
            outcomes.append(document["outcome"])
        assert not outcomes[0] == outcomes[1] == outcomes[2]
    finally:
        jobs.shutdown()


def test_concurrent_starts_never_steal_an_exit_status(tmp_path, monkeypatch):
    """Jobs whose workers succeed settle ``done`` while other jobs start.

    ``Process.start`` polls every live child, and the forkserver's
    ``Popen.poll`` reads a child's exit status from its sentinel with no
    lock.  Here the blocking read that ``join`` makes pauses between the
    sentinel turning readable and the read, so a start in another
    thread nearly always reads the status first; ``join`` then finds
    EOF, which multiprocessing records as exit code 255.
    """
    from multiprocessing import forkserver, popen_forkserver
    from multiprocessing.connection import wait

    def paused_poll(self, flag=os.WNOHANG):
        if self.returncode is None:
            if not wait([self.sentinel], 0 if flag == os.WNOHANG else None):
                return None
            if flag != os.WNOHANG:
                time.sleep(0.2)
            try:
                self.returncode = forkserver.read_signed(self.sentinel)
            except (OSError, EOFError):
                self.returncode = 255
        return self.returncode

    monkeypatch.setattr(popen_forkserver.Popen, "poll", paused_poll)
    jobs = JobManager(ResultStore(tmp_path / "store"), tmp_path, max_workers=3)
    try:
        submitted = []
        for i in range(9):
            payload = {**FAST_PAYLOAD, "seed": 300 + i}
            job, _ = jobs.submit(
                payload,
                spec_hash=load_spec(payload).spec_hash(),
                kind="run",
                cacheable=True,
            )
            submitted.append(job)
        deadline = time.monotonic() + 120.0
        for job in submitted:
            jobs.wait_settled(job, max(0.0, deadline - time.monotonic()))
        assert [job.error for job in submitted] == [None] * 9
        assert [job.status for job in submitted] == ["done"] * 9
    finally:
        jobs.shutdown()


def _ensemble_payload(n, root_seed):
    initial = {"kind": "equal-minorities", "n": n, "params": {"bias": 150}}
    return {
        "schema_version": 1,
        "kind": "ensemble",
        "run": {**FAST_PAYLOAD, "seed": None, "initial": initial},
        "num_runs": 6,
        "root_seed": root_seed,
    }


def _engine_runs(job):
    """The ``n`` of every ``engine.run`` span the job's journal opened."""
    journal = job.dir / "journal.jsonl"
    if not journal.is_file():
        return []
    return [
        record["n"]
        for record in read_journal(journal)
        if record.get("event") == "span_begin" and record.get("span") == "engine.run"
    ]


def test_concurrent_ensemble_jobs_journal_only_their_own_runs(tmp_path):
    """Two ensembles at once: each job's journal holds its six member runs.

    Journals are kept per process, so jobs that shared one would record
    each other's runs.  The two ensembles differ in ``n``, which every
    ``engine.run`` span records.
    """
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=2)
    submitted = []
    try:
        for n, root_seed in ((2000, 41), (2400, 42)):
            payload = _ensemble_payload(n, root_seed)
            job, _ = jobs.submit(
                payload,
                spec_hash=load_spec(payload).spec_hash(),
                kind="ensemble",
                cacheable=True,
            )
            submitted.append((n, job))
        for n, job in submitted:
            jobs.wait_settled(job, 120.0)
            assert job.status == "done", job.error
            assert _engine_runs(job) == [n] * 6
    finally:
        jobs.shutdown()


#: Runs until it is killed: voter dynamics with a bias of one agent.
SLOW_PAYLOAD = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "voter", "k": 2},
    "initial": {"kind": "equal-minorities", "n": 400_000, "params": {"bias": 1}},
    "engine": "counts",
    "seed": 7,
    "max_parallel_time": 1_000_000.0,
}


@pytest.mark.parametrize(
    "signum", [signal.SIGKILL, signal.SIGSEGV], ids=lambda signum: signum.name
)
def test_killed_worker_error_names_the_signal(tmp_path, signum):
    """A worker killed mid-run fails its job with the signal's name.

    SIGSEGV runs :mod:`faulthandler`, whose stack lands in the job's
    ``stderr.log`` and in the tail the error quotes.
    """
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=1)
    try:
        job, _ = jobs.submit(
            SLOW_PAYLOAD,
            spec_hash=load_spec(SLOW_PAYLOAD).spec_hash(),
            kind="run",
            cacheable=True,
        )
        deadline = time.monotonic() + 60.0
        while job.pid is None or not _engine_runs(job):
            assert time.monotonic() < deadline, "worker never entered engine.run"
            time.sleep(0.05)
        os.kill(job.pid, signum)
        jobs.wait_settled(job, 30.0)
        assert job.status == "failed"
        assert job.error.startswith(f"worker killed by {signum.name}"), job.error
        if signum == signal.SIGSEGV:
            assert "Fatal Python error" in job.error, job.error
            assert "Fatal Python error" in (job.dir / "stderr.log").read_text()
        assert job.spec_hash not in store
    finally:
        jobs.shutdown()


def test_shutdown_starts_no_queued_job(tmp_path):
    """A job still queued for a slot when ``shutdown`` begins settles
    ``failed`` and forks no worker, so ``shutdown`` returns as soon as
    the running worker is gone instead of waiting out its 5 s."""
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=1)
    queued = None
    try:
        running, _ = jobs.submit(
            SLOW_PAYLOAD,
            spec_hash=load_spec(SLOW_PAYLOAD).spec_hash(),
            kind="run",
            cacheable=True,
        )
        deadline = time.monotonic() + 60.0
        while running.pid is None:
            assert time.monotonic() < deadline, "the first job never started"
            time.sleep(0.05)
        payload = {**SLOW_PAYLOAD, "seed": 8}
        queued, _ = jobs.submit(
            payload,
            spec_hash=load_spec(payload).spec_hash(),
            kind="run",
            cacheable=True,
        )
        assert queued.status == "queued"
        began = time.monotonic()
        jobs.shutdown()
        assert time.monotonic() - began < 4.0
        assert running.status == "failed"
        assert (queued.status, queued.error) == (
            "failed",
            "the job manager is shutting down",
        )
        assert queued.pid is None
    finally:
        jobs.shutdown()
        if queued is not None and queued.pid is not None and _running(queued.pid):
            os.kill(queued.pid, signal.SIGKILL)


#: A daemon that reaches ``repro`` only through a runtime ``sys.path``
#: edit: its forkserver cannot preload ``repro``, so jobs start cold.
COLD_START_SCRIPT = """\
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from repro.obs import metrics
from repro.serve import JobManager, ResultStore
from repro.specs import RunSpec


def main():
    metrics.REGISTRY.activate()
    payload = json.loads(Path("payload.json").read_text())
    jobs = JobManager(ResultStore(Path("store")), Path.cwd())
    job, _ = jobs.submit(
        payload,
        spec_hash=RunSpec.from_dict(payload).spec_hash(),
        kind="run",
        cacheable=True,
    )
    deadline = time.monotonic() + 120.0
    while job.status in ("queued", "running") and time.monotonic() < deadline:
        time.sleep(0.02)
    journal = (job.dir / "journal.jsonl").read_text().splitlines()
    counters = metrics.REGISTRY.snapshot()["counters"]
    print(json.dumps({
        "status": job.status,
        "error": job.error,
        "cold_starts": counters.get("serve_worker_cold_starts_total", {}),
        "events": [json.loads(line)["event"] for line in journal],
    }))
    jobs.shutdown()


if __name__ == "__main__":
    main()
"""


def test_cold_worker_start_is_counted_and_journaled(tmp_path):
    script = tmp_path / "daemon.py"
    script.write_text(COLD_START_SCRIPT)
    (tmp_path / "payload.json").write_text(json.dumps(FAST_PAYLOAD))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    installed = subprocess.run(
        [sys.executable, "-c", "import repro"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
    )
    if installed.returncode == 0:
        pytest.skip("repro is installed, so the forkserver preloads it anyway")
    src = Path(repro.__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, str(script), str(src)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=180.0,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["status"] == "done", report["error"]
    assert report["cold_starts"] == {"": 1.0}
    assert "serve.worker_cold_start" in report["events"]


def _status_requests(client):
    """How many ``GET /runs/{id}`` requests the daemon has counted."""
    for line in client.metrics_text().splitlines():
        if line.startswith('serve_requests_total{endpoint="get_run"} '):
            return float(line.split()[-1])
    return 0.0


def _running(pid):
    """Whether ``pid`` is a live process (a zombie awaits only its reaper)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize(
    "signum, exitcode",
    [(signal.SIGTERM, 0), (signal.SIGINT, 0), (signal.SIGKILL, -signal.SIGKILL)],
    ids=["SIGTERM", "SIGINT", "SIGKILL"],
)
def test_stop_signal_ends_daemon_and_its_running_worker(tmp_path, signum, exitcode):
    """``repro serve`` stops cleanly on SIGTERM and on SIGINT.

    The daemon runs in its own process with SIGINT inherited as ignored
    (what ``&`` in a non-interactive shell does); either signal must
    still end it with exit 0 within 10 s, its running worker terminated,
    although a connection that never sends a request is open.
    A SIGKILLed daemon runs no handler at all: its worker must still be
    gone within 5 s, because it exits when its lifeline pipe closes.
    A client waiting on the job, its status request held by the daemon,
    gets a :class:`ServeError` in every case: no hang, no raw socket
    error.  After SIGTERM or SIGINT it is the job's own settled answer,
    ``failed`` with ``worker killed by SIGTERM`` (the signal the daemon
    sends its workers): the daemon answers held requests before it
    exits.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--root", str(tmp_path / "serve"), "--jobs", "1"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        announced = proc.stdout.readline()
        assert "listening on http://" in announced, announced
        client = ServeClient(announced.split()[-1])
        job_id = client.submit(SLOW_PAYLOAD)["job"]["id"]
        deadline = time.monotonic() + 60.0
        while (pid := client.job(job_id).get("pid")) is None:
            assert time.monotonic() < deadline, "the job never started a worker"
            time.sleep(0.05)
        outcome = []

        def wait():
            try:
                outcome.append(client.wait(job_id, poll=30.0))
            except Exception as exc:  # noqa: BLE001 — the type is the check
                outcome.append(exc)

        address = urlparse(client.base_url)
        idle = socket.create_connection((address.hostname, address.port))
        asked = _status_requests(client)
        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        while _status_requests(client) < asked + 1:
            assert time.monotonic() < deadline, "the wait request never arrived"
            time.sleep(0.01)
        proc.send_signal(signum)
        assert proc.wait(timeout=10.0) == exitcode
        idle.close()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive(), "the waiting client outlived the daemon"
        assert isinstance(outcome[0], ServeError), repr(outcome[0])
        if signum != signal.SIGKILL:
            settled = f"job {job_id} failed: worker killed by SIGTERM"
            assert str(outcome[0]).startswith(settled), str(outcome[0])
        deadline = time.monotonic() + 5.0
        while _running(pid):
            assert time.monotonic() < deadline, f"worker {pid} outlived the daemon"
            time.sleep(0.05)
    finally:
        try:  # the daemon's session: its forkserver and workers too
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10.0)
        proc.stdout.close()


def test_process_mode_needs_forkserver(tmp_path, monkeypatch):
    import multiprocessing

    def no_forkserver(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_forkserver)
    with pytest.raises(ServeError, match="'forkserver' start method"):
        JobManager(ResultStore(tmp_path / "store"), tmp_path)


def test_client_reports_unreachable_server():
    client = ServeClient("http://127.0.0.1:9", timeout=2.0)
    with pytest.raises(ServeError, match="could not reach"):
        client.health()
