"""CI driver for the ``serve`` leg: the simulation service contracts.

Boots a real ``repro serve`` daemon (worker processes forked from a
preloaded ``forkserver``, the production mode) on an ephemeral port
and holds it to the seven promises the service makes:

1. **Never compute the same answer twice.**  A seeded spec submitted
   twice simulates once; the second submission is answered from the
   content-addressed store, byte-identical to the first result, and
   the ``/metrics`` endpoint shows exactly one miss and one hit.
2. **Results survive the daemon.**  After a restart, the same
   submission is still answered ``cached`` with the same bytes (the
   store is its documents directory, scanned at every start), and the
   store has written no ``index.json``.
3. **A killed simulation is legible, and never takes the daemon
   down.**  A long-running job's worker process is SIGKILLed
   mid-simulation; the job settles ``failed`` with an error that
   begins ``worker killed by SIGKILL``, its journal holds an open
   ``engine.run`` span (the crash signature), and the daemon keeps
   answering ``/healthz``.
4. **Workers start warm.**  After the kill, a fresh seeded spec still
   completes ``done``: the shared forkserver outlives a killed job.
   Over five fresh misses, the median worker start (the job journal's
   ``journal.open`` time minus the job's ``started``) must be under
   half the median time of a cold ``import repro.serve.worker`` in a
   new interpreter, timed here on the same runner.  A ratio, not an
   absolute time: a worker that re-imports ``repro`` per job reads
   about 1, a preloaded one about 0.05.  ``/metrics`` must count no
   cold worker starts.
5. **SIGTERM stops the daemon cleanly.**  A daemon with a job running
   (what ``docker stop`` and most supervisors send SIGTERM to) exits 0
   within 10 s, and the job's worker does not outlive it.
6. **A worker dies with its daemon.**  A daemon SIGKILLed with a job
   running (as the OOM killer would) runs no handler; its worker must
   still be gone within 5 s, because it exits when the pipe only the
   daemon held closes.
7. **No poll floor.**  ``submit_and_wait`` at the client's default
   ``poll`` returns when its job settles, not at a later poll: over
   promise 4's five misses, the median time from the job's
   ``finished`` to the call's return must be under a tenth of that
   ``poll``.  A ratio, like promise 4: a client that sleeps ``poll``
   between status requests reads about 0.5.  Each miss's overhead over
   an in-process ``run_spec`` of the same spec is printed, not gated:
   an absolute millisecond bound would flake on a shared runner.
"""

import inspect
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import ServeError  # noqa: E402 (path bootstrap above)
from repro.obs.journal import (  # noqa: E402
    JOURNAL_NAME,
    read_journal,
    summarize_journal,
)
from repro.serve import ServeClient  # noqa: E402
from repro.specs import load_spec, run_spec  # noqa: E402

#: Fast seeded spec — the cache-contract workload.
FAST_SPEC = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "usd", "k": 3},
    "initial": {"kind": "equal-minorities", "n": 3000, "params": {"bias": 200}},
    "engine": "batch",
    "seed": 2025,
    "max_parallel_time": 400.0,
    "stop_when_stable": True,
}

#: Deliberately long workload — alive long enough to be killed mid-run.
SLOW_SPEC = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "voter", "k": 2},
    "initial": {"kind": "equal-minorities", "n": 400_000, "params": {"bias": 1}},
    "engine": "counts",
    "seed": 7,
    "max_parallel_time": 1_000_000.0,
    "stop_when_stable": True,
}


def _start_daemon(root: Path):
    """Launch ``repro serve`` on an ephemeral port; return (proc, client)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--root",
            str(root),
            "--jobs",
            "2",
            "--progress-interval",
            "0.2",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", line)
    assert match, f"daemon did not announce a port: {line!r}"
    port = int(match.group(1))
    client = ServeClient(f"http://127.0.0.1:{port}")
    deadline = time.monotonic() + 10.0
    while True:
        try:
            client.health()
            break
        except ServeError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)
    return proc, client


def _stop_daemon(proc) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10.0)


def check_cache_contract(client) -> bytes:
    first = client.submit_and_wait(FAST_SPEC, timeout=120.0)
    assert first["status"] == "accepted", first["status"]
    spec_hash = first["spec_hash"]
    first_bytes = client.result_bytes(spec_hash)

    second = client.submit(FAST_SPEC)
    assert second["status"] == "cached", second
    second_bytes = client.result_bytes(spec_hash)
    assert second_bytes == first_bytes, "cache hit must be byte-identical"

    metrics = client.metrics_text()
    assert "serve_cache_hits_total 1" in metrics, metrics
    assert "serve_cache_misses_total 1" in metrics, metrics
    assert 'serve_jobs_total{status="done"} 1' in metrics, metrics
    print(
        f"cache contract ok: 1 miss, 1 hit, bytes identical "
        f"({len(first_bytes)} bytes, hash {spec_hash[:12]}...)"
    )
    return first_bytes


def check_store_survives_restart(root: Path, reference: bytes) -> None:
    proc, client = _start_daemon(root)
    try:
        response = client.submit(FAST_SPEC)
        assert response["status"] == "cached", (
            f"restarted store must answer from cache, got {response['status']}"
        )
        again = client.result_bytes(response["spec_hash"])
        assert again == reference, "restarted store must serve identical bytes"
    finally:
        _stop_daemon(proc)
    index = root / "store" / "index.json"
    assert not index.exists(), "the store must write no index.json"
    print("store restart ok: still cached bytes, no index.json written")


def _submit_slow(root: Path, client):
    """Submit SLOW_SPEC; return (job id, worker pid) once inside the engine."""
    response = client.submit(SLOW_SPEC)
    assert response["status"] == "accepted", response
    job_id = response["job"]["id"]
    journal_path = root / "jobs" / job_id / JOURNAL_NAME
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        pid = client.job(job_id).get("pid")
        if pid is not None and journal_path.is_file():
            spans = summarize_journal(read_journal(journal_path)).spans
            if spans.get("engine.run") is not None:
                return job_id, pid
        time.sleep(0.1)
    raise AssertionError("worker never entered engine.run")


def check_kill_legibility(root: Path, client) -> None:
    job_id, pid = _submit_slow(root, client)
    journal_path = root / "jobs" / job_id / JOURNAL_NAME
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        status = client.job(job_id)
        if status["status"] == "failed":
            break
        time.sleep(0.1)
    else:
        raise AssertionError("killed job never settled as failed")
    assert (status["error"] or "").startswith("worker killed by SIGKILL"), (
        status["error"]
    )

    summary = summarize_journal(read_journal(journal_path))
    engine_span = summary.spans.get("engine.run")
    assert engine_span is not None and engine_span.open > 0, (
        "the crash signature is an engine.run span begun and never ended"
    )
    assert not summary.closed, "a SIGKILLed journal must not be cleanly closed"

    health = client.health()
    assert health["status"] == "ok", health
    assert health["jobs"]["failed"] >= 1, health
    print(
        f"kill legibility ok: job failed ({status['error']}), journal "
        f"holds an open engine.run span, daemon still healthy"
    )


def _cold_import_seconds() -> float:
    """Wall time of ``import repro.serve.worker`` in a new interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.serve.worker"],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        check=True,
    )
    return time.perf_counter() - start


def check_warm_workers(root: Path, client) -> list:
    """Promise 4; returns the five misses as (spec, response, submit
    time, return time), wall clock, for :func:`check_no_poll_floor`."""
    survivor = client.submit_and_wait({**FAST_SPEC, "seed": 2026}, timeout=120.0)
    assert survivor["status"] == "accepted", survivor["status"]
    assert survivor["job"]["status"] == "done", survivor["job"]
    print("forkserver ok: a fresh job after the SIGKILL completed done")

    starts, misses = [], []
    for seed in range(2027, 2032):
        spec = {**FAST_SPEC, "seed": seed}
        submitted = time.time()
        response = client.submit_and_wait(spec, timeout=120.0)
        misses.append((spec, response, submitted, time.time()))
        assert response["status"] == "accepted", response["status"]
        job = response["job"]
        opened = read_journal(root / "jobs" / job["id"] / JOURNAL_NAME)[0]
        assert opened["event"] == "journal.open", opened
        starts.append(opened["unix_time"] - job["started"])
    warm = statistics.median(starts)
    cold = statistics.median(_cold_import_seconds() for _ in range(3))
    assert warm < 0.5 * cold, (
        f"median worker start {warm * 1e3:.1f} ms is not under half a cold "
        f"import ({cold * 1e3:.1f} ms): jobs are not forked warm"
    )

    for line in client.metrics_text().splitlines():
        if line.startswith("serve_worker_cold_starts_total "):
            assert float(line.split()[1]) == 0, line
    print(
        f"warm workers ok: median worker start {warm * 1e3:.1f} ms against "
        f"{cold * 1e3:.1f} ms for a cold import, no cold starts counted"
    )
    return misses


def check_no_poll_floor(misses: list) -> None:
    poll = inspect.signature(ServeClient.wait).parameters["poll"].default
    lags = [returned - response["job"]["finished"]
            for _spec, response, _submitted, returned in misses]
    ratio = statistics.median(lags) / poll
    assert ratio < 0.1, (
        f"a miss returned a median {statistics.median(lags) * 1e3:.1f} ms "
        f"after its job finished, {ratio:.2f} of the default poll "
        f"({poll:g} s): the client waits for a poll, not for the job"
    )
    run_spec(load_spec(FAST_SPEC))  # warm the in-process path first
    overheads = []
    for spec, _response, submitted, returned in misses:
        start = time.perf_counter()
        run_spec(load_spec(spec))
        local = time.perf_counter() - start
        overheads.append(f"{(returned - submitted - local) * 1e3:.0f}")
    print(
        f"no poll floor ok: median settle-to-return {ratio:.3f} of the "
        f"default poll ({poll:g} s); each miss took {', '.join(overheads)} ms "
        f"more than an in-process run_spec (reported, not gated)"
    )


def _running(pid: int) -> bool:
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


def check_signal_stop(root: Path, signum: signal.Signals) -> None:
    """SIGTERM: the daemon exits 0 and stops its worker.  SIGKILL: the
    daemon runs nothing, and the worker follows it through its lifeline."""
    expected = 0 if signum == signal.SIGTERM else -signum
    proc, client = _start_daemon(root)
    try:
        _, pid = _submit_slow(root, client)
        start = time.monotonic()
        proc.send_signal(signum)
        code = proc.wait(timeout=10.0)
        assert code == expected, (
            f"{signum.name} must end the daemon with exit {expected}, got {code}"
        )
        stopped = time.monotonic() - start
        deadline = time.monotonic() + 5.0
        while _running(pid):
            assert time.monotonic() < deadline, f"worker {pid} outlived the daemon"
            time.sleep(0.01)
        gone = time.monotonic() - start
    finally:
        try:  # the daemon's session: its forkserver and workers too
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10.0)
    print(
        f"{signum.name.lower()} stop ok: daemon exited {code} {stopped:.2f} s "
        f"after {signum.name} with a job running, worker {pid} gone "
        f"{gone * 1e3:.0f} ms after the signal"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-ci-") as tmp:
        root = Path(tmp)
        proc, client = _start_daemon(root)
        try:
            reference = check_cache_contract(client)
            check_kill_legibility(root, client)
            misses = check_warm_workers(root, client)
        finally:
            _stop_daemon(proc)
        check_no_poll_floor(misses)
        check_store_survives_restart(root, reference)
        check_signal_stop(root, signal.SIGTERM)
        check_signal_stop(root, signal.SIGKILL)
    print("serve leg ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
