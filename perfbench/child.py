"""One workload in a fresh interpreter: set up, measure, report.

Started by ``perfbench/run.py`` as::

    python3 perfbench/child.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --workdir DIR [--setup-only]

It imports ``repro`` from the checkout's ``src/``, builds the
workload's inputs, prints ``READY`` once the first operation could
start (the parent times interpreter start to that line as ``setup_s``),
then runs operations in a closed loop for ``--seconds`` and prints one
JSON payload of raw per-operation records as its last line.  With
``--trace 1`` the seconds are split: an untraced pass, then a traced
replay of exactly the same operations whose results must be identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402  (benchmark-local modules)
from stats import tail  # noqa: E402
from tracing import Tracer  # noqa: E402

import repro  # noqa: E402,F401  (part of set-up: the import users pay)
from repro import specs  # noqa: E402
from repro.core import engine as core_engine  # noqa: E402
from repro.core import persistent_recorder, recorder  # noqa: E402
from repro.core import async_recorder  # noqa: E402
from repro.core import run as core_run  # noqa: E402
from repro.io.streaming import StreamedTrace  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs.config import ObsConfig  # noqa: E402
from repro.obs.runtime import activated  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.errors import ServeError  # noqa: E402

#: Serve hits per pass: answered specs submitted again.  A fixed count
#: keeps the hit tail the same percentile (p90) however many misses fit
#: in the measured seconds.
HITS = 100

#: The client's poll interval while it waits for a miss.  At the client's
#: default of 0.2 s a miss is quantised into 200 ms steps and its median
#: flips between 0.61 and 0.81 s from seed to seed; 20 ms keeps the
#: latency continuous (the polls remain counted as their own layer).
POLL_S = 0.02


def op_seed(workload: str, seed: int, index: int) -> int:
    """The engine seed of operation ``index``, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def run_document(
    k: int, n: int, engine: str, seed: int, recording: Optional[Dict] = None
) -> Dict[str, Any]:
    """A USD run spec document from the paper's initial configuration."""
    document = {
        "schema_version": 1,
        "kind": "run",
        "protocol": {"name": "usd", "k": k, "params": {}},
        "initial": {"kind": "paper", "n": n, "params": {}},
        "engine": engine,
        "seed": seed,
        "max_parallel_time": 5000.0,
        "stop_when_stable": True,
    }
    if recording:
        document["recording"] = recording
    return document


def consensus_problems(final_counts: List[int], n: int) -> List[str]:
    """The run checks every workload shares: counts, stabilization, consensus."""
    problems = []
    total = sum(int(c) for c in final_counts)
    if total != n:
        problems.append(f"final counts sum to {total}, not n={n}")
    # [undecided, opinion 1, ..., opinion k]: consensus = one opinion holds all
    if not any(int(c) == n for c in final_counts[1:]):
        problems.append("final state is not a consensus")
    return problems


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class RunWorkload:
    """In-process ``load_spec -> run_spec -> render``, like ``repro run --spec``."""

    hits = 0

    def __init__(self, name: str, k: int, n: int, engine: str, workdir: Path,
                 snapshot_every: Optional[int] = None, persist: bool = False):
        self.name = name
        self.k = k
        self.n = n
        self.engine = engine
        self.workdir = workdir
        self.snapshot_every = snapshot_every
        self.persist = persist

    def document(self, seed: int, index: int) -> Dict[str, Any]:
        recording = {}
        if self.snapshot_every is not None:
            recording["snapshot_every"] = self.snapshot_every
        if self.persist:
            # a fresh directory per operation: a stream already there
            # would answer the spec from disk instead of simulating
            recording["persist_to"] = str(self.workdir / "persist" / f"op-{index:05d}")
        return run_document(
            self.k, self.n, self.engine, op_seed(self.name, seed, index), recording
        )

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def begin_pass(self, traced: bool) -> None:
        pass

    def end_pass(self) -> Dict[str, float]:
        return {}

    def operation(self, document: Dict[str, Any]) -> Dict[str, Any]:
        spec = specs.load_spec(document)
        spec.spec_hash()
        start = time.perf_counter()
        result = specs.run_spec(spec)
        wall = time.perf_counter() - start
        specs.document_bytes(specs.to_document(result, spec))
        final_counts = [int(c) for c in result.final_counts]
        problems = consensus_problems(final_counts, self.n)
        if not result.stabilized:
            problems.append("run did not stabilize within its horizon")
        record: Dict[str, Any] = {
            "wall_s": wall,
            "interactions": int(result.interactions),
            "final_counts": final_counts,
            "problems": problems,
        }
        if self.persist:
            record.update(self._check_persisted(result, final_counts, problems))
        return record

    def _check_persisted(self, result, final_counts, problems) -> Dict[str, Any]:
        run_dir = Path(result.persist_dir)
        chunks = sorted(run_dir.glob("chunk-*.npz"))
        stats = {
            "chunks_written": len(chunks),
            "bytes_written": sum(path.stat().st_size for path in chunks),
        }
        stream = StreamedTrace(run_dir)
        if not stream.complete:
            problems.append("persisted manifest is not complete")
        elif stream.manifest.get("num_snapshots") != len(stream) or not chunks:
            problems.append("persisted manifest does not index its chunks")
        else:
            last = stream[len(stream) - 1 :].counts[-1]
            if [int(c) for c in last] != final_counts:
                problems.append("streamed final snapshot differs from final_counts")
        shutil.rmtree(run_dir, ignore_errors=True)
        return stats

    # -- tracing -----------------------------------------------------------

    def install(self, tracer: Tracer) -> None:
        from repro.specs.model import RunSpec

        tracer.wrap(specs, "load_spec", "specs.load")
        tracer.wrap(RunSpec, "spec_hash", "specs.hash")
        tracer.wrap(RunSpec, "build_initial", "workloads.initial_build")
        tracer.wrap(specs, "run_spec", "core.run")
        tracer.wrap(core_run, "make_engine", "core.engine_build")
        tracer.wrap(core_engine.BaseEngine, "step", "core.kernels.step")
        tracer.wrap(recorder.TrajectoryRecorder, "record", "core.recorder.record")
        tracer.wrap(
            async_recorder.AsyncTrajectoryRecorder, "record", "core.recorder.record"
        )
        tracer.wrap(
            persistent_recorder.PersistentTrajectoryRecorder,
            "close",
            "core.persistent_recorder.close",
        )
        tracer.wrap(specs, "to_document", "specs.render")
        tracer.wrap(specs, "document_bytes", "specs.render")
        self._engines: Dict[int, Any] = {}
        self._effective: Dict[int, List[float]] = {}

        def engine_built(engine, _args):
            self._engines[tracer.op] = engine

        def before_step(args):
            probability = getattr(args[0], "effective_probability", None)
            if probability is not None:
                self._effective.setdefault(tracer.op, []).append(probability())

        tracer.on_return["core.engine_build"] = engine_built
        tracer.on_call["core.kernels.step"] = before_step

    def layers(self, tracer: Tracer, records: List[Dict[str, Any]],
               pass_stats: Dict[str, float]) -> Dict[str, float]:
        per_op: List[Dict[str, float]] = []
        for record in records:
            op = record["op"]
            times = tracer.layer_times(op)

            def total(name: str, key: str = "total") -> float:
                return times.get(name, {}).get(key, 0.0)

            engine = self._engines.get(op)
            effective = self._effective.get(op, [])
            per_op.append({
                "core.kernels.step_s": total("core.kernels.step"),
                "core.kernels.step_calls": total("core.kernels.step", "calls"),
                "core.kernels.interactions": record["interactions"],
                "core.batch_engine.rejection_halvings": float(
                    getattr(engine, "rejection_halvings", 0)
                ),
                "core.batch_engine.nominal_batch_size": float(
                    getattr(engine, "nominal_batch_size", 0)
                ),
                "core.counts_engine.effective_fraction": _mean(effective),
                "core.recorder.record_s": total("core.recorder.record"),
                "core.recorder.snapshots": total("core.recorder.record", "calls"),
                "core.persistent_recorder.close_s": total(
                    "core.persistent_recorder.close"
                ),
                "io.streaming.chunks_written": record.get("chunks_written", 0),
                "io.streaming.bytes_written": record.get("bytes_written", 0),
                "core.run.loop_self_s": total("core.run", "self"),
                "core.engine_build_ms": total("core.engine_build") * 1e3,
                "workloads.initial_build_ms": total("workloads.initial_build") * 1e3,
                "specs.load_hash_ms": (
                    total("specs.load", "self") + total("specs.hash", "self")
                ) * 1e3,
                "specs.render_ms": total("specs.render") * 1e3,
            })
        layers = {name: _mean([op[name] for op in per_op]) for name in per_op[0]}
        step_s = sum(op["core.kernels.step_s"] for op in per_op)
        interactions = sum(op["core.kernels.interactions"] for op in per_op)
        layers["core.kernels.ns_per_interaction"] = (
            step_s * 1e9 / interactions if interactions else 0.0
        )
        return layers


class ServeWorkload:
    """A ``repro serve`` daemon (process mode) and one closed-loop client.

    Its hits are HTTP round trips to the store, spread over the pass so
    they sample the whole run rather than one quarter-second burst.
    """

    hits = HITS

    name = "serve-process"
    n = 3000
    k = 3

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.daemon: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None
        self._passes = 0
        self._polls = 0
        self._metrics_before: Dict[str, float] = {}

    def document(self, seed: int, index: int) -> Dict[str, Any]:
        return run_document(self.k, self.n, "counts", op_seed(self.name, seed, index))

    # -- daemon lifecycle -----------------------------------------------

    def _start_daemon(self) -> None:
        self._passes += 1
        root = self.workdir / f"serve-{self._passes}"
        root.mkdir(parents=True, exist_ok=True)
        log = root / "daemon.log"
        with open(log, "wb") as sink:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--root", str(root / "data")],
                cwd=str(ROOT),
                env=_child_env(self.workdir),
                stdout=sink,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = time.monotonic() + 60.0
        port = None
        while port is None:
            match = re.search(rb"http://[\d.]+:(\d+)", log.read_bytes())
            if match:
                port = int(match.group(1))
            elif self.daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start: {log.read_text()!r}")
            else:
                time.sleep(0.005)
        self.client = ServeClient(f"http://127.0.0.1:{port}")
        while True:
            try:
                self.client.health()
                return
            except ServeError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def _stop_daemon(self) -> None:
        if self.daemon is None:
            return
        daemon, self.daemon = self.daemon, None
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGINT)
            try:
                daemon.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                os.killpg(daemon.pid, signal.SIGKILL)
                daemon.wait(timeout=15.0)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.daemon.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kilobytes / 1024.0

    def setup(self) -> None:
        self._start_daemon()

    def teardown(self) -> None:
        self._stop_daemon()

    def begin_pass(self, traced: bool) -> None:
        if self._passes and traced:
            # a fresh daemon and store: the replayed specs must miss again
            self._stop_daemon()
            self._start_daemon()
        self._metrics_before = self._daemon_metrics()

    def end_pass(self) -> Dict[str, float]:
        after = self._daemon_metrics()
        return {key: after.get(key, 0.0) - self._metrics_before.get(key, 0.0)
                for key in after}

    def _daemon_metrics(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for line in self.client.metrics_text().splitlines():
            if line.startswith("#") or " " not in line:
                continue
            key, value = line.rsplit(" ", 1)
            values[key] = float(value)
        return values

    # -- one operation: a miss; a hit repeats it ---------------------------

    def operation(self, document: Dict[str, Any]) -> Dict[str, Any]:
        client = self.client
        polls_before = self._polls
        start = time.perf_counter()
        response = client.submit(document)
        final = client.wait(response["job"]["id"], poll=POLL_S)
        wall = time.perf_counter() - start
        seen_done = time.time()
        problems = []
        if response.get("status") != "accepted":
            problems.append(f"fresh spec answered {response.get('status')!r}")
        data = client.result_bytes(response["spec_hash"])
        result = json.loads(data)
        spec_hash = specs.load_spec(document).spec_hash()
        if result.get("spec_hash") != spec_hash:
            problems.append("result document spec_hash differs from the spec's")
        outcome = result["outcome"]
        problems += consensus_problems(outcome["final_counts"], self.n)
        if not outcome["stabilized"]:
            problems.append("run did not stabilize within its horizon")
        record: Dict[str, Any] = {
            "wall_s": wall,
            "interactions": int(outcome["interactions"]),
            "final_counts": outcome["final_counts"],
            "problems": problems,
            "outcome": outcome,
            "job": {key: final.get(key) for key in ("created", "started", "finished")},
            "seen_done": seen_done,
            "polls": self._polls - polls_before,
            "job_id": final["id"],
            "held": data,
        }
        return record

    def hit(self, record: Dict[str, Any]) -> tuple:
        """Submit the record's spec again: a store hit, (ms, ok)."""
        start = time.perf_counter()
        cached = self.client.submit(record["document"])
        elapsed = (time.perf_counter() - start) * 1e3
        ok = (
            cached.get("status") == "cached"
            and self.client.result_bytes(cached["spec_hash"]) == record["held"]
        )
        return elapsed, ok

    def reference_check(self, document: Dict[str, Any], record: Dict[str, Any]) -> None:
        """The daemon's outcome must equal an in-process run of the same spec."""
        spec = specs.load_spec(document)
        local = specs.to_document(specs.run_spec(spec), spec)["outcome"]
        if local != record["outcome"]:
            record["problems"].append("daemon outcome differs from in-process run_spec")

    def install(self, tracer: Tracer) -> None:
        for method in ("submit", "wait", "job", "result_bytes"):
            tracer.wrap(ServeClient, method, f"serve.client.{method}")

    def count_polls(self) -> None:
        """Count ``ServeClient.job`` calls: the polls ``wait`` makes."""
        original = ServeClient.job
        workload = self

        def job(client, job_id):
            workload._polls += 1
            return original(client, job_id)

        ServeClient.job = job

    def layers(self, tracer: Tracer, records: List[Dict[str, Any]],
               pass_stats: Dict[str, float]) -> Dict[str, float]:
        start_ms, run_ms = [], []
        for record in records:
            journal = list(self.client.progress(record["job_id"]))
            opened = next(r for r in journal if r.get("event") == "journal.open")
            start_ms.append((opened["unix_time"] - record["job"]["started"]) * 1e3)
            begin = next(r["t"] for r in journal if r.get("event") == "span_begin"
                         and r.get("span") == "engine.run")
            end = next(r["t"] for r in journal if r.get("event") == "span_end"
                       and r.get("span") == "engine.run")
            run_ms.append((end - begin) * 1e3)
        # hits carry HIT_OP, not the id of the operation they repeat
        submits = [span.duration * 1e3 for span in tracer.finished()
                   if span.op == HIT_OP and span.name == "serve.client.submit"]
        misses = len(records)
        hits = pass_stats.get("serve_cache_hits_total", 0.0)
        missed = pass_stats.get("serve_cache_misses_total", 0.0)
        step_s = pass_stats.get("kernel_step_seconds_sum", 0.0)
        interactions = pass_stats.get("interactions_total", 0.0)
        return {
            # the kernel runs inside the daemon's workers: read its registry
            "core.kernels.step_s": step_s / misses,
            "core.kernels.step_calls": pass_stats.get("kernel_step_seconds_count", 0.0)
            / misses,
            "core.kernels.interactions": interactions / misses,
            "core.kernels.ns_per_interaction": (
                step_s * 1e9 / interactions if interactions else 0.0
            ),
            "serve.worker.start_ms": _mean(start_ms),
            "serve.worker.run_ms": _mean(run_ms),
            "serve.jobs.queue_wait_ms": _mean(
                [(r["job"]["started"] - r["job"]["created"]) * 1e3 for r in records]
            ),
            "serve.jobs.job_ms": _mean(
                [(r["job"]["finished"] - r["job"]["started"]) * 1e3 for r in records]
            ),
            "serve.client.poll_lag_ms": _mean(
                [(r["seen_done"] - r["job"]["finished"]) * 1e3 for r in records]
            ),
            "serve.client.polls_per_miss": _mean([r["polls"] for r in records]),
            "serve.client.submit_ms": _mean(submits),
            "serve.store.hit_ratio": hits / (hits + missed) if hits + missed else 0.0,
        }


def make_workload(name: str, workdir: Path):
    if name == "fig1-batch":
        # k = paper_k_schedule(10**6) = 27, the paper's Figure 1
        return RunWorkload(name, 27, 10**6, "batch", workdir)
    if name == "exact-counts":
        return RunWorkload(name, 6, 20_000, "auto", workdir)
    if name == "persist-fine":
        # k = paper_k_schedule(10**5) = 11; at n = 2 * 10**5 a 20 s run held
        # only 7 runs and their median spread 11-21 % from seed to seed
        return RunWorkload(name, 11, 100_000, "batch", workdir,
                           snapshot_every=200, persist=True)
    if name == "serve-process":
        return ServeWorkload(workdir)
    raise SystemExit(f"unknown workload {name!r}")


def _child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # keep every cache the program may write inside the checkout
    env["REPRO_CYTHON_CACHE"] = str(workdir / "cython-cache")
    return env


#: Operation id of the spans recorded while hits run.
HIT_OP = -1


def run_pass(workload, seed: int, *, seconds: Optional[float], count: Optional[int],
             tracer: Optional[Tracer], hits: int) -> Dict[str, Any]:
    """Closed loop: one operation after another until the time or count is used.

    ``hits`` repeats of answered specs (a fixed count) are spread over
    the pass: after each operation, as many as the share of the pass
    used so far, the rest at its end.
    """
    records: List[Dict[str, Any]] = []
    answered: List[Dict[str, Any]] = []
    hit_ms: List[float] = []
    hit_errors: List[str] = []
    attempted = 0

    def hit_until(due: int) -> None:
        nonlocal attempted
        if tracer is not None:
            tracer.op = HIT_OP
        while answered and attempted < due:
            record = answered[attempted % len(answered)]
            attempted += 1
            try:
                elapsed, ok = workload.hit(record)
            except Exception as error:  # a hit that raises is a failure
                hit_errors.append(f"hit raised {type(error).__name__}: {error}")
                continue
            hit_ms.append(elapsed)
            if not ok:
                hit_errors.append("hit answer differs from the first answer")

    started = time.perf_counter()
    index = 0
    # untraced operations are timed between two readings of the machine's speed
    speed = calibration.sample() if tracer is None else []
    while True:
        used = time.perf_counter() - started
        if count is not None and index >= count:
            break
        if seconds is not None and index and used >= seconds:
            break
        document = workload.document(seed, index)
        if tracer is not None:
            tracer.op = index
        try:
            if tracer is not None:
                with tracer.span("op"):
                    record = workload.operation(document)
            else:
                record = workload.operation(document)
        except Exception as error:  # an operation that raises is a failure
            record = {"error": f"{type(error).__name__}: {error}"}
        record["document"] = document
        record["op"] = index
        if tracer is None:
            after = calibration.sample()
            record["unit_s"] = speed + after
            speed = after
        records.append(record)
        if "error" not in record:
            answered.append(record)
        index += 1
        share = (
            index / count if count is not None
            else (time.perf_counter() - started) / seconds
        )
        hit_until(int(hits * min(1.0, share)))
    hit_until(hits)
    return {"records": records, "hit_ms": hit_ms, "hits_attempted": attempted,
            "hit_errors": hit_errors}


def measure(workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    is_serve = isinstance(workload, ServeWorkload)
    if is_serve:
        workload.count_polls()
    workload.begin_pass(traced=False)
    untraced_pass = run_pass(workload, seed, seconds=seconds / 2 if trace else seconds,
                             count=None, tracer=None, hits=workload.hits)
    untraced = untraced_pass["records"]
    workload.end_pass()
    if is_serve:
        payload["peak_rss_mb"] = workload.peak_rss_mb()
        for record in untraced:
            if "error" not in record:
                try:
                    workload.reference_check(record["document"], record)
                except Exception as error:
                    record["problems"].append(f"reference run raised {error!r}")
    else:
        payload["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    payload["records"] = [_portable(record) for record in untraced]
    for key in ("hit_ms", "hits_attempted", "hit_errors"):
        payload[key] = untraced_pass[key]
    if not trace:
        return payload

    tracer = Tracer()
    workload.install(tracer)
    try:
        workload.begin_pass(traced=True)
        with activated(ObsConfig(metrics=True)):
            before = obs_metrics.REGISTRY.snapshot()
            traced_pass = run_pass(workload, seed, seconds=None, count=len(untraced),
                                   tracer=tracer, hits=workload.hits)
            obs_delta = obs_metrics.snapshot_delta(before, obs_metrics.REGISTRY.snapshot())
        pass_stats = workload.end_pass()
    finally:
        tracer.uninstall()
    traced = traced_pass["records"]
    payload["hits_attempted"] += traced_pass["hits_attempted"]
    payload["hit_errors"] += traced_pass["hit_errors"]
    identical = 0
    for plain, traced_record in zip(untraced, traced):
        same = (
            "error" not in plain and "error" not in traced_record
            and plain["final_counts"] == traced_record["final_counts"]
            and plain["interactions"] == traced_record["interactions"]
        )
        identical += same
        if not same:
            traced_record.setdefault("problems", []).append(
                "traced result differs from the untraced run of the same seed"
            )
    ok = [r for r in traced if "error" not in r]
    layers = workload.layers(tracer, ok, pass_stats) if ok else {}
    untraced_wall = sum(r.get("wall_s", 0.0) for r in untraced)
    traced_wall = sum(r.get("wall_s", 0.0) for r in traced)
    layers["trace.overhead_frac"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    walls_ms = [r["wall_s"] * 1e3 for r in untraced if "error" not in r]
    if is_serve and walls_ms and payload["hit_ms"]:
        # latencies from the untraced half, which the tracer did not slow
        layers["serve.miss_tail_ms"] = tail(walls_ms)[0]
        layers["serve.hit_p50_ms"] = statistics.median(payload["hit_ms"])
        layers["serve.hit_tail_ms"] = tail(payload["hit_ms"])[0]
    histogram = obs_delta.get("histograms", {}).get("kernel_step_seconds", {})
    payload["obs_kernel_step_s"] = float(histogram.get("sum", 0.0)) / max(len(ok), 1)
    payload["traced_records"] = [_portable(record) for record in traced]
    payload["identical"] = identical
    payload["layers"] = layers
    return payload


def _portable(record: Dict[str, Any]) -> Dict[str, Any]:
    """What the parent needs from one operation record."""
    keep = ("wall_s", "unit_s", "interactions", "problems", "error")
    return {key: record[key] for key in keep if key in record}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.environ.update(_child_env(args.workdir))
    workload = make_workload(args.workload, args.workdir)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        payload = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.teardown()
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
