"""The benchmark's workloads and metrics: the one table BENCHMARK.json renders.

``python3 perfbench/run.py --write-manifest`` writes ``BENCHMARK.json``
from these tables, and the benchmark's tests check the committed file
against them, so the metric names a run prints and the names the
manifest promises cannot drift apart.
"""

from __future__ import annotations

from typing import Any, Dict

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Seconds one run measures (the workload loop; set-up is extra).
RUN_SECONDS = 20

#: name -> why the workload exists (one line each).
WORKLOADS: Dict[str, str] = {
    "fig1-batch": (
        "Figure-1 regime (USD, n=10^6, k=27) on the tau-leaping batch engine: "
        "kernel-bound, ~150 snapshots, the paper's headline run"
    ),
    "exact-counts": (
        "exact counts path (n=2*10^4, k=6, engine auto): the regime an exact "
        "batched engine picked by auto must speed up"
    ),
    "persist-fine": (
        "batch kernel at n=10^5 with snapshot_every=200 spilled to disk: "
        "recording and persistence dominate, the kernel does not"
    ),
    "serve-process": (
        "repro serve daemon in process mode, one closed-loop client: "
        "fresh-seeded ~75 ms misses, then cache hits of the same specs"
    ),
}

#: name -> (unit, better, bound).  Every workload reports every one.  Times
#: are reference seconds: wall time scaled by the speed the machine ran at
#: (``perfbench/calibration.py``).
END_TO_END: Dict[str, tuple] = {
    "run_p50_ref_s": ("s", "lower", 0.25),
    "interactions_per_ref_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
}

#: name -> (unit, better).  Layers a workload does not exercise read 0.
PER_LAYER: Dict[str, tuple] = {
    "core.kernels.step_s": ("s", "lower"),
    "core.kernels.ns_per_interaction": ("ns", "lower"),
    "core.kernels.step_calls": ("count", "lower"),
    "core.kernels.interactions": ("count", "higher"),
    "core.batch_engine.rejection_halvings": ("count", "lower"),
    "core.batch_engine.nominal_batch_size": ("count", "higher"),
    "core.counts_engine.effective_fraction": ("ratio", "higher"),
    "core.recorder.record_s": ("s", "lower"),
    "core.recorder.snapshots": ("count", "lower"),
    "core.persistent_recorder.close_s": ("s", "lower"),
    "io.streaming.chunks_written": ("count", "lower"),
    "io.streaming.bytes_written": ("bytes", "lower"),
    "core.run.loop_self_s": ("s", "lower"),
    "core.engine_build_ms": ("ms", "lower"),
    "workloads.initial_build_ms": ("ms", "lower"),
    "specs.load_hash_ms": ("ms", "lower"),
    "specs.render_ms": ("ms", "lower"),
    "serve.worker.start_ms": ("ms", "lower"),
    "serve.worker.run_ms": ("ms", "lower"),
    "serve.jobs.queue_wait_ms": ("ms", "lower"),
    "serve.jobs.job_ms": ("ms", "lower"),
    "serve.client.poll_lag_ms": ("ms", "lower"),
    "serve.client.polls_per_miss": ("count", "lower"),
    "serve.client.submit_ms": ("ms", "lower"),
    "serve.store.hit_ratio": ("ratio", "higher"),
    "serve.miss_tail_ms": ("ms", "lower"),
    "serve.hit_p50_ms": ("ms", "lower"),
    "serve.hit_tail_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def benchmark_json() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
