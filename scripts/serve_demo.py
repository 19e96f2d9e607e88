"""Demo: the simulation service answering the same spec exactly once.

Starts an in-process ``repro serve`` daemon on an ephemeral port,
submits one seeded scenario twice over real HTTP, and prints the proof
of the cache contract: the first submission simulates, the second is
answered from the content-addressed result store — byte-identical on
the wire, no RNG consumed — while ``/metrics`` exposes the hit/miss
counters live.

Its job runs in a worker forked from the daemon's forkserver, like
every job.  This script reaches ``repro`` through a ``sys.path`` edit,
which the forkserver's preload does not see (CPython 3.11–3.13 start
it without the daemon's ``sys.path``), so that worker starts cold and
``serve_worker_cold_starts_total`` counts it.

Run it from the repo root::

    python scripts/serve_demo.py

For the containerised variant (daemon in Docker, client on the host)
see ``demo/Dockerfile``.
"""

import json
import shutil
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve import (  # noqa: E402 (path bootstrap above)
    ServeClient,
    ServeConfig,
    make_server,
    shutdown_server,
)

SPEC = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "usd", "k": 3},
    "initial": {"kind": "equal-minorities", "n": 3000, "params": {"bias": 200}},
    "engine": "batch",
    "seed": 2025,
    "max_parallel_time": 400.0,
    "stop_when_stable": True,
}


def main(tmp_root=None) -> int:
    import tempfile

    # a root the caller names is theirs to keep; one made here is removed
    made_root = tmp_root is None
    root = Path(tmp_root or tempfile.mkdtemp(prefix="repro-serve-demo-"))
    httpd = make_server(ServeConfig(port=0, root=root, max_jobs=2))
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{port}")
    print(f"daemon up on port {port}, store at {root}")

    try:
        first = client.submit_and_wait(SPEC, timeout=120.0)
        print(f"first submission:  {first['status']} (simulated)")
        spec_hash = first["spec_hash"]

        second = client.submit(SPEC)
        print(f"second submission: {second['status']} (no RNG consumed)")
        assert second["status"] == "cached", second

        first_bytes = client.result_bytes(spec_hash)
        second_bytes = client.result_bytes(spec_hash)
        assert first_bytes == second_bytes
        print(f"result bytes identical across fetches: {len(first_bytes)} bytes")

        document = json.loads(first_bytes.decode("utf-8"))
        outcome = document["outcome"]
        print(
            f"outcome: stabilized={outcome['stabilized']} "
            f"winner={outcome['winner']} "
            f"parallel_time={outcome['parallel_time']:.2f}"
        )

        metrics = client.metrics_text()
        for line in metrics.splitlines():
            if line.startswith(
                ("serve_cache", "serve_jobs_total", "serve_worker_cold")
            ):
                print(f"  /metrics: {line}")
        assert "serve_cache_hits_total 1" in metrics
        assert "serve_cache_misses_total 1" in metrics
        print("cache contract holds: one miss, one hit, zero recomputation")
        return 0
    finally:
        shutdown_server(httpd)
        thread.join(timeout=5.0)
        if made_root:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
