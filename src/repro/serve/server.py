"""The ``repro serve`` daemon: simulation-as-a-service over stdlib HTTP.

A :class:`ServeApp` wires the three layers the service composes — the
spec layer (validation + ``spec_hash`` identity), the result store
(content-addressed cache, rescanned at every start) and the job
manager (bounded concurrent execution, each job in a forked worker
process) — behind a :class:`ThreadingHTTPServer`.  No dependency
beyond the standard library.

Endpoints
---------
``POST /runs``
    Submit a spec document (run/ensemble/sweep/experiment JSON).  A
    cacheable spec (seeded and exact-tier: see :func:`_cacheable`) whose
    hash is already stored is answered immediately
    (``200``, ``status: "cached"``) without consuming any RNG; otherwise
    the job is scheduled (``202``, ``status: "accepted"``) or coalesced
    onto an already-active job of the same hash (``202``,
    ``status: "coalesced"``).
``GET /runs/{id}``
    Job status; includes the result document once done.
    ``?wait=SECONDS`` holds the answer until the job settles or SECONDS
    (at most :data:`MAX_WAIT_S`) pass, so a waiting client learns of
    the settle at once instead of at its next poll.
``GET /runs/{id}/progress``
    The job's journal as NDJSON — heartbeats, spans, crash signatures.
    ``?follow=1`` keeps the connection open, streaming new records
    until the job settles (or ``?timeout=`` seconds elapse); it ends
    as soon as the job settles.
``GET /results/{spec_hash}``
    The stored result document, served as the exact bytes the store
    holds — byte-identical across hits.
``GET /metrics``
    The live obs registry in Prometheus text exposition format.
``GET /healthz``
    Liveness + job/store counts.
"""

from __future__ import annotations

import functools
import json
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import SpecError
from ..obs import metrics as obs_metrics
from ..obs.journal import read_journal
from ..specs import load_spec
from . import worker
from .jobs import SETTLED, JobManager
from .store import ResultStore, non_exact_reason

__all__ = ["ServeConfig", "ServeApp", "make_server", "run_server"]

#: The longest one ``GET /runs/{id}?wait=`` request is held, whatever
#: it asks, so no request pins a handler thread indefinitely.
MAX_WAIT_S = 60.0

#: How long a stopping daemon waits, once its jobs have settled, for the
#: requests it is still answering.  Idle connections are not waited for.
ANSWER_GRACE_S = 3.0


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to come up."""

    host: str = "127.0.0.1"
    port: int = 8765
    root: Path = Path("serve-data")
    runs_roots: Tuple[Path, ...] = field(default_factory=tuple)
    max_jobs: int = 2
    progress_interval: float = 2.0
    #: Settled (done/failed) jobs retained for the status endpoint;
    #: ``None`` keeps everything (the pre-eviction behavior).
    max_retained_jobs: Optional[int] = None


def _cacheable(spec: Any) -> bool:
    """Whether the store may answer for ``spec`` and keep its answer.

    Only deterministic, exact-tier work is stored.  ``fidelity`` stays
    out of ``spec_hash``, so a surrogate or ``auto`` answer would stand
    under the exact answer's hash (:func:`~repro.serve.store.non_exact_reason`).
    A seedless ``RunSpec`` draws fresh OS entropy per execution;
    ensembles and sweeps derive every member/point seed from a required
    root seed; an experiment is cacheable unless it declares a ``seed``
    parameter and that parameter resolved to null.
    """
    from ..specs import EnsembleSpec, ExperimentSpec, RunSpec, SweepSpec

    if non_exact_reason(spec.to_dict()) is not None:
        return False
    if isinstance(spec, RunSpec):
        return spec.seed is not None
    if isinstance(spec, (EnsembleSpec, SweepSpec)):
        return True
    if isinstance(spec, ExperimentSpec):
        resolved = spec.resolved_params
        return "seed" not in resolved or resolved["seed"] is not None
    return False


class ServeApp:
    """The daemon's state and request semantics, HTTP-free.

    Keeping the logic off the handler class makes it directly testable.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        root = Path(config.root)
        self.store = ResultStore(
            root / "store", runs_roots=config.runs_roots
        )
        self.jobs = JobManager(
            self.store,
            root,
            max_workers=config.max_jobs,
            progress_interval=config.progress_interval,
            max_retained_jobs=config.max_retained_jobs,
        )
        # the registry stays on for the daemon's lifetime: /metrics is
        # only as live as the counters behind it
        obs_metrics.REGISTRY.activate()

    def close(self) -> None:
        self.jobs.shutdown()
        obs_metrics.REGISTRY.deactivate()

    # -- request semantics ---------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """``POST /runs``: cache hit, coalesce, or schedule."""
        try:
            spec = load_spec(payload)
        except SpecError as exc:
            return 400, {"error": str(exc)}
        spec_hash = spec.spec_hash()
        kind = payload.get("kind", "run")
        cacheable = _cacheable(spec)
        if cacheable:
            cached = self.store.get(spec_hash)
            if cached is not None:
                obs_metrics.REGISTRY.inc("serve_cache_hits_total")
                return 200, {
                    "status": "cached",
                    "spec_hash": spec_hash,
                    "result_url": f"/results/{spec_hash}",
                    "result": cached,
                }
        obs_metrics.REGISTRY.inc("serve_cache_misses_total")
        job, coalesced = self.jobs.submit(
            payload, spec_hash=spec_hash, kind=kind, cacheable=cacheable
        )
        return 202, {
            "status": "coalesced" if coalesced else "accepted",
            "spec_hash": spec_hash,
            "job": job.to_dict(),
            "job_url": f"/runs/{job.id}",
        }

    def job_status(self, job_id: str, wait: float) -> Tuple[int, Dict[str, Any]]:
        """``GET /runs/{id}``: lifecycle + result once done.

        An active job is first given up to ``wait`` seconds (at most
        :data:`MAX_WAIT_S`) to settle.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if wait > 0:
            self.jobs.wait_settled(job, min(wait, MAX_WAIT_S))
        payload = job.to_dict()
        if job.status == "done":
            document = self.store.get(job.spec_hash) if job.cacheable else None
            if document is None:
                # non-cacheable jobs keep their result in the job dir only
                try:
                    document = json.loads(
                        (job.dir / worker.RESULT_NAME).read_text(
                            encoding="utf-8"
                        )
                    )
                except (OSError, ValueError):
                    document = None
            payload["result"] = document
        return 200, payload

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "jobs": self.jobs.counts(),
            "store_documents": len(self.store),
        }


def _answering(method):
    """Count a request as in flight while ``method`` answers it."""

    @functools.wraps(method)
    def answer(self) -> None:
        with self.server.answering():
            method(self)

    return answer


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP routing over a :class:`ServeApp`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request accounting lives in the metrics registry

    # -- plumbing ------------------------------------------------------

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_bytes(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _count(self, endpoint: str) -> None:
        obs_metrics.REGISTRY.inc("serve_requests_total", endpoint=endpoint)

    # -- routes --------------------------------------------------------

    @_answering
    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        parsed = urlparse(self.path)
        if parsed.path != "/runs":
            self._send_json(404, {"error": f"no POST route {parsed.path!r}"})
            return
        self._count("post_runs")
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": f"request body is not JSON: {exc}"})
            return
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "request body must be an object"})
            return
        status, response = self.app.submit(payload)
        self._send_json(status, response)

    @_answering
    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parsed.path == "/healthz":
            self._count("healthz")
            self._send_json(200, self.app.health())
        elif parsed.path == "/metrics":
            self._count("metrics")
            text = obs_metrics.prometheus_text(
                obs_metrics.REGISTRY.snapshot()
            )
            self._send_bytes(
                200,
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif len(parts) == 2 and parts[0] == "results":
            self._count("results")
            data = self.app.store.get_bytes(parts[1])
            if data is None:
                self._send_json(
                    404, {"error": f"no stored result for {parts[1]!r}"}
                )
            else:
                # the stored bytes, verbatim: cache hits are comparable
                # with == on the wire
                self._send_bytes(200, data, "application/json")
        elif len(parts) == 2 and parts[0] == "runs":
            self._count("get_run")
            try:
                wait = _seconds(parse_qs(parsed.query), "wait", 0.0)
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            status, payload = self.app.job_status(parts[1], wait)
            self._send_json(status, payload)
        elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "progress":
            self._count("progress")
            self._serve_progress(parts[1], parse_qs(parsed.query))
        else:
            self._send_json(404, {"error": f"no route {parsed.path!r}"})

    def _serve_progress(self, job_id: str, query: Dict[str, Any]) -> None:
        """NDJSON journal tail, optionally followed until the job settles."""
        import time

        job = self.app.jobs.get(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        follow = (query.get("follow") or ["0"])[0] in ("1", "true")
        try:
            timeout = _seconds(query, "timeout", 30.0)
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        journal_path = job.dir / worker.JOURNAL_NAME
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # the body length is unknowable up front (the journal is live):
        # close-delimited framing instead of Content-Length
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        deadline = time.monotonic() + timeout
        while True:
            records = (
                read_journal(journal_path) if journal_path.is_file() else []
            )
            for record in records[sent:]:
                line = json.dumps(record, sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
            self.wfile.flush()
            sent = len(records)
            settled = job.status in SETTLED
            if not follow or settled or time.monotonic() >= deadline:
                break
            # re-read the journal every 0.2 s, but end as the job settles
            self.app.jobs.wait_settled(job, 0.2)
        self.close_connection = True


def _seconds(query: Mapping[str, Any], name: str, default: float) -> float:
    """The non-negative number of seconds a query parameter names.

    Raises :class:`ValueError`, worded for a 400 answer, on anything else.
    """
    values = query.get(name)
    if not values:
        return default
    try:
        seconds = float(values[0])
        if seconds >= 0:  # false for NaN too
            return seconds
    except ValueError:
        pass
    raise ValueError(
        f"?{name}= must be a non-negative number of seconds, got {values[0]!r}"
    )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServeConfig) -> None:
        self.app = ServeApp(config)
        # requests between their route and their answer's last byte
        self._in_flight = 0
        self._in_flight_changed = threading.Condition()
        super().__init__((config.host, config.port), _Handler)

    @contextmanager
    def answering(self) -> Iterator[None]:
        with self._in_flight_changed:
            self._in_flight += 1
        try:
            yield
        finally:
            with self._in_flight_changed:
                self._in_flight -= 1
                self._in_flight_changed.notify_all()

    def wait_answered(self, timeout: float) -> None:
        """Block until no request is being answered, at most ``timeout`` s."""
        with self._in_flight_changed:
            self._in_flight_changed.wait_for(lambda: self._in_flight == 0, timeout)


def make_server(config: ServeConfig) -> _Server:
    """Bind the daemon (port 0 picks an ephemeral port) without serving."""
    return _Server(config)


#: The signals that stop ``repro serve`` cleanly.  Both are handled
#: explicitly: SIGTERM is what ``docker stop`` and most supervisors
#: send, and a daemon started with ``&`` from a non-interactive shell
#: inherits SIGINT as ignored.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def run_server(config: ServeConfig) -> None:
    """Run the daemon until SIGINT or SIGTERM.  Used by ``repro serve``.

    Either signal ends ``serve_forever`` and tears the daemon down with
    :func:`shutdown_server`, which terminates running workers; further
    stop signals are ignored until that teardown is done.  Call it from
    the main thread (it installs signal handlers).
    """
    httpd = make_server(config)
    host, port = httpd.server_address[:2]
    print(f"repro serve listening on http://{host}:{port}", flush=True)
    print(
        f"  store: {httpd.app.store.root} "
        f"({len(httpd.app.store)} cached result(s))",
        flush=True,
    )
    previous = {
        signum: signal.signal(signum, signal.default_int_handler)
        for signum in _STOP_SIGNALS
    }
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum in _STOP_SIGNALS:
            signal.signal(signum, signal.SIG_IGN)
        shutdown_server(httpd)
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def shutdown_server(httpd: _Server) -> None:
    """Tear the daemon down: settle jobs, answer, stop accepting, free the port.

    Settling the running jobs wakes every held ``?wait=`` request, and
    the teardown waits up to :data:`ANSWER_GRACE_S` for those answers
    to go out: handler threads are daemon threads, so a process that
    exits sooner cuts them off mid-answer.

    Safe from any thread *other* than the one inside ``serve_forever``
    (and after that loop has exited): ``shutdown()`` blocks until the
    serve loop acknowledges, so the socket closes only once no handler
    is accepting.
    """
    httpd.app.close()
    httpd.wait_answered(ANSWER_GRACE_S)
    httpd.shutdown()
    httpd.server_close()
