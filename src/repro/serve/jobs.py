"""Job scheduling for the simulation service.

A :class:`JobManager` owns a bounded pool of concurrently running jobs.
Each job gets a directory under ``<root>/jobs/<id>`` (spec, journal,
result, error, the worker's stderr — everything the status and
progress endpoints serve) and runs in a child process of its own: a
crashed or killed simulation never takes the server down, and the kill
signature lands in the job journal.

Duplicate submissions coalesce: while a job for some ``spec_hash`` is
queued or running, submitting the same hash returns that job instead of
scheduling a second simulation — combined with the result store this
closes the "never compute the same answer twice" loop end to end.

Jobs are forked from a ``forkserver``: one helper process, launched by
the first job, that imports :data:`PRELOAD` once and never runs a job
itself.  A job therefore starts in tens of milliseconds instead of
paying a fresh interpreter and a ``repro`` import each time.  Plain
``fork`` of the daemon is deliberately not used: the daemon's HTTP
handler threads may hold locks (the metrics registry, the store) at
any moment, and a ``fork`` child would inherit those locks mid-flight.
The forkserver runs none of those threads.

A worker that dies without writing ``error.json`` fails its job with
the signal or exit code, followed by the tail of the worker's
``stderr.log`` (a fatal signal's stack, from :mod:`faulthandler`).

Every worker start and every read of a worker's exit status holds one
lock.  :mod:`multiprocessing` reads a forkserver child's status from
its sentinel without a lock of its own, and ``Process.start`` polls
every live child: two threads reading one status at once leave one of
them EOF, which it records as exit code 255 for a worker that
succeeded.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..errors import ReproError, ServeError
from ..obs import metrics as obs_metrics
from ..obs.runtime import emit as obs_emit
from . import worker

__all__ = ["Job", "JobManager"]

#: Job lifecycle states, in order.
STATUSES = ("queued", "running", "done", "failed")

#: The states a job ends in.
SETTLED = ("done", "failed")

#: Modules the forkserver imports before it forks any job: the worker
#: entry point, the CLI that a daemon started through the ``repro``
#: console script re-runs (as ``__mp_main__``) in every child, and the
#: experiment registry, which reaches every subpackage a job can run
#: (``import repro`` loads only the run path).  A forked job imports
#: no ``repro`` module itself; ``tests/test_import_surface.py`` checks
#: that for each job kind.
PRELOAD = ("repro.serve.worker", "repro.cli", "repro.experiments")

#: How much of a dead worker's ``stderr.log`` its job error quotes.
STDERR_TAIL_BYTES = 4096


@dataclass
class Job:
    """One scheduled spec execution and its lifecycle."""

    id: str
    spec_hash: str
    kind: str
    cacheable: bool
    dir: Path
    status: str = "queued"
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    pid: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """The wire form the status endpoint serves."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "spec_hash": self.spec_hash,
            "kind": self.kind,
            "cacheable": self.cacheable,
            "status": self.status,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "pid": self.pid,
        }
        if self.status == "done":
            payload["result_url"] = f"/results/{self.spec_hash}"
        return payload


class JobManager:
    """Bounded concurrent execution of submitted specs, with coalescing."""

    def __init__(
        self,
        store: Any,
        root: Union[str, Path],
        *,
        max_workers: int = 2,
        progress_interval: float = 2.0,
        max_retained_jobs: Optional[int] = None,
    ) -> None:
        if max_workers < 1:
            raise ServeError(
                f"max_workers must be at least 1, got {max_workers}"
            )
        if max_retained_jobs is not None and max_retained_jobs < 1:
            raise ServeError(
                f"max_retained_jobs must be at least 1, got {max_retained_jobs}"
            )
        try:
            self._context = multiprocessing.get_context("forkserver")
        except ValueError as exc:
            raise ServeError(
                "repro serve runs every job in a worker forked from the "
                "'forkserver' start method, which this platform lacks "
                "(it needs a POSIX system such as Linux)"
            ) from exc
        # read only when the first job launches the server
        self._context.set_forkserver_preload(list(PRELOAD))
        self.store = store
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.progress_interval = float(progress_interval)
        self.max_retained_jobs = max_retained_jobs
        self._slots = threading.BoundedSemaphore(max_workers)
        self._lock = threading.Lock()
        # notified, under ``_lock``, each time a job settles
        self._settled = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._by_hash: Dict[str, str] = {}  # active job per spec_hash
        self._counter = itertools.count(1)
        self._threads: Dict[str, threading.Thread] = {}
        self._closed = False
        # held around every worker start and exit-status read, and
        # around ``_processes``: shutdown terminates under it
        self._status_lock = threading.Lock()
        self._processes: Dict[str, Any] = {}

    # -- submission ----------------------------------------------------

    def submit(
        self,
        payload: Mapping[str, Any],
        *,
        spec_hash: str,
        kind: str,
        cacheable: bool,
    ) -> Tuple[Job, bool]:
        """Schedule a validated spec document.

        Returns ``(job, coalesced)`` — ``coalesced`` is true when an
        active job for the same ``spec_hash`` absorbed this submission.
        """
        with self._lock:
            if self._closed:
                raise ServeError("the job manager is shutting down")
            if cacheable:
                active_id = self._by_hash.get(spec_hash)
                if active_id is not None:
                    obs_metrics.REGISTRY.inc("serve_jobs_coalesced_total")
                    return self._jobs[active_id], True
            job_id = f"job-{next(self._counter):06d}-{spec_hash[:12]}"
            job = Job(
                id=job_id,
                spec_hash=spec_hash,
                kind=kind,
                cacheable=cacheable,
                dir=self.jobs_dir / job_id,
            )
            self._jobs[job_id] = job
            if cacheable:
                self._by_hash[spec_hash] = job_id
        job.dir.mkdir(parents=True, exist_ok=True)
        (job.dir / worker.SPEC_NAME).write_bytes(
            (json.dumps(dict(payload), sort_keys=True, indent=1) + "\n").encode(
                "utf-8"
            )
        )
        obs_emit("serve.job_submitted", job=job.id, spec_hash=spec_hash)
        thread = threading.Thread(
            target=self._run_job,
            args=(job, dict(payload)),
            name=f"serve-{job.id}",
            daemon=True,
        )
        with self._lock:
            self._threads[job.id] = thread
        thread.start()
        return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def wait_settled(self, job: Job, timeout: float) -> None:
        """Block until ``job`` is done or failed, at most ``timeout`` s."""
        with self._settled:
            self._settled.wait_for(lambda: job.status in SETTLED, timeout)

    def counts(self) -> Dict[str, int]:
        """How many jobs sit in each lifecycle state."""
        with self._lock:
            counts = dict.fromkeys(STATUSES, 0)
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    # -- execution -----------------------------------------------------

    def _run_job(self, job: Job, payload: Dict[str, Any]) -> None:
        with self._slots:
            job.status = "running"
            job.started = time.time()
            obs_metrics.REGISTRY.observe(
                "serve_queue_wait_seconds", job.started - job.created
            )
            status = "failed"
            try:
                document = self._run_in_process(job, payload)
                if job.cacheable:
                    self.store.put(job.spec_hash, document)
                status = "done"
            except ReproError as exc:
                job.error = str(exc)
            except BaseException as exc:  # noqa: BLE001 — job must settle
                job.error = f"{type(exc).__name__}: {exc}"
            finally:
                job.finished = time.time()
                obs_metrics.REGISTRY.observe(
                    "serve_job_seconds", job.finished - job.started
                )
                with self._lock:
                    # settle last: a client that reads the final status
                    # also reads ``finished`` and the job's latency
                    # histograms
                    job.status = status
                    self._settled.notify_all()
                    if self._by_hash.get(job.spec_hash) == job.id:
                        del self._by_hash[job.spec_hash]
                obs_metrics.REGISTRY.inc(
                    "serve_jobs_total", status=job.status
                )
                obs_emit(
                    "serve.job_finished", job=job.id, status=job.status
                )
                self._evict_settled()
                # leave ``_threads`` last: ``shutdown`` then also waits
                # for the evictions and counts this thread makes after
                # its job settled
                with self._lock:
                    self._threads.pop(job.id, None)

    def _evict_settled(self) -> None:
        """Drop the oldest settled jobs beyond ``max_retained_jobs``.

        Without a bound, the jobs dict and the per-job directories grow
        for the daemon's lifetime.  With one, every time a job settles
        the oldest-finished done/failed jobs past the bound are
        forgotten — removed from the status endpoint and their
        directories deleted.  Active (queued/running) jobs are never
        evicted, so the bound is on *retained history*, not on
        concurrency.  Cacheable results live on in the result store;
        eviction only drops the job-lifecycle view (and with it the
        job-dir copy non-cacheable results rely on).
        """
        if self.max_retained_jobs is None:
            return
        with self._lock:
            settled = [
                job
                for job in self._jobs.values()
                if job.status in SETTLED
            ]
            excess = len(settled) - self.max_retained_jobs
            if excess <= 0:
                return
            settled.sort(key=lambda job: job.finished or job.created)
            evicted = settled[:excess]
            for job in evicted:
                del self._jobs[job.id]
        for job in evicted:
            shutil.rmtree(job.dir, ignore_errors=True)
            obs_metrics.REGISTRY.inc("serve_jobs_evicted_total")
            obs_emit(
                "serve.job_evicted",
                job=job.id,
                status=job.status,
                spec_hash=job.spec_hash,
            )

    def _run_in_process(
        self, job: Job, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        from multiprocessing.connection import wait

        # only the daemon holds the write end: its death is the worker's EOF
        lifeline, keepalive = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=worker._job_entry,
            args=(payload, str(job.dir), self.progress_interval, lifeline),
            daemon=True,
        )
        try:
            with self._status_lock:
                # a job that gets its slot after shutdown began starts
                # no worker; one that started is in ``_processes``
                if self._closed:
                    raise ServeError("the job manager is shutting down")
                process.start()
                self._processes[job.id] = process
            lifeline.close()
            job.pid = process.pid
            # the job runs unlocked; only the status read takes the lock
            wait([process.sentinel])
            with self._status_lock:
                process.join()
                del self._processes[job.id]
        finally:
            lifeline.close()
            keepalive.close()
        opened = self._journal_opened(job)
        if opened is not None:
            obs_metrics.REGISTRY.observe(
                "serve_worker_start_seconds", opened - job.started
            )
        result_path = job.dir / worker.RESULT_NAME
        if process.exitcode == 0 and result_path.is_file():
            document = json.loads(result_path.read_text(encoding="utf-8"))
            # the child's counters (interactions stepped, kernel time)
            # fold into the daemon registry, exactly like pool workers
            metrics_path = job.dir / worker.METRICS_NAME
            try:
                obs_metrics.REGISTRY.merge_snapshot(
                    json.loads(metrics_path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError):
                pass  # metrics are best-effort provenance, never fatal
            return document
        raise ServeError(
            self._read_error(job) or _death_reason(job, process.exitcode)
        )

    def _journal_opened(self, job: Job) -> Optional[float]:
        """Wall time the worker opened the job journal, if it got that far."""
        try:
            with open(job.dir / worker.JOURNAL_NAME, encoding="utf-8") as fh:
                return float(json.loads(fh.readline())["unix_time"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _read_error(self, job: Job) -> Optional[str]:
        try:
            payload = json.loads(
                (job.dir / worker.ERROR_NAME).read_text(encoding="utf-8")
            )
            return f"{payload.get('error')}: {payload.get('message')}"
        except (OSError, ValueError):
            return None

    # -- shutdown ------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting jobs, terminate what still runs, wait up to 5 s."""
        with self._lock:
            self._closed = True
            threads = list(self._threads.values())
        with self._status_lock:
            for process in self._processes.values():
                if process.is_alive():
                    process.terminate()
        deadline = time.time() + 5.0
        for thread in threads:
            thread.join(max(0.0, deadline - time.time()))


def _death_reason(job: Job, exitcode: Optional[int]) -> str:
    """Why a worker that wrote no ``error.json`` ended, with its stderr tail."""
    if exitcode is not None and exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        reason = f"worker killed by {name}"
    elif exitcode == 255:  # multiprocessing's code for a missing status
        reason = "the forkserver reported no exit status for the worker (255)"
    else:
        reason = f"worker exited with code {exitcode}"
    try:
        with open(job.dir / worker.STDERR_NAME, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            fh.seek(max(0, fh.tell() - STDERR_TAIL_BYTES))
            tail = fh.read().decode("utf-8", "replace").strip()
    except OSError:
        tail = ""
    return f"{reason}; stderr tail:\n{tail}" if tail else reason
