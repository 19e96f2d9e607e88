"""Job execution for the simulation service.

One submitted spec runs through :func:`execute_job`: an observability
scope wraps the whole execution (metrics + a per-job journal, so
``GET /runs/{id}/progress`` can stream heartbeats and a crashed job
leaves its timeline on disk), and the finished result lands as the
canonical result-document bytes in ``result.json``.

:func:`_job_entry` is the process entry point of a job forked from the
daemon's ``forkserver``: it is module-level (picklable by qualified
name), reports failure through ``error.json`` + a non-zero exit code,
and ships the job's metric counters home through ``metrics.json`` — a
worker process has its own registry, so deltas travel by file exactly
like pool workers ship theirs through the result plumbing.

The forkserver imports this module once, so a job normally starts with
``repro`` already loaded.  The stdlib drops a failed preload silently
(say, ``repro`` importable only through a runtime ``sys.path`` edit of
the daemon); a job whose process had to import this module itself is
counted in ``serve_worker_cold_starts_total`` and journals a
``serve.worker_cold_start`` event, so a cold worker is visible.
"""

from __future__ import annotations

import faulthandler
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from ..errors import ReproError
from ..io import atomic_write
from ..obs import metrics as obs_metrics
from ..obs.config import ObsConfig
from ..obs.journal import JOURNAL_NAME
from ..obs.runtime import activated, emit as obs_emit
from ..specs import document_bytes, load_spec, run_spec, to_document

__all__ = [
    "ERROR_NAME",
    "JOURNAL_NAME",
    "METRICS_NAME",
    "RESULT_NAME",
    "SPEC_NAME",
    "STDERR_NAME",
    "execute_job",
]

#: Files a job directory may contain.  All but ``stderr.log`` (the
#: worker's fd 2, written as it goes) are written atomically.
SPEC_NAME = "spec.json"
RESULT_NAME = "result.json"
ERROR_NAME = "error.json"
METRICS_NAME = "metrics.json"
STDERR_NAME = "stderr.log"

#: The process that imported this module: the forkserver when its
#: preload worked, otherwise the job's own process (a cold start).
_IMPORT_PID = os.getpid()


def execute_job(
    payload: Mapping[str, Any],
    job_dir: Union[str, Path],
    *,
    progress_interval: float = 2.0,
    cold_start: bool = False,
) -> Dict[str, Any]:
    """Run one submitted spec document and persist its result document.

    The job directory receives ``journal.jsonl`` (live while the job
    runs — the progress endpoint tails it), ``result.json`` (the
    canonical document bytes) and ``metrics.json`` (the metric counters
    this job produced, as a snapshot delta for the daemon to merge).
    ``cold_start`` marks a worker that imported ``repro`` itself; it is
    counted and journaled.  Returns the result document.
    """
    job_dir = Path(job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    spec = load_spec(payload)
    config = ObsConfig(
        metrics=True, journal=True, progress_interval=progress_interval
    )
    with activated(
        config,
        journal_path=job_dir / JOURNAL_NAME,
        journal_meta={
            "spec_hash": spec.spec_hash(),
            "kind": payload.get("kind"),
            "job_dir": str(job_dir),
        },
    ):
        baseline = obs_metrics.REGISTRY.snapshot()
        if cold_start:
            obs_metrics.REGISTRY.inc("serve_worker_cold_starts_total")
            obs_emit("serve.worker_cold_start", pid=os.getpid())
        result = run_spec(spec)
        delta = obs_metrics.snapshot_delta(
            baseline, obs_metrics.REGISTRY.snapshot()
        )
    doc = to_document(result, spec)
    atomic_write(job_dir / METRICS_NAME, _json_bytes(delta))
    # the result lands last: its presence certifies the job completed
    atomic_write(job_dir / RESULT_NAME, document_bytes(doc))
    return doc


def _exit_with_daemon(lifeline) -> None:
    try:
        lifeline.recv_bytes()
    except (EOFError, OSError):
        os._exit(1)


def _json_bytes(value: Any) -> bytes:
    return (json.dumps(value, sort_keys=True) + "\n").encode("utf-8")


def _job_entry(
    payload: Dict[str, Any], job_dir: str, progress_interval: float, lifeline
) -> None:
    """Worker-process entry point: execute, or leave an ``error.json``.

    ``lifeline`` is the read end of a ``multiprocessing`` pipe whose write
    end only the daemon holds: a daemon that dies without stopping its
    workers (SIGKILL, the OOM killer) closes it, and the worker exits.
    """
    threading.Thread(target=_exit_with_daemon, args=(lifeline,), daemon=True).start()
    directory = Path(job_dir)
    with open(directory / STDERR_NAME, "wb") as log:
        os.dup2(log.fileno(), 2)
    faulthandler.enable(2)
    try:
        execute_job(
            payload,
            directory,
            progress_interval=progress_interval,
            cold_start=os.getpid() == _IMPORT_PID,
        )
    except BaseException as exc:  # noqa: BLE001 — the file IS the report
        try:
            atomic_write(
                directory / ERROR_NAME,
                _json_bytes(
                    {
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "repro_error": isinstance(exc, ReproError),
                    }
                ),
            )
        except OSError:
            pass
        raise SystemExit(1) from exc
