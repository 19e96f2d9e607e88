"""Speed floors of the process pools.

Two floors, each checked only where it can fire; otherwise it prints
``skipped: <reason>``:

* a 32-seed ``usd_stabilization_ensemble`` on 8 workers ≥ 3× serial
  (needs ≥ 8 CPUs);
* the ``usd2-logn`` grid as 2 shards × 4 workers plus merge ≥ 1.5×
  serial (needs ≥ 4 CPUs).

The pooled ensemble and the sharded sweep always run, and must equal
their serial runs exactly.  Prints one line per check and exits 1 if
any fails.

    PYTHONPATH=src python scripts/ci_speedup_check.py

On 2 CPUs it takes about 20 s.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import usd_stabilization_ensemble
from repro.experiments import BinaryLogNExperiment
from repro.parallel import available_workers
from repro.workloads import paper_initial_configuration

ENSEMBLE_WORKERS = 8
SWEEP_WORKERS = 4
SWEEP_PARAMS = dict(
    n_values=(5_000, 8_000, 12_000, 20_000, 32_000, 50_000),
    num_seeds=4,
    engine="batch",
    max_parallel_time=2_000.0,
)


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def _skip(label: str, reason: str) -> bool:
    print(f"{label}: skipped: {reason}")
    return True


def _floor(label: str, speedup: float, minimum: float) -> bool:
    return _report(label, speedup >= minimum, f"{speedup:.2f}x (floor {minimum}x)")


def _pool_check(label, run_serial, run_pooled, same, workers, minimum):
    """Pooled must equal serial; the speedup floor needs ``workers`` CPUs."""
    started = time.perf_counter()
    serial = run_serial()
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    pooled = run_pooled()
    pooled_seconds = time.perf_counter() - started
    detail = f"serial {serial_seconds:.2f} s, pooled {pooled_seconds:.2f} s"
    verdicts = [_report(f"{label} equals serial", same(serial, pooled), detail)]
    cpus = available_workers()
    if cpus < workers:
        reason = f"{cpus} CPUs available, need {workers}"
        verdicts.append(_skip(f"{label} speedup", reason))
    else:
        speedup = serial_seconds / pooled_seconds
        verdicts.append(_floor(f"{label} speedup", speedup, minimum))
    return verdicts


def _ensemble(workers: int):
    return usd_stabilization_ensemble(
        paper_initial_configuration(10_000, 8),
        num_seeds=32,
        seed=4242,
        engine="batch",
        max_parallel_time=3_000.0,
        workers=workers,
    )


def _same_ensemble(serial, pooled) -> bool:
    return (
        np.array_equal(serial.times, pooled.times)
        and np.array_equal(serial.winners, pooled.winners)
        and serial.censored == pooled.censored
    )


def _sharded_sweep():
    # two shards into one directory, like two hosts would, then the
    # full resume run that merges them
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for shard in ("0/2", "1/2"):
            BinaryLogNExperiment(
                shard=shard, out=out, workers=SWEEP_WORKERS, **SWEEP_PARAMS
            ).run()
        return BinaryLogNExperiment(out=out, resume=True, **SWEEP_PARAMS).run()


def _same_sweep(serial, pooled) -> bool:
    return pooled.rows == serial.rows and pooled.notes == serial.notes


def main() -> int:
    verdicts = _pool_check(
        f"32-seed ensemble on {ENSEMBLE_WORKERS} workers",
        lambda: _ensemble(0),
        lambda: _ensemble(ENSEMBLE_WORKERS),
        _same_ensemble,
        ENSEMBLE_WORKERS,
        3.0,
    )
    verdicts += _pool_check(
        f"usd2-logn sweep on 2 shards × {SWEEP_WORKERS} workers",
        lambda: BinaryLogNExperiment(workers=0, **SWEEP_PARAMS).run(),
        _sharded_sweep,
        _same_sweep,
        SWEEP_WORKERS,
        1.5,
    )
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
