"""The repository's benchmark: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload fig1-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # per-layer split
    python3 perfbench/run.py --workload all --seed 1 --record   # into the history
    python3 perfbench/run.py --write-manifest                  # BENCHMARK.json

Each workload runs in fresh interpreters (``perfbench/child.py``), so
``setup_s`` and ``peak_rss_mb`` belong to that workload alone.  Set-up
is timed several times per run (interpreter start to the moment the
first operation could begin) and reported as the median.  Timings are
in reference seconds (``perfbench/calibration.py``): wall time scaled
by the machine's speed, read beside each timing.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or with ``--trace 1``
the per-layer ones).  Everything the run writes stays under
``.perfbench-work/`` in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402  (benchmark-local modules)
import manifest  # noqa: E402
from stats import tail  # noqa: E402

#: Set-up samples per run, each a fresh interpreter that stops at READY.
SETUP_SAMPLES = 5
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


def _spawn(workload: str, args: argparse.Namespace, workdir: Path,
           setup_only: bool) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one child interpreter; returns (setup seconds, payload or None)."""
    command = [
        sys.executable, str(HERE / "child.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    lines: List[Tuple[float, str]] = []
    started = time.monotonic()
    process = subprocess.Popen(command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    # a reader thread stamps each line as it arrives, so READY is timed
    # exactly while the main thread enforces the child's deadline
    reader = threading.Thread(
        target=lambda: lines.extend((time.monotonic(), line) for line in process.stdout)
    )
    reader.start()
    try:
        process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    finally:
        reader.join()
        process.stdout.close()
    ready = next((at - started for at, line in lines if line.strip() == "READY"), None)
    if process.returncode != 0 or ready is None:
        raise RuntimeError(
            f"{workload} child exited with {process.returncode}"
            + (" before set-up finished" if ready is None else "")
        )
    lines = [line for _, line in lines]
    payload = None if setup_only else json.loads(lines[-1])
    return ready, payload


def count_failures(payload: Dict[str, Any]) -> Tuple[int, int]:
    """(attempted, failed) operations: each fresh run and each hit is one."""
    records = payload["records"] + payload.get("traced_records", [])
    attempted = len(records) + payload["hits_attempted"]
    failed = sum(bool(r.get("error") or r.get("problems")) for r in records)
    return attempted, failed + len(payload["hit_errors"])


def end_to_end(payload: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one workload run (untraced records)."""
    good = [r for r in payload["records"] if "error" not in r]
    times = [calibration.to_reference(r["wall_s"], r["unit_s"]) for r in good]
    # the median run's rate: one run caught in a burst cannot move it
    rates = [r["interactions"] / t for r, t in zip(good, times)]
    return {
        "run_p50_ref_s": statistics.median(times or [0.0]),
        "interactions_per_ref_s": statistics.median(rates or [0.0]),
        "peak_rss_mb": payload["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def run_workload(workload: str, args: argparse.Namespace,
                 workdir: Path) -> Dict[str, Any]:
    """Set-up samples, then the measured child; returns the workload's result."""
    setups, setup_walls = [], []
    for sample in range(SETUP_SAMPLES):
        # the machine's speed, read right before and after the interpreter runs
        before = calibration.sample()
        ready, _ = _spawn(workload, args, workdir / f"{workload}-setup-{sample}", True)
        setups.append(calibration.to_reference(ready, before + calibration.sample()))
        setup_walls.append(ready)
    _, payload = _spawn(workload, args, workdir / workload, False)
    attempted, failed = count_failures(payload)
    result = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end(payload, setups),
        "payload": payload,
        "setups": setup_walls,
    }
    if args.trace:
        result["per_layer"] = {
            name: float(payload.get("layers", {}).get(name, 0.0))
            for name in manifest.PER_LAYER
        }
    return result


def report(result: Dict[str, Any], trace: bool) -> None:
    """Human-readable lines: every metric by name and unit, plus the checks."""
    payload = result["payload"]
    records = payload["records"]
    walls = [r["wall_s"] for r in records if "error" not in r]
    hits = payload["hit_ms"]
    print(f"== {result['workload']} ==")
    for name, value in result["end_to_end"].items():
        unit = manifest.END_TO_END[name][0]
        print(f"  {name:<22} {value:14.6g} {unit}")
    if walls:
        value, percentile = tail(walls)
        print(f"  run wall (not gated): p50 {statistics.median(walls):.6g} s, "
              f"p{percentile:.0f} of {len(walls)} runs {value:.6g} s")
    if hits:
        value, percentile = tail(hits)
        print(f"  hits: p50 {statistics.median(hits):.6g} ms, "
              f"p{percentile:.0f} of {len(hits)}: {value:.6g} ms")
    print(f"  setup wall samples (s): {', '.join(f'{s:.3f}' for s in result['setups'])}")
    units = [u for r in records for u in r.get("unit_s", [])]
    if units:
        print(f"  reference unit: p50 {statistics.median(units) * 1e3:.3f} ms "
              f"(reference {calibration.REFERENCE_S * 1e3:g} ms) over {len(units)} samples")
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  checks: {result['attempted']} operations, {result['failed']} failed "
          f"(error_rate {error_rate:.4f})")
    for record in records + payload.get("traced_records", []):
        for problem in record.get("problems", []) + (
            [record["error"]] if "error" in record else []
        ):
            print(f"    failed: {problem}")
    for problem in sorted(set(payload["hit_errors"])):
        print(f"    failed: {problem} ({payload['hit_errors'].count(problem)}x)")
    if trace:
        layers = result["per_layer"]
        for name, value in layers.items():
            unit = manifest.PER_LAYER[name][0]
            print(f"  {name:<40} {value:14.6g} {unit}")
        print(f"  traced results identical to untraced: {payload['identical']} of "
              f"{len(payload['traced_records'])}")
        if payload["obs_kernel_step_s"]:
            print(f"  cross-check: obs kernel_step_seconds sum per op "
                  f"{payload['obs_kernel_step_s']:.6g} s beside core.kernels.step_s "
                  f"{layers['core.kernels.step_s']:.6g} s")


def _metric_values(result: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    if trace:
        values, table = result["per_layer"], manifest.PER_LAYER
    else:
        values, table = result["end_to_end"], manifest.END_TO_END
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all",
                        choices=[*manifest.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="append the result to benchmarks/results/history/ "
                             "(clean commits only)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/manifest.py")
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record keeps end-to-end numbers, which come from --trace 0")

    if args.write_manifest:
        text = json.dumps(manifest.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    import stamp  # imports repro: only once the program is known to exist

    workloads = list(manifest.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args, workdir))
    except (RuntimeError, ValueError, KeyError, IndexError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    context = stamp.context_stamp()
    print(f"context: {json.dumps(context, sort_keys=True)}")
    for result in results:
        report(result, bool(args.trace))
        if args.record:
            print(stamp.record(result["workload"], result["end_to_end"], context))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = _metric_values(results[0], bool(args.trace))
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in results
            for name, value in _metric_values(r, bool(args.trace)).items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
