"""CI driver for the ``analytics`` leg: the fleet-analytics contracts.

Runs the ``zipf_robustness`` demo scenario (a 100-point sweep, every
point streaming its trajectory to disk), exports the resulting fleet
into one partitioned dataset of npz fragments, and holds the subsystem
to its acceptance promises:

0. **The whole fleet is exported and counted.**  The first export
   writes every run directory and skips none, and both the
   hitting-quantile and the undecided-envelope answers count every
   run.
1. **One scan, bit-identical answers.**  ``repro trace query --ask
   hitting-quantiles`` over the >= 100-run dataset must equal — to the
   last bit, ``==`` on floats — a NumPy reference computed per run
   straight from the streamed manifests through the same shared
   helpers (both ``interactions`` and ``parallel`` units).
2. **Incremental re-export.**  Exporting the unchanged fleet again
   rewrites nothing: zero runs exported, every fragment's mtime
   untouched.
3. **The trajectory scan degrades, never dies.**  A deliberately
   truncated fragment is skipped with a recorded reason while the
   envelope query still answers from the surviving runs.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import analytics  # noqa: E402 (path bootstrap above)
from repro.analytics.query import quantiles_exact  # noqa: E402
from repro.io.streaming import iter_persisted_manifests  # noqa: E402

SCENARIO = REPO_ROOT / "examples" / "scenarios" / "zipf_robustness.json"
MIN_FLEET = 100


def run_cli(args, cwd):
    """Run ``repro <args>`` through the CLI module, capturing stdout."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env={
            **__import__("os").environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
        },
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}\n{result.stderr}"
        )
    return result.stdout


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        print(f"1/4 running demo fleet ({SCENARIO.name}) ...", flush=True)
        run_cli(
            ["run", "--spec", str(SCENARIO), "--out", "sweep-out"],
            workdir,
        )
        runs_root = workdir / "results" / "zipf-robustness" / "runs"
        run_dirs = sorted(p for p in runs_root.iterdir() if p.is_dir())
        assert len(run_dirs) >= MIN_FLEET, (
            f"demo fleet has {len(run_dirs)} runs, need >= {MIN_FLEET}"
        )

        print("2/4 exporting dataset ...", flush=True)
        dataset_dir = workdir / "fleet"
        out = run_cli(
            [
                "trace",
                "dataset",
                str(dataset_dir),
                "--runs",
                str(runs_root),
            ],
            workdir,
        )
        print("   " + out.splitlines()[0])
        fleet = len(run_dirs)
        assert f": {fleet} exported (" in out and ", 0 skipped" in out, (
            f"the first export must write all {fleet} runs and skip none:\n{out}"
        )
        ds = analytics.dataset(dataset_dir)
        assert len(ds) == fleet, f"dataset holds {len(ds)} of {fleet} runs"

        print("3/4 bit-match against the per-run NumPy reference ...", flush=True)
        quantiles = (0.25, 0.5, 0.9, 0.99)
        by_unit = {"interactions": [], "parallel": []}
        for _, manifest in iter_persisted_manifests(runs_root):
            summary = manifest["summary"]
            if not summary.get("stabilized"):
                continue
            hit = float(summary["stabilization_interactions"])
            by_unit["interactions"].append(hit)
            by_unit["parallel"].append(hit / float(manifest["run_info"]["n"]))
        for unit, values in by_unit.items():
            reference = quantiles_exact(values, quantiles)
            answer = json.loads(
                run_cli(
                    [
                        "trace",
                        "query",
                        str(dataset_dir),
                        "--ask",
                        "hitting-quantiles",
                        "--unit",
                        unit,
                        "--quantiles",
                        ",".join(str(q) for q in quantiles),
                        "--json",
                    ],
                    workdir,
                )
            )
            assert answer["quantiles"] == reference, (
                f"{unit} quantiles diverge from the NumPy reference:\n"
                f"  query:     {answer['quantiles']}\n"
                f"  reference: {reference}"
            )
            assert answer["stabilized"] == len(values)
            assert answer["runs"] == fleet, f"{unit} quantiles count {answer['runs']}"
            print(
                f"   {unit}: {len(values)} runs, "
                f"median {answer['quantiles'][repr(0.5)]:.6g} — bit-identical"
            )
        envelope = json.loads(
            run_cli(
                [
                    "trace",
                    "query",
                    str(dataset_dir),
                    "--ask",
                    "undecided-envelope",
                    "--grid",
                    "40",
                    "--json",
                ],
                workdir,
            )
        )
        assert envelope["runs"] == fleet, f"envelope counts {envelope['runs']}"
        assert len(envelope["grid"]) == 40

        print("4/4 incremental re-export + torn-fragment resilience ...", flush=True)
        stats = {path: path.stat().st_mtime_ns for path in dataset_dir.rglob("*.npz")}
        assert len(stats) >= MIN_FLEET
        out = run_cli(
            [
                "trace",
                "dataset",
                str(dataset_dir),
                "--runs",
                str(runs_root),
            ],
            workdir,
        )
        assert "0 exported" in out, f"re-export was not incremental: {out}"
        for path, mtime_ns in stats.items():
            assert path.stat().st_mtime_ns == mtime_ns, (
                f"fragment rewritten on unchanged re-export: {path}"
            )
        victim = sorted(stats)[0]
        victim.write_bytes(victim.read_bytes()[:32])
        survivors = json.loads(
            run_cli(
                [
                    "trace",
                    "query",
                    str(dataset_dir),
                    "--ask",
                    "undecided-envelope",
                    "--grid",
                    "10",
                    "--json",
                ],
                workdir,
            )
        )
        assert survivors["skipped"] == 1
        assert survivors["runs"] == envelope["runs"] - 1
        assert survivors.get("fragment_skips"), "skip reason not recorded"
    print("analytics check: all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
