"""Command-line front-end: ``repro`` / ``python -m repro``.

Subcommands
-----------
``repro list``
    Show every registered experiment id with its title.
``repro run <id> [--set name=value ...] [--out DIR] [--shard I/M] [--resume] [--no-plots] [--workers N] [--persist DIR]``
    Run one registry experiment (or ``all``) and print its report.  The
    id form is the ``ExperimentSpec`` naming the experiment with the
    ``--set`` overrides as its params, executed by
    :func:`repro.specs.run_spec` like any scenario file.  ``--out DIR``
    saves the artifact (``DIR/<id>.json`` plus its series) and, for
    grid-sweep experiments, checkpoints each point under ``DIR/<id>/``
    and writes the merged ``DIR/<id>/merged.json`` + ``provenance.json``;
    ``--shard I/M`` runs one shard of a grid sweep (it writes only its
    checkpoints) and ``--resume`` skips points already checkpointed, so
    a full ``--resume`` run after the shards is their merge.
    ``--workers`` fans ensembles and grids out over N processes
    (bit-identical results either way); ``--persist``
    (``fig1-ensemble`` only) streams member trajectories to
    spill-to-disk run directories that later invocations resume from.
    A flag the experiment cannot honour fails with an error naming it.
``repro run --spec FILE [--set dotted.key=value ...] [--out DIR] [--shard I/M] [--resume]``
    Run a *scenario file* — a JSON ``RunSpec`` / ``EnsembleSpec`` /
    ``SweepSpec`` / ``ExperimentSpec`` document (see
    ``examples/scenarios/``) — instead of a registry id.  ``--set`` then
    addresses dotted keys of the document (``--set initial.n=4000``);
    sweep scenarios checkpoint under ``--out`` and accept
    ``--shard``/``--resume``; experiment documents run exactly like the
    id form.
``repro spec show|validate|hash FILE [--set dotted.key=value ...]``
    Inspect a scenario file: print the normalised document, validate it
    against the spec schema, or print its canonical ``spec_hash``.
``repro trace info <RUN_DIR>``
    Show a streamed run directory's manifest: provenance, chunk index,
    completeness, post-run summary (plus the run's metric snapshot when
    it was recorded with ``--obs``).
``repro obs summary|tail|export <RUN_DIR-or-journal.jsonl>``
    Inspect a run's observability artifacts: ``summary`` reconstructs
    the per-layer time breakdown from the JSONL journal and prints the
    manifest's metric counters, ``tail`` prints the last journal
    events, ``export`` renders the metric snapshot in the Prometheus
    text format.  Journals and metric snapshots are written by runs
    executed with ``--obs`` (or an ``ObsConfig`` on the spec).
``repro trace export <RUN_DIR> --to FILE.npz [--every N] [--start T] [--stop T]``
    Materialize a streamed run (optionally windowed / downsampled) into
    a single ``.npz`` trace file readable with ``repro.io.load_trace``.
``repro trace dataset <DEST> --runs DIR [--runs DIR ...] [--store DIR]``
    Export every persisted run under the given roots (plus a serve
    result store's run documents) into one partitioned dataset of npz
    fragments.  Incremental: re-running skips unchanged runs without
    rewriting their fragments.
``repro trace query <DATASET> --ask QUESTION [--protocol P] [--n N] [--json] [...]``
    Answer a fleet-scale question over an exported dataset in one
    columnar scan: ``hitting-quantiles`` (``--unit
    interactions|parallel``), ``undecided-envelope`` (``--grid N``),
    ``winners``, ``throughput``.
``repro sweep status <id> --out DIR [...]``
    Show which grid points are done, missing, and who computed them,
    without computing anything.
``repro serve [--host H] [--port P] [--root DIR] [--runs DIR ...] [--jobs N] [--max-jobs N]``
    Run the simulation-as-a-service daemon: accept spec documents over
    HTTP, answer repeated submissions from a spec-hash result cache,
    schedule the rest on a bounded pool of worker processes, each forked
    from a ``forkserver`` that imported ``repro`` once.
    ``--runs`` seeds the cache from persisted run directories, rescanned
    at every start;
    ``--port 0`` picks an ephemeral port; ``--max-jobs`` bounds how
    many settled jobs (and their directories) are retained.
``repro submit FILE --server URL [--set dotted.key=value ...] [--wait]``
    Submit a scenario file to a running daemon; ``--wait`` blocks until
    the job settles and returns its result document then, not at a
    later poll (cached answers return instantly).
``repro fetch TARGET --server URL``
    Fetch a result document from a daemon by job id (``job-...``),
    spec file path, or raw spec hash.

Parameter overrides use ``--set name=value`` with values parsed as
Python literals, e.g. ``--set n=200000 --set k_values=(8,16)``.
``sweep status`` takes the *same* ``--set`` overrides as ``run`` — the
plan (grid + root seed) is rebuilt from them, so pass identical
overrides to every shard, to the status check and to the merge.
``repro run fig1-left`` and ``fig1-right`` reproduce Figure 1
(``--set n=1000000`` for the paper's scale).
"""

from __future__ import annotations

import argparse
import ast
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .errors import ReproError

__all__ = ["main", "build_parser", "parse_overrides"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction suite for 'An Almost Tight Lower Bound for Plurality "
            "Consensus with Undecided State Dynamics in the Population Protocol "
            "Model' (PODC 2025)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered experiments")

    run = commands.add_parser(
        "run", help="run one experiment by id (or 'all'), or a scenario file"
    )
    run.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="experiment id from 'repro list', or 'all' (omit with --spec)",
    )
    run.add_argument(
        "--spec",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "run a scenario file (a JSON RunSpec/EnsembleSpec/SweepSpec "
            "document, see examples/scenarios/) instead of a registry "
            "experiment; --set overrides then use dotted spec keys, e.g. "
            "--set initial.n=4000 --set protocol.name=voter"
        ),
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=(
            "override an experiment parameter (Python-literal value); with "
            "--spec, a dotted key into the scenario document"
        ),
    )
    run.add_argument(
        "--shard",
        default=None,
        metavar="I/M",
        help=(
            "grid sweeps only: execute shard I of M, checkpointing its "
            "points under --out (merge with a full run and --resume)"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="grid sweeps only: skip points already checkpointed under --out",
    )
    run.add_argument(
        "--out",
        type=Path,
        default=None,
        help=(
            "directory for artifacts (an experiment's <id>.json) and "
            "grid-sweep checkpoints plus, for a full run, merged.json "
            "(<out>/<id>/)"
        ),
    )
    run.add_argument(
        "--no-plots", action="store_true", help="suppress ASCII plots in the report"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "process-pool size for ensembles and grid sweeps "
            "(0 = in-process serial, the default; results are bit-identical "
            "for every worker count)"
        ),
    )
    run.add_argument(
        "--persist",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "stream trajectories to run directories under DIR "
            "(fig1-ensemble members, or a scenario's run template; "
            "spill-to-disk, memory-bounded); complete runs already on "
            "disk are resumed instead of re-simulated"
        ),
    )
    run.add_argument(
        "--fidelity",
        choices=("exact", "surrogate", "auto"),
        default=None,
        help=(
            "answer tier of a run/ensemble/sweep scenario: 'exact' runs "
            "the engines, 'surrogate' the mean-field fluid limit, 'auto' "
            "uses the surrogate only when its validity verdict is TRUSTED "
            "(escalates otherwise)"
        ),
    )
    run.add_argument(
        "--obs",
        action="store_true",
        help=(
            "collect observability for this invocation: metric counters "
            "(summary printed to stderr on exit) plus a JSONL run journal "
            "next to every persisted run directory; results stay "
            "bit-identical (see README 'Observability')"
        ),
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print throttled progress heartbeats (interactions/s, ETA, "
            "undecided fraction) to stderr while engines run"
        ),
    )

    meanfield = commands.add_parser(
        "meanfield",
        help=(
            "mean-field tools for a scenario file: fixed-points (for ODE "
            "timescales run the surrogate tier: repro run --spec F "
            "--fidelity surrogate)"
        ),
    )
    meanfield_commands = meanfield.add_subparsers(
        dest="meanfield_command", required=True
    )
    sub = meanfield_commands.add_parser(
        "fixed-points",
        help="classify the USD fluid-limit fixed points at the scenario's k",
    )
    sub.add_argument("spec_file", type=Path, help="a JSON scenario file (see --spec)")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="apply a dotted override before resolving",
    )

    spec = commands.add_parser(
        "spec", help="inspect scenario files: show / validate / hash"
    )
    spec_commands = spec.add_subparsers(dest="spec_command", required=True)
    for name, description in (
        ("show", "print the normalised spec document (after validation)"),
        ("validate", "validate a scenario file against the spec schema"),
        ("hash", "print the canonical spec_hash of a scenario file"),
    ):
        sub = spec_commands.add_parser(name, help=description)
        sub.add_argument(
            "spec_file", type=Path, help="a JSON scenario file (see --spec)"
        )
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="apply a dotted override before showing/validating/hashing",
        )

    trace = commands.add_parser(
        "trace", help="inspect / export streamed (persist_to) run directories"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    info = trace_commands.add_parser(
        "info", help="show a streamed run's manifest: provenance, chunks, summary"
    )
    info.add_argument("run_dir", type=Path, help="run directory with manifest.json")
    export = trace_commands.add_parser(
        "export", help="materialize a streamed run into a single .npz trace file"
    )
    export.add_argument("run_dir", type=Path, help="run directory with manifest.json")
    export.add_argument(
        "--to",
        type=Path,
        required=True,
        metavar="FILE",
        help="output path ending in .npz (readable with repro.io.load_trace)",
    )
    export.add_argument(
        "--every",
        type=int,
        default=1,
        metavar="N",
        help="keep every N-th snapshot (downsampling; default 1 = all)",
    )
    export.add_argument(
        "--start",
        type=float,
        default=None,
        metavar="T",
        help="keep snapshots from interaction time T on",
    )
    export.add_argument(
        "--stop",
        type=float,
        default=None,
        metavar="T",
        help="keep snapshots up to interaction time T",
    )
    trace_dataset = trace_commands.add_parser(
        "dataset",
        help=(
            "export many persisted runs into one partitioned dataset of "
            "npz fragments (incremental: unchanged runs are not rewritten)"
        ),
    )
    trace_dataset.add_argument(
        "dest", type=Path, help="dataset directory (created if missing)"
    )
    trace_dataset.add_argument(
        "--runs",
        type=Path,
        action="append",
        default=[],
        metavar="DIR",
        help=(
            "root to scan for persisted run directories "
            "(repeatable; sweep/ensemble roots work)"
        ),
    )
    trace_dataset.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "a 'repro serve' result-store root; its run documents "
            "join the dataset as summary-only records"
        ),
    )
    trace_query = trace_commands.add_parser(
        "query",
        help=(
            "answer a fleet-scale question over an exported dataset "
            "in one columnar scan"
        ),
    )
    trace_query.add_argument(
        "dataset", type=Path, help="dataset directory (from 'repro trace dataset')"
    )
    trace_query.add_argument(
        "--ask",
        required=True,
        metavar="QUESTION",
        help="one of: hitting-quantiles, undecided-envelope, winners, throughput",
    )
    trace_query.add_argument(
        "--quantiles",
        default=None,
        metavar="Q,Q,...",
        help="comma-separated quantiles (hitting-quantiles / envelope)",
    )
    trace_query.add_argument(
        "--unit",
        default="interactions",
        metavar="UNIT",
        help="hitting-time unit: interactions (default) or parallel",
    )
    trace_query.add_argument(
        "--grid",
        type=int,
        default=50,
        metavar="N",
        help="time-grid points for the undecided envelope (default 50)",
    )
    trace_query.add_argument("--protocol", default=None, help="filter: protocol name")
    trace_query.add_argument("--n", type=int, default=None, help="filter: population")
    trace_query.add_argument("--spec-hash", default=None, help="filter: spec hash")
    trace_query.add_argument("--engine", default=None, help="filter: engine name")
    trace_query.add_argument(
        "--backend", default=None, help="filter: the kernel backend a run recorded"
    )
    trace_query.add_argument(
        "--json",
        action="store_true",
        help="print the full answer as JSON (machine-readable)",
    )

    obs = commands.add_parser(
        "obs",
        help=(
            "inspect run observability: journal summary / tail / "
            "Prometheus metrics export"
        ),
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_commands.add_parser(
        "summary",
        help=(
            "per-layer time breakdown from the run journal plus the "
            "manifest's metric counters"
        ),
    )
    obs_tail = obs_commands.add_parser(
        "tail", help="print the last N journal events as JSON lines"
    )
    obs_tail.add_argument(
        "--lines",
        "-n",
        type=int,
        default=20,
        metavar="N",
        help="events to show (default 20; 0 = all)",
    )
    obs_export = obs_commands.add_parser(
        "export",
        help="render the run's metric snapshot in Prometheus text format",
    )
    for sub in (obs_summary, obs_tail, obs_export):
        sub.add_argument(
            "target",
            type=Path,
            help=(
                "a persisted run directory (journal.jsonl + manifest.json) "
                "or a journal file written via ObsConfig.journal_path"
            ),
        )

    sweep = commands.add_parser("sweep", help="sharded sweep checkpoints: status")
    sweep_commands = sweep.add_subparsers(dest="sweep_command", required=True)
    status = sweep_commands.add_parser(
        "status", help="show checkpointed vs missing grid points"
    )
    status.add_argument("experiment_id", help="a sweep experiment id from 'repro list'")
    status.add_argument(
        "--out",
        type=Path,
        required=True,
        help="sweep directory (checkpoints live in <out>/<id>/)",
    )
    status.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=(
            "override an experiment parameter; pass the same overrides "
            "every shard ran with"
        ),
    )

    serve = commands.add_parser(
        "serve",
        help=(
            "run the simulation service daemon: HTTP spec submission, "
            "spec-hash result cache, bounded worker pool"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; 0.0.0.0 for containers)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (default 8765; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--root",
        type=Path,
        default=Path("serve-data"),
        metavar="DIR",
        help=(
            "service state directory: the result store lives in "
            "DIR/store, job directories in DIR/jobs (default serve-data)"
        ),
    )
    serve.add_argument(
        "--runs",
        type=Path,
        action="append",
        default=[],
        metavar="DIR",
        help=(
            "seed the result cache from persisted run directories under "
            "DIR (repeatable); their manifests carry the spec hash, so "
            "plain --persist output becomes servable results"
        ),
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="simulations in flight at once (default 2)",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "settled (done/failed) jobs to retain; older ones are "
            "evicted — dropped from the status endpoint, their job "
            "directories deleted (default: keep everything)"
        ),
    )
    serve.add_argument(
        "--progress-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="heartbeat cadence in job journals (default 2.0)",
    )

    submit = commands.add_parser(
        "submit",
        help="submit a scenario file to a running 'repro serve' daemon",
    )
    submit.add_argument(
        "spec_file", type=Path, help="a JSON scenario file (see --spec)"
    )
    submit.add_argument(
        "--server",
        default="http://127.0.0.1:8765",
        metavar="URL",
        help="daemon base URL (default http://127.0.0.1:8765)",
    )
    submit.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="apply a dotted override before submitting",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help=(
            "block until the job settles (cached answers return "
            "instantly either way)"
        ),
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="--wait deadline (default 600)",
    )

    fetch = commands.add_parser(
        "fetch",
        help=(
            "fetch a result document from a daemon by job id, spec file, "
            "or spec hash"
        ),
    )
    fetch.add_argument(
        "target",
        help=(
            "what to fetch: a job id ('job-...'), a scenario file path "
            "(hashed locally), or a raw 64-hex spec hash"
        ),
    )
    fetch.add_argument(
        "--server",
        default="http://127.0.0.1:8765",
        metavar="URL",
        help="daemon base URL (default http://127.0.0.1:8765)",
    )

    certify = commands.add_parser(
        "certify",
        help="instantiate the Theorem 3.5 induction at concrete (n, k, bias)",
    )
    certify.add_argument("--n", type=float, required=True, help="population size")
    certify.add_argument("--k", type=float, required=True, help="number of opinions")
    certify.add_argument(
        "--bias",
        type=float,
        default=None,
        help="initial bias (default: the paper's cap f(n)·√(n log n))",
    )
    return parser


def parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse ``name=value`` strings; values are Python literals.

    Bare words that fail literal parsing are kept as strings, so
    ``--set engine=batch`` works without quoting gymnastics.
    """
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        name, separator, raw = pair.partition("=")
        if not separator or not name:
            raise ReproError(f"override {pair!r} is not of the form name=value")
        try:
            overrides[name] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[name] = raw
    return overrides


def _spec_with_cli_overrides(
    spec_obj: Any,
    overrides: Dict[str, Any],
    persist: Optional[Path],
    fidelity: Optional[str] = None,
) -> Any:
    """Layer ``--set`` / ``--persist`` / ``--fidelity`` onto a spec.

    The implied flags address the run template of whichever spec kind
    was loaded (the run itself, an ensemble's ``run``, a sweep's
    ``base``) or an experiment's ``params``, where a flag the experiment
    does not take fails validation naming it; explicit ``--set`` keys
    win.
    """
    from .specs import apply_overrides, load_spec

    payload = spec_obj.to_dict()
    kind = payload["kind"]
    prefix = {
        "run": "",
        "ensemble": "run.",
        "sweep": "base.",
        "experiment": "params.",
    }[kind]
    implied: Dict[str, Any] = {}
    if persist is not None:
        # fig1-ensemble takes a flat 'persist' parameter; the
        # run-template kinds nest it under the recording block
        key = "params.persist" if kind == "experiment" else (
            f"{prefix}recording.persist_to"
        )
        implied[key] = str(persist)
    if fidelity is not None:
        implied[f"{prefix}fidelity"] = fidelity
    merged = {**implied, **overrides}
    if not merged:
        return spec_obj
    return load_spec(apply_overrides(payload, merged))


def _print_run_result(result: Any) -> None:
    """Human summary of a single spec run (population, gossip, surrogate).

    A surrogate answer also prints its validity report (bias margin,
    fluctuation scale, horizon coverage) and the ODE timescales.
    """
    print(f"stabilized       {result.stabilized}")
    print(f"winner           {result.winner}")
    if getattr(result, "rounds", None) is not None:
        print(f"rounds           {result.rounds}")
        print(f"stab. rounds     {result.stabilization_rounds}")
    else:
        print(f"interactions     {result.interactions}")
        print(f"parallel time    {result.parallel_time:.2f}")
        print(f"stab. time       {result.stabilization_parallel_time}")
    if getattr(result, "persist_dir", None) is not None:
        print(f"persisted to     {result.persist_dir}")
    print(f"wall seconds     {result.wall_seconds:.3f}")
    validity = getattr(result, "validity", None)
    if validity is not None:
        print(f"bias margin      {validity.bias_margin:.3f}")
        print(f"fluct. scale     {validity.fluctuation_fraction:.3g}")
        coverage = validity.horizon_coverage
        print(
            "horizon cover    "
            + ("not reached" if coverage == float("inf") else f"{coverage:.3f}")
        )
        times = result.timescales
        if times is not None:
            print(f"plateau entry    {times.plateau_entry}")
            print(f"maj. doubling    {times.majority_doubling}")
            print(f"consensus        {times.consensus}")
    fidelity = result.metadata.get("fidelity")
    if fidelity is not None:
        print(
            f"fidelity         {fidelity.get('requested')} -> "
            f"{fidelity.get('resolved')} (verdict: {fidelity.get('verdict')})"
        )
        reasons = (
            fidelity.get("reasons")
            or fidelity.get("report", {}).get("reasons")
            or []
        )
        for reason in reasons:
            print(f"  reason         {reason}")
    spec_hash = result.metadata.get("spec_hash")
    if spec_hash is not None:
        print(f"spec hash        {spec_hash}")


def _run_command(args: Any) -> None:
    """``repro run``: every form is one spec executed by ``run_spec``."""
    from .specs import ExperimentSpec, load_spec_file

    if args.spec is not None:
        if args.experiment_id is not None:
            raise ReproError("give either an experiment id or --spec FILE, not both")
        _run_and_print(args, load_spec_file(args.spec), parse_overrides(args.overrides))
        return
    if args.experiment_id is None:
        raise ReproError("run needs an experiment id or --spec FILE")
    # the id form is the ExperimentSpec naming the experiment, with the
    # --set overrides as its params
    params = parse_overrides(args.overrides)
    if args.experiment_id != "all":
        _run_and_print(args, ExperimentSpec(name=args.experiment_id, params=params), {})
        return
    from .experiments.registry import EXPERIMENTS

    for experiment_id in sorted(EXPERIMENTS):
        print(f"=== {experiment_id} ===")
        _run_and_print(args, ExperimentSpec(name=experiment_id, params=params), {})
        print()


def _run_and_print(args: Any, spec_obj: Any, overrides: Dict[str, Any]) -> None:
    from .io.tables import format_table
    from .specs import EnsembleRun, ExperimentSpecRun, SweepSpecRun, run_spec

    spec_obj = _spec_with_cli_overrides(
        spec_obj, overrides, args.persist, args.fidelity
    )
    result = run_spec(
        spec_obj,
        workers=args.workers if args.workers is not None else 0,
        shard=args.shard,
        out=args.out,
        resume=args.resume,
    )
    if isinstance(result, ExperimentSpecRun):
        _print_experiment_run(result, out=args.out, plots=not args.no_plots)
    elif isinstance(result, EnsembleRun):
        print(
            format_table(
                list(result.rows), title=f"ensemble {result.spec_hash[:16]}"
            )
        )
        print(f"spec hash        {result.spec_hash}")
    elif isinstance(result, SweepSpecRun):
        if result.rows:
            print(format_table(list(result.rows), title=f"sweep {result.sweep_id}"))
        print(f"spec hash        {result.spec_hash}")
        if result.escalated:
            print(
                f"escalated to exact ({len(result.escalated)} of "
                f"{len(result.rows)} points):"
            )
            for label in result.escalated:
                print(f"  {label}")
        if result.partial:
            print(
                "partial sweep: run the remaining shards with the same "
                "--spec/--out, then re-run unsharded with --resume to merge"
            )
        for path in result.artifacts:
            print(f"wrote {path}")
    else:
        _print_run_result(result)


def _print_experiment_run(run: Any, *, out: Optional[Path], plots: bool) -> None:
    """Report an experiment run; a full run with ``out`` also saves it."""
    from .experiments import render_result
    from .sweep import ShardSpec

    result = run.result
    partial = not ShardSpec.parse(result.params.get("shard")).is_full
    if partial and not result.rows:
        # more shards than grid points: this shard owns none, a no-op
        for note in result.notes:
            print(f"note: {note}")
    else:
        print(render_result(result, plots=plots))
    print(f"spec hash        {run.spec_hash}")
    if out is not None and not partial:
        # a partial shard's output is its checkpoints, for the merge
        for path in result.save(out):
            print(f"wrote {path}")


def _run_spec_inspect(args: Any) -> None:
    import json

    from .specs import load_spec_file

    spec_obj = load_spec_file(args.spec_file)
    spec_obj = _spec_with_cli_overrides(
        spec_obj, parse_overrides(args.overrides), None, None
    )
    if args.spec_command == "show":
        print(json.dumps(spec_obj.to_dict(), indent=2, ensure_ascii=False))
    elif args.spec_command == "validate":
        payload = spec_obj.to_dict()
        print(
            f"{args.spec_file}: valid {payload['kind']!r} spec "
            f"(schema_version {payload['schema_version']}, "
            f"hash {spec_obj.spec_hash()[:16]}…)"
        )
    else:  # hash
        print(spec_obj.spec_hash())


def _meanfield_template_spec(args: Any):
    """The single-run template of whatever scenario kind was given."""
    from .specs import EnsembleSpec, RunSpec, SweepSpec, load_spec_file

    spec_obj = load_spec_file(args.spec_file)
    spec_obj = _spec_with_cli_overrides(
        spec_obj, parse_overrides(args.overrides), None, None
    )
    if isinstance(spec_obj, RunSpec):
        return spec_obj
    if isinstance(spec_obj, EnsembleSpec):
        return spec_obj.run
    if isinstance(spec_obj, SweepSpec):
        return spec_obj.base
    raise ReproError(
        f"unsupported spec kind {type(spec_obj).__name__} for meanfield tools"
    )


def _run_meanfield_command(args: Any) -> None:
    from .meanfield import (
        classify_fixed_point,
        consensus_fixed_point,
        symmetric_interior_fixed_point,
        undecided_fixed_point_fraction,
    )
    from .theory import undecided_plateau

    k = _meanfield_template_spec(args).protocol.k
    v_star = undecided_fixed_point_fraction(k)
    print(f"k                    {k}")
    print(f"undecided v*         {v_star:.6f}  ((k-1)/(2k-1))")
    print(
        f"paper plateau        {undecided_plateau(1, k):.6f}"
        "  (1/2 - 1/(4k))"
    )
    for label, point in (
        ("symmetric interior", symmetric_interior_fixed_point(k)),
        ("consensus (winner 1)", consensus_fixed_point(k)),
    ):
        cls = classify_fixed_point(point)
        status = "stable" if cls.stable else "unstable"
        print(
            f"{label:<20} {status} "
            f"({cls.unstable_directions} unstable directions)"
        )


def _run_sweep_status(args: Any) -> None:
    from .experiments import get_sweep_experiment
    from .sweep import sweep_status

    experiment_cls = get_sweep_experiment(args.experiment_id)
    plan = experiment_cls(**parse_overrides(args.overrides)).build_plan()
    status = sweep_status(plan, args.out)
    print(
        f"sweep {status.sweep_id}: {len(status.done)}/{status.total} "
        f"points checkpointed under {args.out}"
    )
    if status.shards_seen:
        print(f"shards seen: {', '.join(status.shards_seen)}")
    for index in status.missing:
        print(f"missing: [{index:04d}] {plan.points[index].canonical_label}")
    if status.complete:
        print(
            f"complete — merge with 'repro run {status.sweep_id} "
            f"--out {args.out} --resume' and the same --set overrides"
        )


def _run_trace_command(args: Any) -> None:
    if args.trace_command == "dataset":
        _run_trace_dataset(args)
        return
    if args.trace_command == "query":
        _run_trace_query(args)
        return
    from .io.streaming import StreamedTrace

    stream = StreamedTrace(args.run_dir)
    if args.trace_command == "info":
        info = stream.run_info
        status = "complete" if stream.complete else "INCOMPLETE (crashed or live)"
        print(f"streamed trace {args.run_dir}  [{status}]")
        for key in ("protocol", "n", "seed", "engine", "backend"):
            print(f"  {key:<16} {info.get(key)}")
        print(f"  {'snapshot_every':<16} {info.get('snapshot_every')} interactions")
        print(f"  {'max_interactions':<16} {info.get('max_interactions')}")
        print(f"  {'snapshots':<16} {len(stream)}")
        chunk_size = stream.manifest.get("chunk_snapshots")
        print(f"  {'chunks':<16} {stream.num_chunks} (<= {chunk_size} snapshots each)")
        if len(stream):
            times = stream.times
            n = info.get("n")
            span = f"{times[0]} .. {times[-1]}"
            if n:
                span += f"  ({times[0] / n:.1f} .. {times[-1] / n:.1f} parallel time)"
            print(f"  {'time span':<16} {span}")
        summary = stream.summary
        if summary is not None:
            print("  summary:")
            for key in (
                "interactions",
                "parallel_time",
                "stabilized",
                "stabilization_interactions",
                "winner",
            ):
                print(f"    {key:<26} {summary.get(key)}")
            obs_snapshot = summary.get("obs_metrics")
            if obs_snapshot:
                from .obs.metrics import format_summary

                print("  where the time went (obs metrics):")
                print(format_summary(obs_snapshot, indent="    "))
    else:  # export
        from .io.serialization import save_trace

        if args.to.suffix != ".npz":
            raise ReproError(
                f"--to must name a .npz file, got {str(args.to)!r}; npz is "
                "the only trace export format (arrow and parquet were retired)"
            )
        if args.every < 1:
            raise ReproError(f"--every must be >= 1, got {args.every}")
        start = float("-inf") if args.start is None else args.start
        stop = float("inf") if args.stop is None else args.stop
        trace = stream.time_slice(start, stop, every=args.every)
        save_trace(trace, args.to)
        print(
            f"wrote {args.to} [npz] ({len(trace)} of {len(stream)} "
            f"snapshots, every {args.every})"
        )


def _run_trace_dataset(args: Any) -> None:
    from .analytics import export_dataset

    if not args.runs and args.store is None:
        raise ReproError(
            "nothing to export: give at least one --runs root or a --store"
        )
    skips: list = []
    report = export_dataset(
        args.dest,
        runs_roots=args.runs,
        store=args.store,
        on_skip=lambda path, reason: skips.append((path, reason)),
    )
    print(
        f"dataset {args.dest} [{report.fragment_format}]: "
        f"{report.exported} exported ({report.rows} rows), "
        f"{report.unchanged} unchanged, {report.summary_only} summary-only, "
        f"{len(report.skipped)} skipped"
    )
    for path, reason in report.skipped:
        print(f"  skipped {path}: {reason}")


def _run_trace_query(args: Any) -> None:
    import json

    from .analytics import dataset as open_dataset

    ds = open_dataset(args.dataset)
    query = ds.query(
        protocol=args.protocol,
        n=args.n,
        spec_hash=args.spec_hash,
        engine=args.engine,
        backend=args.backend,
    )
    options: Dict[str, Any] = {}
    if args.ask in ("hitting-quantiles", "undecided-envelope"):
        if args.quantiles is not None:
            try:
                quantiles = tuple(
                    float(part) for part in args.quantiles.split(",") if part
                )
            except ValueError:
                raise ReproError(
                    f"--quantiles must be comma-separated numbers, "
                    f"got {args.quantiles!r}"
                ) from None
            options["quantiles"] = quantiles
    if args.ask == "hitting-quantiles":
        options["unit"] = args.unit
    if args.ask == "undecided-envelope":
        options["grid_points"] = args.grid
    answer = query.ask(args.ask, **options)
    if ds.skipped:
        answer["fragment_skips"] = [list(item) for item in ds.skipped]
    if args.json:
        print(json.dumps(answer, sort_keys=True))
        return
    print(f"{args.ask} over {len(query)} of {len(ds)} runs in {args.dataset}")
    _print_query_answer(args.ask, answer)
    for path, reason in ds.skipped:
        print(f"  skipped fragment {path}: {reason}")


def _print_query_answer(ask: str, answer: Dict[str, Any]) -> None:
    if ask == "hitting-quantiles":
        print(
            f"  stabilized {answer['stabilized']}, "
            f"unstabilized {answer['unstabilized']} [{answer['unit']}]"
        )
        for q, value in answer["quantiles"].items():
            print(f"  q{q:<6} {value:.6g}")
    elif ask == "undecided-envelope":
        print(
            f"  {answer['runs']} trajectories on a {len(answer['grid'])}-point "
            f"grid ({answer['excluded']} excluded, {answer['skipped']} skipped)"
        )
        grid = answer["grid"]
        for q, band in answer["quantiles"].items():
            head = ", ".join(f"{v:.4f}" for v in band[:6])
            more = " ..." if len(band) > 6 else ""
            print(f"  q{q:<6} [{head}{more}]")
        if grid:
            print(f"  grid spans 0 .. {grid[-1]:.6g} interactions")
    elif ask == "winners":
        for winner, count in answer["winners"].items():
            print(f"  winner {winner:<10} {count}")
        for engine, count in answer["by_engine"].items():
            print(f"  engine {engine:<10} {count}")
    elif ask == "throughput":
        for group, row in answer["groups"].items():
            rate = row["interactions_per_second"]
            rate_text = "n/a" if rate is None else f"{rate:,.0f}/s"
            print(
                f"  {group:<20} {row['runs']} runs, "
                f"{row['interactions']:.0f} interactions, {rate_text}"
            )


def _manifest_obs_metrics(run_dir: Path) -> Optional[Dict[str, Any]]:
    """The metric snapshot a persisted run's manifest recorded, if any."""
    from .errors import SerializationError
    from .io.streaming import load_manifest

    try:
        manifest = load_manifest(run_dir)
    except SerializationError:
        return None
    return (manifest.get("summary") or {}).get("obs_metrics")


def _run_obs_command(args: Any) -> None:
    import json

    from .obs.journal import (
        JOURNAL_NAME,
        format_journal_summary,
        iter_tail,
        read_journal,
        summarize_journal,
    )
    from .obs.metrics import format_summary, prometheus_text

    target: Path = args.target
    if target.is_dir():
        journal_path = target / JOURNAL_NAME
        run_dir = target
    else:
        journal_path = target
        run_dir = target.parent

    if args.obs_command == "export":
        snapshot = _manifest_obs_metrics(run_dir)
        if snapshot is None:
            raise ReproError(
                f"no obs_metrics snapshot in {run_dir / 'manifest.json'} — "
                "record one by running with --obs (or an ObsConfig with "
                "metrics on) and --persist"
            )
        print(prometheus_text(snapshot), end="")
        return

    if args.obs_command == "tail":
        if not journal_path.exists():
            raise ReproError(
                f"no journal at {journal_path} — run with --obs (or an "
                "ObsConfig with journal on) and --persist to write one"
            )
        for record in iter_tail(journal_path, args.lines):
            print(json.dumps(record, sort_keys=True))
        return

    # summary: journal timeline + manifest metric counters, whichever exist
    shown = False
    if journal_path.exists():
        try:
            records = read_journal(journal_path)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        print(f"journal {journal_path}")
        print(format_journal_summary(summarize_journal(records)))
        shown = True
    snapshot = _manifest_obs_metrics(run_dir)
    if snapshot is not None:
        print("metrics (from the run's manifest):")
        print(format_summary(snapshot, indent="  "))
        shown = True
    if not shown:
        raise ReproError(
            f"no observability artifacts under {run_dir} (no journal, no "
            "obs_metrics in the manifest) — run with --obs and --persist"
        )


def _run_serve_command(args: Any) -> None:
    from .serve import ServeConfig, run_server

    run_server(
        ServeConfig(
            host=args.host,
            port=args.port,
            root=args.root,
            runs_roots=tuple(args.runs),
            max_jobs=args.jobs,
            progress_interval=args.progress_interval,
            max_retained_jobs=args.max_jobs,
        )
    )


def _run_submit_command(args: Any) -> None:
    import json

    from .serve import ServeClient
    from .specs import load_spec_file

    spec_obj = load_spec_file(args.spec_file)
    spec_obj = _spec_with_cli_overrides(
        spec_obj, parse_overrides(args.overrides), None, None
    )
    client = ServeClient(args.server)
    payload = spec_obj.to_dict()
    if args.wait:
        response = client.submit_and_wait(payload, timeout=args.timeout)
    else:
        response = client.submit(payload)
    print(json.dumps(response, indent=2, sort_keys=True))


def _run_fetch_command(args: Any) -> None:
    from .serve import ServeClient

    client = ServeClient(args.server)
    target = args.target
    if target.startswith("job-"):
        import json

        from .specs import document_bytes

        status = client.job(target)
        document = status.pop("result", None)
        if document is None:
            print(json.dumps(status, indent=2, sort_keys=True))
            return
        # the job's own answer in canonical bytes: for a cacheable job,
        # the bytes the store serves; the store's document for a
        # non-cacheable job's hash may be another tier's answer
        sys.stdout.write(document_bytes(document).decode("utf-8"))
        return
    if Path(target).is_file():
        from .specs import load_spec_file

        spec_hash = load_spec_file(Path(target)).spec_hash()
    else:
        spec_hash = target
    # the stored bytes verbatim — fetches of the same hash are
    # byte-identical, comparable with plain ==
    sys.stdout.write(client.result_bytes(spec_hash).decode("utf-8"))


def _print_certificate(n: float, k: float, bias: Optional[float]) -> None:
    from .io.tables import format_table
    from .theory.certificate import certify_lower_bound

    certificate = certify_lower_bound(n, k, bias)
    print(
        f"Theorem 3.5 certificate at n = {certificate.n:g}, "
        f"k = {certificate.k:g}, bias = {certificate.bias:g}"
    )
    print(f"regime ratio k·log n/√n = {certificate.regime_ratio:.4f} (needs ≪ 1)")
    print(f"Lemma 3.1 ceiling on u(t): {certificate.u_ceiling:,.0f} (+ slack)")
    walk_verdict = "holds" if certificate.lemma33_condition else "FAILS"
    print(f"Lemma 3.3 walk condition: {walk_verdict}")
    print()
    print(format_table(certificate.rows(), title="induction epochs"))
    print()
    print(
        f"certified epochs: {certificate.certified_epochs} "
        f"(asymptotic ℓ_max = {certificate.asymptotic_epochs:.2f})"
    )
    print(
        f"certified lower bound: {certificate.certified_interactions:,.0f} "
        f"interactions = {certificate.certified_parallel_time:.2f} parallel time"
    )


@contextmanager
def _cli_obs_scope(args: Any):
    """Ambient observability scope from the ``--obs``/``--progress`` flags.

    Wraps the whole command: every run the command triggers inherits
    the scope (persisted runs additionally open their own journal in
    their run directory), and a metrics summary lands on stderr at the
    end so ``repro run ... --obs`` answers "where did the time go"
    without further ceremony.
    """
    obs = bool(getattr(args, "obs", False))
    progress = bool(getattr(args, "progress", False))
    if not (obs or progress):
        yield
        return
    from .obs import metrics as obs_metrics
    from .obs.config import ObsConfig
    from .obs.runtime import activated

    config = ObsConfig(metrics=obs, journal=obs, progress=progress)
    with activated(config):
        try:
            yield
        finally:
            if obs:
                print("[obs] metrics for this invocation:", file=sys.stderr)
                print(
                    obs_metrics.format_summary(
                        obs_metrics.REGISTRY.snapshot(), indent="  "
                    ),
                    file=sys.stderr,
                )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _cli_obs_scope(args):
            return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: Any) -> int:
    """Execute one parsed command (inside any ambient obs scope)."""
    if args.command == "list":
        from .experiments import list_experiments

        for line in list_experiments():
            print(line)
    elif args.command == "run":
        _run_command(args)
    elif args.command == "spec":
        _run_spec_inspect(args)
    elif args.command == "meanfield":
        _run_meanfield_command(args)
    elif args.command == "sweep":
        _run_sweep_status(args)
    elif args.command == "trace":
        _run_trace_command(args)
    elif args.command == "obs":
        _run_obs_command(args)
    elif args.command == "serve":
        _run_serve_command(args)
    elif args.command == "submit":
        _run_submit_command(args)
    elif args.command == "fetch":
        _run_fetch_command(args)
    elif args.command == "certify":
        _print_certificate(args.n, args.k, args.bias)
    return 0
