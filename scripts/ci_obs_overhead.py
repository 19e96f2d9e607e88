"""CI driver for the observability cost and crash-legibility contracts.

Three subcommands, composed by the ``obs`` CI leg:

``overhead``
    Measure counts-engine throughput three ways — *baseline* (the
    observability hook monkeypatched away entirely, i.e. the seed
    code path), *off* (the shipped code with observability disabled,
    the default every user gets), and *on* (metrics + journal + a
    throttled reporter).  Assert the off path keeps at least 98% of
    baseline throughput — the "zero-overhead-when-off" acceptance
    gate — and record all three rates to the ``obs-overhead``
    benchmark history so the cost trends across commits.  Then price
    the chunk boundary at its worst: with a snapshot every
    ``DENSE_BUDGET/200`` interactions, metrics-on throughput must stay
    above half of metrics-off at n ∈ {10⁴, 10⁵}.

``run DIR``
    Start a journaled, metriced, persisted run of a never-absorbing
    protocol.  The CI leg wraps this in ``timeout -s KILL``, so the
    process dies hard mid-run with the journal mid-sentence.

``verify DIR``
    Assert the killed run's journal honours the contract: it parses
    (at most a torn final line), timestamps are monotone, the
    ``engine.run`` span is still open (the crash signature), spill
    events were recorded, and the manifest is marked incomplete.
"""

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import numpy as np  # noqa: E402 (path bootstrap above)

from history import record_benchmark  # noqa: E402

from repro import Configuration, PopulationProtocol, simulate  # noqa: E402
from repro.io.streaming import load_manifest  # noqa: E402
from repro.obs.config import ObsConfig  # noqa: E402
from repro.obs.journal import (  # noqa: E402
    JOURNAL_NAME,
    read_journal,
    summarize_journal,
)
from repro.protocols import UndecidedStateDynamics  # noqa: E402

#: The acceptance gate: obs-off must keep this fraction of baseline.
MIN_OFF_FRACTION = 0.98

#: Throughput workload — large enough that per-run setup is noise,
#: small enough for a CI leg.
N = 100_000
BUDGET = 400_000
REPEATS = 5

#: The dense-cadence floor: metrics-on / off throughput must exceed
#: MIN_DENSE_ON_FRACTION with hundreds of chunk boundaries per run.
DENSE_POPULATIONS = (10_000, 100_000)
DENSE_BUDGET = 100_000
MIN_DENSE_ON_FRACTION = 0.5


def _rate(obs, n=N, budget=BUDGET, snapshot_every=N) -> float:
    """Best-of-repeats interactions/second for one obs setting.

    The default cadence is sparse: it measures the kernel, not numpy
    stacking.
    """
    protocol = UndecidedStateDynamics(k=3)
    initial = Configuration.equal_minorities_with_bias(n=n, k=3, bias=500)
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = simulate(
            protocol,
            initial,
            obs=obs,
            engine="counts",
            seed=3,
            max_interactions=budget,
            snapshot_every=snapshot_every,
        )
        elapsed = time.perf_counter() - start
        assert result.interactions == budget, "workload must run its full budget"
        best = max(best, budget / max(elapsed, 1e-9))
    return best


def _dense_cadence_ok() -> bool:
    """Metrics-on / off throughput per n at the dense snapshot cadence."""
    dense = dict(budget=DENSE_BUDGET, snapshot_every=DENSE_BUDGET // 200)
    ok = True
    for n in DENSE_POPULATIONS:
        off = _rate(None, n=n, **dense)
        fraction = _rate(ObsConfig(metrics=True), n=n, **dense) / off
        print(f"dense cadence n={n:,}: metrics on {fraction:.3f}x off")
        ok = ok and fraction > MIN_DENSE_ON_FRACTION
    return ok


def cmd_overhead() -> int:
    import repro.core.engine as engine_module

    # baseline = the seed code path: no hook call at all.  Comparing
    # the shipped off path against this is exactly the "<2% regression
    # vs seed" acceptance criterion, measured without a seed checkout.
    real_hook = engine_module.observe_engine_run
    engine_module.observe_engine_run = lambda *args: None
    try:
        baseline = _rate(None)
    finally:
        engine_module.observe_engine_run = real_hook

    off = _rate(None)
    on = _rate(ObsConfig(metrics=True, journal=False, progress=False))

    fraction = off / baseline
    print(f"baseline (hook removed): {baseline:,.0f} interactions/s")
    print(f"obs off  (shipped code): {off:,.0f} interactions/s ({fraction:.3f}x)")
    print(f"obs on   (metrics):      {on:,.0f} interactions/s ({on / baseline:.3f}x)")
    path = record_benchmark(
        "obs-overhead",
        {
            "baseline_rate": round(baseline),
            "off_rate": round(off),
            "on_metrics_rate": round(on),
            "off_fraction_of_baseline": round(fraction, 4),
            "n": N,
            "budget": BUDGET,
        },
    )
    print(f"recorded {path}")
    if fraction < MIN_OFF_FRACTION:
        print(
            f"FAIL: obs-off throughput is {fraction:.3f}x baseline "
            f"(must be >= {MIN_OFF_FRACTION})"
        )
        return 1
    print(f"overhead ok: off path >= {MIN_OFF_FRACTION}x baseline")
    if not _dense_cadence_ok():
        print(
            "FAIL: dense-cadence metrics-on throughput must be "
            f"> {MIN_DENSE_ON_FRACTION}x off"
        )
        return 1
    print(f"dense cadence ok: metrics on > {MIN_DENSE_ON_FRACTION}x off")
    return 0


class _Cycler(PopulationProtocol):
    """Three states rotating forever — no absorbing configuration, so
    the journaled run streams until the CI leg kills the process."""

    name = "ci-obs-cycler"

    @property
    def num_states(self) -> int:
        return 3

    def transition(self, initiator: int, responder: int):
        return (initiator + 1) % 3, responder


def cmd_run(run_dir: Path) -> int:
    # tiny chunks + a fast journal pulse: the KILL must land with
    # spans open and spill events already flushed
    simulate(
        _Cycler(),
        np.array([1_000, 1_000, 1_000]),
        engine="counts",
        seed=1,
        max_parallel_time=1e9,
        snapshot_every=25,
        persist_to=run_dir,
        persist_chunk_snapshots=64,
        persist_window=16,
        obs=ObsConfig(metrics=True, journal=True, progress_interval=0.1),
    )
    print("run finished without being killed — the CI timeout is too long")
    return 1


def cmd_verify(run_dir: Path) -> int:
    journal_path = run_dir / JOURNAL_NAME
    records = read_journal(journal_path)  # raises on anything but a torn tail
    summary = summarize_journal(records)
    assert not summary.closed, "a KILLed journal cannot contain journal.close"
    assert summary.monotone, "journal timestamps must be monotone"
    assert summary.orphan_ends == 0
    engine_span = summary.spans.get("engine.run")
    assert engine_span is not None and engine_span.open == 1, (
        "the killed run's engine.run span must still be open"
    )
    assert summary.event_counts.get("recorder.spill", 0) >= 1, (
        "expected spill events journaled before the kill"
    )
    assert summary.meta.get("protocol") == "ci-obs-cycler"
    manifest = load_manifest(run_dir)
    assert manifest["complete"] is False, (
        "a KILLed run must leave the manifest marked incomplete"
    )
    print(
        f"verify ok: {summary.events} events recovered over "
        f"{summary.last_t:.2f}s, engine.run still open, "
        f"{summary.event_counts['recorder.spill']} spills journaled, "
        "manifest incomplete"
    )
    return 0


def main(argv):
    if argv == ["overhead"]:
        return cmd_overhead()
    if len(argv) == 2 and argv[0] == "run":
        return cmd_run(Path(argv[1]))
    if len(argv) == 2 and argv[0] == "verify":
        return cmd_verify(Path(argv[1]))
    print(__doc__)
    print("usage: ci_obs_overhead.py overhead | run DIR | verify DIR")
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
