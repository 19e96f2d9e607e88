"""CI driver for the spill-to-disk crash-safety and equivalence contracts.

Four subcommands, composed by the ``persistence`` CI leg:

``run DIR``
    Start a persisted run with an effectively unbounded horizon and a
    tiny chunk size, so chunks hit the disk within a second or two.
    The leg wraps this in ``timeout -s KILL`` — the process dies hard,
    mid-stream, exactly like an OOM-killed or preempted large-n run.

``verify DIR``
    Assert the killed run's directory honours the contract: the
    manifest still parses and marks the run *incomplete*, at least one
    chunk was spilled, every chunk on disk loads whole, and the spilled
    prefix materializes into a valid monotone trace.

``equivalence``
    Run the same small workload twice — once recorded in memory, once
    with ``persist_to=`` — and assert the streamed trace materializes
    bit-identically, with the in-memory side of the persisted run
    bounded to the configured tail window.  Checked for a population
    run (``usd`` on the counts engine) and a gossip run
    (``gossip-usd``, one snapshot per round).

``ensemble``
    Start a persisted ``usd_stabilization_ensemble`` in a child process,
    SIGKILL it as soon as member ``run-0001`` is finished on disk, then
    re-run the same ensemble in-process.  Assert the re-run reuses every
    member that was finished at the kill (their manifests are not
    rewritten), ends with every member complete, and reports the same
    times and winners as an uninterrupted in-memory ensemble: an
    interrupted reproduction only pays for the missing runs.
"""

import multiprocessing
import signal
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402 (path bootstrap above)

from repro import Configuration, PopulationProtocol, simulate  # noqa: E402
from repro.analysis import usd_stabilization_ensemble  # noqa: E402
from repro.errors import SerializationError  # noqa: E402
from repro.gossip import GossipUSD  # noqa: E402
from repro.io.streaming import StreamedTrace, load_chunk, load_manifest  # noqa: E402
from repro.protocols import UndecidedStateDynamics  # noqa: E402

#: The killed-and-resumed ensemble: each member takes seconds on the
#: counts engine, so the kill lands with later members still to run.
ENSEMBLE_SEEDS = 6
ENSEMBLE_KWARGS = dict(num_seeds=ENSEMBLE_SEEDS, seed=2024, engine="counts")


class _Cycler(PopulationProtocol):
    """Three states rotating forever — no absorbing configuration exists,
    so the persisted run streams until the CI leg kills the process."""

    name = "ci-cycler"

    @property
    def num_states(self) -> int:
        return 3

    def transition(self, initiator: int, responder: int):
        return (initiator + 1) % 3, responder


def _workload():
    protocol = UndecidedStateDynamics(k=3)
    initial = Configuration.equal_minorities_with_bias(n=3_000, k=3, bias=150)
    return protocol, initial


def cmd_run(run_dir: Path) -> int:
    # a never-absorbing protocol: the run can only end by being killed.
    # snapshots every 25 interactions and 64-snapshot chunks keep the
    # disk busy so the KILL lands mid-stream with chunks already spilled
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
    )
    print("run finished without being killed — the CI timeout is too long")
    return 1


def cmd_verify(run_dir: Path) -> int:
    manifest = load_manifest(run_dir)
    assert manifest["complete"] is False, (
        "a KILLed run must leave the manifest marked incomplete"
    )
    assert manifest.get("summary") is None, "a killed run cannot carry a summary"
    stream = StreamedTrace(run_dir)
    assert not stream.complete
    assert stream.num_chunks >= 1, "expected at least one spilled chunk"
    total = 0
    for times, counts in stream.iter_chunks():
        assert times.shape[0] == counts.shape[0] and times.shape[0] > 0
        assert int(counts[0].sum()) == 3_000  # population is conserved
        total += times.shape[0]
    assert total == len(stream)
    trace = stream.materialize()
    assert np.all(np.diff(trace.times) > 0), "snapshot times must be monotone"
    # per-chunk loads agree with the whole-stream view
    first_times, _ = load_chunk(stream.directory / "chunk-00000.npz")
    assert np.array_equal(trace.times[: first_times.shape[0]], first_times)
    print(
        f"verify ok: incomplete manifest, {stream.num_chunks} whole chunks, "
        f"{total} snapshots recovered"
    )
    return 0


def _check_streamed_equals_memory(
    name, protocol, initial, chunk_snapshots, **kwargs
) -> None:
    mem = simulate(protocol, initial, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        per = simulate(
            protocol,
            initial,
            persist_to=run_dir,
            persist_chunk_snapshots=chunk_snapshots,
            persist_window=32,
            **kwargs,
        )
        assert len(per.trace) <= 32, "in-memory trace must be the bounded window"
        stream = StreamedTrace(run_dir)
        assert stream.num_chunks > 1, f"{name}: expected a multi-chunk stream"
        full = stream.materialize()
        assert np.array_equal(full.times, mem.trace.times), "times differ"
        assert np.array_equal(full.counts, mem.trace.counts), "counts differ"
        assert per.interactions == mem.interactions
        snapshots = len(full)
    print(
        f"equivalence ok ({name}): {snapshots} snapshots bit-identical, "
        "window bounded"
    )


def cmd_equivalence() -> int:
    protocol, initial = _workload()
    _check_streamed_equals_memory(
        "usd",
        protocol,
        initial,
        chunk_snapshots=128,
        engine="counts",
        seed=7,
        max_parallel_time=30.0,
        snapshot_every=40,
    )
    _check_streamed_equals_memory(
        "gossip-usd",
        GossipUSD(k=3),
        Configuration.equal_minorities_with_bias(n=3_000, k=3, bias=15),
        chunk_snapshots=8,
        seed=7,
        max_parallel_time=300.0,
    )
    return 0


def _ensemble_initial():
    return Configuration.equal_minorities_with_bias(n=20_000, k=6, bias=1_000)


def _run_ensemble_child(run_dir: str) -> None:
    usd_stabilization_ensemble(
        _ensemble_initial(), persist_to=run_dir, **ENSEMBLE_KWARGS
    )


def _finished(member_dir: Path) -> bool:
    """Whether a member's stream is complete with its summary (resumable)."""
    if not (member_dir / "manifest.json").is_file():
        return False
    try:
        manifest = load_manifest(member_dir)
    except SerializationError:
        return False
    return bool(manifest.get("complete")) and manifest.get("summary") is not None


def cmd_ensemble() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "ens"
        child = multiprocessing.get_context("spawn").Process(
            target=_run_ensemble_child, args=(str(run_dir),)
        )
        child.start()
        deadline = time.monotonic() + 600
        try:
            while not _finished(run_dir / "run-0001"):
                assert child.is_alive(), "the ensemble ended before the kill"
                assert time.monotonic() < deadline, "run-0001 never finished"
                time.sleep(0.02)
        finally:
            child.kill()  # SIGKILL, mid-ensemble like an OOM kill or preemption
            child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL, f"exit code {child.exitcode}"

        members = [run_dir / f"run-{i:04d}" for i in range(ENSEMBLE_SEEDS)]
        reused = {
            member: (member / "manifest.json").stat().st_mtime_ns
            for member in members
            if _finished(member)
        }
        assert 2 <= len(reused) < ENSEMBLE_SEEDS, (
            f"expected the kill to land mid-ensemble, {len(reused)} members done"
        )

        initial = _ensemble_initial()
        resumed = usd_stabilization_ensemble(
            initial, persist_to=run_dir, **ENSEMBLE_KWARGS
        )
        for member, mtime in reused.items():
            assert (member / "manifest.json").stat().st_mtime_ns == mtime, (
                f"{member.name} was finished at the kill but was re-simulated"
            )
        for member in members:
            assert _finished(member), f"{member.name} did not end complete"

    baseline = usd_stabilization_ensemble(initial, **ENSEMBLE_KWARGS)
    assert np.array_equal(resumed.times, baseline.times), "times differ"
    assert np.array_equal(resumed.winners, baseline.winners), "winners differ"
    assert resumed.censored == baseline.censored
    print(
        f"ensemble ok: killed with {len(reused)}/{ENSEMBLE_SEEDS} members "
        "finished; the re-run reused them untouched and matches an "
        "uninterrupted in-memory ensemble"
    )
    return 0


def main(argv):
    if len(argv) >= 1 and argv[0] == "run" and len(argv) == 2:
        return cmd_run(Path(argv[1]))
    if len(argv) >= 1 and argv[0] == "verify" and len(argv) == 2:
        return cmd_verify(Path(argv[1]))
    if argv == ["equivalence"]:
        return cmd_equivalence()
    if argv == ["ensemble"]:
        return cmd_ensemble()
    print(__doc__)
    print(
        "usage: ci_persistence_check.py run DIR | verify DIR | equivalence "
        "| ensemble"
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
