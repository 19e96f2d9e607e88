"""Integration tests: ``repro.obs`` against the execution layers.

The contracts the observability PR must not bend:

1. **Bit-identity** — observability fully on produces the same
   trajectory, the same results and the same ``spec_hash`` as
   observability off, for every engine and every available backend.
   Instrumentation sits at chunk boundaries and never consumes RNG.
2. **Zero residue when off** — no ``obs_metrics`` in metadata, no
   journal files, no behavior change.
3. **Aggregation** — pool workers ship metric deltas home; sweeps
   count their point lifecycle; backend fallbacks are counted; the
   persisted manifest and ``RunResult.metadata`` carry the snapshot.
4. **Crash legibility** — a SIGKILLed journaled run leaves a parseable
   journal that reconstructs the timeline (the CI ``obs`` leg kills a
   real process; here a subprocess does).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.run import simulate
from repro.errors import SimulationError
from repro.gossip.dynamics import GossipUSD
from repro.obs import metrics as obs_metrics
from repro.obs.config import ObsConfig
from repro.obs.journal import JOURNAL_NAME, read_journal, summarize_journal
from repro.obs.runtime import EngineRunObserver, activated
from repro.protocols.usd import UndecidedStateDynamics
from repro.specs import RunSpec, load_spec, run_spec
from repro.workloads.initial import paper_initial_configuration

FULL_OBS = ObsConfig(metrics=True, journal=True, progress=True, progress_interval=0.0)


@pytest.fixture(autouse=True)
def _clean_registry():
    """The module-level registry is process state; isolate each test."""
    obs_metrics.REGISTRY.reset()
    yield
    obs_metrics.REGISTRY.reset()


def _run_doc(n=400, k=3, seed=9, **extra):
    doc = {
        "kind": "run",
        "schema_version": 1,
        "protocol": {"name": "usd", "k": k},
        "initial": {"n": n, "kind": "paper"},
        "seed": seed,
        "max_parallel_time": 300,
    }
    doc.update(extra)
    return doc


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["counts", "batch", "multibatch"])
    def test_population_engines(self, engine, capsys):
        protocol = UndecidedStateDynamics(k=3)
        config = paper_initial_configuration(500, 3)
        off = simulate(
            protocol, config, engine=engine, seed=11, max_parallel_time=300
        )
        on = simulate(
            protocol, config, engine=engine,
            seed=11, max_parallel_time=300, obs=FULL_OBS,
        )
        np.testing.assert_array_equal(off.trace.times, on.trace.times)
        np.testing.assert_array_equal(off.trace.counts, on.trace.counts)
        assert off.interactions == on.interactions
        assert off.winner == on.winner
        capsys.readouterr()  # swallow the progress heartbeats

    def test_gossip_engine(self, capsys):
        dynamics = GossipUSD(k=3)
        counts = [60, 30, 10, 0]  # k opinions + the undecided state
        off = simulate(dynamics, counts, seed=4, max_parallel_time=300)
        with activated(FULL_OBS):
            on = simulate(dynamics, counts, seed=4, max_parallel_time=300)
        assert off.rounds == on.rounds
        assert off.winner == on.winner
        np.testing.assert_array_equal(off.trace.counts, on.trace.counts)
        capsys.readouterr()

    def test_spec_form_run(self, capsys):
        spec_off = load_spec(_run_doc())
        spec_on = load_spec(_run_doc(obs=FULL_OBS.to_dict()))
        off = run_spec(spec_off)
        on = run_spec(spec_on)
        np.testing.assert_array_equal(off.trace.times, on.trace.times)
        np.testing.assert_array_equal(off.trace.counts, on.trace.counts)
        assert off.metadata["spec_hash"] == on.metadata["spec_hash"]
        capsys.readouterr()


class TestSpecHashInvariance:
    def test_obs_excluded_from_identity(self):
        plain = load_spec(_run_doc())
        observed = load_spec(_run_doc(obs=FULL_OBS.to_dict()))
        assert plain.spec_hash() == observed.spec_hash()
        assert "obs" not in plain.identity_dict()

    def test_round_trip_preserves_obs(self):
        spec = load_spec(_run_doc(obs={"metrics": True, "journal": True}))
        again = RunSpec.from_dict(spec.to_dict())
        assert again.obs == spec.obs
        assert again.obs.metrics and again.obs.journal

    def test_documents_without_obs_still_load(self):
        spec = load_spec(_run_doc())
        assert spec.obs == ObsConfig()

    def test_with_obs(self):
        spec = load_spec(_run_doc())
        observed = replace(spec, obs=ObsConfig(metrics=True))
        assert observed.obs.metrics
        assert observed.spec_hash() == spec.spec_hash()

    def test_obs_must_be_obsconfig(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            replace(load_spec(_run_doc()), obs={"metrics": True})


class TestRunMetadata:
    def test_metrics_snapshot_lands_in_metadata(self):
        protocol = UndecidedStateDynamics(k=3)
        config = paper_initial_configuration(500, 3)
        result = simulate(
            protocol, config, seed=3, max_parallel_time=300,
            obs=ObsConfig(metrics=True),
        )
        snapshot = result.metadata["obs_metrics"]
        assert snapshot["counters"]["interactions_total"][""] == result.interactions
        assert snapshot["histograms"]["kernel_step_seconds"]["count"] > 0

    def test_off_leaves_no_residue(self, tmp_path):
        protocol = UndecidedStateDynamics(k=3)
        config = paper_initial_configuration(500, 3)
        result = simulate(
            protocol, config, seed=3, max_parallel_time=300,
            persist_to=tmp_path / "run",
        )
        assert "obs_metrics" not in result.metadata
        assert not (tmp_path / "run" / JOURNAL_NAME).exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert "obs_metrics" not in manifest["summary"]

    def test_persisted_run_writes_journal_and_manifest_snapshot(self, tmp_path):
        protocol = UndecidedStateDynamics(k=3)
        config = paper_initial_configuration(500, 3)
        result = simulate(
            protocol, config, seed=3, max_parallel_time=300,
            persist_to=tmp_path / "run",
            obs=ObsConfig(metrics=True, journal=True),
        )
        summary = summarize_journal(read_journal(tmp_path / "run" / JOURNAL_NAME))
        assert summary.closed and summary.monotone
        assert summary.spans["engine.run"].count == 1
        # every run is normalised through a spec, so the journal header
        # names the hash even for a direct protocol/config call
        assert summary.meta["spec_hash"]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        snapshot = manifest["summary"]["obs_metrics"]
        assert snapshot["counters"]["interactions_total"][""] == result.interactions
        assert snapshot["counters"]["spill_chunks_total"][""] >= 1


class _GrowingGossipUSD(GossipUSD):
    """A broken dynamics: every round adds one agent."""

    def round_update(self, counts, rng):
        grown = np.array(super().round_update(counts, rng))
        grown[0] += 1
        return grown


class TestObserverFailure:
    """A failing observer never masks the run's own error."""

    @pytest.fixture(autouse=True)
    def _failing_finish(self, monkeypatch):
        def finish(self, engine, error=None):
            raise OSError("journal disk full")

        monkeypatch.setattr(EngineRunObserver, "finish", finish)

    def test_gossip_engine_surfaces_its_own_error(self):
        with activated(ObsConfig(metrics=True)):
            with pytest.raises(SimulationError, match="population size"):
                simulate(
                    _GrowingGossipUSD(k=3),
                    [60, 30, 10, 0],
                    seed=4,
                    max_parallel_time=5,
                )

    def test_counts_engine_surfaces_its_own_error(self):
        def broken_stop(engine):
            raise SimulationError("stop predicate failed")

        with activated(ObsConfig(metrics=True)):
            with pytest.raises(SimulationError, match="stop predicate failed"):
                simulate(
                    UndecidedStateDynamics(k=3),
                    paper_initial_configuration(300, 3),
                    engine="counts",
                    seed=4,
                    max_parallel_time=50,
                    stop=broken_stop,
                )


class TestEnsembleAggregation:
    def test_pool_children_fold_into_parent(self):
        doc = {
            "kind": "ensemble",
            "schema_version": 1,
            "root_seed": 5,
            "num_runs": 4,
            "run": _run_doc(seed=None),
        }
        spec = load_spec(doc)
        with activated(ObsConfig(metrics=True)):
            pooled = run_spec(spec, workers=2)
            snapshot = obs_metrics.REGISTRY.snapshot()
        serial = run_spec(spec, workers=0)
        assert list(pooled.rows) == list(serial.rows)
        assert snapshot["counters"]["pool_worker_spawned"][""] == 2.0
        total = snapshot["counters"]["interactions_total"][""]
        assert total == sum(row["interactions"] for row in serial.rows)
        assert snapshot["histograms"]["kernel_step_seconds"]["count"] > 0


def _sweep_plan():
    from repro.sweep import SweepPlan
    from repro.workloads.sweeps import SweepPoint

    points = tuple(
        SweepPoint(n=1_000 + 10 * i, k=3, bias=7, label=f"p{i}") for i in range(4)
    )
    return SweepPlan("obs-toy", points, root_seed=77, meta={"kind": "toy"})


def _sweep_task(point, point_seed):
    return {"n": point.n, "seed": point_seed}


class TestSweepCounters:
    def test_started_completed_resumed(self, tmp_path):
        from repro.sweep import run_sweep

        plan = _sweep_plan()
        with activated(ObsConfig(metrics=True)):
            run_sweep(plan, _sweep_task, out_dir=tmp_path)
            first = obs_metrics.REGISTRY.snapshot()["counters"]
        assert first["sweep_points_started"][""] == 4.0
        assert first["sweep_points_completed"][""] == 4.0
        assert "sweep_points_resumed" not in first
        obs_metrics.REGISTRY.reset()
        with activated(ObsConfig(metrics=True)):
            resumed = run_sweep(plan, _sweep_task, out_dir=tmp_path, resume=True)
            second = obs_metrics.REGISTRY.snapshot()["counters"]
        assert resumed.reused == 4
        assert second["sweep_points_resumed"][""] == 4.0
        assert "sweep_points_started" not in second

    def test_rows_identical_with_and_without_obs(self, tmp_path):
        from repro.sweep import run_sweep

        plan = _sweep_plan()
        bare = run_sweep(plan, _sweep_task)
        with activated(ObsConfig(metrics=True)):
            observed = run_sweep(plan, _sweep_task)
        assert bare.rows == observed.rows


class TestBackendFallbackCounter:
    def test_fallback_counted_and_reset(self):
        from repro.core.kernels import get_backend, reset_backend_state

        reset_backend_state()
        try:
            with activated(ObsConfig(metrics=True)):
                with pytest.warns(RuntimeWarning, match="removed"):
                    get_backend("numba")
                get_backend("numba")  # second resolution: count, no warning
                counters = obs_metrics.REGISTRY.snapshot()["counters"]
            assert counters["backend_fallbacks_total"]["backend=numba"] == 2.0
        finally:
            reset_backend_state()


class TestSurrogateCounter:
    def test_verdict_counted(self):
        from repro.meanfield import resolve_surrogate

        spec = load_spec(_run_doc(n=100_000, seed=1))
        with activated(ObsConfig(metrics=True)):
            result = resolve_surrogate(spec)
            counters = obs_metrics.REGISTRY.snapshot()["counters"]
        verdict = result.validity.verdict
        assert counters["surrogate_verdicts_total"][f"verdict={verdict}"] == 1.0


_KILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.run import simulate
from repro.obs.config import ObsConfig
from repro.protocols.usd import UndecidedStateDynamics
from repro.workloads.initial import paper_initial_configuration

# a horizon of hours: the run only ends when the parent kills it
# (small chunks keep the journal growing from the first moments)
simulate(
    UndecidedStateDynamics(k=3),
    paper_initial_configuration(200_000, 3),
    seed=1,
    max_interactions=10**12,
    snapshot_every=50,
    persist_to={run_dir!r},
    persist_chunk_snapshots=256,
    obs=ObsConfig(metrics=True, journal=True),
)
"""


class TestJournalSurvivesKill:
    def test_sigkill_leaves_parseable_timeline(self, tmp_path):
        run_dir = tmp_path / "killed"
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = _KILL_SCRIPT.format(src=src, run_dir=str(run_dir))
        process = subprocess.Popen([sys.executable, "-c", script])
        journal = run_dir / JOURNAL_NAME
        try:
            deadline = time.monotonic() + 30.0
            # wait until the run has journaled real progress, then kill -9
            while time.monotonic() < deadline:
                if journal.exists() and journal.stat().st_size > 500:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("journal never grew — run did not start")
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert process.returncode == -signal.SIGKILL
        summary = summarize_journal(read_journal(journal))
        assert not summary.closed  # the crash signature
        assert summary.monotone
        assert summary.orphan_ends == 0
        assert summary.spans["engine.run"].open == 1
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["complete"] is False


class TestCli:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_run_doc(n=600, seed=7)))
        return path

    def test_run_with_obs_flag(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "dir"
        code = main([
            "run", "--spec", str(self._spec_file(tmp_path)),
            "--persist", str(run_dir), "--obs",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "[obs] metrics" in captured.err
        assert "interactions_total" in captured.err
        assert (run_dir / JOURNAL_NAME).exists()

    def test_obs_summary_tail_export(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "dir"
        main([
            "run", "--spec", str(self._spec_file(tmp_path)),
            "--persist", str(run_dir), "--obs",
        ])
        capsys.readouterr()

        assert main(["obs", "summary", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out
        assert "interactions_total" in out

        assert main(["obs", "tail", str(run_dir), "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[-1])["event"] == "journal.close"

        assert main(["obs", "export", str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE interactions_total counter" in text
        assert "# TYPE kernel_step_seconds histogram" in text

    def test_obs_export_on_torn_manifest_fails(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "dir"
        main([
            "run", "--spec", str(self._spec_file(tmp_path)),
            "--persist", str(run_dir), "--obs",
        ])
        manifest = run_dir / "manifest.json"
        text = manifest.read_text()
        assert "obs_metrics" in text
        manifest.write_text(text[: len(text) // 2])  # a torn write
        capsys.readouterr()

        assert main(["obs", "export", str(run_dir)]) == 1
        assert "no obs_metrics snapshot" in capsys.readouterr().err

    def test_obs_summary_on_bare_directory_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "summary", str(tmp_path)]) == 1
        assert "no observability artifacts" in capsys.readouterr().err

    def test_progress_flag_emits_heartbeats(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "run", "--spec", str(self._spec_file(tmp_path)), "--progress",
        ])
        assert code == 0
        # at least the first immediate heartbeat reaches stderr
        assert "[obs]" in capsys.readouterr().err
