"""Tests for meanfield.timescales and gossip runs through ``simulate``.

Gossip dynamics run on the shared engine loop, so a gossip run keeps
the population path's contracts: keyword ``simulate`` equals
``run_spec`` of the same spec, horizons round like the spec's, and a
persisted run resumes by ``spec_hash`` after a kill.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Configuration, SimulationError, simulate
from repro.errors import SerializationError
from repro.gossip import GossipUSD, GossipVoter
from repro.io.streaming import load_manifest
from repro.meanfield import predict_timescales
from repro.protocols import UndecidedStateDynamics
from repro.specs import (
    InitialSpec,
    ProtocolSpec,
    RecordingSpec,
    RunSpec,
    run_spec,
    to_document,
)
from repro.workloads import paper_initial_configuration


class TestMeanFieldTimescales:
    @pytest.fixture(scope="class")
    def prediction(self):
        config = paper_initial_configuration(50_000, 6)
        return predict_timescales(config, horizon=300.0)

    def test_event_ordering(self, prediction):
        """Plateau entry < doubling < consensus — the Figure 1 order."""
        assert prediction.plateau_entry is not None
        assert prediction.majority_doubling is not None
        assert prediction.consensus is not None
        assert (
            prediction.plateau_entry
            < prediction.majority_doubling
            < prediction.consensus
        )

    def test_doubling_fraction_dominates(self, prediction):
        """The deterministic skeleton shows the same 'doubling consumes
        most of the run' shape as Figure 1 (right)."""
        assert prediction.majority_doubling / prediction.consensus > 0.5

    def test_prediction_tracks_simulation(self, prediction):
        """Simulated doubling time within a modest band of the ODE's."""
        n, k = 50_000, 6
        config = paper_initial_configuration(n, k)
        protocol = UndecidedStateDynamics(k=k)
        from repro.analysis import doubling_time

        measured = []
        for seed in range(3):
            result = simulate(
                protocol,
                config,
                engine="batch",
                seed=seed,
                max_parallel_time=500.0,
                snapshot_every=n // 10,
            )
            if result.winner == 1:
                value = doubling_time(result.trace, opinion=1)
                if value is not None:
                    measured.append(value)
        assert measured, "no majority-win run to compare against"
        ratio = np.median(measured) / prediction.majority_doubling
        assert 0.5 < ratio < 2.0

    def test_validation(self):
        config = Configuration([5, 5])
        with pytest.raises(SimulationError):
            predict_timescales(config, horizon=0)
        with pytest.raises(SimulationError):
            predict_timescales(config, tolerance=0.9)

    def test_unreached_events_are_none(self):
        """A symmetric tie never doubles or reaches consensus in the ODE."""
        config = Configuration([500, 500])
        prediction = predict_timescales(config, horizon=20.0)
        assert prediction.majority_doubling is None
        assert prediction.consensus is None


class TestSimulateGossip:
    def test_usd_end_to_end(self):
        dynamics = GossipUSD(k=3)
        config = Configuration.equal_minorities_with_bias(5_000, 3, 400)
        result = simulate(
            dynamics, config, seed=1, max_parallel_time=2_000, snapshot_every=2
        )
        assert result.stabilized
        assert result.winner == 1
        assert result.stabilization_rounds is not None
        assert result.stabilization_rounds <= result.rounds
        assert result.trace.times[0] == 0
        assert result.trace.undecided_series()[0] == 0

    def test_raw_counts_accepted(self):
        dynamics = GossipVoter(k=2)
        result = simulate(
            dynamics, np.array([40, 10]), seed=2, max_parallel_time=100_000
        )
        assert result.stabilized
        assert result.winner in (1, 2)

    def test_winner_none_when_all_undecided(self):
        dynamics = GossipUSD(k=2)
        result = simulate(
            dynamics, np.array([10, 0, 0]), seed=0, max_parallel_time=10
        )
        assert result.stabilized
        assert result.winner is None

    def test_starting_absorbed_runs_no_round(self):
        """Like the population engines: 0 rounds, stabilized at round 0."""
        result = simulate(GossipUSD(k=2), [0, 100, 0], max_parallel_time=50)
        assert result.stabilized
        assert result.rounds == 0
        assert result.stabilization_rounds == 0
        assert len(result.trace) == 1

    def test_live_run_unchanged_by_check_order(self):
        result = simulate(GossipUSD(k=2), [10, 60, 30], seed=1, max_parallel_time=50)
        assert result.rounds == 8
        assert result.stabilization_rounds == 8
        assert len(result.trace) == 9

    def test_negative_rounds_rejected(self):
        dynamics = GossipUSD(k=2)
        with pytest.raises(SimulationError):
            simulate(dynamics, np.array([0, 5, 5]), max_parallel_time=-1)

    def test_metadata(self):
        dynamics = GossipUSD(k=2)
        result = simulate(
            dynamics,
            np.array([0, 6, 4]),
            seed=3,
            max_parallel_time=500,
            metadata={"tag": "unit"},
        )
        assert result.metadata["tag"] == "unit"
        assert result.trace.metadata["protocol"] == dynamics.name


class TestGossipKeywordMatchesSpec:
    """Keyword ``simulate`` of gossip dynamics is the spec's run."""

    def test_keyword_simulate_is_bit_identical_to_run_spec(self):
        keyword = simulate(
            GossipUSD(k=3),
            Configuration.equal_minorities_with_bias(1500, 3, 90),
            seed=11,
            max_parallel_time=300.0,
        )
        spec = RunSpec(
            protocol=ProtocolSpec(name="gossip-usd", k=3),
            initial=InitialSpec(
                kind="equal-minorities", n=1500, params={"bias": 90}
            ),
            seed=11,
            max_parallel_time=300.0,
        )
        declarative = run_spec(spec)
        assert keyword.metadata["spec_hash"] == spec.spec_hash()
        assert keyword.metadata == declarative.metadata
        for name in (
            "interactions",
            "parallel_time",
            "stabilized",
            "stabilization_interactions",
            "winner",
            "engine_name",
            "rounds",
            "stabilization_rounds",
        ):
            assert getattr(keyword, name) == getattr(declarative, name), name
        for left, right in (
            (keyword.final_counts, declarative.final_counts),
            (keyword.trace.times, declarative.trace.times),
            (keyword.trace.counts, declarative.trace.counts),
        ):
            assert left.dtype == right.dtype
            np.testing.assert_array_equal(left, right)

    @pytest.mark.parametrize("horizon, rounds", [(2.5, 2), (3.5, 4)])
    def test_half_integer_horizons_round_like_the_spec(self, horizon, rounds):
        counts = [500, 500]  # a voter tie: nowhere near consensus in 4 rounds
        spec = RunSpec(
            protocol=ProtocolSpec(name="gossip-voter", k=2),
            initial=InitialSpec(
                kind="state-counts", n=1000, params={"counts": counts}
            ),
            seed=0,
            max_parallel_time=horizon,
        )
        assert spec.resolved_horizon() == rounds
        keyword = simulate(
            GossipVoter(k=2), counts, seed=0, max_parallel_time=horizon
        )
        assert keyword.rounds == run_spec(spec).rounds == rounds


_KILLED_GOSSIP_CHILD = """
import sys
import time

sys.path.insert(0, {src!r})
from repro.core.persistent_recorder import PersistentTrajectoryRecorder
from repro.specs import load_spec_file, run_spec

spill = PersistentTrajectoryRecorder._spill


def spill_then_hang(self):
    spill(self)
    time.sleep(600)  # the parent SIGKILLs the run here, mid-stream


PersistentTrajectoryRecorder._spill = spill_then_hang
run_spec(load_spec_file({spec_file!r}))
"""


def _spilled_chunks(run_dir: Path) -> int:
    try:
        return len(load_manifest(run_dir)["chunks"])
    except SerializationError:
        return 0  # the child has not written its manifest yet


class TestGossipPersistence:
    """A persisted gossip spec streams, survives a kill and resumes."""

    def test_killed_stream_completes_then_answers_from_disk(
        self, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "gossip-run"
        spec = RunSpec(
            protocol=ProtocolSpec(name="gossip-usd", k=3),
            initial=InitialSpec(
                kind="equal-minorities", n=20_000, params={"bias": 600}
            ),
            seed=5,
            max_parallel_time=500.0,
            recording=RecordingSpec(
                persist_to=str(run_dir),
                persist_chunk_snapshots=4,
                persist_window=4,
            ),
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _KILLED_GOSSIP_CHILD.format(src=src, spec_file=str(spec_file)),
            ],
        )
        try:
            deadline = time.monotonic() + 60.0
            while _spilled_chunks(run_dir) == 0:
                assert child.poll() is None, "the run ended before its first spill"
                assert time.monotonic() < deadline, "no chunk was ever spilled"
                time.sleep(0.02)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        killed = load_manifest(run_dir)
        assert killed["complete"] is False
        assert len(killed["chunks"]) == 1

        # the incomplete stream cannot answer: run_spec re-runs and
        # completes it, bit-identical to an in-memory run of the spec
        live = run_spec(spec)
        assert load_manifest(run_dir)["complete"] is True
        in_memory = run_spec(spec.with_recording(RecordingSpec()))
        streamed = live.streamed_trace().materialize()
        np.testing.assert_array_equal(streamed.times, in_memory.trace.times)
        np.testing.assert_array_equal(streamed.counts, in_memory.trace.counts)
        assert live.rounds == in_memory.rounds
        assert live.stabilized and live.winner == in_memory.winner

        def no_stepping(*args, **kwargs):
            raise AssertionError("a complete stream must answer from disk")

        monkeypatch.setattr("repro.core.run.simulate", no_stepping)
        answered = run_spec(spec)
        live_document = to_document(live, spec)
        answered_document = to_document(answered, spec)
        live_document.pop("wall_seconds")
        answered_document.pop("wall_seconds")
        assert answered_document == live_document
        assert answered_document["outcome"]["engine"] == "gossip"
        assert answered_document["summary"]["rounds"] == live.rounds
