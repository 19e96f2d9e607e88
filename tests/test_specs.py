"""The declarative spec layer: validation, round-trips, hashing, execution.

Covers the :mod:`repro.specs` contracts:

* construction is validation (bad protocols/initials/horizons raise);
* ``to_dict``/``from_dict`` and JSON round-trip exactly;
* ``spec_hash`` is canonical: key-order invariant, generator-vs-explicit
  invariant, sensitive to every semantic field, insensitive to
  throughput knobs — and pinned, so accidental schema drift fails CI;
* keyword ``simulate(...)`` and ``run_spec(spec)`` are bit-identical;
* the persistence manifest records ``spec_hash``, resume finds runs by
  it alone, and hash-less run directories still load but never answer;
* ensembles and sweeps derive seeds by contract and embed their root
  spec into sweep provenance;
* the CLI surface (``repro run --spec``, ``repro spec ...``) works.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from repro import Configuration, simulate
from repro.cli import main
from repro.errors import SimulationError, SpecError
from repro.io.streaming import (
    StreamedTrace,
    find_persisted_by_hash,
    load_manifest,
    write_manifest,
)
from repro.protocols import UndecidedStateDynamics, VoterModel
from repro.rng import derive_seed
from repro.specs import (
    SCHEMA_VERSION,
    EnsembleSpec,
    InitialSpec,
    ProtocolSpec,
    RecordingSpec,
    RunSpec,
    SweepSpec,
    apply_overrides,
    load_spec,
    load_spec_file,
    merge_params,
    normalize_run,
    run_spec,
)


def usd_run_spec(**overrides) -> RunSpec:
    base = dict(
        protocol=ProtocolSpec(name="usd", k=4),
        initial=InitialSpec(
            kind="equal-minorities", n=2000, params={"bias": 200}
        ),
        seed=1,
        max_parallel_time=2000,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestConstructionValidation:
    def test_specs_are_frozen(self):
        spec = usd_run_spec()
        with pytest.raises(FrozenInstanceError):
            spec.seed = 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SpecError, match="unknown protocol"):
            ProtocolSpec(name="quantum-usd", k=4)

    def test_protocol_aliases_normalise(self):
        assert ProtocolSpec(name="undecided-state-dynamics", k=3).name == "usd"
        assert ProtocolSpec(name="voter-model", k=3).name == "voter"

    def test_four_state_requires_binary(self):
        with pytest.raises(SpecError, match="k = 2"):
            ProtocolSpec(name="four-state", k=3)

    def test_unknown_initial_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown initial kind"):
            InitialSpec(kind="adversarial", n=100)

    def test_unknown_params_rejected(self):
        with pytest.raises(SpecError, match="unknown keys"):
            ProtocolSpec(name="usd", k=4, params={"r": 3})

    def test_multinomial_requires_seed(self):
        # construction is validation: the unbuildable initial fails the
        # RunSpec constructor, not some later hash/run call
        with pytest.raises(SpecError, match="seed"):
            usd_run_spec(
                initial=InitialSpec(kind="multinomial", n=500, params={})
            )

    def test_state_counts_must_fit_protocol_alphabet(self):
        with pytest.raises(SpecError, match="states"):
            usd_run_spec(
                initial=InitialSpec(
                    kind="state-counts", n=100, params={"counts": [50, 50]}
                )
            )

    def test_explicit_initial_k_mismatch_fails_at_construction(self):
        with pytest.raises(SpecError):
            usd_run_spec(
                initial=InitialSpec(
                    kind="explicit",
                    n=100,
                    params={"opinion_counts": [50, 50], "undecided": 0},
                )
            )

    def test_exactly_one_horizon(self):
        with pytest.raises(SpecError, match="exactly one"):
            usd_run_spec(max_interactions=100, max_parallel_time=10.0)
        with pytest.raises(SpecError, match="exactly one"):
            usd_run_spec(max_parallel_time=None)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError, match="unknown engine"):
            usd_run_spec(engine="quantum")

    def test_persist_tuning_without_target_rejected(self):
        with pytest.raises(SpecError, match="persist_to"):
            RecordingSpec(persist_chunk_snapshots=10)
        with pytest.raises(SpecError, match="persist_to"):
            RecordingSpec(persist_window=5)

    def test_gossip_constraints(self):
        gossip = ProtocolSpec(name="gossip-usd", k=3)
        initial = InitialSpec(kind="uniform", n=600)
        with pytest.raises(SpecError, match="rounds"):
            RunSpec(protocol=gossip, initial=initial, max_interactions=100)
        with pytest.raises(SpecError, match="backend"):
            RunSpec(
                protocol=gossip,
                initial=initial,
                backend="numpy",
                max_parallel_time=50,
            )


class TestSimulatePersistBugfix:
    """simulate() must reject persistence tuning without a target."""

    def test_keyword_simulate_raises(self):
        protocol = UndecidedStateDynamics(k=2)
        initial = Configuration([30, 20])
        with pytest.raises(ValueError, match="persist_to"):
            simulate(
                protocol,
                initial,
                seed=0,
                max_parallel_time=10,
                persist_chunk_snapshots=16,
            )
        with pytest.raises(ValueError, match="persist_to"):
            simulate(
                protocol,
                initial,
                seed=0,
                max_parallel_time=10,
                persist_window=4,
            )

    def test_error_is_also_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(SpecError, ReproError)
        assert issubclass(SpecError, ValueError)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "spec_factory",
        [
            lambda: usd_run_spec(),
            lambda: usd_run_spec(
                engine="batch",
                backend="numpy",
                max_parallel_time=None,
                max_interactions=5000,
                recording=RecordingSpec(snapshot_every=100),
                metadata={"note": "round-trip"},
            ),
            lambda: EnsembleSpec(
                run=usd_run_spec(seed=None), num_runs=4, root_seed=9
            ),
            lambda: SweepSpec(
                sweep_id="rt",
                base=usd_run_spec(seed=None),
                axes={"initial.n": [1000, 2000], "protocol.k": [2, 4]},
                root_seed=5,
            ),
        ],
        ids=["run", "run-tuned", "ensemble", "sweep"],
    )
    def test_dict_and_json_round_trip(self, spec_factory):
        spec = spec_factory()
        payload = spec.to_dict()
        assert type(spec).from_dict(payload) == spec
        rejsoned = json.loads(json.dumps(payload))
        assert type(spec).from_dict(rejsoned) == spec
        assert load_spec(rejsoned) == spec
        assert load_spec(rejsoned).spec_hash() == spec.spec_hash()

    def test_unknown_document_keys_rejected(self):
        payload = usd_run_spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(SpecError, match="unknown keys"):
            RunSpec.from_dict(payload)

    def test_schema_version_guard(self):
        payload = usd_run_spec().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SpecError, match="schema_version"):
            RunSpec.from_dict(payload)
        del payload["schema_version"]
        with pytest.raises(SpecError, match="schema_version"):
            RunSpec.from_dict(payload)

    def test_boolean_fields_reject_truthy_strings(self):
        # "false" is truthy: it must fail loudly, never invert to True
        payload = usd_run_spec().to_dict()
        payload["stop_when_stable"] = "false"
        with pytest.raises(SpecError, match="stop_when_stable"):
            RunSpec.from_dict(payload)

    def test_kind_dispatch(self):
        payload = usd_run_spec().to_dict()
        payload["kind"] = "sweep"
        with pytest.raises(SpecError):
            load_spec(payload)

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        spec = usd_run_spec()
        path.write_text(json.dumps(spec.to_dict()))
        assert load_spec_file(path) == spec
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError, match="valid JSON"):
            load_spec_file(bad)


SCENARIOS = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


class TestRecordAsyncCompatibility:
    """Schema-v1 documents may carry the retired ``record_async`` key."""

    @pytest.mark.parametrize(
        "value", [True, False, "absent", "yes"], ids=["true", "false", "absent", "str"]
    )
    def test_key_is_accepted_and_ignored(self, value):
        absent = usd_run_spec().to_dict()
        del absent["recording"]["record_async"]
        payload = usd_run_spec().to_dict()
        if value == "absent":
            del payload["recording"]["record_async"]
        else:
            payload["recording"]["record_async"] = value
        spec = RunSpec.from_dict(payload)
        reference = RunSpec.from_dict(absent)
        assert spec.spec_hash() == reference.spec_hash()
        assert spec.to_dict() == reference.to_dict()
        # still written, so documents embedding it stay byte-identical
        assert spec.to_dict()["recording"]["record_async"] is False

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "usd_vs_voter.json",
                "50476c7e605e7c0896a5b023280fd9b41a0e0d3990607bb58438a7fd2bff708f",
            ),
            (
                "persisted_large_n.json",
                "353d1a72e28dbafba11f03a9e1071a845c3587f2fb248b43f7d28cee72c4b9b3",
            ),
            # both pin engine: counts, so no change of what 'auto'
            # resolves to may move them
            (
                "two_block_grid.json",
                "ee1baa0eaf8f4da3e974454860d54411e4c10839132573b4e9e4998352a5dbdc",
            ),
            (
                "zipf_robustness.json",
                "80975eaf478beeaa32bb21c082780570ed933da63f54b83637a149e0b24f2c78",
            ),
        ],
    )
    def test_shipped_scenarios_keep_their_hashes(self, name, expected):
        assert load_spec_file(SCENARIOS / name).spec_hash() == expected

    def test_sweep_checkpoint_meta_is_unchanged(self):
        # merge/--resume compare checkpoint meta exactly; it embeds the
        # sweep document, so its recording block must match the file's
        path = SCENARIOS / "usd_vs_voter.json"
        meta = load_spec_file(path).plan().meta
        recording = meta["spec"]["base"]["recording"]
        assert recording["record_async"] is False
        assert recording == json.loads(path.read_text())["base"]["recording"]


class TestSpecHash:
    def test_key_order_invariance(self):
        spec = usd_run_spec()
        payload = spec.to_dict()
        shuffled = {key: payload[key] for key in reversed(list(payload))}
        assert RunSpec.from_dict(shuffled).spec_hash() == spec.spec_hash()

    def test_generator_vs_explicit_invariance(self):
        generated = usd_run_spec()
        config = Configuration.equal_minorities_with_bias(2000, 4, 200)
        explicit = usd_run_spec(
            initial=InitialSpec.from_configuration(config)
        )
        assert generated.spec_hash() == explicit.spec_hash()
        assert generated.to_dict() != explicit.to_dict()

    def test_throughput_knobs_do_not_change_hash(self):
        base = usd_run_spec()
        assert usd_run_spec(backend="numpy").spec_hash() == base.spec_hash()
        assert (
            usd_run_spec(
                recording=RecordingSpec(
                    persist_to="runs/elsewhere", persist_chunk_snapshots=64
                )
            ).spec_hash()
            == base.spec_hash()
        )
        assert (
            usd_run_spec(metadata={"label": "x"}).spec_hash()
            == base.spec_hash()
        )

    def test_semantic_fields_change_hash(self):
        base = usd_run_spec()
        assert usd_run_spec(seed=2).spec_hash() != base.spec_hash()
        assert (
            usd_run_spec(max_parallel_time=999).spec_hash() != base.spec_hash()
        )
        # (bias 201 would canonicalise to the *same* counts as 200 —
        # rounding leftovers go to the minorities — so pick a bias that
        # genuinely changes the workload)
        assert (
            usd_run_spec(
                initial=InitialSpec(
                    kind="equal-minorities", n=2000, params={"bias": 300}
                )
            ).spec_hash()
            != base.spec_hash()
        )
        assert (
            usd_run_spec(
                recording=RecordingSpec(snapshot_every=123)
            ).spec_hash()
            != base.spec_hash()
        )

    def test_protocol_param_defaults_fold_into_hash(self):
        # {"params": {}} and {"params": {"r": 2}} are the same
        # hysteresis protocol and must hash (and resume) identically;
        # the keyword form normalises through from_protocol and must
        # agree too
        from repro.protocols import HysteresisUSD

        spelled_out = usd_run_spec(
            protocol=ProtocolSpec(name="hysteresis", k=3, params={"r": 2})
        )
        defaulted = usd_run_spec(
            protocol=ProtocolSpec(name="hysteresis", k=3)
        )
        from_live = usd_run_spec(
            protocol=ProtocolSpec.from_protocol(HysteresisUSD(k=3, r=2))
        )
        assert spelled_out.spec_hash() == defaulted.spec_hash()
        assert spelled_out.spec_hash() == from_live.spec_hash()
        assert defaulted.protocol.params == {"r": 2}

    def test_equivalent_horizons_hash_equal(self):
        # 2000 parallel time at n=2000 is exactly 4_000_000 interactions
        by_time = usd_run_spec()
        by_interactions = usd_run_spec(
            max_parallel_time=None, max_interactions=4_000_000
        )
        assert by_time.spec_hash() == by_interactions.spec_hash()

    def test_specs_are_hashable_and_equal_by_value(self):
        first, second = usd_run_spec(), usd_run_spec()
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_pinned_hashes(self):
        """Schema drift must be deliberate: these hashes are frozen.

        If a change to the spec layer alters any of them, either revert
        the accidental semantic change or bump SCHEMA_VERSION and
        re-pin here, documenting the migration.  The run, ensemble and
        sweep specs leave ``engine='auto'``, and the hash names the
        engine it resolves to: changing that resolution moves them too.
        """
        run = usd_run_spec()
        assert run.spec_hash() == (
            "29db4699f1d3cd0a487c854050d7fc2b51e4b353ca35e4483fa6bde28e521344"
        )
        ensemble = EnsembleSpec(
            run=usd_run_spec(seed=None), num_runs=5, root_seed=7
        )
        assert ensemble.spec_hash() == (
            "fc82caa2007208fcb78fab0cbb874f0c7fc13e0eca0fce0d74d4468778f7f522"
        )
        sweep = SweepSpec(
            sweep_id="pinned",
            base=usd_run_spec(seed=None),
            axes={"protocol.name": ["usd", "voter"]},
            root_seed=3,
        )
        assert sweep.spec_hash() == (
            "c5d8b79a23c864356187ddb4d7fcf03ed5d4dcbaa2c60b0e2c513ce956874470"
        )
        gossip = RunSpec(
            protocol=ProtocolSpec(name="gossip-usd", k=3),
            initial=InitialSpec(kind="uniform", n=900),
            seed=5,
            max_parallel_time=400,
        )
        assert gossip.spec_hash() == (
            "735072b39782f65f1a80a3b59b22717acac588c35e0c47c4abf4d7b9ecf7ba0a"
        )


class TestBitIdentity:
    def test_keyword_vs_spec_form(self):
        protocol = UndecidedStateDynamics(k=3)
        initial = Configuration.equal_minorities_with_bias(900, 3, 80)
        keyword = simulate(protocol, initial, seed=3, max_parallel_time=900)
        spec = RunSpec(
            protocol=ProtocolSpec(name="usd", k=3),
            initial=InitialSpec(
                kind="equal-minorities", n=900, params={"bias": 80}
            ),
            seed=3,
            max_parallel_time=900,
        )
        declarative = run_spec(spec)
        assert keyword.metadata == declarative.metadata
        assert "spec_hash" in keyword.metadata
        assert keyword.interactions == declarative.interactions
        assert keyword.winner == declarative.winner
        assert keyword.trace.times.dtype == declarative.trace.times.dtype
        assert np.array_equal(keyword.trace.times, declarative.trace.times)
        assert np.array_equal(keyword.trace.counts, declarative.trace.counts)
        assert np.array_equal(keyword.final_counts, declarative.final_counts)

    def test_simulate_rejects_a_spec(self):
        # simulate takes a protocol; a spec has exactly one door
        with pytest.raises(SimulationError, match=r"repro\.specs\.run_spec"):
            simulate(usd_run_spec())

    def test_run_spec_rejects_workers_for_single_runs(self):
        with pytest.raises(SpecError, match="workers"):
            run_spec(usd_run_spec(), workers=4)

    def test_undeclarative_calls_still_run_without_hash(self):
        class CustomProtocol(UndecidedStateDynamics):
            name = "custom-usd"

        result = simulate(
            CustomProtocol(k=2),
            Configuration([30, 20]),
            seed=0,
            max_parallel_time=50,
        )
        assert "spec_hash" not in result.metadata

    def test_normalize_run_declines_callable_stop(self):
        protocol = UndecidedStateDynamics(k=2)
        initial = Configuration([30, 20])
        assert (
            normalize_run(
                protocol,
                initial,
                seed=0,
                max_parallel_time=10,
                stop=lambda counts, t: False,
            )
            is None
        )


class TestPersistenceIntegration:
    def run_persisted(self, tmp_path, **kwargs):
        protocol = UndecidedStateDynamics(k=2)
        initial = Configuration([40, 24])
        return simulate(
            protocol,
            initial,
            seed=5,
            max_parallel_time=200,
            snapshot_every=8,
            persist_to=tmp_path / "run",
            **kwargs,
        )

    def test_manifest_records_spec_hash_and_document(self, tmp_path):
        result = self.run_persisted(tmp_path)
        manifest = load_manifest(tmp_path / "run")
        run_info = manifest["run_info"]
        assert run_info["spec_hash"] == result.metadata["spec_hash"]
        assert run_info["spec"]["kind"] == "run"
        assert RunSpec.from_dict(run_info["spec"]).spec_hash() == (
            run_info["spec_hash"]
        )

    def test_hash_first_matching(self, tmp_path):
        result = self.run_persisted(tmp_path)
        run_dir = tmp_path / "run"
        assert find_persisted_by_hash(run_dir, result.metadata["spec_hash"]) == run_dir
        assert find_persisted_by_hash(run_dir, "0" * 64) is None

    def test_hashless_directory_loads_but_never_answers(self, tmp_path):
        """A manifest without spec_hash/spec (a pre-hash run directory)
        still loads as a stream, but no hash finds it for resume."""
        result = self.run_persisted(tmp_path)
        run_dir = tmp_path / "run"
        manifest = load_manifest(run_dir)
        manifest["run_info"] = {
            key: value
            for key, value in manifest["run_info"].items()
            if key not in ("spec_hash", "spec")
        }
        write_manifest(run_dir, manifest)
        stream = StreamedTrace(run_dir)
        assert stream.complete
        assert np.array_equal(stream.materialize().counts, result.trace.counts)
        assert find_persisted_by_hash(run_dir, result.metadata["spec_hash"]) is None

    def test_spec_run_resumes_from_completed_stream(self, tmp_path):
        spec = RunSpec(
            protocol=ProtocolSpec(name="usd", k=2),
            initial=InitialSpec(
                kind="explicit",
                n=64,
                params={"opinion_counts": [40, 24], "undecided": 0},
            ),
            seed=5,
            max_parallel_time=200,
            recording=RecordingSpec(
                snapshot_every=8, persist_to=str(tmp_path / "run")
            ),
        )
        first = run_spec(spec)
        # poison nothing: the completed stream answers the re-run
        second = run_spec(spec)
        assert second.interactions == first.interactions
        assert second.winner == first.winner
        assert second.stabilization_interactions == (
            first.stabilization_interactions
        )
        assert np.array_equal(second.final_counts, first.final_counts)
        assert np.array_equal(second.trace.times, first.trace.times)
        assert np.array_equal(second.trace.counts, first.trace.counts)

    def test_resumed_run_keeps_its_recorded_metrics(self, tmp_path):
        """A resumed run is the one its persisted document describes, so
        the metrics recorded with the stream come back with it."""
        from repro.specs import ObsConfig, document_from_persisted_run, to_document

        spec = RunSpec(
            protocol=ProtocolSpec(name="usd", k=2),
            initial=InitialSpec(
                kind="explicit",
                n=64,
                params={"opinion_counts": [40, 24], "undecided": 0},
            ),
            seed=5,
            max_parallel_time=200,
            recording=RecordingSpec(
                snapshot_every=8, persist_to=str(tmp_path / "run")
            ),
            obs=ObsConfig(metrics=True),
        )
        live = to_document(run_spec(spec), spec)
        resumed = to_document(run_spec(spec), spec)
        assert live["obs_metrics"] is not None
        assert resumed["obs_metrics"] == live["obs_metrics"]
        assert resumed == document_from_persisted_run(tmp_path / "run")

    def test_unseeded_persisted_run_never_resumes(self, tmp_path):
        """seed=None means fresh entropy each run: no cached answers."""
        from repro.specs.runner import _resume_persisted

        spec = RunSpec(
            protocol=ProtocolSpec(name="usd", k=2),
            initial=InitialSpec(
                kind="explicit",
                n=64,
                params={"opinion_counts": [40, 24], "undecided": 0},
            ),
            seed=None,
            max_parallel_time=200,
            recording=RecordingSpec(
                snapshot_every=8, persist_to=str(tmp_path / "run")
            ),
        )
        run_spec(spec)  # writes a complete stream for this spec_hash
        assert _resume_persisted(spec) is None


class TestEnsembleSpec:
    def test_template_seed_must_be_none(self):
        with pytest.raises(SpecError, match="seed"):
            EnsembleSpec(run=usd_run_spec(seed=3), num_runs=2, root_seed=1)

    def test_member_seeds_follow_contract(self):
        ensemble = EnsembleSpec(
            run=usd_run_spec(seed=None), num_runs=3, root_seed=42
        )
        for index in range(3):
            assert ensemble.member_seed(index) == derive_seed(42, index)
            assert ensemble.member_spec(index).seed == derive_seed(42, index)

    def test_execution_matches_individual_runs(self):
        template = RunSpec(
            protocol=ProtocolSpec(name="usd", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=400, params={"bias": 40}
            ),
            max_parallel_time=400,
        )
        ensemble = EnsembleSpec(run=template, num_runs=3, root_seed=11)
        outcome = run_spec(ensemble)
        assert outcome.spec_hash == ensemble.spec_hash()
        assert len(outcome.results) == 3
        for index, row in enumerate(outcome.rows):
            single = run_spec(template.with_seed(derive_seed(11, index)))
            assert row["winner"] == single.winner
            assert row["parallel_time"] == single.parallel_time


class TestSweepSpec:
    def sweep(self, **overrides) -> SweepSpec:
        base = dict(
            sweep_id="t",
            base=RunSpec(
                protocol=ProtocolSpec(name="usd", k=2),
                initial=InitialSpec(
                    kind="equal-minorities", n=400, params={"bias": 40}
                ),
                max_parallel_time=400,
            ),
            axes={"initial.n": [400, 600]},
            root_seed=2,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_grid_order_is_axis_product(self):
        sweep = self.sweep(
            axes={"initial.n": [400, 600], "protocol.name": ["usd", "voter"]}
        )
        assignments = [assignment for assignment, _ in sweep.point_specs()]
        assert assignments == [
            {"initial.n": 400, "protocol.name": "usd"},
            {"initial.n": 400, "protocol.name": "voter"},
            {"initial.n": 600, "protocol.name": "usd"},
            {"initial.n": 600, "protocol.name": "voter"},
        ]

    def test_axis_order_changes_hash_but_key_order_does_not(self):
        forward = self.sweep(
            axes={"initial.n": [400, 600], "protocol.k": [2, 3]}
        )
        reordered = self.sweep(
            axes={"protocol.k": [2, 3], "initial.n": [400, 600]}
        )
        assert forward.spec_hash() != reordered.spec_hash()
        payload = forward.to_dict()
        shuffled = {key: payload[key] for key in reversed(list(payload))}
        assert SweepSpec.from_dict(shuffled).spec_hash() == (
            forward.spec_hash()
        )

    def test_plan_carries_per_point_run_specs(self):
        sweep = self.sweep()
        plan = sweep.plan()
        assert plan.meta["spec_hash"] == sweep.spec_hash()
        assert plan.meta["spec"] == sweep.to_dict()
        for index, point in enumerate(plan.points):
            assert isinstance(point.run_spec, RunSpec)
            assert point.run_spec.seed is None
            assert point.n == point.run_spec.n
            assert plan.point_seed(index) == derive_seed(2, index)

    def test_invalid_axis_value_fails_at_construction(self):
        with pytest.raises(SpecError):
            self.sweep(axes={"initial.n": []})
        with pytest.raises(SpecError, match="unknown key"):
            self.sweep(axes={"initial.bogus_field": [1]})

    def test_sweep_id_slug_rule_matches_plan(self):
        # a sweep_id SweepPlan would reject must fail spec validation
        # too, not pass 'repro spec validate' and die at plan() time
        with pytest.raises(SpecError, match="sweep_id"):
            self.sweep(sweep_id="my sweep/x")

    def test_seed_axis_rejected(self):
        # the runner derives point seeds from root_seed + grid index; a
        # 'seed' axis would be silently discarded, so it must refuse
        with pytest.raises(SpecError, match="derive"):
            self.sweep(axes={"seed": [101, 102]})

    def test_sharded_execution_merges_bit_identical(self, tmp_path):
        sweep = self.sweep()
        full = run_spec(sweep, out=tmp_path / "full")
        for shard in ("0/2", "1/2"):
            run_spec(sweep, shard=shard, out=tmp_path / "sharded")
        merged = run_spec(sweep, out=tmp_path / "sharded", resume=True)
        assert merged.rows == full.rows
        full_json = (
            tmp_path / "full" / "t" / "merged.json"
        ).read_bytes()
        sharded_json = (
            tmp_path / "sharded" / "t" / "merged.json"
        ).read_bytes()
        assert full_json == sharded_json
        provenance = json.loads(
            (tmp_path / "full" / "t" / "provenance.json").read_text()
        )
        assert provenance["meta"]["spec"] == sweep.to_dict()


class TestMergeHelpers:
    def test_apply_overrides_dotted(self):
        document = {"a": {"b": 1, "params": {}}, "top": 2}
        merged = apply_overrides(
            document, {"a.b": 5, "a.params.new": 7, "top": 9}
        )
        assert merged == {"a": {"b": 5, "params": {"new": 7}}, "top": 9}
        assert document["a"]["b"] == 1  # input untouched

    def test_apply_overrides_rejects_unknown_paths(self):
        with pytest.raises(SpecError, match="unknown key"):
            apply_overrides({"a": {"b": 1}}, {"a.c": 2})
        with pytest.raises(SpecError, match="not a nested object"):
            apply_overrides({"a": 1}, {"a.b": 2})

    def test_apply_overrides_matches_literal_dotted_keys(self):
        document = {"axes": {"initial.n": [1, 2]}}
        merged = apply_overrides(document, {"axes.initial.n": [3]})
        assert merged == {"axes": {"initial.n": [3]}}

    def test_apply_overrides_nested_freeform_stays_freeform(self):
        # below a free-form dict, every level accepts new keys
        document = {"metadata": {"tags": {"a": 1}}}
        merged = apply_overrides(document, {"metadata.tags.author": "me"})
        assert merged == {"metadata": {"tags": {"a": 1, "author": "me"}}}

    def test_null_integer_fields_raise_spec_errors(self):
        # null where a positive integer is required must be a SpecError,
        # never a raw TypeError from a >= comparison
        with pytest.raises(SpecError, match="num_runs"):
            EnsembleSpec(run=usd_run_spec(seed=None), num_runs=None, root_seed=1)
        with pytest.raises(SpecError, match="protocol k"):
            ProtocolSpec(name="usd", k=None)
        with pytest.raises(SpecError, match="initial n"):
            InitialSpec(kind="uniform", n=None)

    def test_merge_params_compatible_with_dict_union(self):
        defaults = {"n": 100, "k": 2, "workers": 0}
        assert merge_params(defaults, {"n": 500}) == {
            "n": 500,
            "k": 2,
            "workers": 0,
        }
        with pytest.raises(SpecError, match="unknown parameters"):
            merge_params(defaults, {"bogus": 1})

    def test_experiment_unknown_param_message_preserved(self):
        from repro.errors import ExperimentError
        from repro.experiments import get_experiment

        with pytest.raises(ExperimentError, match="unknown parameters"):
            get_experiment("fig1-left")(bogus=1)


class TestCLI:
    def scenario_path(self, tmp_path) -> str:
        spec = RunSpec(
            protocol=ProtocolSpec(name="usd", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=400, params={"bias": 60}
            ),
            seed=3,
            max_parallel_time=400,
        )
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    def test_run_spec_file(self, tmp_path, capsys):
        assert main(["run", "--spec", self.scenario_path(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stabilized       True" in out
        assert "spec hash" in out

    def test_run_spec_with_dotted_set(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "--spec",
                    self.scenario_path(tmp_path),
                    "--set",
                    "initial.n=600",
                    "--set",
                    "initial.params.bias=80",
                ]
            )
            == 0
        )
        assert "stabilized" in capsys.readouterr().out

    def test_run_spec_bad_override_fails(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "--spec",
                    self.scenario_path(tmp_path),
                    "--set",
                    "initial.nn=600",
                ]
            )
            == 1
        )
        assert "unknown key" in capsys.readouterr().err

    def test_run_requires_id_or_spec(self, capsys):
        assert main(["run"]) == 1
        assert "experiment id or --spec" in capsys.readouterr().err

    def test_run_rejects_both_id_and_spec(self, tmp_path, capsys):
        assert (
            main(
                ["run", "fig1-left", "--spec", self.scenario_path(tmp_path)]
            )
            == 1
        )
        assert "not both" in capsys.readouterr().err

    def test_spec_show_validate_hash(self, tmp_path, capsys):
        path = self.scenario_path(tmp_path)
        assert main(["spec", "show", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["kind"] == "run"
        assert main(["spec", "validate", path]) == 0
        assert "valid 'run' spec" in capsys.readouterr().out
        assert main(["spec", "hash", path]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == load_spec_file(path).spec_hash()

    def test_spec_validate_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        payload = json.loads(
            json.dumps(load_spec_file(self.scenario_path(tmp_path)).to_dict())
        )
        payload["protocol"]["name"] = "nope"
        path.write_text(json.dumps(payload))
        assert main(["spec", "validate", str(path)]) == 1
        assert "unknown protocol" in capsys.readouterr().err

    def test_shipped_scenarios_validate(self, capsys):
        from pathlib import Path

        scenarios = sorted(
            (Path(__file__).parent.parent / "examples" / "scenarios").glob(
                "*.json"
            )
        )
        assert len(scenarios) >= 4
        for scenario in scenarios:
            spec = load_spec_file(scenario)
            assert len(spec.spec_hash()) == 64


class TestGossipSpecs:
    def test_gossip_run(self):
        spec = RunSpec(
            protocol=ProtocolSpec(name="gossip-usd", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=500, params={"bias": 60}
            ),
            seed=4,
            max_parallel_time=300,
        )
        result = run_spec(spec)
        assert result.stabilized
        assert result.winner == 1
        assert result.metadata["spec_hash"] == spec.spec_hash()

    def test_cross_model_sweep(self):
        sweep = SweepSpec(
            sweep_id="models",
            base=RunSpec(
                protocol=ProtocolSpec(name="usd", k=2),
                initial=InitialSpec(
                    kind="equal-minorities", n=400, params={"bias": 60}
                ),
                max_parallel_time=400,
            ),
            axes={"protocol.name": ["usd", "voter", "gossip-usd"]},
            root_seed=6,
        )
        outcome = run_spec(sweep)
        protocols = [row["protocol"] for row in outcome.rows]
        assert protocols == ["usd", "voter", "gossip-usd"]
        assert all(
            "parallel_time" in row and "stabilized" in row
            for row in outcome.rows
        )


class TestNonNormalizableSeeds:
    def test_generator_seed_still_runs(self):
        rng = np.random.default_rng(0)
        result = simulate(
            UndecidedStateDynamics(k=2),
            Configuration([30, 20]),
            seed=rng,
            max_parallel_time=50,
        )
        assert "spec_hash" not in result.metadata

    def test_numpy_integer_seed_normalises(self):
        result = simulate(
            UndecidedStateDynamics(k=2),
            Configuration([30, 20]),
            seed=np.int64(7),
            max_parallel_time=50,
        )
        plain = simulate(
            UndecidedStateDynamics(k=2),
            Configuration([30, 20]),
            seed=7,
            max_parallel_time=50,
        )
        assert result.metadata["spec_hash"] == plain.metadata["spec_hash"]

    def test_sweep_point_persist_dirs_never_collide(self):
        # labels differing only in slug-unsafe characters must stream
        # to distinct directories
        from repro.specs.runner import _point_run_spec

        sweep = SweepSpec(
            sweep_id="collide",
            base=RunSpec(
                protocol=ProtocolSpec(name="usd", k=2),
                initial=InitialSpec(
                    kind="equal-minorities", n=200, params={"bias": 30}
                ),
                max_parallel_time=200,
                recording=RecordingSpec(persist_to="out/runs"),
            ),
            axes={"metadata.tag": ["a/b", "a:b"]},
            root_seed=4,
        )
        plan = sweep.plan()
        directories = {
            _point_run_spec(point, plan.point_seed(i)).recording.persist_to
            for i, point in enumerate(plan.points)
        }
        assert len(directories) == len(plan.points)

    def test_voter_normalises_too(self):
        result = simulate(
            VoterModel(k=2),
            Configuration([40, 20]),
            seed=1,
            max_interactions=2000,
        )
        assert "spec_hash" in result.metadata


class TestFidelityField:
    def _spec(self, **kwargs):
        return RunSpec(
            protocol=ProtocolSpec(name="usd", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=1_000, params={"bias": 100}
            ),
            seed=1,
            max_parallel_time=500.0,
            **kwargs,
        )

    def test_default_is_exact(self):
        assert self._spec().fidelity == "exact"

    def test_unknown_fidelity_rejected_naming_the_choices(self):
        with pytest.raises(SpecError, match="exact.*surrogate.*auto"):
            self._spec(fidelity="psychic")

    def test_round_trips(self):
        spec = self._spec(fidelity="auto")
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["fidelity"] == "auto"
        assert RunSpec.from_dict(payload) == spec

    def test_from_dict_defaults_to_exact(self):
        payload = self._spec().to_dict()
        del payload["fidelity"]
        assert RunSpec.from_dict(payload).fidelity == "exact"

    def test_excluded_from_spec_hash_like_backend(self):
        spec = self._spec()
        assert spec.with_fidelity("surrogate").spec_hash() == spec.spec_hash()
        assert spec.with_fidelity("auto") != spec  # equality still sees it

    def test_with_fidelity_returns_new_spec(self):
        spec = self._spec()
        other = spec.with_fidelity("auto")
        assert spec.fidelity == "exact" and other.fidelity == "auto"

    def test_surrogate_with_persistence_rejected(self):
        with pytest.raises(SpecError, match="persist"):
            self._spec(
                fidelity="surrogate",
                recording=RecordingSpec(persist_to="out/run"),
            )

    def test_auto_with_persistence_allowed(self):
        spec = self._spec(
            fidelity="auto", recording=RecordingSpec(persist_to="out/run")
        )
        assert spec.fidelity == "auto"
