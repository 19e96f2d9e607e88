"""Unit tests for the adaptive-fidelity surrogate tier.

Covers the three contracts the fidelity layer makes:

* validity — the TRUSTED / MARGINAL / ESCALATE verdict follows the
  paper's concentration scale (√(n ln n) fluctuations vs the initial
  gap), with the voter model pinned to ESCALATE (neutral drift);
* dispatch — ``run_spec(spec)`` routes through the resolver table:
  ``surrogate`` never instantiates an engine (and answers n = 10⁸ in
  well under 100 ms warm), ``auto`` is *bit-identical* to the exact
  tier whenever it escalates;
* support — a protocol with no surrogate fails loudly on the
  surrogate tier, and ``auto`` escalates it.
"""

import math
import time

import numpy as np
import pytest

import repro.core.run as core_run
from repro import SimulationError
from repro.meanfield import (
    ESCALATE,
    MARGINAL,
    SURROGATE_PROTOCOLS,
    TRUSTED,
    SurrogateResult,
    USDMeanField,
    resolve_surrogate,
    surrogate_unsupported_reason,
)
from repro.meanfield.surrogate import fluctuation_fraction
from repro.specs import (
    EnsembleSpec,
    InitialSpec,
    ProtocolSpec,
    RunSpec,
    SweepSpec,
    run_spec,
)


def usd_spec(n=20_000, k=3, bias=1_400, fidelity="exact", **kwargs):
    kwargs.setdefault("max_parallel_time", 200.0)
    return RunSpec(
        protocol=ProtocolSpec(name="usd", k=k),
        initial=InitialSpec(
            kind="equal-minorities", n=n, params={"bias": bias}
        ),
        seed=11,
        fidelity=fidelity,
        **kwargs,
    )


class TestValidity:
    def test_fluctuation_scale(self):
        n = 10_000
        assert fluctuation_fraction(n) == pytest.approx(
            math.sqrt(math.log(n) / n)
        )
        assert fluctuation_fraction(1) == 0.0

    def test_wide_gap_is_trusted(self):
        result = resolve_surrogate(usd_spec(bias=1_400))
        assert result.validity.verdict == TRUSTED
        assert result.validity.bias_margin >= 3.0
        assert result.stabilized and result.winner == 1

    def test_paper_scale_bias_is_marginal(self):
        # ~2·√(n ln n) bias: ahead of the fluctuation scale but not
        # past the 3-radii trust threshold
        n = 2_000
        bias = 2 * math.ceil(math.sqrt(n * math.log(n)))
        result = resolve_surrogate(usd_spec(n=n, bias=bias))
        assert result.validity.verdict == MARGINAL
        assert 1.0 <= result.validity.bias_margin < 3.0

    def test_zero_bias_escalates(self):
        result = resolve_surrogate(usd_spec(n=2_000, bias=0))
        assert result.validity.verdict == ESCALATE
        assert result.validity.bias_margin == 0.0

    def test_voter_always_escalates(self):
        spec = RunSpec(
            protocol=ProtocolSpec(name="voter", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=20_000, params={"bias": 5_000}
            ),
            seed=3,
            max_parallel_time=100.0,
        )
        result = resolve_surrogate(spec)
        assert result.validity.verdict == ESCALATE
        assert not result.stabilized
        assert any("drift" in r for r in result.validity.reasons)

    def test_gossip_three_majority_round_map(self):
        spec = RunSpec(
            protocol=ProtocolSpec(name="gossip-3-majority", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=100_000, params={"bias": 8_000}
            ),
            seed=3,
            max_parallel_time=200,
        )
        result = resolve_surrogate(spec)
        assert result.validity.verdict == TRUSTED
        assert result.rounds is not None and result.rounds > 0
        assert result.stabilization_rounds is not None
        assert result.winner == 1
        # gossip traces index time in rounds
        assert np.array_equal(
            result.trace.times, np.arange(result.trace.times.size)
        )

    def test_trace_is_consistent(self):
        spec = usd_spec(bias=1_400)
        result = resolve_surrogate(spec)
        trace = result.trace
        assert trace.counts.sum(axis=1).max() <= spec.n + spec.protocol.k + 1
        assert trace.undecided_index == 0
        assert np.all(np.diff(trace.times) >= 0)
        assert result.timescales is not None
        assert result.timescales.consensus is not None


class TestSupport:
    def test_supported_protocols(self):
        assert set(SURROGATE_PROTOCOLS) == {
            "usd",
            "voter",
            "gossip-3-majority",
        }

    def test_unsupported_protocol_is_loud(self):
        spec = RunSpec(
            protocol=ProtocolSpec(name="four-state", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=1_000, params={"bias": 100}
            ),
            seed=1,
            max_parallel_time=100.0,
        )
        reason = surrogate_unsupported_reason(spec)
        assert "four-state" in reason and "usd" in reason
        with pytest.raises(SimulationError, match="cannot resolve"):
            resolve_surrogate(spec)


class TestDispatch:
    def test_surrogate_huge_n_without_engine(self, monkeypatch):
        """The acceptance run: n = 10⁸ answered < 100 ms, engine-free."""
        n = 100_000_000
        bias = 4 * math.ceil(math.sqrt(n * math.log(n)))
        spec = usd_spec(n=n, bias=bias, fidelity="surrogate")

        import scipy.integrate  # noqa: F401 — its one-off import is not the resolve
        resolve_surrogate(usd_spec(fidelity="exact"))  # warm integrator

        def no_engines(*args, **kwargs):
            raise AssertionError("surrogate tier instantiated an engine")

        monkeypatch.setattr(core_run, "make_engine", no_engines)
        started = time.perf_counter()
        result = run_spec(spec)
        elapsed = time.perf_counter() - started
        assert isinstance(result, SurrogateResult)
        assert result.validity.verdict == TRUSTED
        assert result.metadata["engine"] == "meanfield"
        assert result.stabilized and result.winner == 1
        assert elapsed < 0.1, f"surrogate resolve took {elapsed * 1e3:.1f} ms"

    def test_auto_trusted_answers_from_surrogate(self, monkeypatch):
        def no_engines(*args, **kwargs):
            raise AssertionError("auto/TRUSTED instantiated an engine")

        monkeypatch.setattr(core_run, "make_engine", no_engines)
        result = run_spec(usd_spec(bias=1_400, fidelity="auto"))
        assert isinstance(result, SurrogateResult)
        fidelity = result.metadata["fidelity"]
        assert fidelity["requested"] == "auto"
        assert fidelity["resolved"] == "surrogate"
        assert fidelity["verdict"] == TRUSTED

    def test_auto_escalation_is_bit_identical_to_exact(self, monkeypatch):
        n = 2_000
        bias = 2 * math.ceil(math.sqrt(n * math.log(n)))  # MARGINAL → escalate

        def no_solve(*args, **kwargs):
            raise AssertionError("auto solved an ODE whose verdict the margin fixes")

        # the margin alone rules out TRUSTED, so auto must not integrate
        monkeypatch.setattr(USDMeanField, "integrate", no_solve)
        exact = run_spec(usd_spec(n=n, bias=bias, fidelity="exact"))
        auto = run_spec(usd_spec(n=n, bias=bias, fidelity="auto"))

        fidelity = auto.metadata["fidelity"]
        assert fidelity == {
            "requested": "auto",
            "resolved": "exact",
            "verdict": MARGINAL,
            "reasons": fidelity["reasons"],
            "report": fidelity["report"],
        }
        metadata = {
            key: value
            for key, value in auto.metadata.items()
            if key != "fidelity"
        }
        assert metadata == exact.metadata
        for name in (
            "interactions",
            "parallel_time",
            "stabilized",
            "stabilization_interactions",
            "winner",
            "engine_name",
        ):
            assert getattr(auto, name) == getattr(exact, name)
        for ours, theirs in (
            (auto.final_counts, exact.final_counts),
            (auto.trace.times, exact.trace.times),
            (auto.trace.counts, exact.trace.counts),
        ):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_auto_escalates_unsupported_protocols(self):
        spec = RunSpec(
            protocol=ProtocolSpec(name="four-state", k=2),
            initial=InitialSpec(
                kind="equal-minorities", n=1_000, params={"bias": 100}
            ),
            seed=1,
            max_parallel_time=500.0,
            fidelity="auto",
        )
        result = run_spec(spec)
        fidelity = result.metadata["fidelity"]
        assert fidelity["resolved"] == "exact"
        assert fidelity["verdict"] == "UNSUPPORTED"


class TestEnsembleAndSweepFidelity:
    def test_ensemble_rows_carry_fidelity_columns(self):
        ensemble = EnsembleSpec(
            run=usd_spec(bias=1_400, fidelity="auto").with_seed(None),
            num_runs=2,
            root_seed=5,
        )
        run = run_spec(ensemble)
        for row in run.rows:
            assert row["fidelity"] == "auto"
            assert row["resolved_fidelity"] == "surrogate"
            assert row["verdict"] == TRUSTED

    def test_exact_rows_have_no_fidelity_columns(self):
        ensemble = EnsembleSpec(
            run=usd_spec(n=1_000, bias=100).with_seed(None),
            num_runs=1,
            root_seed=5,
        )
        run = run_spec(ensemble)
        assert "fidelity" not in run.rows[0]
        assert "verdict" not in run.rows[0]

    def test_sweep_reports_escalated_points(self):
        sweep = SweepSpec(
            sweep_id="fidelity-split",
            base=usd_spec(fidelity="auto").with_seed(None),
            axes={"initial.params.bias": [1_400, 0]},
            root_seed=9,
        )
        run = run_spec(sweep)
        assert run.escalated == ("initial.params.bias=0",)
