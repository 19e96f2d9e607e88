"""Mean-field surrogate resolution of RunSpecs — the fast fidelity tier.

The fluid-limit skeleton answers "what does this run do" in
milliseconds, independent of ``n``: the drift analyses behind the paper
(tight parallel USD drift, k-opinion USD) characterise exactly when the
deterministic skeleton is trustworthy — when the initial gap between
the top two opinions dominates the O(√(n log n)) fluctuation scale and
the requested horizon comfortably covers the predicted consensus time.

:func:`resolve_surrogate` turns a :class:`~repro.specs.model.RunSpec`
into a :class:`SurrogateResult`: a Trace-compatible trajectory, the
ODE-predicted timescales, and a :class:`ValidityReport` whose verdict
(``TRUSTED`` / ``MARGINAL`` / ``ESCALATE``) drives the ``auto``
fidelity tier in :mod:`repro.specs.runner`.

Three registry protocols resolve today:

* ``usd`` — the fluid-limit ODE of :mod:`repro.meanfield.ode`;
* ``voter`` — the voter fluid limit is *constant* (zero drift: the
  stochastic outcome is a martingale draw), so the surrogate reports
  the honest trajectory and always votes ``ESCALATE``;
* ``gossip-3-majority`` — deterministic iteration of the synchronous
  round map :func:`~repro.gossip.dynamics.three_majority_distribution`.

``gossip-usd`` / ``gossip-voter`` have no surrogate; ``four-state`` /
``hysteresis`` carry bookkeeping states with no fluid-limit model here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..core.recorder import Trace
from ..errors import SimulationError
from ..obs import metrics as obs_metrics
from ..obs import runtime as obs_runtime
from ..obs.timing import wall_timer
from .ode import USDMeanField
from .timescales import MeanFieldTimescales, timescales_from_solution

__all__ = [
    "TRUSTED",
    "MARGINAL",
    "ESCALATE",
    "VERDICTS",
    "SURROGATE_PROTOCOLS",
    "ValidityReport",
    "SurrogateResult",
    "resolve_surrogate",
    "surrogate_unsupported_reason",
    "untrusted_by_margin",
]

#: Validity verdicts, strongest to weakest.  ``TRUSTED`` means the
#: ``auto`` tier answers from the surrogate; anything else escalates.
TRUSTED = "TRUSTED"
MARGINAL = "MARGINAL"
ESCALATE = "ESCALATE"
VERDICTS = (TRUSTED, MARGINAL, ESCALATE)

#: Initial-gap-to-fluctuation-scale ratio above which the skeleton is
#: trusted outright; between the two bounds the surrogate still answers
#: a ``fidelity='surrogate'`` request but ``auto`` escalates.
_TRUST_MARGIN = 3.0
_ESCALATE_MARGIN = 1.0

#: Predicted consensus must land inside this fraction of the requested
#: horizon for a TRUSTED verdict — a prediction that barely fits (or
#: does not fit) the horizon is fluctuation-sensitive by definition.
_HORIZON_COMFORT = 0.9

#: Integration / iteration resolution of the surrogate trajectory.
_GRID_POINTS = 2001
_MAX_GOSSIP_ROUNDS = 100_000


@dataclass(frozen=True)
class ValidityReport:
    """Why (not) to trust a surrogate answer for one spec.

    Attributes
    ----------
    verdict:
        ``TRUSTED``, ``MARGINAL`` or ``ESCALATE``.
    fluctuation_fraction:
        The stochastic fluctuation scale ``√(ln n / n)`` — the paper's
        O(√(n log n)) concentration radius in fraction units.
    bias_fraction:
        Initial gap between the top two opinion fractions (for k = 1,
        the unopposed majority fraction itself).
    bias_margin:
        ``bias_fraction / fluctuation_fraction`` — how many fluctuation
        radii separate the leaders; the bias-threshold margin.
    horizon_coverage:
        Predicted consensus time as a fraction of the requested horizon
        (``inf`` when consensus is not predicted within the horizon).
    reasons:
        Human-readable justification of the verdict.
    """

    verdict: str
    fluctuation_fraction: float
    bias_fraction: float
    bias_margin: float
    horizon_coverage: float
    reasons: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form for result metadata and sweep rows."""
        return {
            "verdict": self.verdict,
            "fluctuation_fraction": self.fluctuation_fraction,
            "bias_fraction": self.bias_fraction,
            "bias_margin": self.bias_margin,
            "horizon_coverage": (
                None
                if math.isinf(self.horizon_coverage)
                else self.horizon_coverage
            ),
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class SurrogateResult:
    """A surrogate-resolved run, duck-typing :class:`~repro.core.run.RunResult`.

    Carries the deterministic trajectory as a real :class:`Trace` (state
    counts = fractions × n, rounded), the headline quantities in the
    RunResult vocabulary, plus the fidelity layer's extras: the
    :class:`ValidityReport` and (for the USD ODE) the predicted
    :class:`~repro.meanfield.timescales.MeanFieldTimescales`.  Gossip
    surrogates additionally report ``rounds`` / ``stabilization_rounds``
    so :func:`repro.specs.runner.summary_row` speaks their vocabulary.
    """

    trace: Trace
    final_counts: np.ndarray
    interactions: int
    parallel_time: float
    stabilized: bool
    stabilization_interactions: Optional[int]
    winner: Optional[int]
    engine_name: str
    wall_seconds: float
    validity: ValidityReport
    timescales: Optional[MeanFieldTimescales] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    persist_dir: Optional[Path] = None
    rounds: Optional[int] = None
    stabilization_rounds: Optional[int] = None

    @property
    def stabilization_parallel_time(self) -> Optional[float]:
        """Stabilization time in parallel-time units, if stabilized."""
        if self.stabilization_interactions is None:
            return None
        return self.stabilization_interactions / self.trace.n


# ----------------------------------------------------------------------
# Validity assessment
# ----------------------------------------------------------------------


def fluctuation_fraction(n: int) -> float:
    """The concentration radius ``√(ln n / n)`` in fraction units."""
    if n < 2:
        return 0.0
    return math.sqrt(math.log(n) / n)


def _assess(
    n: int,
    opinion_fractions: np.ndarray,
    *,
    horizon: float,
    consensus_time: Optional[float],
    neutral_drift: bool = False,
    extra_reasons: Tuple[str, ...] = (),
) -> ValidityReport:
    """Score one spec's surrogate answer against the drift analysis."""
    fluct = fluctuation_fraction(n)
    ordered = np.sort(np.asarray(opinion_fractions, dtype=float))[::-1]
    if ordered.size >= 2:
        gap = float(ordered[0] - ordered[1])
    else:
        gap = float(ordered[0]) if ordered.size else 0.0
    margin = math.inf if fluct == 0.0 else gap / fluct
    coverage = (
        math.inf
        if consensus_time is None or horizon <= 0
        else consensus_time / horizon
    )

    reasons = list(extra_reasons)
    if neutral_drift:
        verdict = ESCALATE
        reasons.append(
            "zero drift: the fluid limit is constant and the stochastic "
            "outcome is a martingale draw the skeleton cannot predict"
        )
    elif margin < _ESCALATE_MARGIN:
        verdict = ESCALATE
        reasons.append(
            f"initial gap {gap:.3g} is below the fluctuation scale "
            f"{fluct:.3g} (margin {margin:.2f} < {_ESCALATE_MARGIN:g}): "
            "noise, not drift, picks the winner"
        )
    elif margin < _TRUST_MARGIN:
        verdict = MARGINAL
        reasons.append(
            f"initial gap sits {margin:.2f} fluctuation radii ahead "
            f"(TRUSTED needs >= {_TRUST_MARGIN:g})"
        )
    else:
        verdict = TRUSTED
        reasons.append(
            f"initial gap dominates the fluctuation scale "
            f"({margin:.2f} radii >= {_TRUST_MARGIN:g})"
        )
    if verdict == TRUSTED and coverage > _HORIZON_COMFORT:
        verdict = MARGINAL
        reasons.append(
            "predicted consensus does not land comfortably within the "
            f"requested horizon (coverage {coverage:.2f} > "
            f"{_HORIZON_COMFORT:g})"
        )
    return ValidityReport(
        verdict=verdict,
        fluctuation_fraction=fluct,
        bias_fraction=gap,
        bias_margin=margin,
        horizon_coverage=coverage,
        reasons=tuple(reasons),
    )


# ----------------------------------------------------------------------
# Packaging helpers
# ----------------------------------------------------------------------


def _half_agent(n: int) -> float:
    """Consensus threshold slack: half an agent, in fraction units."""
    return max(0.5 / n, 1e-12)


def _result_metadata(spec, requested: str, validity: ValidityReport):
    return {
        "engine": "meanfield",
        "protocol": spec.protocol.name,
        "n": spec.n,
        **spec.metadata,
        "spec_hash": spec.spec_hash(),
        "fidelity": {
            "requested": requested,
            "resolved": "surrogate",
            "verdict": validity.verdict,
            "report": validity.as_dict(),
        },
    }


def _fraction_counts(fractions: np.ndarray, n: int) -> np.ndarray:
    """Fraction trajectory → rounded, clipped int64 state counts."""
    return np.rint(np.clip(fractions, 0.0, 1.0) * n).astype(np.int64)


# ----------------------------------------------------------------------
# Per-protocol solvers
# ----------------------------------------------------------------------


def _solve_usd(spec, requested: str) -> SurrogateResult:
    n = spec.n
    k = spec.protocol.k
    counts = np.asarray(spec.canonical_state_counts(), dtype=np.int64)
    y0 = counts / n  # [v, a_1..a_k]
    horizon_t = spec.resolved_horizon() / n
    threshold = 1.0 - _half_agent(n)

    if horizon_t <= 0:
        states = y0[np.newaxis, :]
        times_t = np.zeros(1)
        timescales = None
    else:
        model = USDMeanField(k)
        grid = np.linspace(0.0, horizon_t, _GRID_POINTS)
        solution = model.integrate(y0, horizon_t, t_eval=grid)
        states = np.column_stack([solution.undecided, solution.opinions])
        times_t = solution.times
        timescales = timescales_from_solution(solution)
        if spec.stop_when_stable:
            # mirror the exact engines: the run ends at absorption, so
            # the surrogate trajectory ends at (numerical) consensus
            majority = solution.opinions.max(axis=1)
            hits = np.flatnonzero(majority >= threshold)
            if hits.size:
                end = int(hits[0]) + 1
                states = states[:end]
                times_t = times_t[:end]

    final_fractions = states[-1]
    stabilized = bool(final_fractions[1:].max() >= threshold)
    winner = int(np.argmax(final_fractions[1:])) + 1 if stabilized else None
    counts_traj = _fraction_counts(states, n)
    times = np.maximum.accumulate(np.rint(times_t * n).astype(np.int64))
    interactions = int(times[-1])

    validity = _assess(
        n,
        y0[1:],
        horizon=horizon_t,
        consensus_time=None if timescales is None else timescales.consensus,
    )
    meta = _result_metadata(spec, requested, validity)
    trace = Trace(
        times=times,
        counts=counts_traj,
        n=n,
        state_names=("⊥",) + tuple(f"opinion{i}" for i in range(1, k + 1)),
        protocol_name=spec.protocol.name,
        undecided_index=0,
        metadata=meta,
    )
    return SurrogateResult(
        trace=trace,
        final_counts=counts_traj[-1].copy(),
        interactions=interactions,
        parallel_time=interactions / n,
        stabilized=stabilized,
        stabilization_interactions=interactions if stabilized else None,
        winner=winner,
        engine_name="meanfield",
        wall_seconds=0.0,
        validity=validity,
        timescales=timescales,
        metadata=meta,
    )


def _solve_voter(spec, requested: str) -> SurrogateResult:
    n = spec.n
    k = spec.protocol.k
    counts = np.asarray(spec.canonical_state_counts(), dtype=np.int64)
    horizon = spec.resolved_horizon()

    validity = _assess(
        n,
        counts / n,
        horizon=horizon / n if horizon else 0.0,
        consensus_time=None,
        neutral_drift=True,
    )
    meta = _result_metadata(spec, requested, validity)
    # constant fluid limit: already at consensus, or frozen at the start
    stabilized = bool(counts.max() >= n)
    winner = int(np.argmax(counts)) + 1 if stabilized else None
    length = 1 if horizon <= 0 or stabilized else 2
    end = 0 if stabilized else horizon
    times = np.array([0, end][:length], dtype=np.int64)
    trace = Trace(
        times=times,
        counts=np.tile(counts, (length, 1)),
        n=n,
        state_names=tuple(f"opinion{i}" for i in range(1, k + 1)),
        protocol_name=spec.protocol.name,
        undecided_index=None,
        metadata=meta,
    )
    return SurrogateResult(
        trace=trace,
        final_counts=counts.copy(),
        interactions=int(times[-1]),
        parallel_time=int(times[-1]) / n,
        stabilized=stabilized,
        stabilization_interactions=0 if stabilized else None,
        winner=winner,
        engine_name="meanfield",
        wall_seconds=0.0,
        validity=validity,
        metadata=meta,
    )


def _solve_three_majority(spec, requested: str) -> SurrogateResult:
    from ..gossip.dynamics import three_majority_distribution

    n = spec.n
    k = spec.protocol.k
    counts = np.asarray(spec.canonical_state_counts(), dtype=np.int64)
    max_rounds = spec.resolved_horizon()  # gossip horizons are rounds
    threshold = 1.0 - _half_agent(n)

    p = counts / n
    snapshots = [p]
    cap = min(max_rounds, _MAX_GOSSIP_ROUNDS)
    while len(snapshots) - 1 < cap and float(p.max()) < threshold:
        p = three_majority_distribution(p)
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        snapshots.append(p)
    rounds = len(snapshots) - 1
    truncated = rounds == _MAX_GOSSIP_ROUNDS and cap < max_rounds
    stabilized = bool(float(p.max()) >= threshold)
    consensus_round = float(rounds) if stabilized else None

    extra: Tuple[str, ...] = ()
    if truncated:
        extra = (
            f"round-map iteration truncated at {_MAX_GOSSIP_ROUNDS} of "
            f"{max_rounds} requested rounds without reaching consensus",
        )
    validity = _assess(
        n,
        snapshots[0],
        horizon=float(max_rounds),
        consensus_time=consensus_round,
        extra_reasons=extra,
    )
    meta = _result_metadata(spec, requested, validity)
    counts_traj = _fraction_counts(np.vstack(snapshots), n)
    trace = Trace(
        times=np.arange(len(snapshots), dtype=np.int64),
        counts=counts_traj,
        n=n,
        state_names=tuple(f"opinion{i}" for i in range(1, k + 1)),
        protocol_name=spec.protocol.name,
        undecided_index=None,
        metadata=meta,
    )
    winner = int(np.argmax(counts_traj[-1])) + 1 if stabilized else None
    return SurrogateResult(
        trace=trace,
        final_counts=counts_traj[-1].copy(),
        interactions=rounds * n,
        parallel_time=float(rounds),
        stabilized=stabilized,
        stabilization_interactions=rounds * n if stabilized else None,
        winner=winner,
        engine_name="meanfield",
        wall_seconds=0.0,
        validity=validity,
        metadata=meta,
        rounds=rounds,
        stabilization_rounds=rounds if stabilized else None,
    )


_SOLVERS: Dict[str, Callable[..., SurrogateResult]] = {
    "usd": _solve_usd,
    "voter": _solve_voter,
    "gossip-3-majority": _solve_three_majority,
}

#: Registry protocols the surrogate tier can resolve.
SURROGATE_PROTOCOLS = tuple(sorted(_SOLVERS))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def surrogate_unsupported_reason(spec) -> Optional[str]:
    """Why this spec cannot resolve on the surrogate tier, or ``None``.

    The ``auto`` tier calls this before attempting a surrogate answer:
    an unsupported protocol is an escalation reason, not an error.
    """
    name = spec.protocol.name
    if name not in _SOLVERS:
        return (
            f"protocol {name!r} has no mean-field surrogate; supported "
            f"protocols: {list(SURROGATE_PROTOCOLS)}"
        )
    return None


def untrusted_by_margin(spec) -> Optional[ValidityReport]:
    """The USD verdict that needs no ODE solve, or ``None``.

    The bias margin (initial leader gap over
    :func:`fluctuation_fraction`) is closed-form, and below
    ``_TRUST_MARGIN`` no solve can make the verdict ``TRUSTED``; the
    ``auto`` tier then escalates without integrating.  The report has
    no horizon coverage (``inf``).  ``None`` when the solve decides: a
    margin that allows ``TRUSTED``, or a protocol other than ``usd``.
    """
    if spec.protocol.name != "usd":
        return None
    counts = np.asarray(spec.canonical_state_counts(), dtype=np.int64)
    report = _assess(spec.n, counts[1:] / spec.n, horizon=0.0, consensus_time=None)
    return None if report.bias_margin >= _TRUST_MARGIN else report


def resolve_surrogate(spec, *, requested: str = "surrogate") -> SurrogateResult:
    """Resolve a RunSpec on the mean-field surrogate tier.

    Raises :class:`~repro.errors.SimulationError` when the spec's
    protocol has no surrogate — ``fidelity='surrogate'`` fails loudly;
    the graceful fallback lives in the ``auto`` tier.  ``requested``
    records which fidelity the caller asked for in the result metadata.
    """
    reason = surrogate_unsupported_reason(spec)
    if reason is not None:
        raise SimulationError(
            f"fidelity 'surrogate' cannot resolve this spec: {reason}"
        )
    with wall_timer() as timer:
        result = _SOLVERS[spec.protocol.name](spec, requested)
    result = replace(result, wall_seconds=timer.seconds)
    verdict = result.validity.verdict
    obs_metrics.REGISTRY.inc("surrogate_verdicts_total", verdict=verdict)
    obs_runtime.emit(
        "fidelity.resolve",
        protocol=spec.protocol.name,
        requested=requested,
        verdict=verdict,
        seconds=result.wall_seconds,
    )
    return result
