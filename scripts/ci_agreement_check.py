"""CI helper for the ``agreement`` leg: surrogate vs exact engines.

The adaptive-fidelity contract says a TRUSTED surrogate verdict is an
*answer*, not an estimate — so CI holds it to that: every shipped
scenario (``examples/scenarios/*.json``) is downscaled to smoke size,
resolved on the surrogate tier, and wherever the verdict is TRUSTED
the same spec is re-run as a small exact-engine seed ensemble.  The
surrogate's undecided-count curve must sit inside the concentration
envelope (``ENVELOPE_RADII``·√(n ln n)) of every member over the
pre-collapse window, and its consensus time must agree with the
ensemble median to within a factor of two.

The leg also asserts the *spread* of the tier: at least one scenario
point must come out TRUSTED (the fast path exists) and at least one
must come out ESCALATE (the guard rail trips) — a validity model that
trusts everything, or nothing, fails the push.

Last, the fast path must stay fast: after one warm-up call, a k = 3
spec with bias 4·√(n ln n) must resolve TRUSTED on the mean-field
surrogate, reach consensus, and answer in under a second at
n ∈ {10⁵, 10⁶, 10⁸}.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.meanfield import (
    ESCALATE,
    TRUSTED,
    resolve_surrogate,
    surrogate_unsupported_reason,
)
from repro.specs import (
    EnsembleSpec,
    ExperimentSpec,
    InitialSpec,
    ProtocolSpec,
    RunSpec,
    SweepSpec,
    load_spec_file,
    run_spec,
)

#: Scenarios are smoke-tested: populations above this are capped (any
#: explicit bias scales along, preserving the bias/n ratio).
N_CAP = 20_000
#: Exact ensemble size per TRUSTED point.
MEMBERS = 5
ROOT_SEED = 1789
#: Agreement tolerance in units of √(n ln n) — generous multiples of
#: the paper's concentration scale, not a curve fit.
ENVELOPE_RADII = 5.0
#: Compare trajectories only before the earliest member starts its
#: final collapse (absorption is a step the smooth ODE rounds off).
HORIZON_FRACTION = 0.8
#: Surrogate consensus time vs ensemble median stabilization time.
RATIO_RANGE = (0.5, 2.0)
#: A warm TRUSTED surrogate resolve must stay under RESOLVE_SECONDS at
#: every one of these populations, far from engine timescales.
RESOLVE_POPULATIONS = (100_000, 1_000_000, 100_000_000)
RESOLVE_SECONDS = 1.0


def _assert(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _downscaled(spec: RunSpec) -> RunSpec:
    """Smoke-size the template: cap n, strip persistence, free the seed."""
    payload = spec.to_dict()
    if spec.n > N_CAP:
        bias = payload["initial"]["params"].get("bias")
        if bias is not None:
            payload["initial"]["params"]["bias"] = max(
                1, int(bias * N_CAP / spec.n)
            )
        payload["initial"]["n"] = N_CAP
    payload["recording"]["persist_to"] = None
    payload["recording"]["persist_chunk_snapshots"] = None
    payload["recording"]["persist_window"] = None
    payload["seed"] = None  # member seeds derive from ROOT_SEED
    payload["fidelity"] = "exact"  # the tiers are exercised explicitly
    return RunSpec.from_dict(payload)


def _templates(path: Path):
    """``(label, RunSpec)`` single-run templates of one scenario file."""
    spec_obj = load_spec_file(path)
    if isinstance(spec_obj, RunSpec):
        return [(path.name, spec_obj)]
    if isinstance(spec_obj, EnsembleSpec):
        return [(f"{path.name}[run]", spec_obj.run)]
    if isinstance(spec_obj, SweepSpec):
        return [
            (
                path.name
                + "["
                + ", ".join(f"{k}={v}" for k, v in sorted(assignment.items()))
                + "]",
                point,
            )
            for assignment, point in spec_obj.point_specs()
        ]
    if isinstance(spec_obj, ExperimentSpec):
        print(f"{path.name}: registry experiment, no run template (skipped)")
        return []
    raise AssertionError(f"unknown spec kind in {path}")


def _check_agreement(label: str, spec: RunSpec, surrogate) -> None:
    """Exact 5-member ensemble vs the TRUSTED surrogate trajectory."""
    n = spec.n
    tolerance = ENVELOPE_RADII * math.sqrt(n * math.log(n))
    surrogate_times = surrogate.trace.parallel_times.astype(float)
    surrogate_undecided = surrogate.trace.undecided_series().astype(float)
    surrogate_consensus = surrogate.stabilization_parallel_time
    _assert(
        surrogate.stabilized and surrogate_consensus is not None,
        f"{label}: TRUSTED surrogate did not reach consensus",
    )

    ensemble = EnsembleSpec(
        run=spec.with_fidelity("exact"),
        num_runs=MEMBERS,
        root_seed=ROOT_SEED,
    )
    members = [run_spec(member) for member in ensemble.member_specs()]
    stab_times = []
    for i, member in enumerate(members):
        _assert(
            member.stabilized,
            f"{label}: exact member {i} did not stabilize inside the "
            "scenario horizon",
        )
        stab_times.append(member.stabilization_interactions / n)

    cutoff = HORIZON_FRACTION * min(stab_times)
    window = surrogate_times <= cutoff
    _assert(
        int(window.sum()) >= 2,
        f"{label}: comparison window is empty (cutoff {cutoff:.2f})",
    )
    worst = 0.0
    for i, member in enumerate(members):
        member_undecided = np.interp(
            surrogate_times[window],
            member.trace.parallel_times.astype(float),
            member.trace.undecided_series().astype(float),
        )
        deviation = float(
            np.abs(member_undecided - surrogate_undecided[window]).max()
        )
        worst = max(worst, deviation)
        _assert(
            deviation <= tolerance,
            f"{label}: member {i} leaves the surrogate envelope "
            f"(max |Δu| = {deviation:.0f} agents > "
            f"{ENVELOPE_RADII:g}·√(n ln n) = {tolerance:.0f})",
        )

    median_stab = float(np.median(stab_times))
    ratio = surrogate_consensus / median_stab
    low, high = RATIO_RANGE
    _assert(
        low <= ratio <= high,
        f"{label}: surrogate consensus time {surrogate_consensus:.2f} vs "
        f"ensemble median {median_stab:.2f} (ratio {ratio:.2f} outside "
        f"[{low}, {high}])",
    )
    print(
        f"  agreement ok: max |Δu| {worst:.0f} agents "
        f"(envelope {tolerance:.0f}), consensus ratio {ratio:.2f}"
    )


def _trusted_spec(n: int) -> RunSpec:
    """k = 3 with bias 4·√(n ln n): a top-two gap of ≈ 4 fluctuation
    radii, past the TRUSTED threshold (3) at every population."""
    bias = 4 * math.ceil(math.sqrt(n * math.log(n)))
    return RunSpec(
        protocol=ProtocolSpec(name="usd", k=3),
        initial=InitialSpec(kind="equal-minorities", n=n, params={"bias": bias}),
        seed=7,
        max_parallel_time=500.0,
        fidelity="surrogate",
    )


def _check_resolve_latency() -> None:
    """A TRUSTED surrogate answer costs milliseconds, whatever n is."""
    run_spec(_trusted_spec(RESOLVE_POPULATIONS[0]))  # warm scipy's integrator
    for n in RESOLVE_POPULATIONS:
        started = time.perf_counter()
        result = run_spec(_trusted_spec(n))
        seconds = time.perf_counter() - started
        verdict = result.metadata["fidelity"]["verdict"]
        _assert(verdict == TRUSTED, f"n={n}: resolved {verdict}, not TRUSTED")
        engine = result.metadata["engine"]
        _assert(engine == "meanfield", f"n={n}: answered by {engine}")
        _assert(result.stabilized, f"n={n}: the surrogate reached no consensus")
        _assert(
            seconds < RESOLVE_SECONDS,
            f"n={n}: surrogate resolve took {seconds:.2f} s "
            f"(must be < {RESOLVE_SECONDS:g} s)",
        )
        print(f"n={n:,}: TRUSTED surrogate resolve in {seconds * 1e3:.0f} ms")


def main() -> int:
    directory = Path(
        sys.argv[1] if len(sys.argv) > 1 else "examples/scenarios"
    )
    scenarios = sorted(directory.glob("*.json"))
    _assert(bool(scenarios), f"no scenario files under {directory}")

    verdicts = {}
    for path in scenarios:
        for label, template in _templates(path):
            spec = _downscaled(template)
            reason = surrogate_unsupported_reason(spec)
            if reason is not None:
                print(f"{label}: surrogate unsupported ({reason})")
                continue
            surrogate = resolve_surrogate(spec)
            verdict = surrogate.validity.verdict
            verdicts[label] = verdict
            print(
                f"{label}: {verdict} "
                f"(bias margin {surrogate.validity.bias_margin:.2f})"
            )
            if verdict == TRUSTED:
                _check_agreement(label, spec, surrogate)

    trusted = sum(1 for v in verdicts.values() if v == TRUSTED)
    escalated = sum(1 for v in verdicts.values() if v == ESCALATE)
    print(
        f"{len(verdicts)} surrogate-resolvable points: "
        f"{trusted} TRUSTED, {escalated} ESCALATE"
    )
    _assert(
        trusted >= 1,
        "no scenario point came out TRUSTED — the fast path never fires",
    )
    _assert(
        escalated >= 1,
        "no scenario point came out ESCALATE — the guard rail never trips",
    )
    _check_resolve_latency()
    return 0


if __name__ == "__main__":
    sys.exit(main())
