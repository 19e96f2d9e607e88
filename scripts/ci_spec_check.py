"""CI helper for the ``specs`` leg: scenario validation + bit-identity.

Modes
-----
``validate [DIR]``
    Load and validate every ``*.json`` scenario under DIR (default:
    ``examples/scenarios/``), print each kind and spec hash, and fail
    on the first invalid document or if the directory holds none.
``bitidentity``
    The acceptance contract of the spec layer: a keyword
    ``simulate(...)`` call and ``run_spec(spec)`` of the equivalent
    :class:`repro.specs.RunSpec` must produce bit-identical
    ``RunResult``s — same trace arrays (values *and* dtypes), same
    final counts, same scalar outcome, same metadata (including the
    shared ``spec_hash``).  Also re-checks the JSON round-trip and the
    key-order invariance of the hash on the way.  Checked on both
    opinion layouts in both models: ⊥ first (``usd``, ``gossip-usd``)
    and opinions only (``voter``, ``gossip-voter``,
    ``gossip-3-majority``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro import Configuration, UndecidedStateDynamics, VoterModel, simulate
from repro.gossip import GossipThreeMajority, GossipUSD, GossipVoter
from repro.specs import (
    InitialSpec,
    ProtocolSpec,
    RunSpec,
    load_spec_file,
    run_spec,
)


def check_validate(directory: Path) -> int:
    scenarios = sorted(directory.glob("*.json"))
    if not scenarios:
        print(f"no scenario files found under {directory}", file=sys.stderr)
        return 1
    for path in scenarios:
        spec = load_spec_file(path)  # raises SpecError on any schema problem
        payload = spec.to_dict()
        print(f"{path.name}: {payload['kind']} spec, hash {spec.spec_hash()}")
    print(f"{len(scenarios)} scenario files valid")
    return 0


def _assert(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _check_keyword_matches_spec(protocol, name: str, horizon: float) -> None:
    n, k, bias, seed = 1500, 3, 90, 11
    initial = Configuration.equal_minorities_with_bias(n=n, k=k, bias=bias)
    keyword = simulate(
        protocol, initial, seed=seed, max_parallel_time=horizon
    )

    spec = RunSpec(
        protocol=ProtocolSpec(name=name, k=k),
        initial=InitialSpec(
            kind="equal-minorities", n=n, params={"bias": bias}
        ),
        seed=seed,
        max_parallel_time=horizon,
    )
    # ... and through an on-disk JSON round trip, like a scenario file
    document = json.loads(json.dumps(spec.to_dict()))
    roundtripped = RunSpec.from_dict(document)
    _assert(roundtripped == spec, "JSON round-trip changed the spec")
    shuffled = RunSpec.from_dict(
        {key: document[key] for key in reversed(list(document))}
    )
    _assert(
        shuffled.spec_hash() == spec.spec_hash(),
        "spec_hash depends on dict key order",
    )

    declarative = run_spec(roundtripped)
    _assert(
        keyword.metadata.get("spec_hash") == spec.spec_hash(),
        "keyword simulate did not normalise to the same spec_hash",
    )
    for field in (
        "interactions",
        "parallel_time",
        "stabilized",
        "stabilization_interactions",
        "winner",
        "engine_name",
    ):
        _assert(
            getattr(keyword, field) == getattr(declarative, field),
            f"keyword simulate vs run_spec disagree on {field}",
        )
    _assert(
        keyword.metadata == declarative.metadata,
        "keyword simulate vs run_spec disagree on metadata",
    )
    for keyword_array, declarative_array, field in (
        (keyword.final_counts, declarative.final_counts, "final_counts"),
        (keyword.trace.times, declarative.trace.times, "trace.times"),
        (keyword.trace.counts, declarative.trace.counts, "trace.counts"),
    ):
        _assert(
            keyword_array.dtype == declarative_array.dtype,
            f"{field} dtypes differ",
        )
        _assert(
            np.array_equal(keyword_array, declarative_array),
            f"{field} values differ",
        )
    print(
        f"{name}: keyword simulate and run_spec are bit-identical "
        f"(spec_hash {spec.spec_hash()[:16]}…, "
        f"{keyword.interactions} interactions, winner {keyword.winner})"
    )


def check_bitidentity() -> int:
    _check_keyword_matches_spec(UndecidedStateDynamics(k=3), "usd", 1500.0)
    _check_keyword_matches_spec(VoterModel(k=3), "voter", 1500.0)
    _check_keyword_matches_spec(GossipUSD(k=3), "gossip-usd", 300.0)
    _check_keyword_matches_spec(GossipVoter(k=3), "gossip-voter", 300.0)
    _check_keyword_matches_spec(GossipThreeMajority(k=3), "gossip-3-majority", 300.0)
    return 0


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in ("validate", "bitidentity"):
        print(__doc__, file=sys.stderr)
        return 2
    if sys.argv[1] == "validate":
        directory = Path(
            sys.argv[2] if len(sys.argv) > 2 else "examples/scenarios"
        )
        return check_validate(directory)
    return check_bitidentity()


if __name__ == "__main__":
    sys.exit(main())
