"""Property tests for the spec layer (hypothesis).

The two round-trip invariants the ISSUE pins down:

* ``from_dict(to_dict(spec))`` is the identity, for randomly generated
  valid specs of every kind;
* ``spec_hash`` is invariant under arbitrary reordering of the
  document's dict keys (at every nesting level).
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.run import ENGINE_NAMES
from repro.specs import (
    EnsembleSpec,
    InitialSpec,
    ProtocolSpec,
    RecordingSpec,
    RunSpec,
    SweepSpec,
    load_spec,
)

# population protocols that accept any k >= 2 and an opinion-level
# Configuration without extra constraints
PROTOCOL_NAMES = st.sampled_from(["usd", "voter", "hysteresis"])


@st.composite
def run_specs(draw) -> RunSpec:
    name = draw(PROTOCOL_NAMES)
    k = draw(st.integers(min_value=2, max_value=6))
    params = {"r": draw(st.integers(1, 3))} if name == "hysteresis" else {}
    n = draw(st.integers(min_value=k * 10, max_value=5000))
    kind = draw(st.sampled_from(["uniform", "equal-minorities", "zipf"]))
    if kind == "equal-minorities":
        initial_params = {"bias": draw(st.integers(0, max(0, n - k)))}
    elif kind == "zipf":
        initial_params = {
            "exponent": draw(
                st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)
            )
        }
    else:
        initial_params = {}
    if draw(st.booleans()):
        horizon = {"max_interactions": draw(st.integers(0, 10**9))}
    else:
        horizon = {
            "max_parallel_time": draw(
                st.floats(
                    0.0, 1e6, allow_nan=False, allow_infinity=False
                )
            )
        }
    persist = draw(st.booleans())
    recording = RecordingSpec(
        snapshot_every=draw(
            st.one_of(st.none(), st.integers(1, 10_000))
        ),
        persist_to="runs/property" if persist else None,
        persist_chunk_snapshots=(
            draw(st.one_of(st.none(), st.integers(1, 512))) if persist else None
        ),
        persist_window=(
            draw(st.one_of(st.none(), st.integers(1, 128))) if persist else None
        ),
    )
    return RunSpec(
        protocol=ProtocolSpec(name=name, k=k, params=params),
        initial=InitialSpec(kind=kind, n=n, params=initial_params),
        engine=draw(st.sampled_from(ENGINE_NAMES)),
        backend=draw(st.sampled_from([None, "numpy", "numba"])),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**63 - 1))),
        stop_when_stable=True,
        recording=recording,
        metadata=draw(
            st.dictionaries(
                st.text(min_size=1, max_size=8),
                st.one_of(
                    st.integers(-1000, 1000), st.text(max_size=12), st.booleans()
                ),
                max_size=3,
            )
        ),
        **horizon,
    )


@st.composite
def any_specs(draw):
    spec = draw(run_specs())
    shape = draw(st.sampled_from(["run", "ensemble", "sweep"]))
    if shape == "run":
        return spec
    template = spec.with_seed(None)
    if shape == "ensemble":
        return EnsembleSpec(
            run=template,
            num_runs=draw(st.integers(1, 8)),
            root_seed=draw(st.integers(0, 2**63 - 1)),
        )
    # axis n values must stay buildable for the template's initial:
    # equal-minorities needs n >= bias + k at every grid point
    minimum_n = max(
        template.protocol.k * 10,
        int(template.initial.params.get("bias", 0)) + template.protocol.k,
    )
    axis_values = draw(
        st.lists(
            st.integers(minimum_n, max(minimum_n, 5000)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return SweepSpec(
        sweep_id="property-sweep",
        base=template,
        axes={"initial.n": axis_values},
        root_seed=draw(st.integers(0, 2**63 - 1)),
    )


def _shuffle_keys(value, rng):
    """Recursively reorder every dict's keys (JSON-order adversary)."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _shuffle_keys(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [_shuffle_keys(item, rng) for item in value]
    return value


@settings(max_examples=60, deadline=None)
@given(any_specs())
def test_dict_round_trip_is_identity(spec):
    payload = spec.to_dict()
    assert type(spec).from_dict(payload) == spec
    # through JSON text, like a scenario file on disk
    assert load_spec(json.loads(json.dumps(payload))) == spec


@settings(max_examples=60, deadline=None)
@given(any_specs(), st.randoms(use_true_random=False))
def test_spec_hash_invariant_under_key_order(spec, rng):
    payload = spec.to_dict()
    shuffled = _shuffle_keys(payload, rng)
    reloaded = load_spec(shuffled)
    assert reloaded == spec
    assert reloaded.spec_hash() == spec.spec_hash()


@settings(max_examples=60, deadline=None)
@given(any_specs())
def test_specs_hash_consistently(spec):
    clone = type(spec).from_dict(spec.to_dict())
    assert hash(clone) == hash(spec)
    assert len({clone, spec}) == 1
