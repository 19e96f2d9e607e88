"""The declarative run-configuration model.

One frozen, validated, hashable object family describes *everything* a
run needs: :class:`ProtocolSpec` (which dynamics), :class:`InitialSpec`
(which starting configuration), :class:`RecordingSpec` (cadence,
spill-to-disk persistence) and :class:`RunSpec` (the whole
run: protocol + initial + engine + seed + horizon + recording).
Every spec

* is a frozen dataclass — construction *is* validation;
* round-trips exactly through ``to_dict``/``from_dict`` and JSON;
* carries a versioned schema (:data:`SCHEMA_VERSION`);
* hashes canonically: :meth:`RunSpec.spec_hash` covers the
  result-determining fields in *resolved* form (protocol, canonical
  initial state counts, resolved engine, seed, horizon in interactions,
  snapshot cadence, stop mode) and deliberately excludes pure
  placement and provenance keys (persist paths, free-form metadata,
  the schema-v1 ``backend`` key) — so the same logical run hashes
  equal across machines and persistence layouts.

The keyword form of :func:`repro.core.run.simulate` normalises into a
:class:`RunSpec` whenever its arguments are declarative (registered
protocol, integer seed, no callable stop predicate), which is how the
persistence manifests acquire a ``spec_hash`` without any caller
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.configuration import Configuration
from ..core.run import ENGINE_NAMES, resolve_engine_name
from ..errors import ReproError, SpecError
from ..obs.config import ObsConfig
from .hashing import canonicalize, content_hash

__all__ = [
    "SCHEMA_VERSION",
    "FIDELITY_NAMES",
    "ProtocolSpec",
    "InitialSpec",
    "RecordingSpec",
    "RunSpec",
]

#: Version of the spec schema; bumped on incompatible field changes.
#: ``from_dict`` accepts documents up to this version and rejects newer
#: ones, mirroring the streamed-trace manifest convention.
SCHEMA_VERSION = 1

#: Fidelity tiers :class:`RunSpec` accepts.  ``'exact'`` runs the real
#: engines, ``'surrogate'`` the mean-field fluid limit, ``'auto'``
#: answers from the surrogate only when its validity verdict is TRUSTED
#: and escalates to exact otherwise.  Fidelity is a *resolution* knob,
#: excluded from :meth:`RunSpec.spec_hash`.
FIDELITY_NAMES = ("exact", "surrogate", "auto")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _check_unknown(payload: Mapping[str, Any], known: Tuple[str, ...], what: str):
    unknown = set(payload) - set(known)
    if unknown:
        raise SpecError(
            f"{what} has unknown keys {sorted(unknown)}; valid keys are "
            f"{sorted(known)}"
        )


def _as_params(value: Optional[Mapping[str, Any]], what: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise SpecError(f"{what} must be a mapping, got {type(value).__name__}")
    return canonicalize(dict(value))


def _opt_int(value: Any, what: str) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SpecError(f"{what} must be an integer or null, got {value!r}")
    return int(value)


# ----------------------------------------------------------------------
# ProtocolSpec
# ----------------------------------------------------------------------


class _ProtocolEntry:
    """One registered protocol: class, model family, builder, defaults.

    A single table per protocol — the class (for normalising live
    objects and deriving aliases from ``cls.name``), the model family
    (``'population'`` runs on the asynchronous engines, ``'gossip'`` on
    the synchronous gossip engine, both through ``simulate``),
    the builder, canonical parameter defaults (folded into every
    ``ProtocolSpec`` so differently-written specs of the same protocol
    hash identically), and how to read params back off a live object.
    """

    __slots__ = ("cls", "model", "builder", "param_defaults", "extract_params")

    def __init__(self, cls, model, builder, param_defaults=None, extract=None):
        self.cls = cls
        self.model = model
        self.builder = builder
        self.param_defaults = dict(param_defaults or {})
        self.extract_params = extract or (lambda protocol: {})


_REGISTRY: Optional[Dict[str, _ProtocolEntry]] = None


def _load_registry() -> Dict[str, _ProtocolEntry]:
    # protocol/gossip imports happen here, on first spec construction,
    # so the specs package never participates in an import cycle
    from ..gossip.dynamics import GossipThreeMajority, GossipUSD, GossipVoter
    from ..protocols import (
        FourStateExactMajority,
        HysteresisUSD,
        UndecidedStateDynamics,
        VoterModel,
    )

    def k_only(cls):
        def build(k: int, params: Dict[str, Any]):
            _check_unknown(params, (), f"protocol {cls.name!r} params")
            return cls(k=k)

        return build

    def four_state(k: int, params: Dict[str, Any]):
        _check_unknown(params, (), "protocol 'four-state' params")
        _require(
            k == 2, f"protocol 'four-state' is defined for k = 2, got k={k}"
        )
        return FourStateExactMajority()

    def hysteresis(k: int, params: Dict[str, Any]):
        _check_unknown(params, ("r",), "protocol 'hysteresis' params")
        r = _opt_int(params.get("r", 2), "hysteresis confidence levels 'r'")
        return HysteresisUSD(k=k, r=r)

    return {
        "usd": _ProtocolEntry(
            UndecidedStateDynamics, "population", k_only(UndecidedStateDynamics)
        ),
        "voter": _ProtocolEntry(VoterModel, "population", k_only(VoterModel)),
        "four-state": _ProtocolEntry(
            FourStateExactMajority, "population", four_state
        ),
        "hysteresis": _ProtocolEntry(
            HysteresisUSD,
            "population",
            hysteresis,
            # the default depth is part of the canonical params, so
            # {"params": {}} and {"params": {"r": 2}} hash identically
            param_defaults={"r": 2},
            extract=lambda protocol: {"r": int(protocol.r)},
        ),
        "gossip-usd": _ProtocolEntry(GossipUSD, "gossip", k_only(GossipUSD)),
        "gossip-voter": _ProtocolEntry(
            GossipVoter, "gossip", k_only(GossipVoter)
        ),
        "gossip-3-majority": _ProtocolEntry(
            GossipThreeMajority, "gossip", k_only(GossipThreeMajority)
        ),
    }


def _registry() -> Dict[str, _ProtocolEntry]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _load_registry()
    return _REGISTRY


def _aliases() -> Dict[str, str]:
    """Registry keys plus each class's own ``name`` attribute."""
    aliases = {}
    for key, entry in _registry().items():
        aliases[key] = key
        aliases[str(entry.cls.name)] = key
    return aliases


@dataclass(frozen=True)
class ProtocolSpec:
    """Which dynamics to run: a registry name, ``k``, and free params.

    ``name`` is one of ``'usd'``, ``'voter'``, ``'four-state'``,
    ``'hysteresis'`` (population protocols) or ``'gossip-usd'``,
    ``'gossip-voter'``, ``'gossip-3-majority'`` (synchronous Gossip
    dynamics); the protocol classes' own long names are accepted as
    aliases and normalised.  ``params`` carries protocol-specific knobs
    (currently only ``hysteresis``'s confidence depth ``r``).
    """

    name: str
    k: int
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        aliases = _aliases()
        _require(
            self.name in aliases,
            f"unknown protocol {self.name!r}; known protocols: "
            f"{sorted(_registry())}",
        )
        name = aliases[self.name]
        object.__setattr__(self, "name", name)
        k = _opt_int(self.k, "protocol k")
        _require(
            k is not None and k >= 1,
            f"protocol k must be a positive integer, got {self.k!r}",
        )
        object.__setattr__(self, "k", k)
        params = _as_params(self.params, "protocol params")
        # fold canonical defaults in, so two documents that differ only
        # in spelling out a default hash (and resume) identically
        params = {**_registry()[name].param_defaults, **params}
        object.__setattr__(self, "params", params)
        self.build()  # constructing the protocol validates k/params now

    @property
    def model(self) -> str:
        """``'population'`` or ``'gossip'``."""
        return _registry()[self.name].model

    def build(self):
        """Instantiate the protocol/dynamics object this spec names."""
        entry = _registry()[self.name]
        return entry.builder(self.k, self.params)

    @classmethod
    def from_protocol(cls, protocol: Any) -> Optional["ProtocolSpec"]:
        """Normalise a live protocol object, or ``None`` if unregistered.

        Only exact registered classes normalise — a user-defined
        subclass may change the dynamics, so it must not silently hash
        like its parent.
        """
        for name, entry in _registry().items():
            if type(protocol) is entry.cls:
                return cls(
                    name=name,
                    k=_protocol_k(protocol),
                    params=entry.extract_params(protocol),
                )
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "k": self.k, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProtocolSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"protocol spec must be an object, got {type(payload).__name__}"
            )
        _check_unknown(payload, ("name", "k", "params"), "protocol spec")
        _require(
            "name" in payload and "k" in payload,
            "protocol spec needs 'name' and 'k'",
        )
        return cls(
            name=str(payload["name"]),
            k=payload["k"],
            params=_as_params(payload.get("params"), "protocol params"),
        )

    def __hash__(self) -> int:
        return hash(content_hash(self.to_dict()))


def _protocol_k(protocol: Any) -> int:
    k = getattr(protocol, "k", None)
    if k is None:  # four-state: binary by construction
        return 2
    return int(k)


# ----------------------------------------------------------------------
# InitialSpec
# ----------------------------------------------------------------------


def _initial_explicit(n: int, k: int, params: Dict[str, Any]):
    _check_unknown(params, ("opinion_counts", "undecided"), "'explicit' params")
    _require(
        "opinion_counts" in params, "'explicit' initial needs 'opinion_counts'"
    )
    config = Configuration(
        np.asarray(params["opinion_counts"], dtype=np.int64),
        undecided=int(params.get("undecided", 0)),
    )
    _require(
        config.n == n,
        f"explicit counts sum to {config.n}, spec says n={n}",
    )
    _require(config.k == k, f"explicit counts have k={config.k}, protocol k={k}")
    return config


def _initial_state_counts(n: int, k: int, params: Dict[str, Any]):
    _check_unknown(params, ("counts",), "'state-counts' params")
    _require("counts" in params, "'state-counts' initial needs 'counts'")
    counts = np.asarray(params["counts"], dtype=np.int64)
    _require(
        int(counts.sum()) == n,
        f"state counts sum to {int(counts.sum())}, spec says n={n}",
    )
    return counts


def _initial_uniform(n: int, k: int, params: Dict[str, Any]):
    _check_unknown(params, (), "'uniform' params")
    return Configuration.uniform(n, k)


def _initial_equal_minorities(n: int, k: int, params: Dict[str, Any]):
    _check_unknown(params, ("bias",), "'equal-minorities' params")
    _require("bias" in params, "'equal-minorities' initial needs 'bias'")
    return Configuration.equal_minorities_with_bias(n, k, int(params["bias"]))


def _initial_paper(n: int, k: int, params: Dict[str, Any]):
    from ..workloads.initial import paper_initial_configuration

    _check_unknown(params, ("bias",), "'paper' params")
    bias = params.get("bias")
    return paper_initial_configuration(n, k, None if bias is None else int(bias))


def _initial_plateau(n: int, k: int, params: Dict[str, Any]):
    from ..workloads.initial import plateau_configuration

    _check_unknown(params, ("target_opinion_support",), "'plateau' params")
    target = params.get("target_opinion_support")
    return plateau_configuration(
        n, k, target_opinion_support=None if target is None else int(target)
    )


def _initial_plateau_gap(n: int, k: int, params: Dict[str, Any]):
    from ..workloads.initial import plateau_gap_configuration

    _check_unknown(params, ("gap",), "'plateau-gap' params")
    _require("gap" in params, "'plateau-gap' initial needs 'gap'")
    return plateau_gap_configuration(n, k, int(params["gap"]))


def _initial_multinomial(n: int, k: int, params: Dict[str, Any]):
    from ..workloads.initial import random_multinomial_configuration

    _check_unknown(params, ("seed",), "'multinomial' params")
    _require(
        isinstance(params.get("seed"), int),
        "'multinomial' initial needs an integer 'seed' (specs must be "
        "reproducible, so the draw cannot be left to ambient randomness)",
    )
    return random_multinomial_configuration(n, k, seed=int(params["seed"]))


def _initial_zipf(n: int, k: int, params: Dict[str, Any]):
    from ..workloads.initial import zipf_configuration

    _check_unknown(params, ("exponent",), "'zipf' params")
    return zipf_configuration(n, k, float(params.get("exponent", 1.0)))


def _initial_two_block(n: int, k: int, params: Dict[str, Any]):
    from ..workloads.initial import two_block_configuration

    _check_unknown(params, ("heavy_opinions",), "'two-block' params")
    return two_block_configuration(n, k, int(params.get("heavy_opinions", 2)))


_INITIAL_KINDS: Dict[str, Callable[[int, int, Dict[str, Any]], Any]] = {
    "explicit": _initial_explicit,
    "state-counts": _initial_state_counts,
    "uniform": _initial_uniform,
    "equal-minorities": _initial_equal_minorities,
    "paper": _initial_paper,
    "plateau": _initial_plateau,
    "plateau-gap": _initial_plateau_gap,
    "multinomial": _initial_multinomial,
    "zipf": _initial_zipf,
    "two-block": _initial_two_block,
}


@dataclass(frozen=True)
class InitialSpec:
    """Which starting configuration: a generator kind, ``n``, and params.

    Kinds mirror :mod:`repro.workloads.initial` plus two literal forms:
    ``'explicit'`` (opinion counts + undecided) and ``'state-counts'``
    (a raw engine-layout count vector).  Two differently-described
    initials that produce the same state counts are the *same* workload
    — canonicalisation (and therefore :meth:`RunSpec.spec_hash`)
    resolves the generator down to its counts.
    """

    kind: str
    n: int
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            self.kind in _INITIAL_KINDS,
            f"unknown initial kind {self.kind!r}; known kinds: "
            f"{sorted(_INITIAL_KINDS)}",
        )
        n = _opt_int(self.n, "initial n")
        _require(
            n is not None and n >= 1,
            f"initial n must be a positive integer, got {self.n!r}",
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "params", _as_params(self.params, "initial params")
        )

    def build(self, k: int) -> Union[Configuration, np.ndarray]:
        """Materialise the initial condition for a ``k``-opinion protocol."""
        return _INITIAL_KINDS[self.kind](self.n, k, self.params)

    @classmethod
    def from_configuration(cls, config: Configuration) -> "InitialSpec":
        """The explicit form of a live :class:`Configuration`."""
        return cls(
            kind="explicit",
            n=config.n,
            params={
                "opinion_counts": [int(c) for c in config.opinion_counts],
                "undecided": int(config.undecided),
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "n": self.n, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InitialSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"initial spec must be an object, got {type(payload).__name__}"
            )
        _check_unknown(payload, ("kind", "n", "params"), "initial spec")
        _require(
            "kind" in payload and "n" in payload,
            "initial spec needs 'kind' and 'n'",
        )
        return cls(
            kind=str(payload["kind"]),
            n=payload["n"],
            params=_as_params(payload.get("params"), "initial params"),
        )

    def __hash__(self) -> int:
        return hash(content_hash(self.to_dict()))


# ----------------------------------------------------------------------
# RecordingSpec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecordingSpec:
    """How the trajectory is recorded: cadence and persistence.

    ``snapshot_every`` is the recording / stop-check cadence in
    interactions (``None`` = the engine default of half a parallel
    round).  ``persist_to`` streams chunks to a run directory
    (spill-to-disk, written on the simulation thread), with
    ``persist_chunk_snapshots`` / ``persist_window`` bounding memory.
    The persistence tuning knobs are only meaningful with a persistence
    target: setting either without ``persist_to`` raises (they would
    otherwise be silently ignored).

    Schema-v1 documents may carry a ``record_async`` key from when a
    worker-thread recorder existed; :meth:`from_dict` accepts and
    ignores it, and :meth:`to_dict` still writes ``false`` so embedded
    documents (result documents, sweep checkpoint ``meta``) stay
    byte-identical.
    """

    snapshot_every: Optional[int] = None
    persist_to: Optional[str] = None
    persist_chunk_snapshots: Optional[int] = None
    persist_window: Optional[int] = None

    def __post_init__(self) -> None:
        snap = _opt_int(self.snapshot_every, "snapshot_every")
        object.__setattr__(self, "snapshot_every", snap)
        _require(
            snap is None or snap >= 1,
            f"snapshot_every must be >= 1, got {snap}",
        )
        if self.persist_to is not None:
            object.__setattr__(self, "persist_to", str(self.persist_to))
        chunk = _opt_int(self.persist_chunk_snapshots, "persist_chunk_snapshots")
        window = _opt_int(self.persist_window, "persist_window")
        object.__setattr__(self, "persist_chunk_snapshots", chunk)
        object.__setattr__(self, "persist_window", window)
        _require(
            chunk is None or chunk >= 1,
            f"persist_chunk_snapshots must be >= 1, got {chunk}",
        )
        _require(
            window is None or window >= 1,
            f"persist_window must be >= 1, got {window}",
        )
        if self.persist_to is None and (chunk is not None or window is not None):
            raise SpecError(
                "persist_chunk_snapshots/persist_window tune the spill-to-disk "
                "stream and require persist_to; without a persistence target "
                "they would be silently ignored"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_every": self.snapshot_every,
            "record_async": False,
            "persist_to": self.persist_to,
            "persist_chunk_snapshots": self.persist_chunk_snapshots,
            "persist_window": self.persist_window,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RecordingSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"recording spec must be an object, got {type(payload).__name__}"
            )
        _check_unknown(
            payload,
            (
                "snapshot_every",
                "record_async",
                "persist_to",
                "persist_chunk_snapshots",
                "persist_window",
            ),
            "recording spec",
        )
        # "record_async" stays a known key, and its value is ignored
        return cls(
            snapshot_every=payload.get("snapshot_every"),
            persist_to=payload.get("persist_to"),
            persist_chunk_snapshots=payload.get("persist_chunk_snapshots"),
            persist_window=payload.get("persist_window"),
        )

    def __hash__(self) -> int:
        return hash(content_hash(self.to_dict()))


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One complete run configuration — the library's unit of scenario.

    Exactly one horizon must be set: ``max_interactions`` or
    ``max_parallel_time`` (interpreted as synchronous *rounds* for
    gossip protocols).  ``engine`` selects the execution machinery;
    ``fidelity`` selects the answer tier (:data:`FIDELITY_NAMES` —
    excluded from :meth:`spec_hash`: it changes how the question is
    *answered*, not which question it is); ``seed`` may be ``None`` for
    template specs that receive derived seeds from an ensemble or
    sweep.  ``metadata`` is free-form provenance threaded into the
    result, never hashed.  ``obs`` (:class:`repro.obs.ObsConfig`,
    default fully off) selects the telemetry the run emits; it cannot
    change the answer (instrumented runs are bit-identical by
    contract), so it is excluded from :meth:`spec_hash` too.

    ``backend`` selects nothing: it is a schema-v1 document key, kept
    so that old documents and sweep checkpoints load and write back
    unchanged, and never hashed.  The exact tier checks it once per
    simulated run (:func:`repro.core.kernels.get_backend`): ``None``,
    ``'auto'``, ``'default'`` and ``'numpy'`` pass, the removed
    ``'numba'`` and ``'cython'`` warn once, and any other name raises
    :class:`~repro.errors.SimulationError`.
    """

    protocol: ProtocolSpec
    initial: InitialSpec
    engine: str = "auto"
    backend: Optional[str] = None
    fidelity: str = "exact"
    seed: Optional[int] = None
    max_interactions: Optional[int] = None
    max_parallel_time: Optional[float] = None
    stop_when_stable: bool = True
    recording: RecordingSpec = field(default_factory=RecordingSpec)
    metadata: Dict[str, Any] = field(default_factory=dict)
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.protocol, ProtocolSpec),
            "RunSpec.protocol must be a ProtocolSpec",
        )
        _require(
            isinstance(self.initial, InitialSpec),
            "RunSpec.initial must be an InitialSpec",
        )
        _require(
            isinstance(self.recording, RecordingSpec),
            "RunSpec.recording must be a RecordingSpec",
        )
        _require(
            isinstance(self.obs, ObsConfig),
            "RunSpec.obs must be an ObsConfig",
        )
        _require(
            self.engine in ENGINE_NAMES,
            f"unknown engine {self.engine!r}; choose from {list(ENGINE_NAMES)}",
        )
        _require(
            self.fidelity in FIDELITY_NAMES,
            f"unknown fidelity {self.fidelity!r}; choose from "
            f"{list(FIDELITY_NAMES)}",
        )
        if self.backend is not None:
            object.__setattr__(self, "backend", str(self.backend))
        object.__setattr__(self, "seed", _opt_int(self.seed, "seed"))
        horizon = _opt_int(self.max_interactions, "max_interactions")
        object.__setattr__(self, "max_interactions", horizon)
        if self.max_parallel_time is not None:
            _require(
                isinstance(self.max_parallel_time, (int, float))
                and not isinstance(self.max_parallel_time, bool),
                f"max_parallel_time must be a number, got "
                f"{self.max_parallel_time!r}",
            )
            object.__setattr__(
                self, "max_parallel_time", float(self.max_parallel_time)
            )
        if (self.max_interactions is None) == (self.max_parallel_time is None):
            raise SpecError(
                "specify exactly one of max_interactions / max_parallel_time"
            )
        _require(
            self.max_interactions is None or self.max_interactions >= 0,
            f"horizon must be non-negative, got {self.max_interactions}",
        )
        _require(
            self.max_parallel_time is None or self.max_parallel_time >= 0,
            f"horizon must be non-negative, got {self.max_parallel_time}",
        )
        _require(
            isinstance(self.stop_when_stable, bool),
            f"stop_when_stable must be a boolean, got {self.stop_when_stable!r}",
        )
        object.__setattr__(
            self, "metadata", _as_params(self.metadata, "metadata")
        )
        if self.protocol.model == "gossip":
            _require(
                self.engine == "auto",
                "gossip protocols run on the synchronous gossip engine; "
                "leave engine='auto'",
            )
            _require(
                self.backend is None,
                "gossip protocols do not use compute-kernel backends",
            )
            _require(
                self.max_interactions is None,
                "gossip horizons are synchronous rounds: use "
                "max_parallel_time (1 round ≈ 1 unit of parallel time)",
            )
        if self.fidelity == "surrogate" and self.recording.persist_to is not None:
            raise SpecError(
                "fidelity='surrogate' answers from the deterministic "
                "fluid limit and never streams a trajectory to disk; "
                "persist_to would be silently ignored (fidelity='auto' "
                "persists normally whenever it escalates to exact)"
            )
        if not self.stop_when_stable:
            raise SpecError(
                "stop_when_stable=False requires a custom stop predicate, "
                "which a declarative spec cannot carry; run such "
                "configurations through the keyword simulate() form"
            )
        # materialising the initial now keeps "construction is
        # validation" honest: a spec that cannot build its starting
        # counts (wrong k, missing generator seed, raw counts that do
        # not fit the protocol's alphabet) must not validate or hash
        try:
            counts = self.canonical_state_counts()
        except SpecError:
            raise
        except ReproError as exc:
            # surface builder failures (ConfigurationError,
            # ProtocolError, ...) as spec-validation errors
            raise SpecError(
                f"initial condition cannot be built: {exc}"
            ) from exc
        num_states = self.build_protocol().num_states
        _require(
            len(counts) == num_states,
            f"initial state counts have {len(counts)} entries; protocol "
            f"{self.protocol.name!r} has {num_states} states",
        )

    # -- resolution --------------------------------------------------

    @property
    def n(self) -> int:
        """Population size (from the initial condition)."""
        return self.initial.n

    def build_protocol(self):
        """Instantiate the protocol object."""
        return self.protocol.build()

    def build_initial(self) -> Union[Configuration, np.ndarray]:
        """Materialise the initial condition."""
        return self.initial.build(self.protocol.k)

    def canonical_state_counts(self) -> Tuple[int, ...]:
        """The engine-layout state counts this spec starts from.

        This is the *resolved* initial condition — two specs describing
        the same counts through different generators canonicalise (and
        hash) identically.  Memoised per (frozen) instance: it is
        computed once at construction for validation and reused by
        every ``spec_hash`` / runner call.
        """
        cached = self.__dict__.get("_canonical_counts")
        if cached is not None:
            return cached
        initial = self.build_initial()
        if isinstance(initial, Configuration):
            protocol = self.build_protocol()
            encode = getattr(protocol, "encode_configuration")
            counts = encode(initial)
        else:
            counts = np.asarray(initial)
        resolved = tuple(int(c) for c in counts)
        object.__setattr__(self, "_canonical_counts", resolved)
        return resolved

    def resolved_horizon(self) -> int:
        """The horizon in interactions (population) or rounds (gossip)."""
        if self.max_interactions is not None:
            return self.max_interactions
        if self.protocol.model == "gossip":
            return int(round(self.max_parallel_time))
        return int(round(self.max_parallel_time * self.n))

    def resolved_snapshot_every(self) -> int:
        """The recording cadence after engine defaults are applied."""
        if self.recording.snapshot_every is not None:
            return self.recording.snapshot_every
        if self.protocol.model == "gossip":
            return 1
        from ..core.engine import default_snapshot_every

        return default_snapshot_every(self.n)

    def resolved_engine(self) -> str:
        """The concrete engine name ``'auto'`` resolves to at this n."""
        if self.protocol.model == "gossip":
            return "gossip"
        return resolve_engine_name(self.engine, self.n)

    # -- hashing -----------------------------------------------------

    def identity_dict(self, *, include_seed: bool = True) -> Dict[str, Any]:
        """The resolved, result-determining content of this spec.

        Covers protocol (canonical name, k, params), the canonical
        initial state counts, n, resolved engine, seed, resolved
        horizon, resolved snapshot cadence and the stop mode.  Excludes
        ``backend``, ``fidelity``, persistence placement,
        ``metadata`` and ``obs`` — resolution / provenance /
        telemetry knobs that must not change what run this *is*
        (fidelity changes how the question is answered; the verdict
        lands in result metadata, and telemetry only watches).
        """
        identity = {
            "schema_version": SCHEMA_VERSION,
            "kind": "run",
            "protocol": self.protocol.to_dict(),
            "n": self.n,
            "initial_counts": list(self.canonical_state_counts()),
            "engine": self.resolved_engine(),
            "seed": self.seed,
            "horizon": self.resolved_horizon(),
            "snapshot_every": self.resolved_snapshot_every(),
            "stop_when_stable": self.stop_when_stable,
        }
        if not include_seed:
            del identity["seed"]
        return identity

    def spec_hash(self) -> str:
        """Canonical content hash of :meth:`identity_dict` (SHA-256 hex).

        Memoised per instance (the spec is frozen, so the hash cannot
        change): resolving the identity rebuilds the protocol and the
        initial counts, which callers on hot paths — ``simulate``
        metadata, manifest writing, resume guards — should pay once.
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            cached = content_hash(self.identity_dict())
            object.__setattr__(self, "_spec_hash", cached)
        return cached

    # -- serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "run",
            "protocol": self.protocol.to_dict(),
            "initial": self.initial.to_dict(),
            "engine": self.engine,
            "backend": self.backend,
            "fidelity": self.fidelity,
            "seed": self.seed,
            "max_interactions": self.max_interactions,
            "max_parallel_time": self.max_parallel_time,
            "stop_when_stable": self.stop_when_stable,
            "recording": self.recording.to_dict(),
            "metadata": dict(self.metadata),
            "obs": self.obs.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"run spec must be an object, got {type(payload).__name__}"
            )
        _check_schema(payload, "run")
        _check_unknown(
            payload,
            (
                "schema_version",
                "kind",
                "protocol",
                "initial",
                "engine",
                "backend",
                "fidelity",
                "seed",
                "max_interactions",
                "max_parallel_time",
                "stop_when_stable",
                "recording",
                "metadata",
                "obs",
            ),
            "run spec",
        )
        _require(
            "protocol" in payload and "initial" in payload,
            "run spec needs 'protocol' and 'initial'",
        )
        return cls(
            protocol=ProtocolSpec.from_dict(payload["protocol"]),
            initial=InitialSpec.from_dict(payload["initial"]),
            engine=str(payload.get("engine", "auto")),
            backend=payload.get("backend"),
            fidelity=str(payload.get("fidelity", "exact")),
            seed=payload.get("seed"),
            max_interactions=payload.get("max_interactions"),
            max_parallel_time=payload.get("max_parallel_time"),
            # no bool() coercion: a scenario file saying e.g. "false"
            # (a truthy string) must fail validation, not silently
            # invert into True
            stop_when_stable=payload.get("stop_when_stable", True),
            recording=RecordingSpec.from_dict(payload.get("recording") or {}),
            metadata=_as_params(payload.get("metadata"), "metadata"),
            obs=ObsConfig.from_dict(payload.get("obs") or {}),
        )

    # -- derivation --------------------------------------------------

    def with_seed(self, seed: Optional[int]) -> "RunSpec":
        """A copy of this spec with the seed replaced."""
        return replace(self, seed=seed)

    def with_recording(self, recording: RecordingSpec) -> "RunSpec":
        """A copy of this spec with the recording block replaced."""
        return replace(self, recording=recording)

    def with_fidelity(self, fidelity: str) -> "RunSpec":
        """A copy of this spec with the fidelity tier replaced."""
        return replace(self, fidelity=fidelity)

    def __hash__(self) -> int:
        return hash(content_hash(self.to_dict()))


def _check_schema(payload: Mapping[str, Any], expected_kind: str) -> None:
    """Shared schema_version / kind validation for spec documents."""
    version = payload.get("schema_version")
    if version is None:
        raise SpecError(
            f"spec document is missing 'schema_version' (current version: "
            f"{SCHEMA_VERSION})"
        )
    if not isinstance(version, int) or isinstance(version, bool):
        raise SpecError(f"schema_version must be an integer, got {version!r}")
    if version > SCHEMA_VERSION:
        raise SpecError(
            f"spec document uses schema_version {version}; this library "
            f"reads up to {SCHEMA_VERSION}"
        )
    kind = payload.get("kind")
    if kind != expected_kind:
        raise SpecError(
            f"expected a {expected_kind!r} spec, got kind {kind!r}"
        )
