"""Declarative registry experiments: address ``EXPERIMENTS`` by name.

An :class:`ExperimentSpec` names a registered experiment
(:mod:`repro.experiments.registry`) plus parameter overrides, making a
whole paper artifact — a figure panel, a lemma table — a hashable spec
document like run/ensemble/sweep.  Validation happens at construction:
the name must be registered and every parameter must merge cleanly
against the experiment's defaults, so a spec that constructs will run.

The hash identity is the *resolved* experiment parameters: spelling a
default explicitly hashes identically to omitting it, and the
experiment's placement parameters (``GLOBAL_DEFAULTS``: ``workers``
everywhere, ``shard``/``resume``/``out`` on grid sweeps, ``persist`` on
``fig1-ensemble`` — unless the experiment re-declares one as its own
parameter) are excluded: where the work runs is not what the work
computes.  So is ``backend``, a schema-v1 key that every experiment
still takes, checks once per run and writes back as given, like the
same key of a :class:`~repro.specs.model.RunSpec`.  A placement name
the experiment does not take is an unknown parameter, so the spec fails
validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..errors import ExperimentError, SpecError
from .hashing import canonicalize, content_hash
from .model import (
    SCHEMA_VERSION,
    _as_params,
    _check_schema,
    _check_unknown,
    _require,
)

__all__ = ["ExperimentSpec"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry experiment, addressed by name with param overrides."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"ExperimentSpec.name must be a non-empty string, got {self.name!r}",
        )
        object.__setattr__(self, "params", _as_params(self.params, "params"))
        object.__setattr__(
            self, "metadata", _as_params(self.metadata, "metadata")
        )
        # the experiments package imports lazily: specs stay importable
        # without it, and registry growth never cycles back here
        from ..experiments import get_experiment
        from .merge import merge_params

        try:
            cls = get_experiment(self.name)
        except ExperimentError as exc:
            raise SpecError(str(exc)) from exc
        defaults = {**cls.GLOBAL_DEFAULTS, **cls.DEFAULTS}
        try:
            merged = merge_params(defaults, self.params)
        except (SpecError, ExperimentError) as exc:
            raise SpecError(f"experiment {self.name!r}: {exc}") from exc
        placement = set(cls.GLOBAL_DEFAULTS) - set(cls.DEFAULTS)
        resolved = canonicalize(
            {
                key: value
                for key, value in merged.items()
                if key not in placement
            }
        )
        object.__setattr__(self, "_resolved_params", resolved)

    @property
    def resolved_params(self) -> Dict[str, Any]:
        """Experiment parameters with defaults folded in, placement out."""
        return dict(self._resolved_params)

    def identity_dict(self) -> Dict[str, Any]:
        """Resolved content: what the experiment computes, fully spelled."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "experiment",
            "name": self.name,
            "params": self.resolved_params,
        }

    def spec_hash(self) -> str:
        """Canonical content hash of :meth:`identity_dict` (SHA-256 hex)."""
        cached: Optional[str] = getattr(self, "_spec_hash", None)
        if cached is None:
            cached = content_hash(self.identity_dict())
            object.__setattr__(self, "_spec_hash", cached)
        return cached

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "experiment",
            "name": self.name,
            "params": dict(self.params),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"experiment spec must be an object, got "
                f"{type(payload).__name__}"
            )
        _check_schema(payload, "experiment")
        _check_unknown(
            payload,
            ("schema_version", "kind", "name", "params", "metadata"),
            "experiment spec",
        )
        _require("name" in payload, "experiment spec needs a 'name'")
        return cls(
            name=payload["name"],
            params=_as_params(payload.get("params"), "params"),
            metadata=_as_params(payload.get("metadata"), "metadata"),
        )

    def __hash__(self) -> int:
        return hash(self.spec_hash())
