"""Declarative seed ensembles: one template RunSpec, many derived seeds.

An :class:`EnsembleSpec` is a :class:`~repro.specs.model.RunSpec`
template (its ``seed`` must be ``None``) plus ``num_runs`` and a
``root_seed``.  Member ``i`` runs the template with
``seed = derive_seed(root_seed, i)`` — the same contract every other
ensemble surface in the repo uses, so worker count and execution order
can never change the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping

from ..errors import SpecError
from ..rng import derive_seed
from .hashing import content_hash
from .model import (
    SCHEMA_VERSION,
    RunSpec,
    _as_params,
    _check_schema,
    _check_unknown,
    _opt_int,
    _require,
)

__all__ = ["EnsembleSpec"]


@dataclass(frozen=True)
class EnsembleSpec:
    """``num_runs`` independent seeded runs of one template spec.

    Executed by :func:`repro.specs.run_spec`, this is the library's one
    seed-ensemble path: :func:`repro.analysis.usd_stabilization_ensemble`
    builds one and aggregates its results.  The template's recording
    block may name a ``persist_to`` directory; member ``i`` then streams
    to ``<persist_to>/run-<i:04d>``, and a re-run answers every member
    whose complete stream records the member's ``spec_hash`` from disk.
    """

    run: RunSpec
    num_runs: int
    root_seed: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.run, RunSpec), "EnsembleSpec.run must be a RunSpec"
        )
        if self.run.seed is not None:
            raise SpecError(
                "the ensemble template's seed must be null — member seeds "
                "are derived from root_seed and the member index"
            )
        runs = _opt_int(self.num_runs, "num_runs")
        _require(
            runs is not None and runs >= 1,
            f"num_runs must be a positive integer, got {self.num_runs!r}",
        )
        object.__setattr__(self, "num_runs", runs)
        root = _opt_int(self.root_seed, "root_seed")
        _require(root is not None, "EnsembleSpec needs an integer root_seed")
        object.__setattr__(self, "root_seed", root)
        object.__setattr__(
            self, "metadata", _as_params(self.metadata, "metadata")
        )

    def member_seed(self, index: int) -> int:
        """The derived seed of member ``index``."""
        _require(
            0 <= index < self.num_runs,
            f"member index {index} out of range for {self.num_runs} runs",
        )
        return derive_seed(self.root_seed, index)

    def member_spec(self, index: int) -> RunSpec:
        """The fully-seeded :class:`RunSpec` of member ``index``."""
        spec = self.run.with_seed(self.member_seed(index))
        persist_root = spec.recording.persist_to
        if persist_root is not None:
            member_dir = f"{persist_root.rstrip('/')}/run-{index:04d}"
            spec = spec.with_recording(
                replace(spec.recording, persist_to=member_dir)
            )
        return spec

    def member_specs(self) -> List[RunSpec]:
        """All member specs, in member order."""
        return [self.member_spec(index) for index in range(self.num_runs)]

    def identity_dict(self) -> Dict[str, Any]:
        """Resolved content: template identity (seedless) + seeds."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ensemble",
            "run": self.run.identity_dict(include_seed=False),
            "num_runs": self.num_runs,
            "root_seed": self.root_seed,
        }

    def spec_hash(self) -> str:
        """Canonical content hash of :meth:`identity_dict` (SHA-256 hex)."""
        return content_hash(self.identity_dict())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ensemble",
            "run": self.run.to_dict(),
            "num_runs": self.num_runs,
            "root_seed": self.root_seed,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EnsembleSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"ensemble spec must be an object, got {type(payload).__name__}"
            )
        _check_schema(payload, "ensemble")
        _check_unknown(
            payload,
            ("schema_version", "kind", "run", "num_runs", "root_seed", "metadata"),
            "ensemble spec",
        )
        _require(
            "run" in payload and "num_runs" in payload and "root_seed" in payload,
            "ensemble spec needs 'run', 'num_runs' and 'root_seed'",
        )
        run_payload = dict(payload["run"])
        # the nested run document may omit schema bookkeeping — it is
        # carried by the enclosing ensemble document
        run_payload.setdefault("schema_version", payload["schema_version"])
        run_payload.setdefault("kind", "run")
        return cls(
            run=RunSpec.from_dict(run_payload),
            num_runs=payload["num_runs"],
            root_seed=payload["root_seed"],
            metadata=_as_params(payload.get("metadata"), "metadata"),
        )

    def __hash__(self) -> int:
        return hash(content_hash(self.to_dict()))
