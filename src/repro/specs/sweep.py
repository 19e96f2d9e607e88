"""Declarative parameter sweeps: a template RunSpec swept along axes.

A :class:`SweepSpec` is a base :class:`~repro.specs.model.RunSpec`
(seedless template), an ordered mapping of *axes* — dotted spec keys to
value lists — and a root seed.  Its grid is the Cartesian product of
the axes **in the order they are declared** (the last axis varies
fastest), each grid point being the base spec with the axis values
applied through the same dotted-override machinery the CLI's ``--set``
uses.  :meth:`SweepSpec.plan` lowers the grid onto the sharded sweep
executor (:mod:`repro.sweep`): every
:class:`~repro.workloads.sweeps.SweepPoint` carries its fully-resolved
per-point :class:`RunSpec`, the plan's ``meta`` embeds the root spec
document and its hash (so merged sweeps' ``provenance.json`` records
the scenario as data), and per-point seeds follow the plan contract
``derive_seed(root_seed, grid_index)``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from ..errors import SpecError
from .hashing import canonicalize, content_hash
from .merge import apply_overrides
from .model import (
    SCHEMA_VERSION,
    RunSpec,
    _check_schema,
    _check_unknown,
    _as_params,
    _opt_int,
    _require,
)

__all__ = ["SweepSpec"]

#: Characters kept verbatim in sweep ids, checkpoint file names and
#: per-point persist directories; everything else (unicode in bias
#: labels, commas, spaces) collapses to ``-``.  The sweep executor's
#: checkpoint naming imports this rule, so a point's checkpoint and its
#: persist directory can never slugify differently.
_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9_.=-]+")


@dataclass(frozen=True)
class SweepSpec:
    """A grid of runs: one template spec × the product of the axes.

    ``axes`` maps dotted :class:`RunSpec` keys (``'initial.n'``,
    ``'protocol.name'``, ``'initial.params.bias'``) to the values to
    sweep.  Axis order is semantic — it defines the grid order, hence
    per-point seeds and checkpoint names — and is preserved through
    serialization (JSON objects keep insertion order).
    """

    sweep_id: str
    base: RunSpec
    axes: Dict[str, List[Any]]
    root_seed: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.base, RunSpec), "SweepSpec.base must be a RunSpec"
        )
        if self.base.seed is not None:
            raise SpecError(
                "the sweep template's seed must be null — point seeds are "
                "derived from root_seed and the grid index"
            )
        # the same rule SweepPlan enforces — a scenario file must not
        # validate here only to fail at plan() time
        _require(
            isinstance(self.sweep_id, str)
            and self.sweep_id != ""
            and not _SLUG_UNSAFE.search(self.sweep_id),
            f"sweep_id {self.sweep_id!r} must be non-empty and contain "
            "only letters, digits, '_', '.', '=', '-' (it names the "
            "checkpoint directory)",
        )
        if not isinstance(self.axes, Mapping) or not self.axes:
            raise SpecError("SweepSpec needs at least one axis")
        axes: Dict[str, List[Any]] = {}
        for key, values in self.axes.items():
            _require(
                isinstance(key, str) and key != "",
                f"axis name {key!r} must be a non-empty dotted key",
            )
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise SpecError(
                    f"axis {key!r} must list at least one value, got {values!r}"
                )
            axes[key] = list(canonicalize(list(values)))
        object.__setattr__(self, "axes", axes)
        root = _opt_int(self.root_seed, "root_seed")
        _require(root is not None, "SweepSpec needs an integer root_seed")
        object.__setattr__(self, "root_seed", root)
        object.__setattr__(
            self, "metadata", _as_params(self.metadata, "metadata")
        )
        # expand the grid exactly once: it validates every point now,
        # and plan()/point_specs() reuse the cached expansion instead
        # of re-constructing N RunSpecs per call
        base_dict = self.base.to_dict()
        expanded = []
        for assignment in self.grid():
            payload = apply_overrides(base_dict, assignment)
            point_spec = RunSpec.from_dict(payload)
            if point_spec.seed is not None:
                # the runner assigns derive_seed(root_seed, grid_index)
                # to every point; an axis (or override) that sets a seed
                # would be silently discarded — refuse instead
                raise SpecError(
                    "sweep axes must not set 'seed': point seeds are "
                    "derived from root_seed and the grid index "
                    "(derive_seed(root_seed, i)), never listed explicitly"
                )
            expanded.append((assignment, point_spec))
        object.__setattr__(self, "_point_specs", tuple(expanded))

    # -- grid expansion ----------------------------------------------

    def grid(self) -> List[Dict[str, Any]]:
        """The axis-value assignment of every grid point, in grid order."""
        names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in names))
        return [dict(zip(names, combo)) for combo in combos]

    def point_specs(self) -> List[Tuple[Dict[str, Any], RunSpec]]:
        """``(axis_assignment, RunSpec)`` per grid point, in grid order."""
        return list(self._point_specs)

    def plan(self):
        """Lower this spec onto a :class:`repro.sweep.SweepPlan`.

        Each point carries its resolved :class:`RunSpec`; the plan's
        ``meta`` embeds this spec's document and hash so sweep
        checkpoint verification and merged provenance both pin the
        scenario exactly.
        """
        from ..sweep import SweepPlan
        from ..workloads.sweeps import SweepPoint

        points = []
        for index, (assignment, spec) in enumerate(self.point_specs()):
            extras = {
                axis: value for axis, value in sorted(assignment.items())
            }
            bias = spec.initial.params.get("bias")
            label = ",".join(f"{k}={v}" for k, v in sorted(assignment.items()))
            points.append(
                SweepPoint(
                    n=spec.n,
                    k=spec.protocol.k,
                    bias=0 if bias is None else int(bias),
                    label=label or f"point-{index}",
                    extras=extras,
                    run_spec=spec,
                )
            )
        return SweepPlan(
            sweep_id=self.sweep_id,
            points=tuple(points),
            root_seed=self.root_seed,
            meta={
                "spec": self.to_dict(),
                "spec_hash": self.spec_hash(),
            },
        )

    # -- hashing -----------------------------------------------------

    def identity_dict(self) -> Dict[str, Any]:
        """Resolved content: seedless base identity + ordered axes."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep",
            "sweep_id": self.sweep_id,
            "base": self.base.identity_dict(include_seed=False),
            # axis order is semantic (it is the grid order), so hash the
            # ordered pair list, not the mapping
            "axes": [[key, values] for key, values in self.axes.items()],
            "root_seed": self.root_seed,
        }

    def spec_hash(self) -> str:
        """Canonical content hash of :meth:`identity_dict` (SHA-256 hex)."""
        return content_hash(self.identity_dict())

    # -- serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep",
            "sweep_id": self.sweep_id,
            "base": self.base.to_dict(),
            "axes": {key: list(values) for key, values in self.axes.items()},
            "root_seed": self.root_seed,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"sweep spec must be an object, got {type(payload).__name__}"
            )
        _check_schema(payload, "sweep")
        _check_unknown(
            payload,
            (
                "schema_version",
                "kind",
                "sweep_id",
                "base",
                "axes",
                "root_seed",
                "metadata",
            ),
            "sweep spec",
        )
        _require(
            "sweep_id" in payload
            and "base" in payload
            and "axes" in payload
            and "root_seed" in payload,
            "sweep spec needs 'sweep_id', 'base', 'axes' and 'root_seed'",
        )
        base_payload = dict(payload["base"])
        base_payload.setdefault("schema_version", payload["schema_version"])
        base_payload.setdefault("kind", "run")
        axes = payload["axes"]
        if not isinstance(axes, Mapping):
            raise SpecError("sweep 'axes' must be an object of key -> values")
        return cls(
            sweep_id=str(payload["sweep_id"]),
            base=RunSpec.from_dict(base_payload),
            axes={str(key): values for key, values in axes.items()},
            root_seed=payload["root_seed"],
            metadata=_as_params(payload.get("metadata"), "metadata"),
        )

    def __eq__(self, other: object) -> bool:
        # axis *order* is semantic (it is the grid order), but plain
        # dict equality ignores it — compare the ordered item lists so
        # equality agrees with spec_hash
        if not isinstance(other, SweepSpec):
            return NotImplemented
        return (
            self.sweep_id == other.sweep_id
            and self.base == other.base
            and list(self.axes.items()) == list(other.axes.items())
            and self.root_seed == other.root_seed
            and self.metadata == other.metadata
        )

    def __hash__(self) -> int:
        return hash(content_hash(self.identity_dict()))
