"""Sweep plans and shard specifications.

A :class:`SweepPlan` pins down *everything* that determines a sweep's
numbers: the ordered :class:`~repro.workloads.sweeps.SweepPoint` grid
and the root seed.  Per-point seeds are derived from the root seed and
the point's grid index alone (:func:`repro.rng.derive_seed`), so the
results are bit-identical regardless of worker count, shard assignment
or execution order — sharding and parallelism are pure throughput
knobs.

A :class:`ShardSpec` (``i/m``) deterministically partitions a plan
across hosts by round-robin on the grid index: shard ``i`` of ``m``
owns every point whose index is ``≡ i (mod m)``.  The ``m`` shards are
disjoint and jointly exhaustive for every ``m ≥ 1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, Union

from ..errors import SweepError
from ..rng import derive_seed
from ..specs.sweep import _SLUG_UNSAFE
from ..workloads.sweeps import SweepPoint, ensure_unique_labels

__all__ = ["ShardSpec", "SweepPlan"]


@dataclass(frozen=True)
class ShardSpec:
    """Shard ``index`` of ``count`` — the ``--shard i/m`` of the CLI.

    ``ShardSpec(0, 1)`` is the whole plan (the unsharded run).
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SweepError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise SweepError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    @classmethod
    def parse(cls, spec: Union[None, str, "ShardSpec"]) -> "ShardSpec":
        """Normalise ``None`` / ``'i/m'`` / ``ShardSpec`` into a spec."""
        if spec is None:
            return cls(0, 1)
        if isinstance(spec, ShardSpec):
            return spec
        text = str(spec).strip()
        match = re.fullmatch(r"(\d+)\s*/\s*(\d+)", text)
        if not match:
            raise SweepError(
                f"shard spec {spec!r} is not of the form 'i/m' (e.g. '0/4')"
            )
        return cls(int(match.group(1)), int(match.group(2)))

    @property
    def is_full(self) -> bool:
        """Whether this shard covers the entire plan."""
        return self.count == 1

    def owns(self, point_index: int) -> bool:
        """Whether ``point_index`` belongs to this shard (round-robin)."""
        return point_index % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclass(frozen=True)
class SweepPlan:
    """An ordered grid of sweep points rooted at one seed.

    Attributes
    ----------
    sweep_id:
        Name of the sweep; also the sub-directory checkpoints live in
        (``<out>/<sweep_id>/``).  Typically the experiment id.
    points:
        The grid, in canonical order.  Point ``i`` *is* grid index
        ``i`` — seeds, shard assignment, checkpoint names and merge
        order all key on this index.
    root_seed:
        The root of the seed-derivation contract: point ``i`` receives
        ``derive_seed(root_seed, i)``.
    meta:
        Free-form per-sweep parameters (engine, num_seeds, …) recorded
        in provenance; never consulted by the runner itself.
    """

    sweep_id: str
    points: Tuple[SweepPoint, ...]
    root_seed: int
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.sweep_id or _SLUG_UNSAFE.search(self.sweep_id):
            raise SweepError(
                f"sweep_id {self.sweep_id!r} must be non-empty and contain "
                "only letters, digits, '_', '.', '=', '-'"
            )
        if not self.points:
            raise SweepError(f"sweep {self.sweep_id!r} has no points")
        object.__setattr__(self, "points", tuple(self.points))
        ensure_unique_labels(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def point_seed(self, index: int) -> int:
        """The seed of grid point ``index`` — depends on nothing else."""
        if not 0 <= index < len(self.points):
            raise SweepError(
                f"point index {index} out of range for {len(self.points)} points"
            )
        return derive_seed(self.root_seed, index)

    def point_seeds(self) -> List[int]:
        """All per-point seeds, in grid order."""
        return [self.point_seed(index) for index in range(len(self.points))]

    def items(
        self, shard: Union[None, str, ShardSpec] = None
    ) -> List[Tuple[int, SweepPoint]]:
        """``(grid_index, point)`` pairs owned by ``shard`` (default: all)."""
        shard = ShardSpec.parse(shard)
        return [
            (index, point)
            for index, point in enumerate(self.points)
            if shard.owns(index)
        ]

    def checkpoint_name(self, index: int) -> str:
        """Filename of point ``index``'s checkpoint inside the sweep dir.

        The grid index prefix guarantees uniqueness even if two slugs
        collide after unicode collapsing; the slug keeps the directory
        listable by humans.
        """
        slug = _SLUG_UNSAFE.sub("-", self.points[index].canonical_label)
        return f"point-{index:04d}-{slug}.json"
