"""Parameter sweep grids for the experiments.

Experiments iterate over :class:`SweepPoint` grids; each sweep
experiment builds its own, and :func:`k_sweep` is the fixed-``n``
k-sweep (Theorem 3.5 shape in ``k``).

Every point has a *canonical label* — derived from ``(n, k, bias)``
**and** the sorted ``extras`` — that uniquely identifies it inside a
grid.  The sweep-execution layer (:mod:`repro.sweep`) keys checkpoint
files and merge validation on canonical labels, so the grid
constructors reject duplicate labels up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from ..errors import ExperimentError
from .initial import paper_bias

__all__ = [
    "SweepPoint",
    "ensure_unique_labels",
    "k_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a parameter sweep.

    Attributes
    ----------
    n, k:
        Population size and number of opinions.
    bias:
        Initial majority bias.
    label:
        Short human-readable identifier for tables.
    extras:
        Free-form per-point parameters (e.g. the gap α for Lemma 3.4).
    run_spec:
        Optional fully-resolved :class:`repro.specs.RunSpec` of this
        point (set by declarative :class:`repro.specs.SweepSpec` plans;
        ``None`` for hand-built experiment grids).  It is execution
        payload, not identity: the canonical label — what checkpoints
        and merges key on — never includes it.
    """

    n: int
    k: int
    bias: int
    label: str = ""
    extras: dict = field(default_factory=dict)
    run_spec: object = None

    def __post_init__(self) -> None:
        if self.n < 2 or self.k < 1 or self.bias < 0:
            raise ExperimentError(
                f"invalid sweep point (n={self.n}, k={self.k}, bias={self.bias})"
            )

    @property
    def canonical_label(self) -> str:
        """Unique identifier of the point inside its grid.

        Built from ``(n, k, bias)`` plus every ``extras`` entry in sorted
        key order, so two points that differ only in ``extras`` — e.g.
        the same ``(n, k)`` swept at two gap values α — never collide.
        The human-readable ``label`` is deliberately *not* part of it:
        labels are free-form display text.
        """
        parts = [f"n={self.n}", f"k={self.k}", f"bias={self.bias}"]
        parts.extend(f"{key}={self.extras[key]}" for key in sorted(self.extras))
        return ",".join(parts)


def ensure_unique_labels(points: Sequence[SweepPoint]) -> Sequence[SweepPoint]:
    """Reject grids whose points collide on :attr:`~SweepPoint.canonical_label`.

    Returns ``points`` unchanged so constructors can end with
    ``return ensure_unique_labels(points)``.
    """
    seen: dict = {}
    duplicates = []
    for point in points:
        label = point.canonical_label
        if label in seen:
            duplicates.append(label)
        seen[label] = point
    if duplicates:
        raise ExperimentError(
            "sweep grid contains duplicate points: "
            + ", ".join(sorted(set(duplicates)))
            + " (distinguish them via SweepPoint.extras)"
        )
    return points


def k_sweep(n: int, ks: Iterable[int]) -> List[SweepPoint]:
    """Fixed ``n``, varying ``k`` — the Theorem 3.5 shape-in-k grid.

    Every point has the paper's bias ``√(n ln n)``.
    """
    bias = paper_bias(n)
    points = []
    for k in ks:
        points.append(SweepPoint(n=n, k=int(k), bias=bias, label=f"k={k}"))
    if not points:
        raise ExperimentError("k_sweep needs at least one k value")
    ensure_unique_labels(points)
    return points
