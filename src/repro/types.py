"""Shared type aliases and lightweight structural protocols.

The library uses plain integers for states and opinions:

* **states** are indices into a protocol's alphabet ``0..len(alphabet)-1``;
* **opinions** are ``1..k`` (matching the paper's notation ``[k]``), and
  the :data:`UNDECIDED` sentinel below denotes the undecided state in
  opinion-level APIs.

Array-heavy internals use :class:`numpy.ndarray` of ``int64`` counts.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, Tuple, Union

import numpy as np

#: Sentinel used in *opinion-level* APIs for the undecided state.
#: (State-level APIs use the protocol's own alphabet indices instead.)
UNDECIDED: int = 0

#: An opinion index, ``1..k`` as in the paper, or :data:`UNDECIDED`.
Opinion = int

#: A protocol state index into the alphabet.
State = int

#: A pair of states, e.g. the input or output of a pairwise transition.
StatePair = Tuple[int, int]

#: Vector of per-state agent counts (dtype ``int64``).
CountVector = np.ndarray

#: Anything acceptable as a seed for :func:`repro.rng.make_rng`.
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

#: A callable deciding whether a run should stop, given the engine.
StopPredicate = Callable[["SupportsCounts"], bool]


class SupportsCounts(Protocol):
    """Structural interface shared by all engines.

    Anything exposing the current state counts, the population size and
    the number of interactions executed so far satisfies this protocol;
    stopping conditions and recorders are written against it so they
    work with every engine (agent-level, counts-level, batched, gossip).
    """

    @property
    def counts(self) -> CountVector:  # pragma: no cover - protocol stub
        """Current per-state agent counts (length ``len(alphabet)``)."""
        ...

    @property
    def n(self) -> int:  # pragma: no cover - protocol stub
        """Population size."""
        ...

    @property
    def interactions(self) -> int:  # pragma: no cover - protocol stub
        """Number of interactions executed since the initial configuration."""
        ...


def as_int_vector(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Return ``values`` as a fresh 1-D ``int64`` array.

    Floats are accepted only when they are integral (e.g. ``2.0``); any
    fractional value raises ``ValueError`` rather than being truncated
    silently, because agent counts must be exact.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence of counts, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded, rtol=0, atol=1e-9):
            raise ValueError("non-integral values cannot be used as agent counts")
        arr = rounded
    return arr.astype(np.int64, copy=True)
