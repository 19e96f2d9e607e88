"""Population configurations for opinion dynamics.

A :class:`Configuration` is the paper's ``x = (x_1, ..., x_k, u)``: the
number of agents holding each of the ``k`` opinions plus the number of
undecided agents.  It is the sufficient statistic of the Undecided State
Dynamics under the uniform scheduler, and the unit of exchange between
workload generators, engines, recorders and analysis code.

Conventions
-----------
* Opinions are indexed ``1..k`` as in the paper; :meth:`Configuration.x`
  takes 1-based indices.
* The *state-count* vector layout is ``[u, x_1, ..., x_k]`` — undecided
  first — matching the alphabet order of
  :class:`repro.protocols.usd.UndecidedStateDynamics`.
* Configurations are immutable; all "modifiers" return new instances.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..types import as_int_vector

__all__ = ["Configuration"]


class Configuration:
    """An immutable counts-vector configuration ``(x_1, ..., x_k, u)``.

    Parameters
    ----------
    opinion_counts:
        Number of agents per opinion, index ``i`` holding opinion
        ``i + 1`` (the constructor is 0-based; accessors are 1-based to
        match the paper).
    undecided:
        Number of undecided (⊥) agents.

    Raises
    ------
    ConfigurationError
        If any count is negative, ``k`` is zero, or the population would
        be empty.
    """

    __slots__ = ("_x", "_u", "_n")

    def __init__(self, opinion_counts: Sequence[int] | np.ndarray, undecided: int = 0):
        try:
            x = as_int_vector(opinion_counts)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if x.size == 0:
            raise ConfigurationError("a configuration needs at least one opinion")
        if int(undecided) != undecided:
            raise ConfigurationError("undecided count must be an integer")
        u = int(undecided)
        if u < 0 or np.any(x < 0):
            raise ConfigurationError("agent counts must be non-negative")
        n = int(x.sum()) + u
        if n <= 0:
            raise ConfigurationError("population must contain at least one agent")
        x.setflags(write=False)
        self._x = x
        self._u = u
        self._n = n

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_state_counts(cls, counts: Sequence[int] | np.ndarray) -> "Configuration":
        """Build from a state-count vector laid out as ``[u, x_1, ..., x_k]``."""
        vec = as_int_vector(counts)
        if vec.size < 2:
            raise ConfigurationError(
                "state-count vector needs at least [undecided, one opinion]"
            )
        return cls(vec[1:], undecided=int(vec[0]))

    @classmethod
    def uniform(cls, n: int, k: int) -> "Configuration":
        """Spread ``n`` agents over ``k`` opinions as evenly as possible.

        The first ``n mod k`` opinions receive one extra agent, so the
        result keeps the paper's sortedness convention
        ``x_1(0) >= x_2(0) >= ... >= x_k(0)``.
        """
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        if n < k:
            raise ConfigurationError(
                f"need n >= k to give every opinion an agent ({n=}, {k=})"
            )
        base, extra = divmod(n, k)
        counts = np.full(k, base, dtype=np.int64)
        counts[:extra] += 1
        return cls(counts)

    @classmethod
    def equal_minorities_with_bias(cls, n: int, k: int, bias: int) -> "Configuration":
        """The paper's initial configuration (Section 3 / Figure 1).

        All ``k - 1`` minority opinions get the same support ``m`` and
        opinion 1 gets ``m + bias``; leftover agents (from rounding) are
        assigned to the *minorities* one each so the majority's
        advantage is never accidentally inflated, and the invariant
        ``x_1 - x_j >= bias - 1`` for all minorities ``j`` holds.
        """
        if k < 2:
            raise ConfigurationError("equal-minorities configuration needs k >= 2")
        if bias < 0:
            raise ConfigurationError(f"bias must be non-negative, got {bias}")
        if n < bias + k:
            raise ConfigurationError(
                f"population too small for bias: need n >= bias + k ({n=}, {k=}, {bias=})"
            )
        m, leftover = divmod(n - bias, k)
        counts = np.full(k, m, dtype=np.int64)
        counts[0] += bias
        # Spread rounding leftovers across minorities (never the majority).
        for offset in range(leftover):
            counts[1 + offset % (k - 1)] += 1
        return cls(counts)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def k(self) -> int:
        """Number of opinions the configuration encodes (including extinct ones)."""
        return int(self._x.size)

    @property
    def undecided(self) -> int:
        """Number of undecided agents, the paper's ``u``."""
        return self._u

    @property
    def decided(self) -> int:
        """Number of agents currently holding some opinion."""
        return self._n - self._u

    @property
    def opinion_counts(self) -> np.ndarray:
        """Read-only ``int64`` array of per-opinion counts (0-based index)."""
        return self._x

    def x(self, i: int) -> int:
        """Support of opinion ``i`` (1-based, as in the paper)."""
        if not 1 <= i <= self.k:
            raise ConfigurationError(f"opinion index must be in 1..{self.k}, got {i}")
        return int(self._x[i - 1])

    def to_state_counts(self) -> np.ndarray:
        """Return the ``[u, x_1, ..., x_k]`` state-count vector (a copy)."""
        out = np.empty(self.k + 1, dtype=np.int64)
        out[0] = self._u
        out[1:] = self._x
        return out

    # ------------------------------------------------------------------
    # Derived quantities used throughout the paper
    # ------------------------------------------------------------------

    def bias(self) -> int:
        """Advantage of the strongest opinion over the runner-up.

        This is the paper's initial bias ``x_1(0) - x_2(0)`` when the
        configuration is sorted; we compute it order-independently as
        (largest support) − (second largest support).
        """
        if self.k == 1:
            return int(self._x[0])
        top_two = np.partition(self._x, self.k - 2)[-2:]
        return int(top_two[1] - top_two[0])

    def gap(self, i: int, j: int) -> int:
        """The paper's ``Δ_ij = x_i - x_j`` (1-based opinion indices)."""
        return self.x(i) - self.x(j)

    def max_gap(self) -> int:
        """``max_{i,j} (x_i - x_j)`` = (largest support) − (smallest support)."""
        return int(self._x.max() - self._x.min())

    def plurality_winner(self) -> Optional[int]:
        """The unique opinion with the largest support (1-based), or ``None`` on a tie."""
        top = self._x.max()
        winners = np.flatnonzero(self._x == top)
        if top == 0 or winners.size != 1:
            return None
        return int(winners[0]) + 1

    def is_consensus(self) -> bool:
        """True when every agent holds the same opinion (and none undecided)."""
        return self._u == 0 and bool(np.any(self._x == self._n))

    def is_all_undecided(self) -> bool:
        """True when every agent is undecided."""
        return self._u == self._n

    def is_stable(self) -> bool:
        """True when no USD interaction can ever change the configuration.

        For the Undecided State Dynamics the absorbing configurations
        are exactly consensus and all-undecided: with two distinct
        opinions alive a cancellation is possible, and with one opinion
        alive plus undecided agents a recruitment is possible.
        """
        return self.is_consensus() or self.is_all_undecided()

    def fractions(self) -> np.ndarray:
        """Opinion supports as fractions of ``n`` (length ``k`` floats)."""
        return self._x / self._n

    def sum_of_squares(self) -> int:
        """``Σ_i x_i²`` — appears in the drift of ``u`` (proof of Lemma 3.1)."""
        return int(np.dot(self._x, self._x))

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._u == other._u and np.array_equal(self._x, other._x)

    def __hash__(self) -> int:
        return hash((self._u, self._x.tobytes()))

    def __len__(self) -> int:
        return self.k

    def __iter__(self) -> Iterable[int]:
        return iter(int(v) for v in self._x)

    def __repr__(self) -> str:
        if self.k <= 8:
            body = ", ".join(str(int(v)) for v in self._x)
        else:
            head = ", ".join(str(int(v)) for v in self._x[:4])
            body = f"{head}, ... ({self.k} opinions)"
        return f"Configuration(x=[{body}], u={self._u}, n={self._n})"
