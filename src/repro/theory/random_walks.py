"""The Lemma 3.2 lazy random walk and its coupling.

Lemma 3.2 is the workhorse of the paper: a ±1 walk ``Y`` that *moves*
with probability ``p(t) ≤ p`` and has signed drift ``q(t) ≤ q`` w.h.p.
needs at least ``T/(2q)`` steps to climb to ``T``.  The proof couples
``Y`` to a majorant walk ``Ỹ`` whose drift is exactly ``q`` and applies
Bernstein's inequality.

This module implements the walk, the exact coupling construction from
the proof (so its ``Ỹ(t) ≥ Y(t)`` invariant is *testable*), the
Bernstein tail bound the proof derives, and empirical hitting-time
estimation used by the validation experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..errors import RegimeError
from ..parallel import parallel_map
from ..rng import make_rng, spawn_seeds
from ..types import SeedLike

__all__ = [
    "LazyRandomWalk",
    "simulate_coupled_walks",
    "lemma32_survival_steps",
    "lemma32_condition_threshold",
    "lemma32_tail_bound",
    "HittingTimeEstimate",
    "estimate_hitting_time",
]

ParamFunction = Union[float, Callable[[int], float]]


class _ConstantParam:
    """A constant ``p``/``q`` parameter as a picklable callable.

    A closure would pin walks built from constants to the constructing
    process; this class keeps them picklable so hitting-time ensembles
    can fan out over :mod:`repro.parallel` workers.
    """

    def __init__(self, value: float, name: str):
        self.value = float(value)
        self.__name__ = f"constant_{name}"

    def __call__(self, _t: int) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"{self.__name__}({self.value})"


def _as_function(value: ParamFunction, name: str) -> Callable[[int], float]:
    if callable(value):
        return value
    return _ConstantParam(value, name)


class LazyRandomWalk:
    """The walk of Lemma 3.2.

    At step ``t`` the walk stays with probability ``1 − p(t)``, moves
    ``+1`` with probability ``(p(t) + q(t))/2`` and ``−1`` with
    probability ``(p(t) − q(t))/2``.  ``p`` and ``q`` may be constants
    or functions of the step index.
    """

    def __init__(self, p: ParamFunction, q: ParamFunction):
        self._p = _as_function(p, "p")
        self._q = _as_function(q, "q")

    def probabilities(self, t: int) -> Tuple[float, float, float]:
        """``(P(stay), P(+1), P(−1))`` at step ``t`` (validated)."""
        p_t = self._p(t)
        q_t = self._q(t)
        if not 0.0 <= p_t <= 1.0:
            raise RegimeError(f"p({t}) = {p_t} is not a probability")
        if abs(q_t) > p_t:
            raise RegimeError(f"|q({t})| = {abs(q_t)} exceeds p({t}) = {p_t}")
        return 1.0 - p_t, (p_t + q_t) / 2.0, (p_t - q_t) / 2.0

    def simulate(
        self, steps: int, seed: SeedLike = None, start: int = 0
    ) -> np.ndarray:
        """Simulate ``steps`` steps; returns positions of length ``steps + 1``."""
        if steps < 0:
            raise RegimeError(f"steps must be non-negative, got {steps}")
        rng = make_rng(seed)
        uniforms = rng.random(steps)
        positions = np.empty(steps + 1, dtype=np.int64)
        positions[0] = start
        position = start
        for t in range(steps):
            stay, up, _down = self.probabilities(t)
            r = uniforms[t]
            if r >= stay:
                position += 1 if r < stay + up else -1
            positions[t + 1] = position
        return positions

    def first_hitting_time(
        self,
        target: int,
        max_steps: int,
        seed: SeedLike = None,
        start: int = 0,
    ) -> Optional[int]:
        """First step at which the walk reaches ``target`` (``None`` if never)."""
        if max_steps < 0:
            raise RegimeError(f"max_steps must be non-negative, got {max_steps}")
        rng = make_rng(seed)
        position = start
        for t in range(max_steps):
            if position >= target:
                return t
            stay, up, _down = self.probabilities(t)
            r = rng.random()
            if r >= stay:
                position += 1 if r < stay + up else -1
        return max_steps if position >= target else None


def simulate_coupled_walks(
    p: ParamFunction,
    q: ParamFunction,
    q_cap: float,
    steps: int,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The proof's coupling of ``Y`` (drift ``q(t)``) and ``Ỹ`` (drift ``q_cap``).

    One uniform ``r(t)`` drives both walks exactly as in Lemma 3.2's
    proof: they stay together; when ``Y`` goes up so does ``Ỹ``; when
    ``Y`` goes down, ``Ỹ`` goes up on the sliver of probability where
    the drifts differ, down otherwise.  Requires ``q(t) ≤ q_cap`` for
    all ``t``; guarantees ``Ỹ(t) ≥ Y(t)`` pointwise.

    Returns the pair of trajectories (each of length ``steps + 1``).
    """
    p_fn = _as_function(p, "p")
    q_fn = _as_function(q, "q")
    if steps < 0:
        raise RegimeError(f"steps must be non-negative, got {steps}")
    rng = make_rng(seed)
    uniforms = rng.random(steps)
    walk = np.empty(steps + 1, dtype=np.int64)
    majorant = np.empty(steps + 1, dtype=np.int64)
    walk[0] = majorant[0] = 0
    y = y_tilde = 0
    for t in range(steps):
        p_t = p_fn(t)
        q_t = q_fn(t)
        if not 0.0 <= p_t <= 1.0:
            raise RegimeError(f"p({t}) = {p_t} is not a probability")
        if abs(q_t) > p_t:
            raise RegimeError(f"|q({t})| = {abs(q_t)} exceeds p({t}) = {p_t}")
        if q_t > q_cap:
            raise RegimeError(f"q({t}) = {q_t} exceeds the cap {q_cap}")
        if q_cap > p_t:
            raise RegimeError(
                f"q_cap = {q_cap} exceeds p({t}) = {p_t}; the majorant's "
                "down-probability would be negative"
            )
        r = uniforms[t]
        stay = 1.0 - p_t
        up_both = stay + (p_t + q_t) / 2.0
        split = stay + (p_t + q_cap) / 2.0
        if r < stay:
            pass  # both stay
        elif r < up_both:
            y += 1
            y_tilde += 1
        elif r < split:
            y -= 1
            y_tilde += 1
        else:
            y -= 1
            y_tilde -= 1
        walk[t + 1] = y
        majorant[t + 1] = y_tilde
    return walk, majorant


def lemma32_survival_steps(target: float, q: float) -> float:
    """Lemma 3.2's conclusion: the walk w.h.p. stays below ``target``
    for ``min(target/(2q), n²)`` steps."""
    if target <= 0 or q <= 0:
        raise RegimeError("target and q must be positive")
    return target / (2.0 * q)


def lemma32_condition_threshold(p: float, q: float, n: float) -> float:
    """The applicability condition: ``T ≥ 32((p − q²)/(2q) + 2/3)·log n``."""
    if not 0 < q <= p <= 1:
        raise RegimeError(f"need 0 < q <= p <= 1, got p={p}, q={q}")
    if n < 2:
        raise RegimeError(f"population size must be at least 2, got {n}")
    return 32.0 * ((p - q * q) / (2.0 * q) + 2.0 / 3.0) * math.log(n)


def lemma32_tail_bound(target: float, p: float, q: float, steps: float) -> float:
    """The Bernstein bound inside Lemma 3.2's proof.

    For ``N ≤ T/(2q)`` steps::

        P(Ỹ(N) ≥ T) ≤ exp( −(T²/8) / (N(p − q²) + 2T/3) )
    """
    if target <= 0 or steps < 0:
        raise RegimeError("target must be positive and steps non-negative")
    if not 0 < q <= p <= 1:
        raise RegimeError(f"need 0 < q <= p <= 1, got p={p}, q={q}")
    denominator = steps * (p - q * q) + 2.0 * target / 3.0
    if denominator <= 0:
        return 0.0
    return min(1.0, math.exp(-target * target / (8.0 * denominator)))


@dataclass(frozen=True)
class HittingTimeEstimate:
    """Empirical hitting-time statistics over independent walks.

    Attributes
    ----------
    times:
        Hitting times of the runs that reached the target.
    censored:
        Number of runs that never reached it within the step budget.
    max_steps:
        The per-run step budget.
    """

    times: np.ndarray
    censored: int
    max_steps: int

    @property
    def runs(self) -> int:
        """Total number of simulated walks."""
        return int(self.times.size) + self.censored

    @property
    def min_time(self) -> Optional[float]:
        """Earliest observed hitting time (``None`` if none hit)."""
        return float(self.times.min()) if self.times.size else None

    @property
    def hit_fraction(self) -> float:
        """Fraction of runs that reached the target."""
        return self.times.size / self.runs if self.runs else 0.0


def _hitting_time_task(
    run_seed: SeedLike, *, walk: LazyRandomWalk, target: int, max_steps: int
) -> Optional[int]:
    """One hitting-time sample (module-level so it pickles to workers)."""
    return walk.first_hitting_time(target, max_steps, seed=run_seed)


def estimate_hitting_time(
    walk: LazyRandomWalk,
    target: int,
    *,
    runs: int = 50,
    max_steps: int = 100_000,
    seed: SeedLike = None,
    workers: Optional[int] = 0,
) -> HittingTimeEstimate:
    """Monte-Carlo first-hitting-time estimation for ``walk``.

    With ``workers > 0`` the independent walks fan out over a process
    pool via :func:`repro.parallel.parallel_map`; each walk's stream comes
    from a :func:`repro.rng.spawn_seeds` child of ``seed``, so results
    are bit-identical for every worker count.  Walks with constant
    ``p``/``q`` are picklable; for callable parameters use module-level
    functions (or ``workers=0``).
    """
    if runs < 1:
        raise RegimeError(f"runs must be >= 1, got {runs}")
    task = partial(_hitting_time_task, walk=walk, target=target, max_steps=max_steps)
    hits = parallel_map(task, spawn_seeds(seed, runs), workers=workers)
    times = [hit for hit in hits if hit is not None]
    censored = sum(1 for hit in hits if hit is None)
    return HittingTimeEstimate(
        times=np.asarray(times, dtype=float), censored=censored, max_steps=max_steps
    )
