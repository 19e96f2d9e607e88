"""Executable forms of the paper's bounds (Theorem 3.5 and context).

Every asymptotic statement of the paper is materialised here as a
concrete function of ``(n, k)`` so experiments can overlay predicted
curves on measured data:

* the main lower bound ``Ω(k·n·log(√n/(k log n)))`` interactions /
  ``Ω(k·log(√n/(k log n)))`` parallel time, with the explicit ``1/25``
  epoch constant from Theorem 3.5;
* the Amir et al. (PODC'23) upper bound ``O(k log n)`` parallel time;
* the trivial ``Ω(log n)`` coupon-collector lower bound;
* the regime ratio for ``k = o(√n / log n)`` and the bias cap
  ``O(f(n)·√(n log n))`` with ``f(n) = (√n/(k log n))^(1/4)``.

Logarithms: asymptotic statements use the natural log (constant-factor
equivalent); the epoch count of Theorem 3.5 counts *doublings* of the
gap, hence uses log₂ where the proof does.
"""

from __future__ import annotations

import math

from ..errors import RegimeError

__all__ = [
    "f_n",
    "max_initial_bias",
    "regime_ratio",
    "theorem35_epoch_interactions",
    "theorem35_num_epochs",
    "lower_bound_interactions",
    "lower_bound_parallel_time",
    "amir_upper_bound_parallel_time",
    "trivial_lower_bound_parallel_time",
    "paper_k_schedule",
]

#: Epoch-length constant of Lemma 3.3 / Theorem 3.5 (τ = k·n / 25).
EPOCH_CONSTANT = 25.0


def _require_valid(n: float, k: float) -> None:
    if n < 4:
        raise RegimeError(f"population size must be at least 4, got {n}")
    if k < 2:
        raise RegimeError(f"the bounds need at least 2 opinions, got {k}")


def f_n(n: float, k: float) -> float:
    """The paper's ``f(n) = (√n / (k log n))^(1/4)`` (Theorem 3.5).

    Controls how far above ``√(n log n)`` the initial bias may go while
    the lower bound still applies.
    """
    _require_valid(n, k)
    inner = math.sqrt(n) / (k * math.log(n))
    if inner <= 0:
        raise RegimeError(f"√n/(k log n) must be positive, got {inner}")
    return inner**0.25


def max_initial_bias(n: float, k: float) -> float:
    """Largest initial bias covered by the lower bound: ``f(n)·√(n log n)``.

    Note this is ``ω(√(n log n))`` whenever ``k = o(√n/log n)`` — the
    lower bound holds even for biases where the majority provably wins.
    """
    return f_n(n, k) * math.sqrt(n * math.log(n))


def regime_ratio(n: float, k: float) -> float:
    """``k / (√n / log n)`` — must be ≪ 1 for the paper's regime.

    The theorem requires ``k = o(√n / log n)``; for concrete ``(n, k)``
    we report how deep into that regime the pair sits.
    """
    _require_valid(n, k)
    return k * math.log(n) / math.sqrt(n)


def theorem35_epoch_interactions(n: float, k: float) -> float:
    """Length ``τ = k·n/25`` of one induction epoch (Lemma 3.3 / Thm 3.5)."""
    _require_valid(n, k)
    return k * n / EPOCH_CONSTANT


def theorem35_num_epochs(n: float, k: float, bias: float | None = None) -> float:
    """Number of gap-doubling epochs ``ℓ_max`` the induction sustains.

    ``ℓ_max = log₂( n^(3/4) / (k^(1/2) · bias) )`` with the initial bias
    defaulting to the cap ``f(n)·√(n log n)``.  Starting from the cap,
    the gap can double this many times before reaching ``n^(3/4)/√k``,
    which is still ``o(n/k)`` inside the regime.
    """
    _require_valid(n, k)
    if bias is None:
        bias = max_initial_bias(n, k)
    if bias <= 0:
        raise RegimeError(f"bias must be positive, got {bias}")
    value = n**0.75 / (math.sqrt(k) * bias)
    if value <= 1.0:
        return 0.0
    return math.log2(value)


def lower_bound_interactions(n: float, k: float) -> float:
    """Theorem 3.5's stabilization lower bound, in interactions.

    ``(k·n/25) · ℓ_max`` — asymptotically ``Θ(k·n·log(√n/(k log n)))``.
    """
    return theorem35_epoch_interactions(n, k) * theorem35_num_epochs(n, k)


def lower_bound_parallel_time(n: float, k: float) -> float:
    """Theorem 3.5's lower bound in parallel time (interactions / n)."""
    return lower_bound_interactions(n, k) / n


def amir_upper_bound_parallel_time(n: float, k: float) -> float:
    """Amir et al. (PODC'23): ``O(k log n)`` parallel time, as ``k ln n``.

    Valid for ``k = O(√n / log² n)``; the leading constant is not given
    explicitly in the paper, so experiments fit it.
    """
    _require_valid(n, k)
    return k * math.log(n)


def trivial_lower_bound_parallel_time(n: float) -> float:
    """``Ω(log n)``: in ``o(n log n)`` interactions some agents never interact."""
    if n < 2:
        raise RegimeError(f"population size must be at least 2, got {n}")
    return math.log(n)


def paper_k_schedule(n: float) -> int:
    """The paper's Figure 1 / corollary choice ``k = √n/(log n · log log n)``.

    Floored to an integer; evaluates to 27 at n = 10⁶, matching Figure 1.
    """
    if n < 16:
        raise RegimeError(f"k schedule needs n >= 16, got {n}")
    value = math.sqrt(n) / (math.log(n) * math.log(math.log(n)))
    return max(2, int(value))
