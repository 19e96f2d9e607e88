"""Negative-drift hitting times — Oliveto & Witt's Theorem 2 (Theorem A.1).

Lemma 3.1 keeps ``u(t)`` below its ceiling by exhibiting a negative
drift of ``√(log n / n)`` per interaction above ``ũ + √(n log n)`` and
invoking the Oliveto–Witt bound: a process with drift ``ε`` towards
``a`` across an interval of length ``ℓ = b − a``, sub-exponential step
tails at scale ``r``, w.h.p. needs ``exp(εℓ/(132 r²))`` steps to cross
the interval.

This module evaluates the bound, checks its three conditions, and
instantiates it with the paper's exact Lemma 3.1 parameters
(``ℓ = 20·132·√(n log n)``, ``ε = √(log n/n)``, ``r = √5``), verifying
the claim ``P[T* ≤ n⁴] ≤ O(n⁻⁴)``; ``lem31-ceiling`` states that claim
at every grid ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import RegimeError
from .lemmas import OLIVETO_WITT_CONSTANT

__all__ = [
    "OlivetoWittBound",
    "negative_drift_bound",
    "lemma31_oliveto_witt_instance",
]


@dataclass(frozen=True)
class OlivetoWittBound:
    """Evaluated Theorem A.1 instance.

    Attributes
    ----------
    interval_length:
        ``ℓ = b − a``.
    drift:
        The drift lower bound ``ε`` towards the safe side.
    step_scale:
        The sub-exponential step scale ``r``
        (``P(|X_{t+1} − X_t| ≥ j·r) ≤ e^{−j}``).
    exponent:
        ``εℓ/(132 r²)`` — both the log of the survival time and the
        negated log of the failure probability.
    conditions_hold:
        Whether ``1 ≤ r² ≤ εℓ / (132·log(r/ε))`` is satisfied.
    """

    interval_length: float
    drift: float
    step_scale: float
    exponent: float
    conditions_hold: bool

    def survives_at_least(self, steps: float) -> bool:
        """Whether the bound certifies survival beyond ``steps``.

        Compares in log space with a tiny tolerance so exact matches
        like ``exp(4 log n)`` versus ``n⁴`` are not lost to rounding.
        """
        return self.exponent >= math.log(max(steps, 1.0)) - 1e-9


def negative_drift_bound(
    interval_length: float, drift: float, step_scale: float
) -> OlivetoWittBound:
    """Evaluate Theorem A.1 for interval ``ℓ``, drift ``ε``, scale ``r``."""
    if interval_length <= 0:
        raise RegimeError(f"interval length must be positive, got {interval_length}")
    if drift <= 0:
        raise RegimeError(f"drift must be positive, got {drift}")
    if step_scale < 1:
        raise RegimeError(f"step scale r must be >= 1, got {step_scale}")
    exponent = drift * interval_length / (OLIVETO_WITT_CONSTANT * step_scale**2)
    ratio = step_scale / drift
    if ratio <= 1.0:
        # log(r/ε) ≤ 0 makes the second condition vacuous (any r² ≥ 1 works).
        conditions = True
    else:
        conditions = step_scale**2 <= (
            drift * interval_length / (OLIVETO_WITT_CONSTANT * math.log(ratio))
        )
    return OlivetoWittBound(
        interval_length=interval_length,
        drift=drift,
        step_scale=step_scale,
        exponent=exponent,
        conditions_hold=conditions,
    )


def lemma31_oliveto_witt_instance(n: float) -> OlivetoWittBound:
    """The paper's exact instantiation inside the proof of Lemma 3.1.

    ``X_t = −u(t)`` drifts by at least ``ε = √(log n/n)`` across the
    interval of length ``ℓ = 20·132·√(n log n)`` just above
    ``ũ + √(n log n)``; steps are bounded by 2, so ``r = √5`` gives the
    sub-exponential tail condition trivially.  The resulting exponent is
    ``εℓ/(132·r²) = 20·132·log n / (132·5) = 4·log n``, matching the
    claim ``P[T* ≤ exp(4 log n) = n⁴] ≤ O(n⁻⁴)``.
    """
    if n < 16:
        raise RegimeError(f"the Lemma 3.1 instance needs n >= 16, got {n}")
    drift = math.sqrt(math.log(n) / n)
    interval = 20.0 * OLIVETO_WITT_CONSTANT * math.sqrt(n * math.log(n))
    return negative_drift_bound(interval, drift, math.sqrt(5.0))
