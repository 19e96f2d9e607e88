"""An executable certificate of the Theorem 3.5 induction.

The proof of Theorem 3.5 chains Lemmas 3.1, 3.3 and 3.4 through
``ℓ_max`` epochs of ``kn/25`` interactions, doubling the admissible gap
each epoch.  Each chaining step has *applicability conditions* (the
Lemma 3.2 thresholds, the α window, the ``x_i ≤ 3n/2k`` closure, the
regime ``k = o(√n/log n)``).  :func:`certify_lower_bound` instantiates
the entire induction at concrete ``(n, k, bias)`` and reports, epoch by
epoch, which conditions hold — turning the asymptotic proof into a
finite-``n`` checklist.

This is the honest way to read the paper's bound at simulable sizes:
the certificate tells you exactly which epochs the *explicit constants*
support, and where finite-``n`` slack eats the asymptotic statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import RegimeError
from .bounds import EPOCH_CONSTANT, max_initial_bias, regime_ratio, theorem35_num_epochs
from .lemmas import (
    lemma33_walk_parameters,
    lemma34_walk_parameters,
    u_tilde,
)

__all__ = ["EpochRecord", "LowerBoundCertificate", "certify_lower_bound"]

#: Safety valve on the epoch enumeration (the gap doubles each epoch).
_MAX_EPOCHS = 64


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of the Theorem 3.5 induction.

    Attributes
    ----------
    index:
        Epoch number ℓ (0-based).
    gap_in:
        Gap bound entering the epoch: ``2^ℓ · β``.
    gap_out:
        Gap bound after the epoch: ``2^(ℓ+1) · β``.
    gap_below_invariant:
        ``gap_out ≤ n^(3/4)/√k`` — the induction's closure condition
        (which in turn implies ``x_i ≤ 3n/2k`` for the next epoch).
    alpha_in_window:
        Lemma 3.4's window at this epoch: ``gap_in > √(n log n)`` (the
        finite-n reading of ω(·)) and ``gap_out < n/k``.
    lemma34_condition:
        Lemma 3.2's threshold condition for the gap walk at this epoch.
    """

    index: int
    gap_in: float
    gap_out: float
    gap_below_invariant: bool
    alpha_in_window: bool
    lemma34_condition: bool

    @property
    def all_hold(self) -> bool:
        """Every condition of this epoch is satisfied."""
        return (
            self.gap_below_invariant
            and self.alpha_in_window
            and self.lemma34_condition
        )


@dataclass(frozen=True)
class LowerBoundCertificate:
    """The full finite-n instantiation of Theorem 3.5.

    Attributes
    ----------
    n, k, bias:
        The instance.
    regime_ratio:
        ``k·log n/√n`` — must be ≪ 1.
    u_ceiling:
        Lemma 3.1's centre ``ũ``; the ceiling on u(t) adds
        ``lemma31_slack(n)``.
    lemma33_condition:
        Lemma 3.2's threshold condition for the opinion-growth walk.
    epochs:
        Per-epoch records; the certified bound counts the prefix of
        epochs whose conditions all hold.
    certified_epochs:
        Length of that prefix.
    certified_interactions:
        ``certified_epochs × kn/25`` — the lower bound the explicit
        constants actually support at this size.
    asymptotic_epochs:
        The paper's ``ℓ_max`` (what the bound becomes as n → ∞).
    """

    n: float
    k: float
    bias: float
    regime_ratio: float
    u_ceiling: float
    lemma33_condition: bool
    epochs: List[EpochRecord] = field(default_factory=list)

    @property
    def certified_epochs(self) -> int:
        """Number of leading epochs whose conditions all hold."""
        count = 0
        for epoch in self.epochs:
            if not epoch.all_hold:
                break
            count += 1
        return count

    @property
    def certified_interactions(self) -> float:
        """The explicitly-certified interaction lower bound."""
        if not self.lemma33_condition:
            return 0.0
        return self.certified_epochs * self.k * self.n / EPOCH_CONSTANT

    @property
    def certified_parallel_time(self) -> float:
        """The certified bound in parallel time."""
        return self.certified_interactions / self.n

    @property
    def asymptotic_epochs(self) -> float:
        """The paper's ℓ_max at this (n, k, bias), ignoring conditions."""
        return theorem35_num_epochs(self.n, self.k, self.bias)

    def rows(self) -> List[dict]:
        """Tabular per-epoch view (for reports and EXPERIMENTS.md)."""
        return [
            {
                "epoch": epoch.index,
                "gap_in": epoch.gap_in,
                "gap_out": epoch.gap_out,
                "invariant": epoch.gap_below_invariant,
                "alpha_window": epoch.alpha_in_window,
                "lemma32_cond": epoch.lemma34_condition,
                "all_hold": epoch.all_hold,
            }
            for epoch in self.epochs
        ]


def certify_lower_bound(
    n: float, k: float, bias: Optional[float] = None
) -> LowerBoundCertificate:
    """Instantiate the Theorem 3.5 induction at concrete ``(n, k, bias)``.

    ``bias`` defaults to the paper's cap ``f(n)·√(n log n)``.  Epochs
    are enumerated until the closure invariant fails (or
    ``_MAX_EPOCHS``, a safety valve).
    """
    if n < 16 or k < 2:
        raise RegimeError(f"certificate needs n >= 16 and k >= 2, got ({n}, {k})")
    if bias is None:
        bias = max_initial_bias(n, k)
    if bias <= 0:
        raise RegimeError(f"bias must be positive, got {bias}")

    ratio = regime_ratio(n, k)
    ceiling = u_tilde(n, k)
    growth_params = lemma33_walk_parameters(n, k)
    lemma33_ok = growth_params.condition_holds(n)

    invariant_cap = n**0.75 / math.sqrt(k)
    sqrt_n_log_n = math.sqrt(n * math.log(n))
    epochs: List[EpochRecord] = []
    for index in range(_MAX_EPOCHS):
        gap_in = (2.0**index) * bias
        gap_out = 2.0 * gap_in
        below_invariant = gap_out <= invariant_cap
        # Lemma 3.4 doubles the gap from α/2 = gap_in to α = gap_out.
        alpha = gap_out
        in_window = gap_in > sqrt_n_log_n and alpha < n / k
        try:
            walk = lemma34_walk_parameters(n, k, alpha)
            lemma34_ok = walk.condition_holds(n)
        except RegimeError:  # pragma: no cover - alpha validated above
            lemma34_ok = False
        epochs.append(
            EpochRecord(
                index=index,
                gap_in=gap_in,
                gap_out=gap_out,
                gap_below_invariant=below_invariant,
                alpha_in_window=in_window,
                lemma34_condition=lemma34_ok,
            )
        )
        if not below_invariant:
            break
    return LowerBoundCertificate(
        n=float(n),
        k=float(k),
        bias=float(bias),
        regime_ratio=ratio,
        u_ceiling=ceiling,
        lemma33_condition=lemma33_ok,
        epochs=epochs,
    )
