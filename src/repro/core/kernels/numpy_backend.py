"""The numpy kernels — the engine hot loops, which the engines call directly.

``counts_step`` plays the exact counts dynamics one effective
interaction at a time: a geometric gap over the null interactions, then
the effective pair, drawn with probability proportional to its weight
``c_a (c_b - [a = b])``.  It draws exactly what a flat search of the
pair weights would: ``rng.geometric(W / (n (n - 1)))`` with ``W`` the
total weight, then ``r = rng.integers(0, W)`` and the first pair, in
``TransitionTable.effective_pairs`` order, whose running weight exceeds
``r``.  That order is sorted by initiator, so the search runs in two
steps over the blocks of :class:`KernelInputs`: the initiator ``a`` is
the first whose running block weight ``Σ W`` exceeds ``r``, and, with
``r'`` what is left of ``r`` below block ``a``, the responder is the
first ``b`` of block ``a`` whose running ``Σ (c_b - [a = b])`` exceeds
``r' // c_a``.  That is the same pair, so seeded trajectories are the
same draw for draw, and each effective interaction costs O(S) work on
Python ints (the counts and each block's ``partners``, updated by the
pair's sparse changes) instead of numpy calls over all E pairs.

``batch_step`` is the binomial/multinomial τ-leaping loop with
rejection halving.  A batch of ``attempt`` interactions draws
``rng.binomial(attempt, p_effective)`` and, if that is positive,
``rng.multinomial(effective, weights / total)``: the pair weights over
their float sum, by true division.  A batch that would drive a count
negative is drawn again at half the size.  The delta is one float64
product of the pair counts with :attr:`KernelInputs.eff_delta_float`,
which BLAS computes faster than numpy's int64 product; it is exact,
since every term and partial sum is an integer of magnitude at most
2n < 2⁵³.  ``tests/test_batch_kernel_differential.py`` keeps the loop
it replaced as the reference: the same draws, arguments and order, so
seeded trajectories are the same draw for draw.

``multibatch_step`` is the collision-free epoch loop of the exact
batched engine.  An epoch makes four draws, ``standard_exponential()``
for ℓ, ``multivariate_hypergeometric(counts, 2ℓ)``, ``shuffle`` of the
touched agents' states and, on a collision, ``integers(0, ·)``, which
are about half of its time at n = 2·10⁴.  Around them it makes as few
numpy calls as it can: the pair weight by initiator block
(:meth:`KernelInputs.effective_weight`), ℓ by ``bisect`` on the epoch
table (a tuple), the flat pair index in place, all 2ℓ post-states by one
``take``, and the untouched agent's state by a scan of a short list.
``tests/test_multibatch_kernel_differential.py`` keeps the loop it
replaced as the reference: the same draws, arguments and order, so
seeded trajectories are the same draw for draw.

Kernels are stateless: all run state lives in the engine and travels
through the arguments/returns.  ``counts`` is mutated in place.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import mul
from typing import Optional, Tuple

import numpy as np

from ...errors import BatchSizeError
from .inputs import EpochInputs, KernelInputs

__all__ = ["counts_step", "batch_step", "multibatch_step"]


def counts_step(
    inputs: KernelInputs,
    counts: np.ndarray,
    rng: np.random.Generator,
    start: int,
    target: int,
) -> Tuple[int, Optional[int], bool]:
    """Advance the exact counts dynamics from ``start`` to ``target``.

    Returns ``(interactions, last_change, absorbed)`` where
    ``last_change`` is the interaction index of the latest configuration
    change *within this call* (``None`` if nothing changed) and
    ``absorbed`` reports whether the configuration can never change
    again.  ``counts`` is updated in place on every return.
    """
    interactions = start
    last_change: Optional[int] = None
    block_pairs = inputs.block_pairs
    count_change = inputs.pair_count_change
    partner_change = inputs.pair_partner_change
    denominator = inputs.pair_denominator
    geometric, integers = rng.geometric, rng.integers
    c = counts.tolist()
    partners = (inputs.responder_matrix @ counts - inputs.block_self).tolist()
    try:
        while interactions < target:
            total = sum(map(mul, c, partners))
            if total == 0:
                # Every remaining interaction is null: the configuration
                # is absorbing and time just rolls forward.
                return target, last_change, True
            gap = int(geometric(total / denominator))
            if interactions + gap > target:
                # No effective interaction inside this call; by
                # memorylessness of the geometric the truncation is exact.
                return target, last_change, False
            interactions += gap
            r = int(integers(0, total))
            for a, weight in enumerate(map(mul, c, partners)):
                if r < weight:
                    break
                r -= weight
            # c_a > 0: block a's weight c_a · partners_a exceeds r >= 0
            r //= c[a]
            for b, same, pick in block_pairs[a]:
                r -= c[b] - same
                if r < 0:
                    break
            for state, change in count_change[pick]:
                c[state] += change
            for initiator, change in partner_change[pick]:
                partners[initiator] += change
            last_change = interactions
        return interactions, last_change, False
    finally:
        counts[:] = c


def batch_step(
    inputs: KernelInputs,
    counts: np.ndarray,
    rng: np.random.Generator,
    num: int,
    start: int,
    batch: int,
    nominal_batch: int,
) -> Tuple[int, Optional[int], bool, int, int]:
    """Advance the τ-leaping dynamics by ``num`` interactions.

    ``batch`` is the engine's persistent current batch size (it shrinks
    on negativity rejections and recovers towards ``nominal_batch``
    after successes); the updated value is returned so the engine can
    carry it across calls.  Returns ``(interactions, last_change,
    absorbed, batch, halvings)`` where ``halvings`` counts the
    negativity rejections taken during this call; ``counts`` is updated
    in place.
    """
    interactions = start
    last_change: Optional[int] = None
    remaining = num
    halvings = 0
    eff_a, eff_b, eff_same = inputs.eff_a, inputs.eff_b, inputs.eff_same
    eff_delta = inputs.eff_delta_float
    denominator = inputs.pair_denominator
    binomial, multinomial = rng.binomial, rng.multinomial
    while remaining > 0:
        weights = counts[eff_a] * (counts[eff_b] - eff_same)
        total = float(weights.sum())
        if total == 0.0:
            return interactions + remaining, last_change, True, batch, halvings
        p_effective = min(1.0, total / denominator)
        attempt = min(batch, remaining)
        # Sample one batch, halving on negativity rejection (never
        # clamping, which would bias the drift's sign); B = 1 reproduces
        # the exact single-interaction distribution, so this terminates.
        # A true division: ``* (1 / total)`` can differ in the last bit,
        # and that would move the multinomial draw.
        probabilities = weights / total
        while True:
            if attempt < 1:  # pragma: no cover - defensive; B=1 cannot reject
                raise BatchSizeError("batch size collapsed below one interaction")
            effective = int(binomial(attempt, p_effective))
            if effective == 0:
                applied = attempt
                break
            # The float product is exact: every term and partial sum is
            # an integer of magnitude at most 2 · effective <= 2n < 2⁵³,
            # in any summation order.
            delta = (multinomial(effective, probabilities) @ eff_delta).astype(
                np.int64
            )
            candidate = counts + delta
            if candidate.min() < 0:
                attempt = max(1, attempt // 2)
                batch = attempt
                halvings += 1
                continue
            counts[:] = candidate
            if delta.any():
                last_change = interactions + attempt
            applied = attempt
            break
        interactions += applied
        remaining -= applied
        # Recover towards the nominal batch size after successes so a
        # one-off rejection near a small count does not slow the rest of
        # the run.
        if batch < nominal_batch:
            batch = min(nominal_batch, batch * 2)
    return interactions, last_change, False, batch, halvings


def multibatch_step(
    inputs: EpochInputs,
    counts: np.ndarray,
    rng: np.random.Generator,
    start: int,
    target: int,
) -> Tuple[int, Optional[int], bool]:
    """Advance the exact dynamics from ``start`` in collision-free epochs.

    One epoch (Berenbrink et al., ESA 2020, arXiv:2005.03584) samples
    ℓ, the number of pairwise-disjoint interactions before the first one
    that touches an agent twice, draws the states of the 2ℓ touched
    agents without replacement and in uniform order (positions ``i`` and
    ``ℓ + i`` interact), applies the transition table to all ℓ pairs at
    once, and then plays the colliding interaction ℓ + 1 on its own.
    That is exactly the law of ℓ + 1 uniform interactions.  The epoch
    that would cross ``target`` stops there and plays no collision,
    which the Markov property makes exact.

    Returns ``(interactions, last_change, absorbed)`` like
    :func:`counts_step`, with ``last_change`` exact to the interaction.
    It returns early, at ``interactions < target``, once an epoch holds
    less than one effective interaction on average (``p_effective ·
    E[ℓ] < 1``): there geometric null-skipping is cheaper, and the
    caller runs ``counts_step`` instead.  ``absorbed`` is checked at
    every return, and an absorbed call returns ``target``.
    """
    pairs = inputs.pairs
    num_states, n = pairs.num_states, pairs.n
    handover = pairs.pair_denominator / inputs.expected_epoch
    post_states, effective = inputs.post_states, inputs.effective
    delta = inputs.delta
    epoch_table = inputs.epoch_table
    longest = len(epoch_table) - 1
    states = np.arange(num_states)
    interactions = start
    last_change: Optional[int] = None
    while True:
        total = pairs.effective_weight(counts)
        if total == 0:
            return target, last_change, True
        if interactions >= target or total < handover:
            return interactions, last_change, False
        # inversion: P(ℓ ≥ m) = exp(-epoch_table[m]) = P(E ≥ epoch_table[m])
        ell = bisect_right(epoch_table, rng.standard_exponential()) - 1
        collide = ell < longest and ell < target - interactions
        ell = min(ell, target - interactions)
        touched = 2 * ell
        drawn = rng.multivariate_hypergeometric(counts, touched)
        order = states.repeat(drawn)
        rng.shuffle(order)
        # positions i and ℓ + i interact: pair index a · S + b, in place
        flat = order[:ell]
        flat *= num_states
        flat += order[ell:]
        changed = effective[flat].nonzero()[0]
        if changed.size:
            last_change = interactions + int(changed[-1]) + 1
        interactions += ell
        # the ℓ initiators' post-states, then the ℓ responders'
        post = post_states.take(flat, axis=1).ravel()
        counts -= drawn
        untouched = counts.tolist()
        counts += np.bincount(post, minlength=num_states)
        if not collide:
            continue
        # the colliding pair is touched-untouched, untouched-touched or
        # touched-touched, with weights t·u : u·t : t(t − 1); one uniform
        # integer picks the kind and both agents
        rest = n - touched
        cross = touched * rest
        draw = int(rng.integers(0, 2 * cross + touched * (touched - 1)))
        if draw < 2 * cross:
            if draw < cross:
                agent, other = divmod(draw, rest)
            else:
                other, agent = divmod(draw - cross, touched)
            # the state of the other-th untouched agent, in state order
            for state, count in enumerate(untouched):
                if other < count:
                    break
                other -= count
            a, b = post.item(agent), state
            if draw >= cross:  # the untouched agent initiates
                a, b = b, a
        else:
            first, second = divmod(draw - 2 * cross, touched - 1)
            a, b = post.item(first), post.item(second + (second >= first))
        interactions += 1
        pair = a * num_states + b
        if effective[pair]:
            counts += delta[pair]
            last_change = interactions
