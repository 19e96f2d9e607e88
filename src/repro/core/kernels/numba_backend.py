"""Optional Numba-JIT backend for the counts *and* τ-leaping kernels.

Compiles both engine hot loops with ``@numba.njit`` while drawing from
the *same* ``np.random.Generator`` the engine owns (Numba operates
directly on the generator's bit-generator state and implements NumPy's
exact ``geometric``/``integers``/``random`` algorithms), so the
compiled kernels consume the random stream in the same order as the
NumPy reference and trajectories stay bit-identical across backends.

The τ-leaping batch kernel needs ``binomial``/``multinomial`` draws,
which Numba's ``Generator`` support does not provide — so this backend
brings its own: :mod:`repro.core.kernels.numba_rng` ports NumPy's C
samplers (inversion + BTPE binomial, conditional-binomial multinomial)
to nopython-compilable scalar code that consumes uniforms through
``rng.random()`` exactly like NumPy's ``next_double``.  The whole
sample → reject-halve → apply loop then runs in compiled code.

Three deliberate safety properties:

* **Guarded load.** Importing or compiling Numba can fail (package
  missing, unsupported version).  :func:`load` never raises — it
  returns ``(kernels, None)`` on success or ``(None, reason)`` on any
  failure, and the registry falls back to the NumPy backend with a
  one-time warning.
* **Bit-identity self-check.** Before the backend is accepted, each
  compiled kernel is run against its NumPy reference from identical
  generator states — counts scenarios spanning both ``geometric``
  regimes, batch scenarios spanning the binomial inversion/BTPE
  branches, deep multinomials and the rejection-halving path, across
  several seeds.  The trajectories, step outcomes (including
  ``rejection_halvings``) *and the post-run bit-generator states* must
  match exactly.  A Numba version whose draw algorithms ever diverge
  from NumPy's is rejected at load time instead of silently producing
  different trajectories.
* **Per-kernel provenance, never silent delegation.** If the batch
  kernel cannot be compiled or fails its self-check while the counts
  kernel passes, the backend still loads but its ``batch_step``
  delegates to the NumPy reference — and the returned provenance says
  so explicitly (``batch_step: numpy (delegated: <reason>)``), which
  ``repro backends`` and the :class:`~.registry.KernelBackend` repr
  surface.  A user can always tell which backend actually serves each
  kernel.  The exact batched engine's ``multibatch_step`` has no
  compiled port and is always served that way.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import numba_rng, numpy_backend
from .inputs import KernelInputs

__all__ = ["load"]

#: Registry name of this backend.
NAME = "numba"

_SELF_CHECK_SEED = 20250728

#: Why the collision-free epoch kernel is served by numpy.  Its epoch
#: loop is a handful of vectorised numpy calls per ~0.63·√n
#: interactions; the engine's hand-over to ``counts_step`` near
#: absorption still runs this backend's compiled counts kernel.
_MULTIBATCH_DELEGATION = "vectorised epoch kernel, no compiled port"

#: Seeds the batch self-check replays every scenario under.  Several
#: seeds, because the rejection-sampling branches (BTPE squeeze accepts,
#: negativity halvings) are data-dependent and one stream may miss them.
_BATCH_SELF_CHECK_SEEDS = (20250728, 7, 1848)


def _counts_step_scalar(
    eff_a, eff_b, eff_same, eff_delta, pair_denominator, counts, rng, start, target
):
    """The counts kernel in scalar (nopython-compilable) form.

    Plain Python — ``load`` compiles it with ``numba.njit``, and the
    test suite runs it uncompiled against the NumPy reference, so the
    *algorithm's* draw-for-draw equivalence is verified even on
    machines without numba.  It must consume the random stream exactly
    like :func:`repro.core.kernels.numpy_backend.counts_step`: one
    ``geometric`` per effective event, then one ``integers``.
    """
    interactions = start
    last_change = np.int64(-1)
    absorbed = False
    num_pairs = eff_a.shape[0]
    num_states = eff_delta.shape[1]
    while interactions < target:
        total = np.int64(0)
        for e in range(num_pairs):
            total += counts[eff_a[e]] * (counts[eff_b[e]] - eff_same[e])
        if total == 0:
            interactions = target
            absorbed = True
            break
        p_effective = total / pair_denominator
        gap = rng.geometric(p_effective)
        if interactions + gap > target:
            interactions = target
            break
        interactions += gap
        # searchsorted(cumsum(w), r, side='right'): smallest e with
        # cumsum[e] > r — computed as a linear scan (E is small).
        r = rng.integers(0, total)
        acc = np.int64(0)
        pick = num_pairs - 1
        for e in range(num_pairs):
            acc += counts[eff_a[e]] * (counts[eff_b[e]] - eff_same[e])
            if r < acc:
                pick = e
                break
        for s in range(num_states):
            counts[s] += eff_delta[pick, s]
        last_change = interactions
    return interactions, last_change, absorbed


def _make_batch_step_scalar(random_binomial, random_multinomial):
    """Build the τ-leaping kernel in scalar (nopython-compilable) form.

    A closure factory for the same reason as ``numba_rng``'s: the one
    algorithm is instantiated uncompiled (over the pure-Python sampler
    ports, for tests and numba-less self-checks) and compiled (over the
    ``njit`` sampler dispatchers).  It must consume the random stream
    exactly like :func:`repro.core.kernels.numpy_backend.batch_step`:
    one ``binomial`` per attempted batch, then one ``multinomial`` when
    any interaction was effective.

    ``halvings = -1`` in the return signals the (unreachable) batch-
    collapse error to the wrapper, which raises the proper exception —
    raising from nopython code would lose the error type.
    """

    def batch_step_scalar(
        eff_a,
        eff_b,
        eff_same,
        eff_delta,
        pair_denominator,
        counts,
        rng,
        num,
        start,
        batch,
        nominal_batch,
    ):
        num_pairs = eff_a.shape[0]
        num_states = eff_delta.shape[1]
        weights = np.empty(num_pairs, np.int64)
        probabilities = np.empty(num_pairs, np.float64)
        pair_counts = np.empty(num_pairs, np.int64)
        delta = np.empty(num_states, np.int64)
        interactions = start
        last_change = np.int64(-1)
        remaining = num
        halvings = 0
        while remaining > 0:
            total = np.int64(0)
            for e in range(num_pairs):
                w = counts[eff_a[e]] * (counts[eff_b[e]] - eff_same[e])
                weights[e] = w
                total += w
            ftotal = float(total)
            if ftotal == 0.0:
                return interactions + remaining, last_change, True, batch, halvings
            p_effective = ftotal / pair_denominator
            if p_effective > 1.0:
                p_effective = 1.0
            attempt = batch if batch < remaining else remaining
            for e in range(num_pairs):
                probabilities[e] = weights[e] / ftotal
            applied = 0
            while True:
                if attempt < 1:
                    return interactions, last_change, False, batch, -1
                effective = random_binomial(rng, p_effective, attempt)
                if effective == 0:
                    applied = attempt
                    break
                random_multinomial(rng, effective, probabilities, pair_counts)
                negative = False
                for s in range(num_states):
                    acc = np.int64(0)
                    for e in range(num_pairs):
                        acc += pair_counts[e] * eff_delta[e, s]
                    delta[s] = acc
                    if counts[s] + acc < 0:
                        negative = True
                if negative:
                    halved = attempt // 2
                    attempt = halved if halved > 1 else 1
                    batch = attempt
                    halvings += 1
                    continue
                changed = False
                for s in range(num_states):
                    counts[s] += delta[s]
                    if delta[s] != 0:
                        changed = True
                if changed:
                    last_change = interactions + attempt
                applied = attempt
                break
            interactions += applied
            remaining -= applied
            # Recover towards the nominal batch size after successes so
            # a one-off rejection near a small count does not slow the
            # rest of the run.
            if batch < nominal_batch:
                doubled = batch * 2
                batch = doubled if doubled < nominal_batch else nominal_batch
        return interactions, last_change, False, batch, halvings

    return batch_step_scalar


#: The uncompiled batch kernel over the pure-Python sampler ports —
#: what the tests and numba-less self-checks run.
_batch_step_scalar = _make_batch_step_scalar(
    numba_rng.random_binomial, numba_rng.random_multinomial
)


def _compile_counts_kernel():
    """Compile the JIT counts kernel; raises when numba cannot deliver."""
    import numba

    # no cache=True: compilation happens once per process (during the
    # self-check below), and an on-disk cache would tie the artifact to
    # a mutable source file for little gain.
    return numba.njit(_counts_step_scalar)


def _compile_batch_kernel():
    """Compile the JIT batch kernel; raises when numba cannot deliver."""
    import numba

    binomial, multinomial = numba_rng.compile_rng()
    return numba.njit(_make_batch_step_scalar(binomial, multinomial))


def _wrap_counts_step(counts_step_jit):
    """Adapt the JIT kernel to the backend-level kernel signature."""

    def counts_step(
        inputs: KernelInputs,
        counts: np.ndarray,
        rng: np.random.Generator,
        start: int,
        target: int,
    ) -> Tuple[int, Optional[int], bool]:
        interactions, last_change, absorbed = counts_step_jit(
            inputs.eff_a,
            inputs.eff_b,
            inputs.eff_same,
            inputs.eff_delta,
            inputs.pair_denominator,
            counts,
            rng,
            start,
            target,
        )
        return (
            int(interactions),
            None if last_change < 0 else int(last_change),
            bool(absorbed),
        )

    return counts_step


def _wrap_batch_step(batch_step_impl):
    """Adapt a scalar batch kernel to the backend-level signature."""
    from ...errors import BatchSizeError

    def batch_step(
        inputs: KernelInputs,
        counts: np.ndarray,
        rng: np.random.Generator,
        num: int,
        start: int,
        batch: int,
        nominal_batch: int,
    ) -> Tuple[int, Optional[int], bool, int, int]:
        interactions, last_change, absorbed, new_batch, halvings = batch_step_impl(
            inputs.eff_a,
            inputs.eff_b,
            inputs.eff_same,
            inputs.eff_delta,
            inputs.pair_denominator,
            counts,
            rng,
            num,
            start,
            batch,
            nominal_batch,
        )
        if halvings < 0:  # pragma: no cover - defensive; B=1 cannot reject
            raise BatchSizeError("batch size collapsed below one interaction")
        return (
            int(interactions),
            None if last_change < 0 else int(last_change),
            bool(absorbed),
            int(new_batch),
            int(halvings),
        )

    return batch_step


def _self_check_scenarios():
    """The systems the counts-kernel self-check must reproduce exactly.

    Hand-built so the kernels package never imports the protocol layer.
    Two regimes, because NumPy's samplers switch algorithms with the
    argument range and a divergence in either would break bit-identity:

    * *small* — a 14-agent USD-like system ([⊥, x₁, x₂]: opposing
      opinions blank the responder, an undecided initiator adopts);
      large ``p_effective``, ``integers`` bounds far below 2³², many
      events, absorption reached.
    * *large* — the n = 10⁸ regime the backend exists for: only the
      opposing-opinion pairs are effective, pair weights push the
      ``integers`` bound past 2³² (the 64-bit bounded-sampling path)
      and ``p_effective`` down to ~10⁻⁶ (the geometric's log path).
    """
    small = KernelInputs(
        eff_a=np.array([1, 2, 0, 0], dtype=np.int64),
        eff_b=np.array([2, 1, 1, 2], dtype=np.int64),
        eff_same=np.zeros(4, dtype=np.int64),
        eff_delta=np.array(
            [[1, 0, -1], [1, -1, 0], [-1, 1, 0], [-1, 0, 1]], dtype=np.int64
        ),
        pair_denominator=float(14) * float(13),
        num_states=3,
        n=14,
    )
    n_large = 100_000_000
    large = KernelInputs(
        eff_a=np.array([1, 2], dtype=np.int64),
        eff_b=np.array([2, 1], dtype=np.int64),
        eff_same=np.zeros(2, dtype=np.int64),
        eff_delta=np.array([[1, 0, -1], [1, -1, 0]], dtype=np.int64),
        pair_denominator=float(n_large) * float(n_large - 1),
        num_states=3,
        n=n_large,
    )
    support = 70_000  # weight 2·(7·10⁴)² ≈ 9.8·10⁹ > 2³², p ≈ 10⁻⁶
    return (
        (small, np.array([4, 5, 5], dtype=np.int64), 512, 64),
        (
            large,
            np.array(
                [n_large - 2 * support, support, support], dtype=np.int64
            ),
            60_000_000,
            20_000_000,
        ),
    )


def _batch_self_check_scenarios():
    """The systems the batch-kernel self-check must reproduce exactly.

    Built to cross every algorithm branch of the ported samplers
    (``tests/test_numba_rng.py`` verifies the branch coverage claims on
    the samplers in isolation; here they run composed, inside the full
    sample → reject-halve → apply loop):

    * *small-usd* — 80 agents with a single undecided agent and batch
      30: inversion-branch binomials, and ≥ 2 adoption events sampled
      against the one undecided agent force negativity rejections under
      the self-check seeds, so the halving/recovery path is exercised
      and compared (verified: the numpy reference takes halvings > 0
      here).
    * *dense-voter* — a 3-opinion voter system with every cross pair
      effective: ``p_effective`` ≈ 0.66 > ½ (the binomial complement
      trick) and batch · p > 30 (the BTPE branch), with six-way
      multinomials whose conditional binomials sweep p across (0, 1).
    * *large-sparse* — the n = 10⁸ regime: ``p_effective`` ≈ 10⁻⁶ with
      batch 2·10⁵, so the top-level binomial runs deep in the inversion
      regime with huge ``n`` and the multinomial splits few effectives
      over two pairs.
    """
    small_usd = KernelInputs(
        eff_a=np.array([1, 2, 0, 0], dtype=np.int64),
        eff_b=np.array([2, 1, 1, 2], dtype=np.int64),
        eff_same=np.zeros(4, dtype=np.int64),
        eff_delta=np.array(
            [[1, 0, -1], [1, -1, 0], [-1, 1, 0], [-1, 0, 1]], dtype=np.int64
        ),
        pair_denominator=float(80) * float(79),
        num_states=3,
        n=80,
    )
    # voter on 3 opinions: initiator converts responder (a, b) -> (a, a)
    voter_pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    voter_delta = np.zeros((6, 3), dtype=np.int64)
    for row, (a, b) in enumerate(voter_pairs):
        voter_delta[row, a] = 1
        voter_delta[row, b] = -1
    n_voter = 30_000
    dense_voter = KernelInputs(
        eff_a=np.array([a for a, _ in voter_pairs], dtype=np.int64),
        eff_b=np.array([b for _, b in voter_pairs], dtype=np.int64),
        eff_same=np.zeros(6, dtype=np.int64),
        eff_delta=voter_delta,
        pair_denominator=float(n_voter) * float(n_voter - 1),
        num_states=3,
        n=n_voter,
    )
    n_large = 100_000_000
    large_sparse = KernelInputs(
        eff_a=np.array([1, 2], dtype=np.int64),
        eff_b=np.array([2, 1], dtype=np.int64),
        eff_same=np.zeros(2, dtype=np.int64),
        eff_delta=np.array([[1, 0, -1], [1, -1, 0]], dtype=np.int64),
        pair_denominator=float(n_large) * float(n_large - 1),
        num_states=3,
        n=n_large,
    )
    support = 70_000
    # (inputs, initial counts, nominal batch, total interactions, chunk)
    return (
        (small_usd, np.array([1, 40, 39], dtype=np.int64), 30, 3_000, 250),
        (
            dense_voter,
            np.array([12_000, 10_000, 8_000], dtype=np.int64),
            300,
            40_000,
            7_000,
        ),
        (
            large_sparse,
            np.array([n_large - 2 * support, support, support], dtype=np.int64),
            200_000,
            40_000_000,
            9_000_000,
        ),
    )


def _self_check(counts_step) -> Optional[str]:
    """Run the candidate counts kernel against the NumPy reference.

    Returns ``None`` when trajectories and post-run generator states
    match exactly in every scenario, otherwise a human-readable
    mismatch description.
    """
    for inputs, initial, target, chunk in _self_check_scenarios():
        results, states, trajectories = [], [], []
        for step_fn in (numpy_backend.counts_step, counts_step):
            counts = initial.copy()
            rng = np.random.Generator(np.random.PCG64(_SELF_CHECK_SEED))
            snapshots = []
            outcome = (0, None, False)
            interactions = 0
            # several shorter calls, so truncation/resume paths are
            # checked too
            while interactions < target and not outcome[2]:
                outcome = step_fn(
                    inputs, counts, rng, interactions, interactions + chunk
                )
                interactions = outcome[0]
                snapshots.append(counts.copy())
            results.append(outcome)
            states.append(rng.bit_generator.state)
            trajectories.append(snapshots)
        scenario = f"n={inputs.n}"
        if len(trajectories[0]) != len(trajectories[1]) or any(
            not np.array_equal(a, b) for a, b in zip(*trajectories)
        ):
            return f"trajectories diverge from the numpy reference ({scenario})"
        if results[0] != results[1]:
            return (
                f"step outcomes diverge ({results[0]} vs {results[1]}, "
                f"{scenario})"
            )
        if states[0] != states[1]:
            return f"random streams diverge from the numpy reference ({scenario})"
    return None


def _batch_self_check(batch_step) -> Optional[str]:
    """Run the candidate batch kernel against the NumPy reference.

    Every scenario is replayed under several seeds; the trajectory
    snapshots, the step outcomes — including the adaptive batch size
    and the ``rejection_halvings`` count, which prove the
    reject-halve-recover control flow took the same path — and the
    post-run bit-generator states must match exactly.
    """
    for inputs, initial, nominal, target, chunk in _batch_self_check_scenarios():
        for seed in _BATCH_SELF_CHECK_SEEDS:
            results, states, trajectories, halving_counts = [], [], [], []
            for step_fn in (numpy_backend.batch_step, batch_step):
                counts = initial.copy()
                rng = np.random.Generator(np.random.PCG64(seed))
                snapshots = []
                outcome = (0, None, False, nominal, 0)
                interactions = 0
                batch = nominal
                halvings = 0
                while interactions < target and not outcome[2]:
                    num = min(chunk, target - interactions)
                    outcome = step_fn(
                        inputs, counts, rng, num, interactions, batch, nominal
                    )
                    interactions = outcome[0]
                    batch = outcome[3]
                    halvings += outcome[4]
                    snapshots.append(counts.copy())
                results.append(outcome)
                states.append(rng.bit_generator.state)
                trajectories.append(snapshots)
                halving_counts.append(halvings)
            scenario = f"n={inputs.n}, seed={seed}"
            if len(trajectories[0]) != len(trajectories[1]) or any(
                not np.array_equal(a, b) for a, b in zip(*trajectories)
            ):
                return (
                    "batch trajectories diverge from the numpy reference "
                    f"({scenario})"
                )
            if results[0] != results[1]:
                return (
                    f"batch step outcomes diverge ({results[0]} vs "
                    f"{results[1]}, {scenario})"
                )
            if halving_counts[0] != halving_counts[1]:
                return (
                    "rejection-halving counts diverge "
                    f"({halving_counts[0]} vs {halving_counts[1]}, {scenario})"
                )
            if states[0] != states[1]:
                return (
                    "batch random streams diverge from the numpy reference "
                    f"({scenario})"
                )
    return None


def load():
    """Try to build the numba backend.

    Returns ``(kernels, None)`` on success or ``(None, reason)`` when
    numba is missing, fails to compile, or the counts kernel fails the
    bit-identity self-check.  Never raises.

    ``kernels`` maps kernel names to callables plus a ``"provenance"``
    entry recording which implementation actually serves each kernel.
    ``multibatch_step`` is always the NumPy reference, recorded as
    delegated.
    The batch kernel degrades independently: if *it* cannot compile or
    fails its self-check while the counts kernel passes, the backend
    still loads with ``batch_step`` delegated to the NumPy reference
    and the delegation reason recorded in the provenance — visible in
    ``repro backends``, never silent.
    """
    try:
        import numba  # noqa: F401
    except ImportError:
        return None, "the 'numba' package is not installed"
    try:
        counts_step = _wrap_counts_step(_compile_counts_kernel())
        mismatch = _self_check(counts_step)
    except Exception as error:  # compilation/typing failures included
        return None, f"numba kernel compilation failed ({error})"
    if mismatch is not None:
        return None, f"numba kernel failed the bit-identity self-check: {mismatch}"
    provenance = {"counts_step": NAME, "batch_step": NAME}
    try:
        batch_step = _wrap_batch_step(_compile_batch_kernel())
        batch_mismatch = _batch_self_check(batch_step)
    except Exception as error:
        batch_step = None
        batch_mismatch = f"batch kernel compilation failed ({error})"
    if batch_step is None or batch_mismatch is not None:
        batch_step = numpy_backend.batch_step
        provenance["batch_step"] = f"numpy (delegated: {batch_mismatch})"
    provenance["multibatch_step"] = f"numpy (delegated: {_MULTIBATCH_DELEGATION})"
    return {
        "counts_step": counts_step,
        "batch_step": batch_step,
        "multibatch_step": numpy_backend.multibatch_step,
        "provenance": provenance,
    }, None
