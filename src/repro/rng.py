"""Random-number-generator plumbing.

Every stochastic component of the library accepts a ``seed`` argument of
type :data:`repro.types.SeedLike` and normalises it through
:func:`make_rng`.  Ensembles of independent runs derive child seeds
with :func:`spawn_seeds` (NumPy ``SeedSequence`` spawning, so streams
are statistically independent and reproducible regardless of execution
order) or plain integer seeds with :func:`derive_seed`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .types import SeedLike

__all__ = ["make_rng", "spawn_seeds", "derive_seed"]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    * ``None`` — fresh OS-entropy generator;
    * ``int`` — deterministic generator seeded with that integer;
    * ``SeedSequence`` — generator built on that sequence;
    * ``Generator`` — returned unchanged (shared stream, not copied).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` child ``SeedSequence`` objects from ``seed``.

    A ``SeedSequence`` crosses process boundaries, so
    :mod:`repro.parallel` can fan the children out over workers while
    ``make_rng(child)`` reconstructs in each worker exactly the
    generator it would have built in-process — the streams are
    bit-identical either way.  A ``Generator`` built without a
    ``SeedSequence`` seeds the children from its own stream, which keeps
    seeded runs deterministic.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seed_seq = getattr(seed.bit_generator, "seed_seq", None)
        if not isinstance(seed_seq, np.random.SeedSequence):
            # pragma: no cover - only reachable with exotic bit generators
            return [
                np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
                for _ in range(count)
            ]
    elif isinstance(seed, np.random.SeedSequence):
        seed_seq = seed
    else:
        seed_seq = np.random.SeedSequence(seed)
    return list(seed_seq.spawn(count))


def derive_seed(seed: SeedLike, index: int) -> int:
    """Return a stable 63-bit integer seed for run ``index`` of an ensemble.

    Unlike :func:`spawn_seeds` this produces a *plain integer*, which is
    convenient to store in result files so any individual ensemble
    member can be replayed in isolation.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    if isinstance(seed, np.random.Generator):
        seed_seq = getattr(seed.bit_generator, "seed_seq", None)
        entropy = seed_seq.entropy if seed_seq is not None else 0
    elif isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
    else:
        entropy = seed
    child = np.random.SeedSequence(entropy, spawn_key=(index,))
    return int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
