"""Stabilization-time measurement over seed ensembles.

The paper's statements are w.h.p. statements over the scheduler's
randomness; empirically we run independent seeds and report the
ensemble of stabilization times (in parallel-time units), the winner
distribution, and censoring information when a horizon was hit.

An ensemble is one :class:`~repro.specs.EnsembleSpec` executed by
:func:`repro.specs.run_spec`, the library's single seed-ensemble
executor: members fan out over the process pool, ``workers=0`` (the
default) runs in-process, and any worker count returns bit-identical
results for the same root seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..core.configuration import Configuration
from ..errors import ExperimentError
from ..specs import (
    EnsembleSpec,
    InitialSpec,
    ProtocolSpec,
    RecordingSpec,
    RunSpec,
    run_spec,
)
from .stats import Summary, summarize

__all__ = [
    "UNDETERMINED_WINNER",
    "StabilizationEnsemble",
    "usd_stabilization_ensemble",
]

#: Sentinel stored in :attr:`StabilizationEnsemble.winners` for runs that
#: stabilized without a surviving opinion (the all-undecided absorption).
#: Opinions are 1-based, so ``-1`` can never collide with a real winner.
UNDETERMINED_WINNER = -1


@dataclass(frozen=True)
class StabilizationEnsemble:
    """Stabilization statistics over independent seeds.

    Attributes
    ----------
    times:
        Parallel stabilization times of the runs that stabilized.
    winners:
        Winning opinion per stabilized run (1-based).  Runs that
        stabilized with no surviving opinion — the all-undecided
        absorption — are stored as :data:`UNDETERMINED_WINNER` (``-1``),
        never as an opinion index, so winner-frequency statistics cannot
        mistake them for a real opinion.
    censored:
        Runs that hit the horizon without stabilizing.
    horizon_parallel_time:
        The per-run horizon.
    params:
        The ensemble's parameters (n, k, bias, engine, ...).
    """

    times: np.ndarray
    winners: np.ndarray
    censored: int
    horizon_parallel_time: float
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        """Total number of runs in the ensemble."""
        return int(self.times.size) + self.censored

    @property
    def num_undetermined(self) -> int:
        """Runs that stabilized with no winner (all-undecided absorption)."""
        return int(np.sum(self.winners == UNDETERMINED_WINNER))

    @property
    def undetermined_fraction(self) -> float:
        """Fraction of *all* runs that stabilized without a winner."""
        if self.runs == 0:
            return 0.0
        return self.num_undetermined / self.runs

    @property
    def majority_win_fraction(self) -> float:
        """Fraction of *all* runs in which opinion 1 won."""
        if self.runs == 0:
            return 0.0
        return float(np.sum(self.winners == 1)) / self.runs

    def summary(self) -> Summary:
        """Summary statistics of the stabilized runs' parallel times."""
        if self.times.size == 0:
            raise ExperimentError("no run stabilized within the horizon")
        return summarize(self.times)


def usd_stabilization_ensemble(
    initial: Configuration,
    *,
    num_seeds: int = 10,
    seed: int = 0,
    engine: str = "auto",
    max_parallel_time: float = 10_000.0,
    workers: Optional[int] = 0,
    persist_to: Optional[Union[str, Path]] = None,
) -> StabilizationEnsemble:
    """Run USD from ``initial`` under ``num_seeds`` independent seeds.

    The ensemble is one :class:`~repro.specs.EnsembleSpec` with root
    seed ``seed``, executed by :func:`repro.specs.run_spec`: member
    ``i`` runs with ``derive_seed(seed, i)``, so any individual run can
    be replayed from the root seed and its index.  With ``workers > 0``
    (or ``None`` for all CPUs) the members execute on a process pool;
    the aggregate results are bit-identical to ``workers=0`` for the
    same root seed.

    ``persist_to=DIR`` streams every member's trajectory to
    ``DIR/run-XXXX`` while it runs (spill-to-disk, memory-bounded) and
    turns the call *resumable*: a member whose directory already holds
    a complete stream recording the member's ``spec_hash`` is answered
    from that stream instead of re-simulated, so a large-n ensemble
    interrupted halfway only pays for the missing runs when repeated.
    A directory without a recorded ``spec_hash`` never answers for a
    member; it is re-simulated and overwritten.
    """
    if num_seeds < 1:
        raise ExperimentError(f"num_seeds must be >= 1, got {num_seeds}")
    ensemble = EnsembleSpec(
        run=RunSpec(
            protocol=ProtocolSpec(name="usd", k=initial.k),
            initial=InitialSpec.from_configuration(initial),
            engine=engine,
            max_parallel_time=max_parallel_time,
            recording=RecordingSpec(
                persist_to=None if persist_to is None else str(persist_to)
            ),
        ),
        num_runs=num_seeds,
        root_seed=seed,
    )
    times = []
    winners = []
    for result in run_spec(ensemble, workers=workers).results:
        if result.stabilized and result.stabilization_parallel_time is not None:
            times.append(result.stabilization_parallel_time)
            winners.append(
                result.winner if result.winner is not None else UNDETERMINED_WINNER
            )
    params = {
        "n": initial.n,
        "k": initial.k,
        "bias": initial.bias(),
        "engine": engine,
        "num_seeds": num_seeds,
        "root_seed": ensemble.root_seed,
        "workers": workers,
        "persist_to": None if persist_to is None else str(persist_to),
    }
    return StabilizationEnsemble(
        times=np.asarray(times, dtype=float),
        winners=np.asarray(winners, dtype=np.int64),
        censored=num_seeds - len(times),
        horizon_parallel_time=float(max_parallel_time),
        params=params,
    )
