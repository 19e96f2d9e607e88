"""Sharded sweep execution with resumable checkpoints and merged provenance.

The paper's lower bound is an asymptotic statement over the
``(n, k, bias)`` parameter space, so the reproduction's weight sits in
large grid sweeps — the Theorem 3.5 k-scaling, the Figure 1
``k(n) = √n/(log n · log log n)`` schedule, the ``√(n log n)`` bias
threshold.  This package executes those grids across processes *and
hosts* without ever changing the numbers.

Seed-derivation contract
------------------------
A :class:`SweepPlan` owns an ordered grid of
:class:`~repro.workloads.sweeps.SweepPoint` and a single root seed.
Grid point ``i`` always receives

    ``point_seed(i) = derive_seed(root_seed, i)``

— a function of the root seed and the grid index **only**.  Worker
count, shard assignment and completion order never enter the
derivation, so a sweep executed as ``m`` shards on ``m`` machines and
merged is bit-identical to the serial single-host sweep.  Inside a
point, ensembles root their per-run seeds at ``point_seed(i)`` via the
same :func:`repro.rng.derive_seed` chain, extending the contract down
to individual runs: any run anywhere is replayable from
``(root_seed, grid_index, run_index)``.

Shard / merge workflow (two hosts)
----------------------------------
Host A and host B split a sweep and a third run merges::

    # host A                                      (owns points 0, 2, 4, …)
    repro run thm35-scaling --shard 0/2 --out results/

    # host B                                      (owns points 1, 3, 5, …)
    repro run thm35-scaling --shard 1/2 --out results/

    # anywhere, after copying both hosts' results/thm35-scaling/ together
    repro sweep status thm35-scaling --out results/
    repro run thm35-scaling --out results/ --resume

Each finished point is checkpointed to
``results/<sweep>/point-<index>-<label>.json`` the moment it completes;
a killed sweep re-run with ``--resume`` skips every checkpointed point
and computes only the remainder.  ``repro sweep status`` shows the
inventory without computing anything.  A full run with ``--out`` is the
merge: it writes ``merged.json`` (rows + root seed + per-point seeds —
byte-identical for every sharding) and ``provenance.json`` (shard map,
repo state, sweep parameters — the execution record).  After the shards,
``--resume`` makes that run compute nothing, or only the points no
shard delivered (recorded under shard ``0/1``).
"""

from .plan import ShardSpec, SweepPlan
from .runner import (
    PointOutcome,
    ShardRun,
    SweepStatus,
    load_checkpoint,
    run_sweep,
    sweep_status,
)

__all__ = [
    "PointOutcome",
    "ShardRun",
    "ShardSpec",
    "SweepPlan",
    "SweepStatus",
    "load_checkpoint",
    "run_sweep",
    "sweep_status",
]
