"""Parallel ensemble execution over ``multiprocessing`` workers.

:func:`parallel_map` maps a picklable task over items in input order;
mapped over explicit seeds (e.g. :func:`repro.rng.spawn_seeds`
children) it builds seeded ensembles.  Results are bit-identical to
serial execution for the same root seed, regardless of worker count or
completion order; ``workers=0`` executes in-process for deterministic,
debuggable test runs.

Seed ensembles of simulation runs execute as a
:class:`repro.specs.EnsembleSpec` through :func:`repro.specs.run_spec`,
which fans its members (seeded ``derive_seed(root_seed, i)``) over
:func:`parallel_map`; :func:`repro.analysis.usd_stabilization_ensemble`
is built on it, and the ``fig1-ensemble`` experiment runs its members
as grid points of :mod:`repro.sweep`, whose runner maps them with the
same :func:`parallel_map`.  Each accepts a ``workers`` argument, as
does every registry experiment (CLI: ``repro run <id> --workers N``).

``parallel_map``'s optional ``on_result(index, result)`` callback sees
each result the moment it completes (the list still comes back in
input order) — what :mod:`repro.sweep` uses to checkpoint finished
grid points while the rest of a shard is still running.
"""

from .pool import available_workers, parallel_map, resolve_workers

__all__ = ["available_workers", "parallel_map", "resolve_workers"]
