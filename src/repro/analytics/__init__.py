"""Columnar fleet analytics: export streamed runs, query them at scale.

The subsystem has three layers (PR 10):

* :mod:`repro.analytics.codec` — one run as one npz file of columns
  (``times``, ``counts``, ``undecided``, plus the run identity);
* :mod:`repro.analytics.dataset` — many runs as one partitioned
  dataset with an incremental manifest (``export_dataset`` /
  ``Dataset``);
* :mod:`repro.analytics.query` — fleet-scale answers in one columnar
  scan (``FleetQuery``: hitting-time quantiles, undecided envelopes,
  winner breakdowns, backend throughput).

Typical flow::

    from repro import analytics

    report = analytics.export_dataset("fleet/", runs_roots=["results/sweep"])
    q = analytics.dataset("fleet/").query(protocol="usd", n=2000)
    q.hitting_time_quantiles((0.5, 0.9, 0.99), unit="parallel")

Escape hatch: the fragments under ``<dataset>/fragments/**`` are plain
npz archives in hive-style partition directories — ``np.load`` one
(``times``, ``counts``, ``undecided`` and a JSON ``meta`` with the run
identity) when this library's canned questions run out.
"""

from .codec import read_columnar, run_identity, write_columnar
from .dataset import (
    DATASET_MANIFEST_NAME,
    Dataset,
    ExportReport,
    dataset,
    export_dataset,
)
from .query import (
    FleetQuery,
    quantiles_exact,
    sample_step_function,
    time_grid,
)

__all__ = [
    "DATASET_MANIFEST_NAME",
    "Dataset",
    "ExportReport",
    "FleetQuery",
    "dataset",
    "export_dataset",
    "quantiles_exact",
    "read_columnar",
    "run_identity",
    "sample_step_function",
    "time_grid",
    "write_columnar",
]
