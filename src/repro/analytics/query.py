"""Fleet-scale queries over an exported analytics dataset.

:class:`FleetQuery` answers the questions the paper's experiments keep
asking — hitting-time quantiles, undecided-fraction envelopes,
winner/engine breakdowns, per-backend throughput — across thousands of
runs in one columnar scan of the dataset's fragments and summaries.

The numeric kernels (:func:`quantiles_exact`,
:func:`sample_step_function`, :func:`time_grid`) are module-level and
deliberately tiny: the CI bit-match check computes a per-run NumPy
reference straight from :class:`~repro.io.streaming.StreamedTrace`
through these *same* helpers, so a query result and its reference are
identical to the last bit by construction, not by tolerance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalyticsError

__all__ = [
    "FleetQuery",
    "quantiles_exact",
    "sample_step_function",
    "time_grid",
]


def quantiles_exact(
    values: Sequence[float], quantiles: Sequence[float]
) -> Dict[str, float]:
    """``np.quantile`` over float64, keyed by the quantile's repr.

    The single quantile definition every analytics answer and every
    reference computation goes through (linear interpolation, the
    NumPy default) — the bit-match contract hangs on this.
    """
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return {}
    qs = np.asarray(list(quantiles), dtype=np.float64)
    out = np.quantile(data, qs)
    return {repr(float(q)): float(v) for q, v in zip(qs, out)}


def time_grid(t_max: float, points: int) -> np.ndarray:
    """The shared evaluation grid: ``points`` samples over ``[0, t_max]``."""
    return np.linspace(0.0, float(t_max), int(points))


def sample_step_function(
    times: np.ndarray, values: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Sample a right-continuous step function onto ``grid``.

    Snapshots hold the state *at* each recorded time; between
    snapshots the trajectory holds its last value.  Grid points before
    the first snapshot take the first value (clamped, not
    extrapolated); points past the last snapshot hold the final value.
    """
    idx = np.searchsorted(np.asarray(times), grid, side="right") - 1
    idx = np.maximum(idx, 0)
    return np.asarray(values)[idx]


def _match(record: Dict[str, Any], key: str, wanted: Any) -> bool:
    if wanted is None:
        return True
    return record.get(key) == wanted


class FleetQuery:
    """One filtered view over a dataset, with the canned answers.

    Filters are exact matches on record identity (``protocol``, ``n``,
    ``spec_hash``, ``engine``, ``backend``); ``None`` means "any".
    Summary-backed answers (hitting times, winners, throughput) read
    only the manifest; trajectory-backed answers (envelopes) scan the
    columnar fragments, skipping unreadable ones with recorded reasons
    (see :attr:`Dataset.skipped`).
    """

    def __init__(
        self,
        dataset: Any,
        *,
        protocol: Optional[str] = None,
        n: Optional[int] = None,
        spec_hash: Optional[str] = None,
        engine: Optional[str] = None,
        backend: Optional[str] = None,
    ):
        self.dataset = dataset
        self.filters = {
            "protocol": protocol,
            "n": None if n is None else int(n),
            "spec_hash": spec_hash,
            "engine": engine,
            "backend": backend,
        }

    @property
    def records(self) -> List[Dict[str, Any]]:
        return [
            record
            for record in self.dataset.runs
            if all(_match(record, key, want) for key, want in self.filters.items())
        ]

    def __len__(self) -> int:
        return len(self.records)

    # -- summary-backed answers ----------------------------------------

    def hitting_time_quantiles(
        self,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99),
        *,
        unit: str = "interactions",
    ) -> Dict[str, Any]:
        """Quantiles of the stabilization (hitting) time across the fleet.

        ``unit`` is ``"interactions"`` (raw interaction counts) or
        ``"parallel"`` (interactions divided by each run's own ``n`` —
        the parallel-time normalization the paper's bounds live in).
        Runs that never stabilized carry no hitting time; they are
        excluded from the quantiles and reported in ``unstabilized``.
        """
        if unit not in ("interactions", "parallel"):
            raise AnalyticsError(
                f"unknown hitting-time unit {unit!r}; "
                "supported units: interactions, parallel"
            )
        values: List[float] = []
        unstabilized = 0
        missing = 0
        for record in self.records:
            summary = record.get("summary") or {}
            hit = summary.get("stabilization_interactions")
            if not summary.get("stabilized") or hit is None:
                unstabilized += 1
                continue
            if unit == "parallel":
                n = record.get("n")
                if not n:
                    missing += 1
                    continue
                values.append(float(hit) / float(n))
            else:
                values.append(float(hit))
        return {
            "ask": "hitting-quantiles",
            "unit": unit,
            "runs": len(self.records),
            "stabilized": len(values),
            "unstabilized": unstabilized,
            "missing_n": missing,
            "quantiles": quantiles_exact(values, quantiles),
        }

    def winner_breakdown(self) -> Dict[str, Any]:
        """Who won, and through which engine, across the fleet."""
        winners: Dict[str, int] = {}
        engines: Dict[str, int] = {}
        stabilized = 0
        for record in self.records:
            summary = record.get("summary") or {}
            if summary.get("stabilized"):
                stabilized += 1
            winner = summary.get("winner")
            key = "none" if winner is None else str(winner)
            winners[key] = winners.get(key, 0) + 1
            engine = record.get("engine")
            ekey = "unknown" if engine is None else str(engine)
            engines[ekey] = engines.get(ekey, 0) + 1
        return {
            "ask": "winners",
            "runs": len(self.records),
            "stabilized": stabilized,
            "unstabilized": len(self.records) - stabilized,
            "winners": dict(sorted(winners.items())),
            "by_engine": dict(sorted(engines.items())),
        }

    def backend_throughput(self) -> Dict[str, Any]:
        """Interactions per wall-second, grouped by (engine, backend)."""
        groups: Dict[Tuple[str, str], Dict[str, float]] = {}
        for record in self.records:
            summary = record.get("summary") or {}
            interactions = summary.get("interactions")
            wall = summary.get("wall_seconds")
            if interactions is None or wall is None:
                continue
            key = (
                str(record.get("engine") or "unknown"),
                str(record.get("backend") or "default"),
            )
            group = groups.setdefault(
                key,
                {"runs": 0, "interactions": 0.0, "wall_seconds": 0.0,
                 "kernel_seconds": 0.0},
            )
            group["runs"] += 1
            group["interactions"] += float(interactions)
            group["wall_seconds"] += float(wall)
            group["kernel_seconds"] += float(summary.get("kernel_seconds") or 0.0)
        table = {}
        for (engine, backend), group in sorted(groups.items()):
            wall = group["wall_seconds"]
            table[f"{engine}/{backend}"] = {
                "runs": int(group["runs"]),
                "interactions": group["interactions"],
                "wall_seconds": wall,
                "kernel_seconds": group["kernel_seconds"],
                "interactions_per_second": (
                    group["interactions"] / wall if wall > 0 else None
                ),
            }
        return {"ask": "throughput", "runs": len(self.records), "groups": table}

    # -- trajectory-backed answers -------------------------------------

    def undecided_envelope(
        self,
        *,
        grid_points: int = 50,
        quantiles: Sequence[float] = (0.1, 0.5, 0.9),
    ) -> Dict[str, Any]:
        """Quantile envelope of the undecided population over time.

        One columnar scan: every fragment's ``(time, undecided)``
        columns are sampled (as step functions) onto a shared grid of
        ``grid_points`` times spanning ``[0, max final time]``, then
        per-grid-point quantiles are taken across runs.  Each run is
        divided by its own ``n`` (the answer's ``fraction`` is always
        true).  Runs without an undecided state or an ``n``, and
        unreadable fragments, are excluded and counted.
        """
        series: List[Tuple[np.ndarray, np.ndarray]] = []
        no_undecided = 0
        skipped_before = len(self.dataset.skipped)
        for record, arrays in self.dataset.iter_series(records=self.records):
            undecided = arrays.get("undecided")
            if undecided is None:
                no_undecided += 1
                continue
            times = arrays["times"]
            if times.size == 0:
                no_undecided += 1
                continue
            n = record.get("n")
            if not n:
                no_undecided += 1
                continue
            values = undecided.astype(np.float64) / np.float64(n)
            series.append((times.astype(np.float64), values))
        skipped = len(self.dataset.skipped) - skipped_before
        if not series:
            return {
                "ask": "undecided-envelope",
                "runs": 0,
                "excluded": no_undecided,
                "skipped": skipped,
                "grid": [],
                "quantiles": {},
            }
        t_max = max(float(times[-1]) for times, _ in series)
        grid = time_grid(t_max, grid_points)
        matrix = np.stack(
            [sample_step_function(times, values, grid) for times, values in series]
        )
        qs = np.asarray(list(quantiles), dtype=np.float64)
        bands = np.quantile(matrix, qs, axis=0)
        return {
            "ask": "undecided-envelope",
            "runs": len(series),
            "excluded": no_undecided,
            "skipped": skipped,
            "fraction": True,
            "grid": [float(t) for t in grid],
            "quantiles": {
                repr(float(q)): [float(v) for v in band]
                for q, band in zip(qs, bands)
            },
        }

    def ask(self, question: str, **options: Any) -> Dict[str, Any]:
        """Dispatch a named question (the CLI's ``--ask`` verbs)."""
        table = {
            "hitting-quantiles": self.hitting_time_quantiles,
            "undecided-envelope": self.undecided_envelope,
            "winners": self.winner_breakdown,
            "throughput": self.backend_throughput,
        }
        if question not in table:
            raise AnalyticsError(
                f"unknown query {question!r}; supported queries: "
                + ", ".join(sorted(table))
            )
        return table[question](**options)

    def __repr__(self) -> str:
        active = {k: v for k, v in self.filters.items() if v is not None}
        return f"FleetQuery(runs={len(self)}, filters={active})"
