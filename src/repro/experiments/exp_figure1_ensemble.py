"""Experiment ``fig1-ensemble``: Figure 1's observations with error bars.

The paper's figure is a single run described as "typical for many
runs".  This experiment makes that claim quantitative: it repeats the
Figure 1 workload over a seed ensemble, aligns the trajectories on a
common parallel-time grid, and reports

* the mean u(t) curve with a quantile band against the n/2 − n/(4k)
  plateau,
* the distribution of stabilization times, doubling times and their
  ratio,
* the fraction of runs won by the designated majority.

The ensemble executes through :mod:`repro.sweep`: each member is one
:class:`~repro.workloads.sweeps.SweepPoint` (distinguished by its
``member`` index in ``extras``) whose seed derives from the root seed
and the grid index — the same ``derive_seed(root, i)`` contract the
previous in-``_execute`` ensemble used, so per-member trajectories are
unchanged.  Members therefore shard across hosts, checkpoint as they
finish and resume (``repro run fig1-ensemble --shard I/M --out DIR``,
then ``--out DIR --resume``); each checkpoint row carries the member's
summary *and* its u(t) polyline (downsampled to ≤
:data:`MAX_TRACE_SAMPLES` vertices) so :meth:`finalize` can rebuild
the ensemble band from rows alone.

Each member is one seeded :class:`~repro.specs.RunSpec` executed by
:func:`repro.specs.run_spec`.  With the ``persist`` placement parameter
(CLI: ``--persist DIR``; no other experiment takes it) it additionally
streams its full trajectory to ``DIR/member-XXXX`` (spill-to-disk,
memory-bounded); a member whose directory already holds a complete
stream with the member's ``spec_hash`` is rebuilt from it instead of
re-simulated — bit-identical rows either way.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..analysis.ensembles import ensemble_band_from_series
from ..analysis.stabilization import UNDETERMINED_WINNER
from ..analysis.trajectories import doubling_time
from ..specs import InitialSpec, ProtocolSpec, RecordingSpec, RunSpec, run_spec
from ..theory.bounds import paper_k_schedule
from ..theory.lemmas import undecided_plateau
from ..workloads.initial import paper_bias, paper_initial_configuration
from ..workloads.sweeps import SweepPoint
from .base import Claim, ExperimentResult, SweepExperiment

__all__ = ["Figure1EnsembleExperiment"]

#: Per-member u(t) polylines are stored in checkpoint rows at most this
#: many vertices long (uniform index subsampling, endpoints kept).  The
#: band interpolates linearly onto :func:`ensemble_band_from_series`'s
#: grid, so this loses nothing visible while keeping checkpoints small.
MAX_TRACE_SAMPLES = 1024


def _downsample(times: np.ndarray, values: np.ndarray):
    """Thin a polyline to ≤ :data:`MAX_TRACE_SAMPLES` aligned vertices.

    One index set applied to both arrays, so the (time, value) pairing
    can never skew; endpoints are preserved.
    """
    if times.shape[0] != values.shape[0]:
        raise ValueError("polyline arrays disagree in length")
    if times.shape[0] <= MAX_TRACE_SAMPLES:
        return times, values
    picks = np.unique(
        np.round(np.linspace(0, times.shape[0] - 1, MAX_TRACE_SAMPLES)).astype(int)
    )
    return times[picks], values[picks]


def _member_run_dir(persist: Union[str, Path], member: int) -> Path:
    return Path(persist) / f"member-{member:04d}"


def _figure1_member(
    point: SweepPoint,
    point_seed: int,
    *,
    engine: str,
    max_parallel_time: float,
    persist: Optional[str] = None,
) -> Dict[str, Any]:
    """One ensemble member (module-level so it pickles across workers).

    The member is one seeded :class:`~repro.specs.RunSpec` executed by
    :func:`repro.specs.run_spec`.  With ``persist`` set, its trajectory
    streams to ``<persist>/member-XXXX`` while it runs, and a directory
    already holding a *complete* stream with the member's ``spec_hash``
    answers instead of a re-simulation; the u(t) polyline then comes
    from the materialized stream, which is bit-identical to the
    in-memory trace, so the row is identical either way.
    """
    member = point.extras["member"]
    run_dir = None if persist is None else _member_run_dir(persist, member)
    row: Dict[str, Any] = {
        "n": point.n,
        "k": point.k,
        "bias": point.bias,
        "member": member,
        "point_seed": point_seed,
        "persist": None if run_dir is None else run_dir.name,
        "stabilized": False,
        "stab_parallel_time": None,
        "winner": None,
        "doubling_parallel_time": None,
        "trace_parallel_times": None,
        "trace_undecided": None,
    }
    spec = RunSpec(
        protocol=ProtocolSpec(name="usd", k=point.k),
        initial=InitialSpec.from_configuration(
            paper_initial_configuration(point.n, point.k, point.bias)
        ),
        engine=engine,
        seed=point_seed,
        max_parallel_time=max_parallel_time,
        recording=RecordingSpec(
            snapshot_every=max(1, point.n // 10),
            persist_to=None if run_dir is None else str(run_dir),
        ),
    )
    result = run_spec(spec)
    if not result.stabilized:
        return row
    # a persisted run keeps only its tail window in memory: the full
    # trajectory is the materialized stream
    trace = (
        result.trace
        if result.persist_dir is None
        else result.streamed_trace().materialize()
    )
    row["stabilized"] = True
    row["stab_parallel_time"] = result.stabilization_parallel_time
    row["winner"] = result.winner if result.winner is not None else UNDETERMINED_WINNER
    if row["winner"] == 1:
        row["doubling_parallel_time"] = doubling_time(trace, opinion=1)
    picks_t, picks_u = _downsample(
        trace.parallel_times.astype(float),
        trace.undecided_series().astype(float),
    )
    row["trace_parallel_times"] = picks_t.tolist()
    row["trace_undecided"] = picks_u.tolist()
    return row


def _stat(reduce, values) -> Optional[float]:
    """``reduce(values)`` as a float, or ``None`` when no member stabilized."""
    return float(reduce(values)) if values else None


class Figure1EnsembleExperiment(SweepExperiment):
    """Seed-ensemble version of the Figure 1 reproduction."""

    experiment_id = "fig1-ensemble"
    title = "Figure 1 over a seed ensemble: mean curves and event times"
    DEFAULTS: Dict[str, Any] = {
        "n": 50_000,
        "k": None,  # None → the paper's schedule
        "bias": None,  # None → √(n ln n)
        "num_seeds": 10,
        "seed": 1848,
        "engine": "auto",
        "max_parallel_time": 2_000.0,
    }
    #: ``persist`` streams member trajectories to disk: where the runs
    #: are recorded, not what they compute, so it stays out of the hash
    GLOBAL_DEFAULTS: Dict[str, Any] = {
        **SweepExperiment.GLOBAL_DEFAULTS,
        "persist": None,
    }

    def _resolved_nkb(self):
        n = self.params["n"]
        k = self.params["k"] or paper_k_schedule(n)
        bias = self.params["bias"] or paper_bias(n)
        return n, k, bias

    def grid(self) -> List[SweepPoint]:
        n, k, bias = self._resolved_nkb()
        return [
            SweepPoint(
                n=n, k=k, bias=bias, label=f"member {i}", extras={"member": i}
            )
            for i in range(self.params["num_seeds"])
        ]

    def point_task(self):
        persist = self.params["persist"]
        return partial(
            _figure1_member,
            engine=self.params["engine"],
            max_parallel_time=self.params["max_parallel_time"],
            persist=None if persist is None else str(persist),
        )

    def partial_row_view(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Partial-shard reports summarise the polylines, not print them."""
        times = row.pop("trace_parallel_times", None)
        row.pop("trace_undecided", None)
        row["trace_points"] = None if times is None else len(times)
        return row

    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        n, k, bias = self._resolved_nkb()
        done = [row for row in rows if row["stabilized"]]
        stab_times = [row["stab_parallel_time"] for row in done]
        winners = [row["winner"] for row in done]
        ratios = [
            row["doubling_parallel_time"] / row["stab_parallel_time"]
            for row in done
            if row["doubling_parallel_time"] is not None
        ]
        if done:
            series, mean_dev, notes = self._band(done, n, k, bias, stab_times)
        else:
            # every statistic below is missing, so the claims on them fail
            series, mean_dev = {}, None
            notes = ["no member stabilized within max_parallel_time"]

        win_fraction = _stat(np.mean, [w == 1 for w in winners])
        doubling_median = _stat(np.median, ratios)
        summary_rows = [
            {
                "n": n,
                "k": k,
                "bias": bias,
                "runs": len(done),
                "majority_win_fraction": win_fraction,
                "stab_time_median": _stat(np.median, stab_times),
                "stab_time_min": _stat(np.min, stab_times),
                "stab_time_max": _stat(np.max, stab_times),
                "doubling_fraction_median": doubling_median,
                "mean_u_plateau_dev_in_sqrt_nlogn": mean_dev,
            }
        ]
        claims = [
            Claim(
                "majority win fraction",
                win_fraction,
                "≥ 0.7",
                win_fraction is not None and win_fraction >= 0.7,
            ),
            Claim(
                "mean u(t) off n/2 − n/(4k) over the settled window, in √(n ln n)",
                mean_dev,
                "< 5",
                mean_dev is not None and mean_dev < 5.0,
            ),
            # doubling consumes the bulk of the run on average, not just in
            # the paper's single displayed trajectory (≈78 %)
            Claim(
                "median x₁ doubling time / stabilization time",
                doubling_median,
                "> 0.4, or no run doubled",
                doubling_median is None or doubling_median > 0.4,
            ),
        ]
        return self._result(
            rows=summary_rows, series=series, claims=claims, notes=notes
        )

    def _band(self, done, n, k, bias, stab_times):
        """The u(t) band of the stabilized members, and its plateau distance.

        Returns ``(series, mean_dev, notes)``; ``mean_dev`` is ``None``
        when the settled window is empty.
        """
        # Ensemble band of u(t) on a common parallel-time grid, rebuilt
        # from the checkpointed polylines (beyond a member's last
        # snapshot its final value is held: the run is absorbed).
        band = ensemble_band_from_series(
            [(row["trace_parallel_times"], row["trace_undecided"]) for row in done]
        )
        grid, mean, lower, upper = band.grid, band.mean, band.lower, band.upper

        plateau = undecided_plateau(n, k)
        scale = math.sqrt(n * math.log(n))
        # Measure the band against the plateau over the settled window
        # (after ramp-up, before the earliest finisher starts collapsing).
        settle_start = np.searchsorted(grid, 5.0)
        settle_end = np.searchsorted(grid, 0.6 * float(np.min(stab_times)))
        if settle_end > settle_start:
            mean_dev = float(
                np.abs(mean[settle_start:settle_end] - plateau).max()
            ) / scale
        else:
            mean_dev = None  # the settled window is empty

        notes = []
        series = {
            "grid": grid,
            "undecided_mean": mean,
            "undecided_lower": lower,
            "undecided_upper": upper,
            "plateau_reference": np.full(grid.shape, plateau),
            "stab_times": np.asarray(stab_times, dtype=float),
        }

        # Surrogate overlay: the fluid-limit u(τ) on the same grid, the
        # zero-noise skeleton the ensemble band should hug to within
        # O(√(n ln n)).
        from ..meanfield import USDMeanField

        solution = USDMeanField(k=k).integrate(
            paper_initial_configuration(n, k, bias),
            t_end=float(grid[-1]),
            t_eval=grid.astype(float),
        )
        overlay = solution.undecided * n
        series["undecided_meanfield"] = overlay
        if settle_end > settle_start:
            window = slice(settle_start, settle_end)
            overlay_dev = float(np.abs(mean[window] - overlay[window]).max()) / scale
            notes.append(
                f"ensemble mean u(t) tracks the mean-field surrogate "
                f"within {overlay_dev:.2f}·√(n ln n) over the settled "
                "window (series 'undecided_meanfield')"
            )
        return series, mean_dev, notes
