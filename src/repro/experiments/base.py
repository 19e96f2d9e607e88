"""Experiment framework.

Each paper artifact (figure panel, lemma claim, theorem scaling) is an
:class:`Experiment` subclass with an id from DESIGN.md's per-experiment
index.  Running one produces an :class:`ExperimentResult`: tabular rows
(the paper-style numbers), named series (the plotted curves), the
paper claims the rows bear out or refute (:class:`Claim` records), notes
(observations that are not verdicts) and full parameter provenance.
"""

from __future__ import annotations

import abc
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from ..core.kernels import get_backend
from ..errors import ExperimentError, SpecError
from ..io.serialization import save_result_rows
from ..io.streaming import write_npz
from ..io.tables import format_table
from ..obs.timing import wall_timer
from ..specs import merge_params
from ..sweep import SweepPlan, run_sweep
from ..workloads.sweeps import SweepPoint

__all__ = ["Claim", "ExperimentResult", "Experiment", "SweepExperiment"]


@dataclass(frozen=True)
class Claim:
    """One paper claim, measured by the experiment that owns it.

    The experiment computes ``holds``; ``bound`` is display text
    (``"< 5"``, ``"all 6"``) and is never parsed.  A claim whose input
    is missing (no run stabilized, x₁ never doubled) records ``value``
    ``None`` and does not hold.  NumPy scalars become Python scalars and
    a non-finite ``value`` becomes ``None``, so :meth:`as_dict` is plain
    JSON.
    """

    name: str
    value: Any
    bound: str
    holds: bool

    def __post_init__(self) -> None:
        value = self.value
        if hasattr(value, "item"):
            value = value.item()
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "holds", bool(self.holds))

    def as_dict(self) -> Dict[str, Any]:
        """The claim as a JSON-ready dict (``name``/``value``/``bound``/``holds``)."""
        return asdict(self)


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    Attributes
    ----------
    experiment_id:
        The registry id (e.g. ``'fig1-left'``).
    title:
        Human-readable artifact name.
    rows:
        Tabular results, one dict per row.
    series:
        Named 1-D arrays for plotting (e.g. ``'parallel_time'``,
        ``'majority'``).
    claims:
        The paper claims this run measured, each with its verdict.  A
        partial sweep shard states none.
    notes:
        Free-text observations that are not verdicts (fits, context).
    params:
        The exact parameters used (for provenance / EXPERIMENTS.md).
    wall_seconds:
        Wall-clock duration of the run.
    """

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    claims: List[Claim] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def table(self) -> str:
        """Render the rows as an aligned text table."""
        if not self.rows:
            raise ExperimentError(f"experiment {self.experiment_id} produced no rows")
        return format_table(self.rows, title=self.title)

    def save(self, directory: Path) -> List[Path]:
        """Persist rows (JSON) and series (NPZ) under ``directory``.

        Returns the written paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        rows_path = directory / f"{self.experiment_id}.json"
        save_result_rows(
            self.rows,
            rows_path,
            extra={
                "title": self.title,
                "claims": [claim.as_dict() for claim in self.claims],
                "notes": self.notes,
                "params": self.params,
                "wall_seconds": self.wall_seconds,
            },
        )
        written.append(rows_path)
        if self.series:
            series_path = directory / f"{self.experiment_id}_series.npz"
            write_npz(series_path, self.series)
            written.append(series_path)
        return written


class Experiment(abc.ABC):
    """Base class for registry experiments.

    Subclasses define ``experiment_id``, ``title``, a ``DEFAULTS`` dict
    of parameters and :meth:`_execute`.  Constructor keyword arguments
    override defaults; unknown parameter names are rejected so typos
    fail loudly.

    Every experiment additionally accepts its :data:`GLOBAL_DEFAULTS`,
    the *placement* parameters: where and how the work runs, never what
    it computes, so none enters an
    :class:`~repro.specs.ExperimentSpec` hash.  Every experiment takes
    ``workers`` (the process-pool size for experiments built on seed
    ensembles or grids; ``0`` = in-process serial, ``None`` = all CPUs;
    results are bit-identical for every value) and ``backend``, a
    schema-v1 document key that selects nothing: :meth:`run` checks it
    once (:func:`repro.core.kernels.get_backend`) and the result's
    ``params`` write it back as given.  :class:`SweepExperiment` adds
    the sweep trio ``shard``/``resume``/``out`` and ``fig1-ensemble``
    adds ``persist``; any other experiment rejects those names like any
    unknown parameter.
    """

    #: Registry id; subclasses override.
    experiment_id: str = "abstract"
    #: Human-readable artifact title; subclasses override.
    title: str = "abstract experiment"
    #: Default parameters; subclasses override.
    DEFAULTS: Dict[str, Any] = {}
    #: Placement parameters (subclass DEFAULTS win on collision);
    #: subclasses that honour more placement knobs extend the dict.
    GLOBAL_DEFAULTS: Dict[str, Any] = {"workers": 0, "backend": None}

    def __init__(self, **overrides: Any):
        defaults = {**self.GLOBAL_DEFAULTS, **self.DEFAULTS}
        try:
            # the spec layer's merge: unknown names rejected, dotted
            # names (``--set persist.window=...`` style) descend into
            # nested dict defaults
            self.params: Dict[str, Any] = merge_params(defaults, overrides)
        except SpecError as exc:
            raise ExperimentError(f"{self.experiment_id}: {exc}") from exc

    @property
    def local_params(self) -> Dict[str, Any]:
        """The experiment's own parameters, without the global ones.

        For ``**``-splatting into helpers that predate the global
        parameters (e.g. ``run_figure1_trace``); globals a subclass
        re-declares in its ``DEFAULTS`` are kept.
        """
        return {
            key: value
            for key, value in self.params.items()
            if key in self.DEFAULTS
        }

    def run(self) -> ExperimentResult:
        """Execute the experiment and stamp timing/provenance."""
        get_backend(self.params["backend"])
        with wall_timer() as timer:
            result = self._execute()
        result.wall_seconds = timer.seconds
        result.params = dict(self.params)
        return result

    @abc.abstractmethod
    def _execute(self) -> ExperimentResult:
        """Produce the result (timing/params are filled in by :meth:`run`)."""

    def _result(self, **kwargs: Any) -> ExperimentResult:
        """Convenience constructor pre-filled with id and title."""
        return ExperimentResult(
            experiment_id=self.experiment_id, title=self.title, **kwargs
        )

    @classmethod
    def describe(cls) -> str:
        """One-line description for ``repro list``."""
        return f"{cls.experiment_id}: {cls.title}"


class SweepExperiment(Experiment):
    """An experiment that *is* a parameter-grid sweep.

    Subclasses provide three pieces and inherit sharding, per-point
    checkpointing, resume and merge from :mod:`repro.sweep`:

    * :meth:`grid` — the ordered :class:`~repro.workloads.sweeps.SweepPoint`
      grid the parameters describe.  :meth:`build_plan` roots it at the
      ``seed`` parameter; per-point seeds come from the plan's
      seed-derivation contract (``derive_seed(root_seed, grid_index)``),
      never from ad-hoc arithmetic on the parameters.
    * :meth:`point_task` — a picklable ``task_fn(point, point_seed) →
      row`` computing one grid point with ``workers=0`` inside (the
      sweep layer parallelises *across* points).
    * :meth:`finalize` — post-processing over the full grid's rows
      (fits, claims, notes, series) into the :class:`ExperimentResult`.

    With ``shard`` set to a proper shard (``'i/m'``, m > 1),
    :meth:`_execute` computes and checkpoints only that shard's points
    under ``out`` and returns a *partial* result, which states no
    claims.  Once every shard has run, a full run with the same ``out``
    and ``resume=True`` (``repro run <id> --out DIR --resume``) is the
    merge: it restores every point, writes ``merged.json`` and
    ``provenance.json`` and returns the full result.
    """

    GLOBAL_DEFAULTS: Dict[str, Any] = {
        **Experiment.GLOBAL_DEFAULTS,
        "shard": None,
        "resume": False,
        "out": None,
    }

    @abc.abstractmethod
    def grid(self) -> List[SweepPoint]:
        """The grid points these parameters describe, in grid order."""

    @abc.abstractmethod
    def point_task(self):
        """Picklable ``task_fn(point, point_seed) -> row`` for one point."""

    @abc.abstractmethod
    def finalize(self, rows: List[Dict[str, Any]]) -> ExperimentResult:
        """Assemble the result from the full grid's rows (grid order)."""

    def build_plan(self) -> SweepPlan:
        """The sweep plan: :meth:`grid` rooted at the ``seed`` parameter."""
        return SweepPlan(
            sweep_id=self.experiment_id,
            points=tuple(self.grid()),
            root_seed=self.params["seed"],
            meta=self.local_params,
        )

    def partial_row_view(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """How one checkpoint row appears in a *partial-shard* report.

        Checkpoints always keep the full row; this only shapes the
        table a partial ``repro run <id> --shard I/M`` prints.  Override
        when rows carry bulk payloads (e.g. trajectory polylines) that
        would swamp the terminal.
        """
        return row

    def _execute(self) -> ExperimentResult:
        plan = self.build_plan()
        run = run_sweep(
            plan,
            self.point_task(),
            shard=self.params["shard"],
            workers=self.params["workers"],
            out_dir=self.params["out"],
            resume=bool(self.params["resume"]),
        )
        if not run.shard.is_full:
            return self._result(
                rows=[self.partial_row_view(dict(row)) for row in run.rows],
                notes=[
                    f"partial sweep: shard {run.shard} computed "
                    f"{len(run.outcomes)}/{len(plan)} grid points "
                    f"({run.reused} restored from checkpoints); run the "
                    "remaining shards, then re-run unsharded with the same "
                    "out and resume to merge them"
                ],
            )
        return self.finalize(run.rows)
