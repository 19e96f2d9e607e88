"""Experiment registry: DESIGN.md's per-experiment index, executable.

Maps every experiment id to its class so the CLI, the benchmark
harness, and EXPERIMENTS.md generation all run exactly the same code.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import ExperimentError
from .base import Experiment, SweepExperiment
from .exp_bias_threshold import BiasThresholdExperiment
from .exp_binary_logn import BinaryLogNExperiment
from .exp_engines import EngineAblationExperiment
from .exp_figure1_ensemble import Figure1EnsembleExperiment
from .exp_gap_doubling import GapDoublingExperiment
from .exp_graph import GraphTopologyExperiment
from .exp_memory import MemoryUSDExperiment
from .exp_model_comparison import ModelComparisonExperiment
from .exp_opinion_growth import OpinionGrowthExperiment
from .exp_scaling import ScalingExperiment
from .exp_undecided_ceiling import UndecidedCeilingExperiment
from .figure1 import Figure1Left, Figure1Right

__all__ = [
    "EXPERIMENTS",
    "get_experiment",
    "get_sweep_experiment",
    "list_experiments",
]

#: All registered experiments, keyed by id (see DESIGN.md §2).
EXPERIMENTS: Dict[str, Type[Experiment]] = {
    cls.experiment_id: cls
    for cls in (
        Figure1Left,
        Figure1Right,
        Figure1EnsembleExperiment,
        UndecidedCeilingExperiment,
        OpinionGrowthExperiment,
        GapDoublingExperiment,
        ScalingExperiment,
        BiasThresholdExperiment,
        BinaryLogNExperiment,
        ModelComparisonExperiment,
        GraphTopologyExperiment,
        MemoryUSDExperiment,
        EngineAblationExperiment,
    )
}


def get_experiment(experiment_id: str) -> Type[Experiment]:
    """Look up an experiment class by id."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known ids: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None


def get_sweep_experiment(experiment_id: str) -> Type[SweepExperiment]:
    """Look up a grid-sweep experiment class; other ids fail legibly."""
    cls = get_experiment(experiment_id)
    if not issubclass(cls, SweepExperiment):
        sweep_ids = sorted(
            key
            for key, candidate in EXPERIMENTS.items()
            if issubclass(candidate, SweepExperiment)
        )
        raise ExperimentError(
            f"experiment {experiment_id!r} is not a sweep experiment; "
            "shards, resume and 'repro sweep status' apply to grid "
            f"sweeps only ({', '.join(sweep_ids)})"
        )
    return cls


def list_experiments() -> List[str]:
    """One description line per registered experiment."""
    return [EXPERIMENTS[key].describe() for key in sorted(EXPERIMENTS)]
