"""Experiments reproducing every figure and quantitative claim."""

from .ascii_plot import ascii_line_plot
from .base import Claim, Experiment, ExperimentResult, SweepExperiment
from .exp_bias_threshold import BiasThresholdExperiment
from .exp_binary_logn import BinaryLogNExperiment
from .exp_engines import EngineAblationExperiment
from .exp_figure1_ensemble import Figure1EnsembleExperiment
from .exp_gap_doubling import GapDoublingExperiment, choose_alpha
from .exp_graph import TOPOLOGIES, GraphTopologyExperiment, build_scheduler
from .exp_memory import MemoryUSDExperiment
from .exp_model_comparison import (
    ModelComparisonExperiment,
    one_parallel_round_agent_stats,
)
from .exp_opinion_growth import OpinionGrowthExperiment
from .exp_scaling import ScalingExperiment
from .exp_undecided_ceiling import UndecidedCeilingExperiment
from .figure1 import Figure1Left, Figure1Right, run_figure1_trace
from .registry import (
    EXPERIMENTS,
    get_experiment,
    get_sweep_experiment,
    list_experiments,
)
from .report import render_result

__all__ = [
    "EXPERIMENTS",
    "TOPOLOGIES",
    "BiasThresholdExperiment",
    "BinaryLogNExperiment",
    "Claim",
    "EngineAblationExperiment",
    "Experiment",
    "ExperimentResult",
    "Figure1EnsembleExperiment",
    "Figure1Left",
    "Figure1Right",
    "GapDoublingExperiment",
    "GraphTopologyExperiment",
    "MemoryUSDExperiment",
    "ModelComparisonExperiment",
    "OpinionGrowthExperiment",
    "ScalingExperiment",
    "SweepExperiment",
    "UndecidedCeilingExperiment",
    "ascii_line_plot",
    "build_scheduler",
    "choose_alpha",
    "get_experiment",
    "get_sweep_experiment",
    "list_experiments",
    "one_parallel_round_agent_stats",
    "render_result",
    "run_figure1_trace",
]
