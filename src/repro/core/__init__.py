"""Core execution substrate: configurations, protocols, engines, runs."""

from .agent_engine import AgentEngine
from .batch_engine import BatchEngine
from .configuration import Configuration
from .counts_engine import CountsEngine
from .engine import BaseEngine
from .kernels import KernelInputs
from .multibatch_engine import MultiBatchEngine
from .persistent_recorder import PersistentTrajectoryRecorder
from .protocol import OpinionProtocol, PopulationProtocol, default_undecided_index
from .recorder import Trace, TrajectoryRecorder
from .run import ENGINE_NAMES, RunResult, make_engine, simulate
from .scheduler import GraphPairScheduler, PairScheduler, UniformPairScheduler
from .transitions import TransitionTable
from . import kernels, stopping

__all__ = [
    "AgentEngine",
    "BatchEngine",
    "BaseEngine",
    "KernelInputs",
    "Configuration",
    "CountsEngine",
    "MultiBatchEngine",
    "GraphPairScheduler",
    "OpinionProtocol",
    "PairScheduler",
    "PersistentTrajectoryRecorder",
    "PopulationProtocol",
    "RunResult",
    "Trace",
    "TrajectoryRecorder",
    "TransitionTable",
    "UniformPairScheduler",
    "ENGINE_NAMES",
    "default_undecided_index",
    "kernels",
    "make_engine",
    "simulate",
    "stopping",
]
