"""repro — Undecided State Dynamics for plurality consensus, reproduced.

A production-quality Python library reproducing *"An Almost Tight Lower
Bound for Plurality Consensus with Undecided State Dynamics in the
Population Protocol Model"* (El-Hayek, Elsässer, Schmid — PODC 2025):

* :mod:`repro.core` — the population-protocol execution substrate
  (configurations, protocols, four simulation engines);
* :mod:`repro.protocols` — USD plus classic baselines;
* :mod:`repro.gossip` — the synchronous Gossip model for comparison,
  run by the same ``simulate`` and engine loop;
* :mod:`repro.meanfield` — the fluid-limit ODEs and fixed points;
* :mod:`repro.theory` — every bound, lemma constant and drift formula
  of the paper in executable form;
* :mod:`repro.workloads`, :mod:`repro.analysis`,
  :mod:`repro.experiments` — the evaluation harness regenerating
  Figure 1 and validating Lemmas 3.1/3.3/3.4 and Theorem 3.5;
* :mod:`repro.parallel` — process-pool execution of seed ensembles;
* :mod:`repro.sweep` — sharded sweep execution over parameter grids,
  with resumable per-point checkpoints and merged provenance;
* :mod:`repro.specs` — the declarative configuration layer: one
  serializable, hashable spec family (``RunSpec`` / ``EnsembleSpec`` /
  ``SweepSpec``) behind every run surface, and JSON *scenario files*
  that make new experiments data instead of code.

``import repro`` loads the run path only (``core``, ``protocols``,
``gossip``, ``specs``, ``io``); ``analysis``, ``experiments``,
``meanfield``, ``parallel``, ``sweep``, ``theory`` and ``workloads``
load on first access (``repro.theory.lemmas``, ``from repro import
sweep``).

Quickstart
----------
>>> from repro import UndecidedStateDynamics, Configuration, simulate
>>> protocol = UndecidedStateDynamics(k=8)
>>> initial = Configuration.equal_minorities_with_bias(n=10_000, k=8, bias=700)
>>> result = simulate(protocol, initial, seed=0, max_parallel_time=2_000)
>>> result.winner
1

The same run as a declarative spec — serializable, diffable, hashable
(``run_spec(spec)`` and the keyword form are bit-identical):

>>> from repro.specs import ProtocolSpec, InitialSpec, RunSpec, run_spec
>>> spec = RunSpec(
...     protocol=ProtocolSpec(name="usd", k=8),
...     initial=InitialSpec(
...         kind="equal-minorities", n=10_000, params={"bias": 700}
...     ),
...     seed=0,
...     max_parallel_time=2_000,
... )
>>> run_spec(spec).winner
1
>>> len(spec.spec_hash())  # canonical content hash (SHA-256)
64

Scenario files are these specs as JSON — run them with
``repro run --spec examples/scenarios/usd_vs_voter.json`` and override
any dotted key with ``--set`` (e.g. ``--set initial.n=4000``).

Parallel ensembles
------------------
Every distributional measurement (stabilization-time tails, hitting
times, Figure 1 bands) averages independent seeded runs, and those runs
fan out over ``multiprocessing`` workers (:mod:`repro.parallel`).  Seed
ensembles of simulation runs have one executor, an
:class:`repro.specs.EnsembleSpec` run by :func:`repro.specs.run_spec`
(:func:`repro.analysis.usd_stabilization_ensemble` is built on it).
Per-run streams are derived from the root seed and the run index alone
(:func:`repro.rng.derive_seed` / :func:`repro.rng.spawn_seeds`), so for
a fixed root seed the results are **bit-identical for every worker
count** — parallelism is purely a throughput knob.  The ``workers``
argument appears on :func:`repro.analysis.usd_stabilization_ensemble`
and every registry experiment (CLI: ``repro run <id> --workers N``).

Sharded sweeps
--------------
Grid experiments (``thm35-scaling``, ``bias-threshold``, ``usd2-logn``,
``fig1-ensemble`` and the lemma experiments) execute through
:mod:`repro.sweep`: each grid point's seed is
``derive_seed(root_seed, grid_index)`` — a function of the root seed
and the grid index only — so a sweep split into ``m`` shards
(``repro run <id> --shard i/m --out DIR``), possibly on ``m``
hosts, merges (a full ``repro run <id> --out DIR --resume``) into an
artifact bit-identical to the serial single-host sweep.  Finished points checkpoint to
``DIR/<id>/point-*.json`` as they complete; ``--resume`` skips them on
re-run.  See the :mod:`repro.sweep` package docstring for the full
contract and a two-host walkthrough.

Choosing engine and workers
---------------------------
* ``engine='auto'`` (the default) runs the exact collision-free
  batched engine ``'multibatch'`` at every n; ``'counts'`` is the exact
  per-event reference, ``'agent'`` the per-agent ground truth, and
  ``'batch'`` (τ-leaping, approximate) runs only when named.
* ``workers=0`` (default) runs in-process: right for tests, debugging
  and tiny ensembles, where pool startup would dominate.
* ``workers=N`` pays ~100 ms of pool startup plus per-run pickling of
  the task and its result, so it wins once each run takes ≳10 ms —
  i.e. real ensembles at n ≳ 10³.  ``workers=None`` uses every CPU the
  scheduler grants the process; more workers than runs is never useful.
* Task functions must be module-level (or ``functools.partial`` of
  module-level) to cross process boundaries; closures require
  ``workers=0``.
"""

from .core import (
    AgentEngine,
    BatchEngine,
    Configuration,
    CountsEngine,
    GraphPairScheduler,
    MultiBatchEngine,
    OpinionProtocol,
    PersistentTrajectoryRecorder,
    PopulationProtocol,
    RunResult,
    Trace,
    TrajectoryRecorder,
    TransitionTable,
    UniformPairScheduler,
    make_engine,
    simulate,
    stopping,
)
from .errors import (
    BatchSizeError,
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    RegimeError,
    ReproError,
    SchedulerError,
    SerializationError,
    SimulationError,
)
from .protocols import (
    FourStateExactMajority,
    UndecidedStateDynamics,
    VoterModel,
)
from .errors import ParallelError, SpecError, SweepError
from .rng import derive_seed, make_rng, spawn_seeds
from .specs import (
    EnsembleSpec,
    InitialSpec,
    ProtocolSpec,
    RecordingSpec,
    RunSpec,
    SweepSpec,
    load_spec_file,
    run_spec,
)
from . import gossip, io, specs

__version__ = "1.0.0"

#: Subpackages no run needs: each is imported on first attribute access
#: (PEP 562), so ``import repro`` and the CLI pay only for the run path.
_LAZY_SUBPACKAGES = frozenset(
    {"analysis", "experiments", "meanfield", "parallel", "sweep", "theory", "workloads"}
)


def __getattr__(name):
    if name in _LAZY_SUBPACKAGES:
        import importlib  # a local name: ``repro.importlib`` stays undefined

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # core
    "AgentEngine",
    "BatchEngine",
    "Configuration",
    "CountsEngine",
    "GraphPairScheduler",
    "MultiBatchEngine",
    "OpinionProtocol",
    "PersistentTrajectoryRecorder",
    "PopulationProtocol",
    "RunResult",
    "Trace",
    "TrajectoryRecorder",
    "TransitionTable",
    "UniformPairScheduler",
    "make_engine",
    "simulate",
    "stopping",
    # protocols
    "FourStateExactMajority",
    "UndecidedStateDynamics",
    "VoterModel",
    # rng
    "derive_seed",
    "make_rng",
    "spawn_seeds",
    # specs
    "EnsembleSpec",
    "InitialSpec",
    "ProtocolSpec",
    "RecordingSpec",
    "RunSpec",
    "SweepSpec",
    "load_spec_file",
    "run_spec",
    # errors
    "BatchSizeError",
    "ConfigurationError",
    "ExperimentError",
    "ParallelError",
    "ProtocolError",
    "RegimeError",
    "ReproError",
    "SchedulerError",
    "SerializationError",
    "SimulationError",
    "SpecError",
    "SweepError",
    # subpackages
    "analysis",
    "experiments",
    "gossip",
    "io",
    "meanfield",
    "parallel",
    "specs",
    "sweep",
    "theory",
    "workloads",
]
