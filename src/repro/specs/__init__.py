"""Declarative run configuration: specs for every run surface.

One serializable, hashable object family — :class:`ProtocolSpec`,
:class:`InitialSpec`, :class:`RecordingSpec`, :class:`RunSpec`,
:class:`EnsembleSpec`, :class:`SweepSpec` — is the single source of
truth for run configuration across the library: :func:`run_spec`
(which runs every spec kind), experiment parameter merging, sweep
plans, the persistence manifests (``spec_hash`` matching) and the CLI
(``repro run --spec FILE``, ``repro spec show|validate|hash``).
Keyword :func:`repro.simulate` calls normalise into a :class:`RunSpec`
too, and :func:`to_document` renders any result as the versioned
result document.

Scenario files are JSON documents of these specs (see
``examples/scenarios/``): shareable, diffable, hashable inputs that
turn "which experiment code do I edit?" into "which data file do I
write?".

Quickstart
----------
>>> from repro.specs import ProtocolSpec, InitialSpec, RunSpec, run_spec
>>> spec = RunSpec(
...     protocol=ProtocolSpec(name="usd", k=4),
...     initial=InitialSpec(
...         kind="equal-minorities", n=2000, params={"bias": 200}
...     ),
...     seed=1,
...     max_parallel_time=2000,
... )
>>> result = run_spec(spec)
>>> result.stabilized, result.winner
(True, 1)
>>> spec == RunSpec.from_dict(spec.to_dict())  # exact round-trip
True
"""

from ..obs.config import ObsConfig
from .document import (
    document_bytes,
    document_from_persisted_run,
    result_from_document,
    to_document,
)
from .ensemble import EnsembleSpec
from .experiment import ExperimentSpec
from .hashing import canonical_json, canonicalize, content_hash
from .merge import apply_overrides, merge_params
from .model import (
    FIDELITY_NAMES,
    SCHEMA_VERSION,
    InitialSpec,
    ProtocolSpec,
    RecordingSpec,
    RunSpec,
)
from .runner import (
    EnsembleRun,
    ExperimentSpecRun,
    SweepSpecRun,
    load_spec,
    load_spec_file,
    normalize_run,
    run_spec,
    summary_row,
)
from .sweep import SweepSpec

__all__ = [
    "FIDELITY_NAMES",
    "SCHEMA_VERSION",
    "ObsConfig",
    "ProtocolSpec",
    "InitialSpec",
    "RecordingSpec",
    "RunSpec",
    "EnsembleSpec",
    "ExperimentSpec",
    "SweepSpec",
    "EnsembleRun",
    "ExperimentSpecRun",
    "SweepSpecRun",
    "apply_overrides",
    "canonical_json",
    "canonicalize",
    "content_hash",
    "document_bytes",
    "document_from_persisted_run",
    "load_spec",
    "load_spec_file",
    "merge_params",
    "normalize_run",
    "result_from_document",
    "run_spec",
    "summary_row",
    "to_document",
]
