"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch the whole family with a single
``except ReproError`` clause while letting programming errors (``TypeError``
and friends) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid population configuration was constructed or requested.

    Raised when counts are negative, do not sum to the population size,
    or an opinion index is out of range.
    """


class ProtocolError(ReproError):
    """A protocol definition is inconsistent.

    Raised e.g. when a transition function maps to states outside the
    declared alphabet, or when a protocol is asked about an opinion it
    does not encode.
    """


class SchedulerError(ReproError):
    """An interaction scheduler was mis-configured.

    Raised e.g. for populations smaller than two agents or interaction
    graphs without edges.
    """


class SimulationError(ReproError):
    """A simulation could not be carried out as requested.

    Raised e.g. when a horizon is exhausted in ``run_until_stable`` with
    ``on_horizon='raise'`` or when an engine is stepped past absorption
    in strict mode.
    """


class BatchSizeError(SimulationError):
    """The tau-leaping engine could not find a usable batch size.

    This signals that repeated rejection halving drove the batch below
    one interaction, which indicates a bug rather than bad luck: a batch
    of a single interaction is always exact.
    """


class RegimeError(ReproError):
    """Paper parameters fall outside the regime a formula assumes.

    The theorems of the paper require e.g. ``k = o(sqrt(n)/log n)``; the
    :mod:`repro.theory` helpers raise this error when asked to evaluate a
    formula outside the inputs it is defined for (too small an ``n``,
    ``k < 2``, a non-positive bias or gap scale).
    """


class ParallelError(ReproError):
    """Parallel ensemble execution was mis-configured or failed.

    Raised e.g. for a negative worker count, a task function that cannot
    be pickled across process boundaries, or a worker process that died
    mid-ensemble.
    """


class SweepError(ReproError):
    """A sharded sweep was mis-configured or its artifacts are inconsistent.

    Raised e.g. for a malformed ``--shard i/m`` spec, a checkpoint file
    that belongs to a different plan (wrong root seed or grid point), or
    a merge over a sweep directory with missing points.
    """


class ExperimentError(ReproError):
    """An experiment id is unknown or an experiment was mis-parameterised."""


class SerializationError(ReproError):
    """A trace or result file could not be written or parsed."""


class ServeError(ReproError):
    """The simulation service (``repro serve``) or its client failed.

    Raised e.g. when the daemon cannot bind its address, a submitted
    document is not a runnable spec, a job id is unknown, or the client
    got a non-success HTTP status from the server.
    """


class AnalyticsError(ReproError):
    """The columnar analytics layer (``repro.analytics``) failed.

    Raised e.g. when a dataset directory holds no (or a
    newer-versioned) dataset manifest, and for artifacts of the retired
    arrow/parquet formats — a dataset manifest recording one (on opening
    or exporting into it) or a ``.arrow``/``.parquet`` trace — with a
    message naming the npz re-export.  *Not* raised for corrupt
    individual inputs — unreadable run directories and truncated
    fragments are skipped with recorded reasons, never fatal to a scan.
    """


class SpecError(ReproError, ValueError):
    """A declarative run/ensemble/sweep spec is invalid or inconsistent.

    Raised when a spec fails validation (unknown protocol name, missing
    horizon, persistence tuning without a persistence target), when a
    spec dict/JSON document cannot be parsed against the schema, or when
    a dotted ``--set`` override addresses a key the spec does not have.
    Subclasses :class:`ValueError` as well, because an invalid spec is
    before anything else an invalid argument value.
    """
