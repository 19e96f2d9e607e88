"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

The paper's Ω(n log n) lower bound makes exact answers at large n
intrinsically expensive, so the same answer should never be computed
twice.  This package is that policy as a long-running service: specs
come in over HTTP, are validated by the :mod:`repro.specs` layer,
keyed by ``spec_hash``, answered from a content-addressed
:class:`~repro.serve.store.ResultStore` when the identical work was
ever done before, and otherwise scheduled on a bounded job pool whose
jobs each run in their own process, forked from a ``forkserver`` that
imported ``repro`` once (a killed simulation never takes the daemon
down — its job journal records the crash signature, and its job error
names the signal).  The store is its ``documents/`` directory, scanned
with every ``--runs`` root at each start.

Everything is standard library: ``http.server`` on the daemon side,
``urllib`` in the client.

>>> from repro.serve import ServeConfig, make_server, ServeClient
>>> httpd = make_server(ServeConfig(port=0, root="serve-data"))  # doctest: +SKIP
"""

from .client import ServeClient

#: Where each daemon-side name lives.  They import on first access
#: (PEP 562): a client (``repro submit``, ``repro fetch``) loads neither
#: ``http.server`` nor ``multiprocessing``.
_LAZY = {
    "Job": "jobs",
    "JobManager": "jobs",
    "ResultStore": "store",
    "ServeApp": "server",
    "ServeConfig": "server",
    "execute_job": "worker",
    "make_server": "server",
    "run_server": "server",
    "shutdown_server": "server",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "Job",
    "JobManager",
    "ResultStore",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "execute_job",
    "make_server",
    "run_server",
    "shutdown_server",
]
