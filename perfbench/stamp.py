"""Machine and build context for every result, and the commit-keyed history.

Results are recorded through ``benchmarks/history.py``'s
``record_benchmark`` (one entry per commit, the repository's one
history format).  A ``+dirty`` tree, or a checkout without git, is
never recorded as a commit's entry.  The history name carries the set
of available kernel backends, so numpy-only and numba numbers land in
different series and are never compared.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import numpy  # noqa: E402

import history  # noqa: E402  (benchmarks/history.py)
from repro.core.kernels import available_backends, get_backend  # noqa: E402


def context_stamp() -> Dict[str, Any]:
    """nproc, Python and numpy versions, backends with provenance, commit."""
    backends = available_backends()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backends": list(backends),
        "kernel_provenance": {
            name: get_backend(name).provenance_map for name in backends
        },
        "commit": history.current_commit(),
    }


def history_name(workload: str, context: Dict[str, Any]) -> str:
    """One series per workload and backend set."""
    return f"perfbench-{workload}-{'+'.join(sorted(context['backends']))}"


def record(workload: str, metrics: Dict[str, float], context: Dict[str, Any]) -> str:
    """Record one workload's end-to-end metrics at a clean commit."""
    commit = context["commit"]
    if commit == "unknown" or commit.endswith("+dirty"):
        return f"not recorded: commit {commit!r} is not a clean commit"
    entry = dict(metrics)
    entry.update(
        nproc=context["nproc"],
        cpus_usable=context["cpus_usable"],
        python=context["python"],
        numpy=context["numpy"],
        backends="+".join(context["backends"]),
        kernel_provenance=";".join(
            f"{name}:{kernel}={served}"
            for name, kernels in sorted(context["kernel_provenance"].items())
            for kernel, served in kernels.items()
        ),
    )
    path = history.record_benchmark(
        history_name(workload, context), entry, commit=commit
    )
    return f"recorded {workload} at {commit} in {path}"
