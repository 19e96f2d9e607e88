"""What importing ``repro`` loads, checked in fresh interpreters.

``import repro`` and the CLI load the run path only: the subpackages no
run needs (``analysis``, ``experiments``, ``meanfield``, ``parallel``,
``sweep``, ``theory``, ``workloads``) import on first access, scipy
only inside an ODE solve and networkx only for a graph scheduler.  A
``ServeClient`` loads none of the daemon's modules.  Every check runs
in a new interpreter, since this test process has imported everything.

The other side of the same contract: the serve forkserver imports
:data:`repro.serve.jobs.PRELOAD` once, and a job forked from it must
import no ``repro`` module itself, or every miss pays that import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.jobs import PRELOAD

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: statement -> module prefixes it must leave unloaded.
SURFACES = {
    "scipy": ("import repro, repro.cli, repro.serve.worker", ["scipy"]),
    "networkx": ("import repro", ["networkx"]),
    "run-path": (
        "import repro, repro.cli",
        [
            *(
                f"repro.{name}"
                for name in (
                    "analysis",
                    "experiments",
                    "meanfield",
                    "parallel",
                    "sweep",
                    "theory",
                    "workloads",
                )
            ),
            "multiprocessing",
            "concurrent.futures",
        ],
    ),
    "serve-client": (
        "from repro.serve import ServeClient",
        [
            "repro.serve.server",
            "repro.serve.jobs",
            "repro.serve.store",
            "repro.serve.worker",
            "http.server",
            "multiprocessing",
        ],
    ),
}


def _fresh(code: str, *args: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize(
    "statement, unloaded", SURFACES.values(), ids=list(SURFACES)
)
def test_import_leaves_unloaded(statement, unloaded):
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    modules = json.loads(_fresh(code))
    loaded = [
        module
        for module in modules
        if any(module == name or module.startswith(name + ".") for name in unloaded)
    ]
    assert not loaded, f"{statement!r} loaded {loaded}"


#: Import the preload, then run one job of each kind (n <= 300) and
#: report the ``repro`` modules each job imported itself.
PRELOAD_PROBE = """\
import importlib, json, sys

for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
from repro.serve.worker import execute_job

run = {
    "protocol": {"name": "usd", "k": 3, "params": {}},
    "initial": {"kind": "paper", "n": 300, "params": {}},
    "engine": "counts",
    "max_parallel_time": 200.0,
}
payloads = {
    "run": {"schema_version": 1, "kind": "run", **run, "seed": 11},
    "ensemble": {
        "schema_version": 1, "kind": "ensemble", "run": run,
        "num_runs": 2, "root_seed": 3,
    },
    "experiment": {
        "schema_version": 1, "kind": "experiment", "name": "fig1-left",
        "params": {"n": 300},
    },
}
imported = {}
for kind, payload in payloads.items():
    before = set(sys.modules)
    execute_job(payload, f"{sys.argv[2]}/{kind}")
    imported[kind] = sorted(
        name for name in set(sys.modules) - before if name.startswith("repro")
    )
print(json.dumps(imported))
"""


def test_jobs_after_the_preload_import_no_repro_module(tmp_path):
    imported = json.loads(
        _fresh(PRELOAD_PROBE, json.dumps(list(PRELOAD)), str(tmp_path))
    )
    assert imported == {"run": [], "ensemble": [], "experiment": []}
    for kind in imported:
        assert (tmp_path / kind / "result.json").is_file(), kind
