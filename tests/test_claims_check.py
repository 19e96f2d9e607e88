"""The claims gate (scripts/ci_claims_check.py): a loop over the registry.

The script lives outside the package, so the test imports it by path,
the way ``test_benchmark_history.py`` imports ``benchmarks/history.py``.
A one-experiment registry stands in for the real one, which takes
minutes at its defaults.
"""

import sys
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, Claim, Experiment

SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS_DIR))

from ci_claims_check import main  # noqa: E402 (path bootstrap above)


def _demo_experiment(claims):
    class Demo(Experiment):
        experiment_id = "demo"
        title = "demo experiment"

        def _execute(self):
            assert self.params["workers"] is None  # every CPU
            return self._result(rows=[{"x": 1}], claims=list(claims))

    return Demo


@pytest.fixture
def registry(monkeypatch):
    """Replace the registry's contents with one experiment per call."""

    def install(claims):
        for experiment_id in list(EXPERIMENTS):
            monkeypatch.delitem(EXPERIMENTS, experiment_id)
        monkeypatch.setitem(EXPERIMENTS, "demo", _demo_experiment(claims))

    return install


def test_passes_when_every_claim_holds(registry, capsys):
    registry([Claim("a", 1.0, "< 5", True), Claim("b", 3, "all 3", True)])
    assert main() == 0
    out = capsys.readouterr().out
    assert "claim: PASS a = 1 (< 5)" in out
    assert "2 claims, 0 failures" in out


def test_fails_when_a_claim_fails(registry, capsys):
    registry([Claim("a", 1.0, "< 5", True), Claim("b", None, "> 0.4", False)])
    assert main() == 1
    out = capsys.readouterr().out
    assert "claim: FAIL b = — (> 0.4)" in out
    assert "FAIL demo: b" in out


def test_fails_when_an_experiment_states_no_claim(registry, capsys):
    registry([])
    assert main() == 1
    assert "FAIL demo states no claim" in capsys.readouterr().out
