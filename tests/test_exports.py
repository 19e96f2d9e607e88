"""Every ``__all__`` entry of every ``repro`` module resolves.

The tier-1 twin of the lint job's ruff F822 check (undefined name in
``__all__``): a name deleted from a module but left in its ``__all__``
(or in a package's re-export list) fails here on any machine.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_walk_finds_the_package():
    assert "repro.core.run" in MODULES and "repro.theory.lemmas" in MODULES


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
