"""The door rule: library code and its keyword options back a door or go.

A door is how a user reaches ``repro``: the CLI, ``simulate``/``run_spec``
and spec documents, ``repro serve``, a registry experiment or claim,
``repro certify``, a ``scripts/`` check, an example or ``perfbench/``.
As files, that is every ``.py`` file under ``src/``, ``scripts/``,
``examples/`` and ``perfbench/``, except ``perfbench/tests/``.

Two checks, both on the ``ast`` of those files (``tokenize`` does not
look inside f-strings before Python 3.12, so a token scan would answer
differently on each CI Python):

* every ``def`` and ``class`` of ``src/repro`` that is not a dunder is
  reached: its name is used by a door's module-level code, or inside a
  definition that is itself reached (a method also needs its class
  reached).  This iterates to a fixed point, so a name that only
  unreached code uses is unreached too;
* every parameter with a default, of a function that the doors only
  call (never pass as a value, never call with ``*``/``**``), is set by
  some reached call, by keyword or by position.

A use is an ``ast.Name`` id, an ``ast.Attribute`` attr, the string
literal of a ``getattr``/``hasattr`` call, or any identifier string in
``perfbench/`` (its tracer wraps methods by name).  Import lines,
keyword argument names and ``__all__`` entries are not uses: a
re-export reaches nothing.  The scan is a floor, not a proof: a name
that another object's member shares counts as reached.

A definition that stays without a door is on :data:`ALLOWLIST`, keyed
by file and qualified name (a bare name would keep every ``reset``),
with one of :data:`REASONS`; its body counts as reached.  An entry that
a door reaches, or that names nothing, fails the test too.  A name cut
under this rule gets a ``REMOVED.md`` entry naming its replacement.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PERFBENCH = ROOT / "perfbench"
DOORS = ("src", "scripts", "examples", "perfbench")
NOT_DOORS = (PERFBENCH / "tests",)

Key = Tuple[str, str]

CALLBACK = "framework callback"
REFERENCE = "reference that a differential test compares against"
FIXTURE = "test hook or fixture"
PROMISED = "a door or a REMOVED.md entry promises it to users"
REASONS = (CALLBACK, REFERENCE, FIXTURE, PROMISED)

#: (file under ``src/repro``, qualified name) -> (reason, who relies on it).
ALLOWLIST: Dict[Key, Tuple[str, str]] = {
    ("serve/server.py", "_Handler.do_GET"): (CALLBACK, "http.server dispatch"),
    ("serve/server.py", "_Handler.do_POST"): (CALLBACK, "http.server dispatch"),
    ("serve/server.py", "_Handler.log_message"): (CALLBACK, "http.server logging"),
    ("core/transitions.py", "TransitionTable.delta_of"): (
        REFERENCE,
        "test_engine_equivalence, test_one_step_distribution and "
        "test_multibatch_engine's exact-law DP",
    ),
    ("core/configuration.py", "Configuration.is_stable"): (
        REFERENCE,
        "the closed-form USD absorption rule; test_counts_engine, "
        "test_batch_engine and test_run check runs against it",
    ),
    ("core/kernels/registry.py", "reset_backend_state"): (
        FIXTURE,
        "re-arms the once-per-process backend warnings",
    ),
    ("obs/metrics.py", "MetricsRegistry.reset"): (
        FIXTURE,
        "zeroes the process-wide registry between tests",
    ),
    ("io/serialization.py", "load_result_rows"): (
        FIXTURE,
        "test_cli and test_experiments read `repro run --out` artifacts",
    ),
    ("io/serialization.py", "load_trace"): (
        PROMISED,
        "`repro trace export --help` names it as the reader",
    ),
    ("rng.py", "spawn_seeds"): (
        PROMISED,
        "REMOVED.md: replaces `repro.spawn`, `spawn_many` and `seed_stream`",
    ),
    ("meanfield/timescales.py", "predict_timescales"): (
        PROMISED,
        "REMOVED.md: replaces `repro meanfield timescales`",
    ),
    ("theory/lemmas.py", "WalkParameters.min_steps"): (
        PROMISED,
        "REMOVED.md: replaces `lemma32_survival_steps`",
    ),
}


@dataclass
class Call:
    """One call site, reduced to what the options check needs."""

    callee: str
    positional: int
    keywords: FrozenSet[str]
    starred: bool


@dataclass
class Unit:
    """The names a piece of code uses, and the calls it makes."""

    uses: Set[str] = field(default_factory=set)
    #: uses other than as the callee of a call: passed or stored as a value.
    values: Set[str] = field(default_factory=set)
    calls: List[Call] = field(default_factory=list)

    def add(self, nodes: Iterable[ast.AST], identifier_strings: bool) -> None:
        callees = set()
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)) or _assigns_all(node):
                continue
            if isinstance(node, ast.Call):
                name = _callee(node.func)
                if name is not None:
                    callees.add(id(node.func))
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    self.calls.append(
                        Call(
                            name,
                            len(node.args),
                            frozenset(k.arg for k in node.keywords if k.arg),
                            starred or any(k.arg is None for k in node.keywords),
                        )
                    )
                if name in ("getattr", "hasattr") and len(node.args) >= 2:
                    attribute = node.args[1]
                    if isinstance(attribute, ast.Constant) and isinstance(
                        attribute.value, str
                    ):
                        self._use(attribute.value, value=True)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                self._use(_callee(node), value=id(node) not in callees)
            elif (
                identifier_strings
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                self._use(node.value, value=True)
            stack.extend(ast.iter_child_nodes(node))

    def _use(self, name: str, value: bool) -> None:
        self.uses.add(name)
        if value:
            self.values.add(name)


def _callee(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _assigns_all(node: ast.AST) -> bool:
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@dataclass
class Definition:
    """A module- or class-level ``def``/``class`` of ``src/repro``."""

    path: str
    qualname: str
    node: ast.AST
    parent: Optional[Key]
    unit: Unit

    def where(self) -> str:
        return f"{self.path}:{self.node.lineno} {self.qualname}"


@dataclass
class Scan:
    definitions: Dict[Key, Definition]
    #: module-level code of every door, which runs when it is imported.
    roots: List[Unit]

    def reached(self, seeds: Iterable[Key] = ()) -> Set[Key]:
        """The definitions the doors reach, with ``seeds`` taken as reached."""
        reached = {key for key in seeds if key in self.definitions}
        used: Set[str] = set()
        for unit in self.roots:
            used |= unit.uses
        for key in reached:
            used |= self.definitions[key].unit.uses
        grew = True
        while grew:
            grew = False
            for key, definition in self.definitions.items():
                if (
                    key not in reached
                    and definition.node.name in used
                    and (definition.parent is None or definition.parent in reached)
                ):
                    reached.add(key)
                    used |= definition.unit.uses
                    grew = True
        return reached


def _collect(scan: Scan, tree: ast.Module, path: str) -> None:
    """Split a ``src/repro`` module into its module-level code and one
    unit per non-dunder definition; a dunder runs whenever its owner does."""

    def visit(body, prefix: str, parent: Optional[Key], unit: Unit) -> None:
        rest = []
        for node in body:
            if not isinstance(node, DEFINITIONS) or _is_dunder(node.name):
                rest.append(node)
            else:
                definition = Definition(path, prefix + node.name, node, parent, Unit())
                key = (path, definition.qualname)
                scan.definitions[key] = definition
                if isinstance(node, ast.ClassDef):
                    definition.unit.add(
                        [*node.decorator_list, *node.bases, *node.keywords], False
                    )
                    visit(node.body, f"{definition.qualname}.", key, definition.unit)
                else:
                    definition.unit.add([node], False)
        unit.add(rest, False)

    top = Unit()
    visit(tree.body, "", None, top)
    scan.roots.append(top)


def _scan() -> Scan:
    scan = Scan({}, [])
    for door in DOORS:
        for path in sorted((ROOT / door).rglob("*.py")):
            if any(path.is_relative_to(skip) for skip in NOT_DOORS):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            if path.is_relative_to(PACKAGE):
                _collect(scan, tree, path.relative_to(PACKAGE).as_posix())
            else:
                unit = Unit()
                unit.add([tree], identifier_strings=path.is_relative_to(PERFBENCH))
                scan.roots.append(unit)
    return scan


def _options(node: ast.AST, method: bool) -> Tuple[List[str], List[str]]:
    """``node``'s positional parameters as a caller passes them, and the
    parameters that have a default."""
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults) :]
    keyword_only = zip(args.kwonlyargs, args.kw_defaults)
    defaulted += [arg.arg for arg, default in keyword_only if default is not None]
    return positional, defaulted


def _unset_options(scan: Scan, reached: Set[Key]) -> List[str]:
    """Defaulted parameters of door-called functions that no reached call sets."""
    values: Set[str] = set()
    calls: Dict[str, List[Call]] = {}
    for unit in [*scan.roots, *(scan.definitions[key].unit for key in reached)]:
        values |= unit.values
        for call in unit.calls:
            calls.setdefault(call.callee, []).append(call)
    unset = []
    for key in sorted(reached):
        definition = scan.definitions[key]
        node = definition.node
        if isinstance(node, ast.ClassDef):
            continue
        sites = calls.get(node.name, [])
        if node.name in values or not sites or any(c.starred for c in sites):
            continue
        positional, defaulted = _options(node, definition.parent is not None)
        for name in defaulted:
            index = positional.index(name) if name in positional else None
            if not any(
                name in c.keywords or (index is not None and c.positional > index)
                for c in sites
            ):
                unset.append(f"{definition.where()}({name}=)")
    return unset


@pytest.fixture(scope="module")
def scan() -> Scan:
    return _scan()


def test_scan_sees_every_door(scan):
    assert ("core/run.py", "simulate") in scan.definitions
    assert ("serve/server.py", "_Handler.do_GET") in scan.definitions
    # ``examples/lower_bound_scaling.py`` reads it only inside an f-string.
    assert ("analysis/scaling.py", "ScalingComparison.sandwich_ok") in scan.reached()


def test_every_definition_backs_a_door(scan):
    reached = scan.reached(seeds=ALLOWLIST)
    unreached = [
        definition.where()
        for key, definition in sorted(scan.definitions.items())
        if key not in reached
        and (definition.parent is None or definition.parent in reached)
    ]
    assert not unreached, "reached by no door:\n  " + "\n  ".join(unreached)


def test_every_option_is_set_by_a_door(scan):
    unset = _unset_options(scan, scan.reached(seeds=ALLOWLIST))
    assert not unset, "set by no door call:\n  " + "\n  ".join(unset)


def test_allowlist_is_current(scan):
    reached = scan.reached()
    wrong = {key: why for key, (why, _) in ALLOWLIST.items() if why not in REASONS}
    missing = [key for key in ALLOWLIST if key not in scan.definitions]
    stale = [key for key in ALLOWLIST if key in reached]
    assert not wrong, f"allowlist reasons must be one of REASONS: {wrong}"
    assert not missing, f"allowlisted but not defined: {missing}"
    assert not stale, f"allowlisted but reached by a door: {stale}"
