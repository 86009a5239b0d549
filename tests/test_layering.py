"""The substrate packages never import the layers built on top of them.

``repro.cluster``, ``repro.graph``, ``repro.data`` and ``repro.util`` are
what ``repro.engine``, ``repro.core`` and ``repro.apps`` are built from;
an import the other way round — even one deferred into a function body —
ties the simulator to the runtime it prices (``engine/faults.py`` and
``cluster/workerpool.py`` rely on the cluster package never importing
the engine).  Imports under ``if TYPE_CHECKING:`` never run and are
exempt.

Above the library sit the developer tools (``tools/``, e.g. the
``tools.reprolint`` linter) and the test suite: they import ``repro``,
never the other way round — no module under ``src/repro`` names either,
not even deferred or for type checking.

The simulated clock has one owner: only ``cluster/cluster.py`` assigns
an attribute named ``clock``; every other module moves it through the
cluster's phases, charges and ``concurrently`` fork.

An app describes its job and never runs it: no module under
``repro/apps`` constructs an ``IterationLoop``.  A description runs
alone through ``JobSpec.run`` or with others in a ``Session``.

An edge split has one owner: under ``src/`` only
``apps/_nodeblock.shared_split`` calls ``split_edges``, so every spec's
split is shared by app, partition and source, and its ids by topology.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.core import DriverConfig, Session
from repro.engine.job import JobConf

ROOT = Path(repro.__file__).parent
LOWER = ("cluster", "graph", "data", "util")
UPPER = ("repro.engine", "repro.core", "repro.apps")
MODULES = sorted(p for pkg in LOWER for p in (ROOT / pkg).rglob("*.py"))


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


class _Imports(ast.NodeVisitor):
    """Every module a file imports at run time, as ``(line, name)``."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.found: list[tuple[int, str]] = []

    def visit_If(self, node: ast.If) -> None:
        if not _is_type_checking(node.test):
            self.generic_visit(node)
            return
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Import(self, node: ast.Import) -> None:
        self.found += [(node.lineno, alias.name) for alias in node.names]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        head: list[str] = []
        if node.level:  # relative: resolve against this file's package
            pkg = self.package.split(".")
            head = pkg[:len(pkg) - node.level + 1]
        base = ".".join(head + ([node.module] if node.module else []))
        self.found.append((node.lineno, base))
        # ``from repro import engine`` imports the subpackage itself
        self.found += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]


def _runtime_imports(path: Path) -> "list[tuple[int, str]]":
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    visitor = _Imports(".".join(parts[:-1]))
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_substrate_does_not_import_upper_layers(path):
    bad = [f"line {line}: {name}" for line, name in _runtime_imports(path)
           if any(name == up or name.startswith(up + ".") for up in UPPER)]
    assert not bad, f"{path.relative_to(ROOT)} imports an upper layer: {bad}"


def test_the_walk_sees_deferred_and_relative_imports():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    from repro.core import X\n"
              "def f():\n    from repro.engine import lpt\n"
              "    import repro.apps.kmeans\n"
              "    from ..engine.task import run_map_task\n")
    visitor = _Imports("repro.cluster")
    visitor.visit(ast.parse(source))
    names = {name for _, name in visitor.found}
    assert {"repro.engine", "repro.apps.kmeans", "repro.engine.task"} <= names
    assert not any(name.startswith("repro.core") for name in names)


def test_the_library_never_imports_the_tools_or_the_tests():
    bad = []
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            bad += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                    for name in names
                    if name.split(".")[0] in ("tools", "tests")]
    assert not bad, f"the library imports a tool or a test: {bad}"


class TestNoLintHook:
    """The linter runs beside the library; no run-time option reaches it."""

    def test_the_analysis_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.analysis")

    def test_jobconf_takes_no_lint(self):
        with pytest.raises(TypeError, match="lint"):
            JobConf(lint="strict")

    def test_driverconfig_takes_no_lint(self):
        with pytest.raises(TypeError, match="lint"):
            DriverConfig(lint="strict")

    def test_submit_takes_no_lint(self):
        assert "lint" not in inspect.signature(Session.submit).parameters


CLOCK_OWNER = ROOT / "cluster" / "cluster.py"


def _assigned_attributes(tree: ast.AST) -> "list[tuple[int, str]]":
    """``(line, attr)`` of every attribute an assignment, augmented or
    annotated assignment stores into, tuple targets unpacked."""

    def unpack(target: ast.expr):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from unpack(elt)
        elif isinstance(target, ast.Starred):
            yield from unpack(target.value)
        elif isinstance(target, ast.Attribute):
            yield target

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found += [(node.lineno, a.attr) for t in targets for a in unpack(t)]
    return found


def test_clock_owner_only_the_cluster_assigns_a_clock():
    bad = [f"{path.relative_to(ROOT)}:{line}"
           for path in sorted(ROOT.rglob("*.py")) if path != CLOCK_OWNER
           for line, attr in _assigned_attributes(
               ast.parse(path.read_text(encoding="utf-8")))
           if attr == "clock"]
    assert not bad, f"only cluster/cluster.py may assign a clock: {bad}"


def test_clock_owner_scan_sees_every_assignment_form():
    source = ("a.clock = 1\nb.clock += 2\nc.clock: float = 3\n"
              "d.x, (e.clock, *f.clock) = g\nh.clock.x = 4\nclock = 5\n")
    clocks = [line for line, attr in _assigned_attributes(ast.parse(source))
              if attr == "clock"]
    assert clocks == [1, 2, 3, 4, 4]
    # the scan runs on the owner too: it does assign the clock
    assert any(attr == "clock" for _, attr in _assigned_attributes(
        ast.parse(CLOCK_OWNER.read_text(encoding="utf-8"))))


APPS = ROOT / "apps"


def _calls(tree: ast.AST, name: str) -> "list[tuple[int, str]]":
    """``(line, function)`` of every call of ``name``, by name or
    attribute; ``function`` is the innermost enclosing ``def``'s name
    (``""`` at module level)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return found


def test_app_runs_no_loop():
    bad = [f"{path.relative_to(ROOT)}:{line}"
           for path in sorted(APPS.rglob("*.py"))
           for line, _ in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                 "IterationLoop")]
    assert not bad, f"an app runs an IterationLoop itself: {bad}"


def test_app_runs_no_loop_scan_sees_a_planted_call_not_a_docstring():
    source = ('"""Run it as ``IterationLoop(backend, cfg).run()``."""\n'
              "from repro import core\n"
              "def f(be, cfg):\n"
              '    """IterationLoop(be, cfg) is not called here."""\n'
              "    return IterationLoop(be, cfg).run()\n"
              "def g(be, cfg):\n"
              "    return core.IterationLoop(be, cfg)\n")
    assert sorted(_calls(ast.parse(source), "IterationLoop")) == [(5, "f"), (7, "g")]


SPLIT_OWNER = ("apps/_nodeblock.py", "shared_split")


def test_one_split_owner():
    calls = [(str(path.relative_to(ROOT)), line, function)
             for path in sorted(ROOT.rglob("*.py"))
             for line, function in _calls(
                 ast.parse(path.read_text(encoding="utf-8")), "split_edges")]
    bad = [f"{path}:{line} in {function or '<module>'}"
           for path, line, function in calls if (path, function) != SPLIT_OWNER]
    assert not bad, f"only {SPLIT_OWNER[0]}:{SPLIT_OWNER[1]} may split edges: {bad}"
    # the scan sees the owner's own call
    assert [(p, f) for p, _, f in calls] == [SPLIT_OWNER]


def test_one_split_owner_scan_sees_a_planted_call_not_a_docstring():
    source = ('"""Split with ``split_edges(src, dst, w, part)``."""\n'
              "from repro import graph\n"
              "blocks = split_edges(s, d, w, p)\n"
              "def shared_split(spec):\n"
              '    """split_edges(s, d, w, p) is not called here."""\n'
              "    def inner():\n"
              "        return graph.split_edges(s, d, w, p)\n"
              "    return split_edges(s, d, w, p), inner\n"
              "class Spec:\n"
              "    def __init__(self):\n"
              "        self.blocks = graph.split_edges(s, d, w, p)\n")
    assert sorted(_calls(ast.parse(source), "split_edges")) == [
        (3, ""), (7, "inner"), (8, "shared_split"), (11, "__init__")]
