"""The substrate packages never import the layers built on top of them.

``repro.cluster``, ``repro.graph``, ``repro.data`` and ``repro.util`` are
what ``repro.engine``, ``repro.core`` and ``repro.apps`` are built from;
an import the other way round — even one deferred into a function body —
ties the simulator to the runtime it prices (``engine/faults.py`` and
``cluster/workerpool.py`` rely on the cluster package never importing
the engine).  Imports under ``if TYPE_CHECKING:`` never run and are
exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

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
