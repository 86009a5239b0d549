"""Which functions of a source tree no driver program ever calls.

A name scan cannot tell a live helper from dead code: a method may be
reached only through ``getattr``, a property, a pool worker or a CLI
choice.  This tool runs driver programs with a call hook in every
process they start (``hook/sitecustomize.py``) and reports each
function defined under the source tree that none of them ran, as
``relpath:qualname``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["functions", "unreached"]

HOOK = Path(__file__).resolve().parent / "hook"


def functions(root: Path, src: Path) -> "dict[tuple[str, int, str], str]":
    """Every ``def`` under ``src``, keyed as its code object reports it:
    ``(path, first line, name)``, where a decorated function's first
    line is its first decorator's."""
    found: "dict[tuple[str, int, str], str]" = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found[(str(path), first, child.name)] = (
                    f"{path.relative_to(root)}:{qualname}")
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(src.resolve().rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def unreached(root: Path, src: Path,
              drivers: "Sequence[tuple[Sequence[str], Mapping[str, str]]]"
              ) -> "list[str]":
    """Run each ``(argv, extra environment)`` driver from a scratch
    directory with ``root`` and ``src`` importable; return the sorted
    functions under ``src`` that no process of any driver called."""
    root, src = root.resolve(), src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "calls.log"
        path = os.pathsep.join([str(HOOK), str(src), str(root)])
        for argv, extra in drivers:
            env = {**os.environ, **extra, "PYTHONPATH": path,
                   "PYTHONHASHSEED": "0", "REACH_LOG": str(log)}
            proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"driver {' '.join(argv)} exited "
                                   f"{proc.returncode}:\n{proc.stdout}")
        called = set()
        for line in log.read_text().splitlines():
            filename, first, name = line.split("\t")
            called.add((os.path.realpath(filename), int(first), name))
    return sorted(q for key, q in functions(root, src).items() if key not in called)
