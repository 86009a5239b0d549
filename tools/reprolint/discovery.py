"""Static lint over source targets: files, directories, modules, apps.

This is the ``python -m tools.reprolint`` entry path: targets are
resolved to ``.py`` files, parsed (never imported or executed), and
every role-named
function — ``lmap``/``lreduce``/``greduce``/``global_combine``, the
engine's ``map_fn``/``reduce_fn``/``combine_fn``, and the
``*_map``/``*_reduce``/``*_combine`` convention — is run through the
static rule families.  Rules needing live objects (the RPR031 hazard
scan, the runtime probes) apply to live ``Job``/spec/backend objects
instead; see :mod:`tools.reprolint.linter`.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path
from typing import Iterable, Sequence

from tools.reprolint.findings import Finding
from tools.reprolint.rules import (
    FunctionLint,
    analyze_function,
    iter_role_functions,
)

__all__ = ["lint_source", "lint_path", "lint_targets", "resolve_target"]


def lint_source(source: str, filename: str = "<string>") -> "list[Finding]":
    """Lint every role-named function in a source string."""
    tree = ast.parse(source, filename=filename)
    findings: "list[Finding]" = []
    for role, qualname, node in iter_role_functions(tree):
        findings.extend(analyze_function(FunctionLint(
            node=node, role=role, qualname=qualname, filename=filename)))
    findings.sort(key=lambda f: (f.filename, f.line, f.code))
    return findings


def lint_path(path: "Path | str") -> "list[Finding]":
    """Lint one ``.py`` file or every ``.py`` file under a directory.

    A file that is not UTF-8 or does not parse raises ``ValueError``
    naming ``path:line`` (the CLI maps that to exit code 2).
    """
    path = Path(path)
    if path.is_dir():
        findings: "list[Finding]" = []
        for py in sorted(path.rglob("*.py")):
            findings.extend(lint_path(py))
        return findings
    data = path.read_bytes()
    try:
        return lint_source(data.decode("utf-8"), str(path))
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ValueError(f"{path}:{line}: not UTF-8 ({exc.reason} at "
                         f"byte {exc.start})") from exc
    except SyntaxError as exc:
        raise ValueError(f"{path}:{exc.lineno}: cannot parse "
                         f"({exc.msg})") from exc


def _module_origin(name: str) -> "Path | None":
    """Source file of an importable module, without executing it.

    (``find_spec`` imports parent *packages*; for ``repro.*`` those are
    already loaded, and for third-party targets that is the accepted
    cost of dotted-name resolution.)
    """
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin in (None, "built-in", "frozen"):
        return None
    origin = Path(spec.origin)
    return origin if origin.suffix == ".py" else None


def resolve_target(target: str) -> "list[Path]":
    """Resolve one CLI target to source files.

    Accepted spellings, tried in order: a path to a ``.py`` file or a
    directory, a dotted module name (``repro.apps.pagerank``), or a bare
    bundled-app name (``pagerank``).  Unknown targets raise
    ``ValueError`` (the CLI maps that to exit code 2).
    """
    path = Path(target)
    if path.is_dir():
        return sorted(path.rglob("*.py"))
    if path.is_file():
        if path.suffix != ".py":
            raise ValueError(f"cannot lint non-Python file {target!r}")
        return [path]
    for name in (target, f"repro.apps.{target}"):
        origin = _module_origin(name)
        if origin is not None:
            return [origin]
    raise ValueError(
        f"cannot resolve lint target {target!r}: not a file, directory, "
        f"module, or bundled app name")


def lint_targets(targets: "Sequence[str] | Iterable[str]"
                 ) -> "list[Finding]":
    """Resolve and lint every target; deduplicates shared files."""
    files: "list[Path]" = []
    seen: "set[Path]" = set()
    for target in targets:
        for path in resolve_target(target):
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(path)
    findings: "list[Finding]" = []
    for path in files:
        findings.extend(lint_path(path))
    return findings
