"""Linting runtime objects: jobs, specs, backends, bare callables.

This module turns the static rules (:mod:`~tools.reprolint.rules`), the
process-hazard scan (RPR031) and the columnar-eligibility explainer
(RPR041) into one entry point per engine object:

* :func:`lint_callable` — one function in one role,
* :func:`lint_job` — an engine :class:`~repro.engine.job.Job` (follows
  :class:`~repro.core.gmap.GmapFunction`/``GreduceFunction`` wrappers
  back to their spec),
* :func:`lint_spec` — an :class:`~repro.core.api.AsyncMapReduceSpec` or
  :class:`~repro.core.api.BlockSpec`,
* :func:`lint_backend` — an :class:`~repro.core.loop.IterationBackend`,

each returning a :class:`LintReport`.
"""

from __future__ import annotations

import ast
import inspect
import io
import pickle
import random
import textwrap
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from tools.reprolint.findings import Finding, Severity
from tools.reprolint.rules import FunctionLint, analyze_function

__all__ = [
    "LintReport",
    "lint_backend",
    "lint_callable",
    "lint_job",
    "lint_spec",
]


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


@dataclass(frozen=True)
class LintReport:
    """All findings for one linted object."""

    #: What was linted (job/spec name) — used in messages.
    subject: str
    findings: "tuple[Finding, ...]"

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def by_severity(self, severity: Severity) -> "tuple[Finding, ...]":
        return tuple(f for f in self.findings if f.severity is severity)

    @property
    def errors(self) -> "tuple[Finding, ...]":
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> "tuple[Finding, ...]":
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when nothing at WARNING severity or above was found."""
        return not any(f.severity >= Severity.WARNING for f in self.findings)

    def format(self) -> str:
        if not self.findings:
            return f"{self.subject}: clean"
        lines = [f.format() for f in self.findings]
        lines.append(
            f"{self.subject}: {_plural(len(self.findings), 'finding')} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Static analysis of a runtime callable
# ----------------------------------------------------------------------

def _qualname(fn: Any) -> str:
    return (getattr(fn, "__qualname__", None)
            or getattr(fn, "__name__", None)
            or type(fn).__name__)


def _static_findings(fn: Any, role: str, qualname: str) -> "list[Finding]":
    """Run the AST rules over a live callable's source, best effort.

    Builtins, C extensions, and lambdas whose enclosing expression does
    not parse standalone yield no static findings (the hazard scan and
    runtime probes still apply).
    """
    try:
        lines, first_line = inspect.getsourcelines(fn)
        filename = inspect.getsourcefile(fn) or "<unknown>"
    except (OSError, TypeError):
        return []
    try:
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except SyntaxError:
        return []
    node = next((n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
                None)
    if node is None:
        return []
    return analyze_function(FunctionLint(
        node=node, role=role, qualname=qualname, filename=filename,
        line_offset=first_line - 1))


# ----------------------------------------------------------------------
# RPR031 — process-executor hazards
# ----------------------------------------------------------------------

def _lock_types() -> "tuple[type, ...]":
    import threading

    return (type(threading.Lock()), type(threading.RLock()),
            threading.Event, threading.Condition, threading.Semaphore,
            threading.Barrier)


#: Engine/cluster handle types that must never ride inside a job
#: function shipped to a worker process (matched by type name so the
#: check stays import-light).
_HANDLE_TYPE_NAMES = frozenset({
    "SimCluster", "MapReduceRuntime", "Session", "SessionScheduler",
    "JobHandle", "IterationLoop", "StateStore", "DFSStateStore",
    "OnlineStateStore", "ThreadPoolExecutor", "ProcessPoolExecutor",
})


def _known_hazard(value: Any) -> Optional[str]:
    """Why ``value`` must not be captured by a job function, or None."""
    if isinstance(value, _lock_types()):
        return f"a synchronization primitive ({type(value).__name__})"
    if isinstance(value, io.IOBase):
        return "an open file object"
    if isinstance(value, (np.random.Generator, np.random.RandomState)):
        return (f"a live numpy RNG ({type(value).__name__}) — its stream "
                f"diverges across processes and replays")
    if isinstance(value, random.Random):
        return "a live random.Random — its stream diverges across replays"
    for klass in type(value).__mro__:
        if klass.__name__ in _HANDLE_TYPE_NAMES:
            return f"a {klass.__name__} handle"
    return None


def _captures(fn: Any) -> "Iterable[tuple[str, Any]]":
    """``(where, value)`` pairs of everything a callable carries along."""
    if inspect.ismethod(fn):
        yield f"bound instance {type(fn.__self__).__name__}", fn.__self__
        fn = fn.__func__
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is not None and closure:
        for name, cell in zip(code.co_freevars, closure):
            try:
                yield f"closure cell {name!r}", cell.cell_contents
            except ValueError:  # empty cell
                continue
    for default in getattr(fn, "__defaults__", None) or ():
        yield "default argument", default
    for name, default in (getattr(fn, "__kwdefaults__", None) or {}).items():
        yield f"default argument {name!r}", default
    if not inspect.isroutine(fn) and hasattr(fn, "__dict__"):
        for name, value in vars(fn).items():
            yield f"attribute {name!r}", value


def _hazard_findings(fn: Any, qualname: str, *,
                     pickle_probe: bool = True) -> "list[Finding]":
    """RPR031: state the callable captures that cannot ship to a worker.

    Known-bad types (locks, files, live RNGs, cluster/runtime handles)
    are reported by name; anything else captured in a closure cell or
    default is pickle-probed when ``pickle_probe`` is on.  Attributes of
    callable *objects* get the type check only — probing would serialise
    whole graphs.
    """
    findings: "list[Finding]" = []
    filename, line = "<unknown>", 0
    try:
        line = inspect.getsourcelines(fn)[1]
        filename = inspect.getsourcefile(fn) or "<unknown>"
    except (OSError, TypeError):
        pass
    seen: "set[int]" = set()

    def scan(where: str, value: Any, depth: int, probe: bool) -> None:
        if id(value) in seen:
            return
        seen.add(id(value))
        hazard = _known_hazard(value)
        if hazard is not None:
            findings.append(Finding(
                code="RPR031",
                message=f"{where} holds {hazard}",
                function=qualname, filename=filename, line=line))
            return
        if (probe and not inspect.isroutine(value)
                and not inspect.isclass(value)
                and not inspect.ismodule(value)):
            try:
                pickle.dumps(value)
            except Exception as exc:
                findings.append(Finding(
                    code="RPR031",
                    message=f"{where} is not picklable "
                            f"({type(exc).__name__}: {exc})",
                    function=qualname, filename=filename, line=line))
                return
        # Recurse one level for picklable-but-wrong captures (a live
        # RNG pickles fine; its stream still diverges across replays).
        if depth > 0 and hasattr(value, "__dict__") \
                and not inspect.ismodule(value) and not inspect.isclass(value):
            for name, attr in vars(value).items():
                scan(f"{where}.{name}", attr, depth - 1, False)

    for where, value in _captures(fn):
        scan(where, value, 1, pickle_probe)
    return findings


# ----------------------------------------------------------------------
# RPR041 — columnar eligibility explainer
# ----------------------------------------------------------------------

def _info(message: str, subject: Any) -> Finding:
    filename, line = "<unknown>", 0
    try:
        target = subject if inspect.isroutine(subject) else type(subject)
        line = inspect.getsourcelines(target)[1]
        filename = inspect.getsourcefile(target) or "<unknown>"
    except (OSError, TypeError):
        pass
    return Finding(code="RPR041", message=message,
                   function=_qualname(subject), filename=filename, line=line)


def explain_columnar_spec(spec: Any) -> "list[Finding]":
    """Why an :class:`AsyncMapReduceSpec` is not on the columnar path,
    or runs its local iterations record by record."""
    from repro.core.api import AsyncMapReduceSpec, BlockSpec

    if isinstance(spec, BlockSpec):
        return []  # block specs are already vectorised end to end
    if not isinstance(spec, AsyncMapReduceSpec):
        return []
    findings: "list[Finding]" = []
    cls = type(spec)
    if not getattr(spec, "supports_columnar", False):
        findings.append(_info(
            "spec does not set supports_columnar=True, so every round "
            "ships records pair-at-a-time", spec))
    for hook in ("gmap_emit_columnar", "columnar_reduce"):
        if getattr(cls, hook) is getattr(AsyncMapReduceSpec, hook):
            findings.append(_info(
                f"spec does not override {hook}() "
                f"(required for the columnar fast path)", spec))
    if (getattr(spec, "supports_columnar", False)
            and getattr(spec, "columnar_combine", None) is None):
        findings.append(_info(
            "spec sets no columnar_combine, so duplicate keys ship "
            "unfolded through the shuffle (declare 'sum'/'min'/'max' "
            "when the reduce is one of them)", spec))
    if getattr(spec, "local_agg", None) is None:
        findings.append(_info(
            "spec names no local_agg, so the gmap interprets every local "
            "iteration record by record (declare 'sum'/'min'/'max' and "
            "the *_block hooks when lreduce folds with one of them — "
            "docs/local_loop.md)", spec))
    return findings


def explain_columnar_job(job: Any) -> "list[Finding]":
    """Why an engine :class:`Job` is not on the columnar fast path."""
    from repro.engine.columnar import ColumnarReduce

    findings: "list[Finding]" = []
    if not job.conf.columnar:
        findings.append(_info(
            "JobConf.columnar=False forces the object path even for "
            "typed batches", job.map_fn))
    if callable(job.reduce_fn) and not isinstance(job.reduce_fn,
                                                  ColumnarReduce):
        findings.append(_info(
            "reduce_fn is an opaque callable; a named aggregation "
            "('sum'/'min'/'max') or ColumnarReduce would run vectorised",
            job.reduce_fn))
    if job.combine_fn is not None and callable(job.combine_fn):
        findings.append(_info(
            "combine_fn is an opaque callable; columnar map-side "
            "combining needs a named aggregation", job.combine_fn))
    try:
        src = textwrap.dedent(inspect.getsource(job.map_fn))
    except (OSError, TypeError):
        src = ""
    if src and "emit_block" not in src:
        findings.append(_info(
            "map_fn never calls ctx.emit_block — typed batches are what "
            "the columnar shuffle routes vectorised (string keys "
            "qualify too: emit_block dictionary-encodes them through a "
            "StringDictionary)", job.map_fn))
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def lint_callable(fn: Any, role: str, *,
                  qualname: "str | None" = None) -> "list[Finding]":
    """Static rules + hazard scan for one callable in one role."""
    name = qualname or _qualname(fn)
    findings = _static_findings(fn, role, name)
    findings.extend(_hazard_findings(fn, name))
    return findings


#: AsyncMapReduceSpec / BlockSpec methods linted when implemented, with
#: their roles ("gmap_emit" orders the global shuffle's input, so it
#: follows the map rules).
_SPEC_METHODS = (
    ("lmap", "map"),
    ("lreduce", "reduce"),
    ("greduce", "reduce"),
    ("gmap_emit", "map"),
    ("global_combine", "combine"),
)


def lint_spec(spec: Any) -> LintReport:
    """Lint every user function of a §IV spec (either flavour)."""
    from repro.core.api import AsyncMapReduceSpec, BlockSpec

    findings: "list[Finding]" = []
    cls = type(spec)
    for method, role in _SPEC_METHODS:
        impl = getattr(cls, method, None)
        if impl is None:
            continue
        # Skip framework defaults (e.g. the base gmap_emit): only code
        # the user wrote gets linted.
        for base in (AsyncMapReduceSpec, BlockSpec):
            if getattr(base, method, None) is impl:
                impl = None
                break
        if impl is None or getattr(impl, "__isabstractmethod__", False):
            continue
        findings.extend(_static_findings(
            impl, role, f"{cls.__name__}.{method}"))
    findings.extend(_hazard_findings(spec, cls.__name__, pickle_probe=False))
    findings.extend(explain_columnar_spec(spec))
    return LintReport(subject=cls.__name__, findings=_dedupe(findings))


def lint_job(job: Any) -> LintReport:
    """Lint an engine :class:`~repro.engine.job.Job`.

    Spec-wrapping callables (:class:`~repro.core.gmap.GmapFunction`,
    ``GreduceFunction``) are followed back to their spec so the real
    user functions are what gets analyzed.
    """
    from repro.core.gmap import GmapFunction, GreduceFunction

    findings: "list[Finding]" = []
    specs: "list[Any]" = []

    def visit(fn: Any, role: str) -> None:
        if isinstance(fn, (GmapFunction, GreduceFunction)):
            if not any(fn.spec is s for s in specs):
                specs.append(fn.spec)
            return
        findings.extend(lint_callable(fn, role))

    visit(job.map_fn, "map")
    if callable(job.reduce_fn):
        visit(job.reduce_fn, "reduce")
    if job.combine_fn is not None and callable(job.combine_fn):
        visit(job.combine_fn, "combine")
    for spec in specs:
        findings.extend(lint_spec(spec).findings)
    if not specs:
        # Spec-backed jobs already carry spec-level columnar findings.
        findings.extend(explain_columnar_job(job))
    return LintReport(subject=job.conf.name, findings=_dedupe(findings))


def lint_backend(backend: Any) -> LintReport:
    """Lint an :class:`~repro.core.loop.IterationBackend` via its spec."""
    spec = getattr(backend, "spec", None)
    if spec is None:
        return LintReport(subject=type(backend).__name__, findings=())
    report = lint_spec(spec)
    return LintReport(subject=f"{type(backend).__name__}"
                              f"({report.subject})",
                      findings=report.findings)


def _dedupe(findings: "Iterable[Finding]") -> "tuple[Finding, ...]":
    seen: "set[Finding]" = set()
    out: "list[Finding]" = []
    for f in findings:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return tuple(out)
