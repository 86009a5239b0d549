"""The lint rule catalog and its findings.

Every rule has an ``RPR0xx`` code, a severity, and a fix hint.  The
codes are grouped by family:

* ``RPR00x`` — **nondeterminism**: the function's emissions depend on
  wall-clock time, random state, hash-seeded iteration order, or object
  identity, so two replays of the same task produce different output.
  Deterministic replay is the engine's *only* fault-tolerance mechanism
  (a failed attempt is re-executed and must yield identical results),
  and the relaxed/asynchronous synchronization disciplines additionally
  reorder when tasks observe each other's output.
* ``RPR01x`` — **purity**: the function writes state that outlives the
  task (globals, closure cells, ``self`` attributes) or mutates the
  aliased ``values`` list the shuffle buffer hands it and then reuses.
* ``RPR02x`` — **combiner algebra**: a combine function folds *partial*
  aggregates that arrive in arbitrary order and grouping (map-side
  combining today; arbitrary-arrival asynchronous execution tomorrow),
  so it must be commutative and associative.
* ``RPR03x`` — **process-executor hazards**: state captured by the
  function (closure cells, defaults, attributes of a callable object)
  that cannot — or must not — be pickled to a worker process.
* ``RPR04x`` — **columnar eligibility** (informational): why a job or
  spec is not riding the engine's columnar fast path.
* ``RPR05x`` — **async safety**: constructs that are correct under the
  barrier (every input is exactly one round old) but wrong under the
  no-barrier :class:`~repro.core.AsyncBackend`, where a combine's state
  argument is a live mixed-version view shared with concurrent readers.
* ``RPR06x`` — **re-execution safety**: state a task function would
  update more than once when the engine runs it more than once — which
  it does, by design, on retry-after-failure *and* for speculative
  backup copies of stragglers (two attempts of one task race and both
  run to completion; only one result is taken, but side effects are
  not un-done).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Severity", "Rule", "Finding", "RULES"]


class Severity(enum.IntEnum):
    """Finding severity; comparable (``ERROR > WARNING > INFO``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"severity must be one of "
                f"{[s.name.lower() for s in cls]}, got {name!r}"
            ) from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One entry of the lint catalog."""

    code: str
    title: str
    severity: Severity
    hint: str


@dataclass(frozen=True)
class Finding:
    """One rule violation located in one job function."""

    code: str
    message: str
    #: Name of the offending function (qualified where known).
    function: str
    #: Source file of the function ("<unknown>" when unavailable).
    filename: str = "<unknown>"
    #: 1-based line in :attr:`filename` (0 when unavailable).
    line: int = 0

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    @property
    def hint(self) -> str:
        return self.rule.hint

    def format(self) -> str:
        """``file:line: CODE severity message [function] (hint)``."""
        loc = f"{self.filename}:{self.line}" if self.line else self.filename
        return (f"{loc}: {self.code} {self.severity} {self.message} "
                f"[{self.function}]")

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` shape)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "function": self.function,
            "file": self.filename,
            "line": self.line,
            "hint": self.hint,
        }


def _catalog(*rules: Rule) -> "dict[str, Rule]":
    out: "dict[str, Rule]" = {}
    for rule in rules:
        if rule.code in out:
            raise ValueError(f"duplicate rule code {rule.code}")
        out[rule.code] = rule
    return out


#: The rule catalog, keyed by code.  ``docs/lint_rules.md`` documents
#: each entry with a triggering and a near-miss example; the fixture
#: specs in ``tests/reprolint/lint_fixtures.py`` pin both.
RULES: "dict[str, Rule]" = _catalog(
    Rule(
        code="RPR001",
        title="nondeterministic call in a job function",
        severity=Severity.ERROR,
        hint="seed randomness outside the job (np.random.default_rng(seed)) "
             "and pass results in as data; never read clocks or entropy "
             "inside map/reduce/combine",
    ),
    Rule(
        code="RPR002",
        title="emission order depends on set iteration",
        severity=Severity.WARNING,
        hint="iterate sorted(the_set) so replayed attempts and reordered "
             "arrivals emit in one canonical order",
    ),
    Rule(
        code="RPR003",
        title="key derived from id()",
        severity=Severity.ERROR,
        hint="id() changes across processes and replays; key on the "
             "record's own contents instead",
    ),
    Rule(
        code="RPR011",
        title="write to state outside the task",
        severity=Severity.ERROR,
        hint="emit results through ctx instead of assigning to globals, "
             "nonlocals, or self attributes — task writes to shared state "
             "are lost under process executors and duplicated under retries",
    ),
    Rule(
        code="RPR012",
        title="mutation of the aliased values list",
        severity=Severity.ERROR,
        hint="the ShuffleBuffer reuses the list it hands to reduce/combine; "
             "copy it first (e.g. sorted(values)) instead of sorting or "
             "appending in place",
    ),
    Rule(
        code="RPR021",
        title="non-commutative accumulation in a combine function",
        severity=Severity.ERROR,
        hint="combiners fold partial aggregates arriving in arbitrary order "
             "and grouping; restructure subtraction/division as a "
             "commutative fold (e.g. sum the negations, divide once in the "
             "reduce)",
    ),
    Rule(
        code="RPR022",
        title="order-dependent string concatenation in a combine function",
        severity=Severity.WARNING,
        hint="join over sorted(values) so the concatenation has one "
             "canonical result under any arrival order",
    ),
    Rule(
        code="RPR031",
        title="captured state unsafe for the process executor",
        severity=Severity.ERROR,
        hint="job functions are pickled to worker processes; capture plain "
             "data, not locks, open files, live RNGs, or cluster/runtime "
             "handles",
    ),
    Rule(
        code="RPR041",
        title="job not eligible for the columnar fast path",
        severity=Severity.INFO,
        hint="emit typed batches (ctx.emit_block) and declare aggregations "
             "by name ('sum'/'min'/'max') — see repro.engine.columnar",
    ),
    Rule(
        code="RPR051",
        title="in-place state write in a combine function",
        severity=Severity.WARNING,
        hint="the async backend hands combine a live state view that "
             "concurrent partitions are still reading; fold into a copy "
             "(new = state.copy()) or a commutative-monotone elementwise "
             "fold (np.minimum) and return it",
    ),
    Rule(
        code="RPR061",
        title="mutable accumulator outlives the task attempt",
        severity=Severity.WARNING,
        hint="the engine re-executes tasks (retry after failure, "
             "speculative backup copies of stragglers), so a closed-over "
             "list/dict/set accumulated into by the task double-counts; "
             "accumulate in a local and emit through ctx instead",
    ),
    Rule(
        code="RPR071",
        title="cluster/store handle cached outside the task attempt",
        severity=Severity.WARNING,
        hint="a cluster/runtime/store handle cached in a module global "
             "(or closure) outlives failure recovery: after a node death "
             "the worker is revived under a new incarnation and tablets "
             "remap, but the cached handle still points at pre-failure "
             "state; construct handles per attempt or take them from "
             "the framework each call",
    ),
)
