"""AST rules over user job functions.

:func:`analyze_function` runs the static rule families of
:mod:`tools.reprolint.findings` over one parsed ``def``.  The rules are
deliberately *narrow*: each pattern is a construct whose presence in a
map/reduce/combine function is near-certain to break deterministic
replay, order-insensitive combining, or process-executor shipping —
the analyzer's job is to prove the bundled and user specs clean, so a
false positive is as much a bug as a false negative.  (The runtime
:mod:`~tools.reprolint.probe` complements these with property testing
for the semantic cases no static rule can decide.)

Which rules run depends on the function's *role*:

========  ==========================================================
role      rules
========  ==========================================================
map       RPR001, RPR002, RPR003, RPR011, RPR061 (captured
          accumulators double-count under re-execution), RPR071
          (cached cluster/store handles go stale across recovery)
reduce    the above + RPR012 (mutation of the aliased ``values``)
combine   the above + RPR021/RPR022 (commutativity/associativity)
          + RPR051 (in-place state writes, unsafe without the barrier)
========  ==========================================================

Role assignment is by function name (see :func:`role_for_name`): the
engine API's ``map_fn``/``reduce_fn``/``combine_fn``, the §IV spec
methods ``lmap``/``lreduce``/``greduce``, the block-spec
``global_combine``, and the ``*_map``/``*_reduce``/``*_combine``
naming convention the bundled apps follow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from tools.reprolint.findings import Finding

__all__ = ["FunctionLint", "analyze_function", "role_for_name", "ROLES"]

#: The three job-function roles the analyzer knows.
ROLES = ("map", "reduce", "combine")

#: Exact function names -> role.
_EXACT_ROLE = {
    "lmap": "map",
    "map_fn": "map",
    "gmap": "map",
    "lreduce": "reduce",
    "greduce": "reduce",
    "reduce_fn": "reduce",
    "combine_fn": "combine",
    "global_combine": "combine",
}

#: Name-suffix conventions -> role (checked after the exact table).
_SUFFIX_ROLE = (
    ("_combiner", "combine"),
    ("_combine", "combine"),
    ("_reduce", "reduce"),
    ("_map", "map"),
)


def role_for_name(name: str) -> Optional[str]:
    """The lint role a function name implies, or ``None``."""
    role = _EXACT_ROLE.get(name)
    if role is not None:
        return role
    for suffix, srole in _SUFFIX_ROLE:
        if name.endswith(suffix) and name != suffix:
            return srole
    return None


@dataclass(frozen=True)
class FunctionLint:
    """One function to analyze: its AST plus reporting context."""

    node: ast.AST  # FunctionDef / AsyncFunctionDef
    role: str
    qualname: str
    filename: str = "<unknown>"
    #: Added to snippet-relative line numbers (0 when the AST came from
    #: the whole file; ``firstlineno - 1`` when from a dedented snippet).
    line_offset: int = 0


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _references(node: ast.AST, name: str) -> bool:
    """True when the expression mentions ``name`` anywhere."""
    return any(isinstance(n, ast.Name) and n.id == name
               for n in ast.walk(node))


def _target_names(target: ast.AST) -> "set[str]":
    """Names bound by a loop target (handles tuple unpacking)."""
    return {n.id for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _positional_args(fn: ast.AST) -> "list[str]":
    args = fn.args  # type: ignore[attr-defined]
    return [a.arg for a in (*args.posonlyargs, *args.args)]


def _values_param(fn: ast.AST) -> Optional[str]:
    """The ``values`` parameter of a reduce/combine-shaped signature.

    Both spellings put it second after dropping a leading ``self``:
    ``(key, values, ctx)`` and ``global_combine(self, state, reports)``.
    """
    names = _positional_args(fn)
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names[1] if len(names) >= 2 else None


def _iterates_set(iter_node: ast.AST) -> bool:
    """True when a loop's iterable is a set expression."""
    if isinstance(iter_node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(iter_node, ast.Call):
        return _dotted(iter_node.func) in ("set", "frozenset")
    return False


def _loops(fn: ast.AST) -> "Iterator[tuple[ast.AST, ast.AST]]":
    """All ``(target_or_None, iterable)`` pairs: for-loops and
    comprehension generators."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.target, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.target, gen.iter


# ----------------------------------------------------------------------
# RPR001 — nondeterministic calls
# ----------------------------------------------------------------------

#: Call targets that are nondeterministic regardless of arguments.
_NONDET_EXACT = frozenset({
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: time-module clock reads (``time.sleep`` does not change output).
_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
})

#: numpy RNG constructors that are deterministic *when seeded*.
_SEEDED_OK = frozenset({"default_rng", "SeedSequence", "RandomState",
                        "Generator", "seed"})


def _nondet_call(call: ast.Call) -> Optional[str]:
    """A description of why this call is nondeterministic, or None."""
    dotted = _dotted(call.func)
    if dotted is None:
        return None
    if dotted in _NONDET_EXACT:
        return f"call to {dotted}()"
    root, _, rest = dotted.partition(".")
    if root == "random" and rest:
        return f"call to {dotted}() (process-global random state)"
    if root == "secrets" and rest:
        return f"call to {dotted}() (entropy source)"
    if root == "time" and rest in _TIME_FNS:
        return f"call to {dotted}() (clock read)"
    if root in ("np", "numpy"):
        sub = rest.split(".")
        if len(sub) >= 2 and sub[0] == "random":
            fn = sub[-1]
            if fn in _SEEDED_OK:
                if call.args or call.keywords:
                    return None  # explicitly seeded: deterministic
                return (f"call to {dotted}() without a seed")
            return f"call to {dotted}() (global numpy RNG)"
    return None


def _check_nondeterminism(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            why = _nondet_call(node)
            if why is not None:
                yield "RPR001", f"nondeterministic {why}", node
            elif (_dotted(node.func) == "id" and node.args
                    and not node.keywords):
                yield ("RPR003",
                       "id() varies across processes and replay attempts",
                       node)


# ----------------------------------------------------------------------
# RPR002 — set-iteration emission order
# ----------------------------------------------------------------------

def _check_set_iteration(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    for _target, iter_node in _loops(info.node):
        if _iterates_set(iter_node):
            yield ("RPR002",
                   "iteration over a set: emission order depends on hash "
                   "seeding (wrap in sorted(...))",
                   iter_node)


# ----------------------------------------------------------------------
# RPR011 — writes that escape the task
# ----------------------------------------------------------------------

def _self_name(fn: ast.AST) -> Optional[str]:
    names = _positional_args(fn)
    return names[0] if names and names[0] in ("self", "cls") else None


def _is_self_attr(node: ast.AST, self_name: Optional[str]) -> bool:
    """True for ``self.x`` / ``self.x[...]`` (arbitrarily nested)."""
    if self_name is None:
        return False
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    # The chain must terminate at the method's self parameter... but the
    # first hop off self is what makes it instance state, so require at
    # least one Attribute above (checked by the caller's node type).
    return isinstance(node, ast.Name) and node.id == self_name


def _check_purity(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    fn = info.node
    self_name = _self_name(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            yield ("RPR011",
                   f"'global {', '.join(node.names)}' in a job function",
                   node)
        elif isinstance(node, ast.Nonlocal):
            yield ("RPR011",
                   f"'nonlocal {', '.join(node.names)}' in a job function",
                   node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if (isinstance(t, (ast.Attribute, ast.Subscript))
                        and _is_self_attr(t, self_name)):
                    yield ("RPR011",
                           f"write to {self_name} state from a job function",
                           t)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                if (isinstance(t, (ast.Attribute, ast.Subscript))
                        and _is_self_attr(t, self_name)):
                    yield ("RPR011",
                           f"delete of {self_name} state from a job function",
                           t)


# ----------------------------------------------------------------------
# RPR012 — mutation of the aliased values list
# ----------------------------------------------------------------------

_MUTATORS = frozenset({
    "sort", "append", "extend", "insert", "pop", "remove", "clear",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
})


def _check_values_mutation(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    values = _values_param(info.node)
    if values is None:
        return
    for node in ast.walk(info.node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == values
                and node.func.attr in _MUTATORS):
            yield ("RPR012",
                   f"{values}.{node.func.attr}() mutates the aliased "
                   f"values list in place",
                   node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if (isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == values):
                    yield ("RPR012",
                           f"assignment into {values}[...] mutates the "
                           f"aliased values list",
                           t)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                if (isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == values):
                    yield ("RPR012",
                           f"del {values}[...] mutates the aliased values "
                           f"list",
                           t)


# ----------------------------------------------------------------------
# RPR021/RPR022 — combiner algebra
# ----------------------------------------------------------------------

_NONCOMM_OPS = (ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_OPERATOR_NONCOMM = frozenset({
    "operator.sub", "operator.truediv", "operator.floordiv",
    "operator.mod", "operator.pow", "operator.isub", "operator.itruediv",
})


def _op_name(op: ast.AST) -> str:
    return {ast.Sub: "-", ast.Div: "/", ast.FloorDiv: "//",
            ast.Mod: "%", ast.Pow: "**"}.get(type(op), "?")


def _lambda_is_noncommutative(lam: ast.Lambda) -> bool:
    """``lambda a, b: a - b`` style folds."""
    body = lam.body
    params = [a.arg for a in lam.args.args]
    return (isinstance(body, ast.BinOp)
            and isinstance(body.op, _NONCOMM_OPS)
            and len(params) == 2
            and _references(body, params[0])
            and _references(body, params[1]))


def _check_combiner_algebra(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    fn = info.node
    values = _values_param(fn)
    if values is None:
        return

    # Accumulation via a non-commutative operator inside a loop over the
    # partial values.  Index bookkeeping (`i -= 1`) is exempt because
    # the operand must involve the loop variable or the values list.
    for target, iter_node in _loops(fn):
        if not _references(iter_node, values):
            continue
        loop_names = _target_names(target) | {values}
        body = getattr(iter_node, "parent_body", None)
        # Walk the whole loop body (for-loops only; comprehension
        # accumulation cannot aug-assign).
        owner = next((n for n in ast.walk(fn)
                      if isinstance(n, (ast.For, ast.AsyncFor))
                      and n.iter is iter_node), None)
        if owner is None:
            continue
        del body
        for node in ast.walk(owner):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, _NONCOMM_OPS)
                    and any(_references(node.value, nm)
                            for nm in loop_names)):
                yield ("RPR021",
                       f"'{_op_name(node.op)}=' accumulation over {values} "
                       f"is not commutative",
                       node)
            elif (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, _NONCOMM_OPS)
                    and _references(node.value.left, node.targets[0].id)
                    and any(_references(node.value.right, nm)
                            for nm in loop_names)):
                yield ("RPR021",
                       f"'acc = acc {_op_name(node.value.op)} v' "
                       f"accumulation over {values} is not commutative",
                       node)

    for node in ast.walk(fn):
        # functools.reduce with a non-commutative fold.
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in ("reduce", "functools.reduce") and node.args:
                fold = node.args[0]
                fold_dotted = _dotted(fold)
                if fold_dotted in _OPERATOR_NONCOMM:
                    yield ("RPR021",
                           f"reduce({fold_dotted}, ...) is order-sensitive",
                           node)
                elif (isinstance(fold, ast.Lambda)
                        and _lambda_is_noncommutative(fold)):
                    yield ("RPR021",
                           "reduce() with a non-commutative lambda fold",
                           node)
            # Order-dependent join over the raw values.
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join" and node.args):
                arg = node.args[0]
                sorted_wrapped = any(
                    isinstance(n, ast.Call)
                    and _dotted(n.func) in ("sorted", "list.sort")
                    for n in ast.walk(arg))
                if _references(arg, values) and not sorted_wrapped:
                    yield ("RPR022",
                           f"join over {values} concatenates in arrival "
                           f"order",
                           node)
        # values[0] - values[1] style positional arithmetic.
        elif (isinstance(node, ast.BinOp)
                and isinstance(node.op, _NONCOMM_OPS)
                and isinstance(node.left, ast.Subscript)
                and isinstance(node.left.value, ast.Name)
                and node.left.value.id == values
                and isinstance(node.right, ast.Subscript)
                and isinstance(node.right.value, ast.Name)
                and node.right.value.id == values):
            yield ("RPR021",
                   f"positional arithmetic {values}[i] "
                   f"{_op_name(node.op)} {values}[j] assumes an arrival "
                   f"order",
                   node)


# ----------------------------------------------------------------------
# RPR051 — async-unsafe in-place state update
# ----------------------------------------------------------------------

def _state_param(fn: ast.AST) -> Optional[str]:
    """The ``state`` parameter of a combine-shaped signature: first
    positional after dropping a leading ``self``
    (``global_combine(self, state, reports)``)."""
    names = _positional_args(fn)
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names[0] if len(names) >= 2 else None


def _check_async_safety(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    """Subscript stores into the *state argument itself* while folding
    the partial values.

    Under the barrier this merely aliases the previous round's state;
    under :class:`~repro.core.AsyncBackend` the same array is a live
    view other partitions consume mid-fold, so partial writes leak.
    Writes into a local copy (``new = state.copy()``) never match: the
    target name must be the state parameter, not a derived local.
    """
    fn = info.node
    state = _state_param(fn)
    values = _values_param(fn)
    if state is None or values is None:
        return
    for owner in ast.walk(fn):
        if not isinstance(owner, (ast.For, ast.AsyncFor)):
            continue
        if not _references(owner.iter, values):
            continue
        for node in ast.walk(owner):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if (isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == state):
                    yield ("RPR051",
                           f"write into {state}[...] while folding {values}: "
                           f"the async backend shares this view with "
                           f"concurrent readers",
                           t)


# ----------------------------------------------------------------------
# RPR061 — re-execution safety (captured mutable accumulators)
# ----------------------------------------------------------------------

#: Module-ish roots whose "mutator"-named attributes are ordinary
#: functions (``np.append`` returns a new array, ``random.shuffle`` is
#: RPR001's business) — never accumulator containers.
_MODULE_ROOTS = frozenset({
    "np", "numpy", "math", "os", "sys", "time", "heapq", "operator",
    "itertools", "functools", "collections", "random", "bisect", "json",
})


def _bound_names(fn: ast.AST) -> "set[str]":
    """Names bound inside the function: parameters, assignment/loop/
    ``with``/``except`` targets, nested defs, and imports.

    ``global``/``nonlocal`` declarations *unbind* their names — writes
    through them outlive the attempt exactly like closure mutation.
    """
    args = fn.args  # type: ignore[attr-defined]
    bound = set(_positional_args(fn))
    bound.update(a.arg for a in args.kwonlyargs)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared: "set[str]" = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            if node is not fn:
                bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).partition(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return bound - declared


def _check_reexecution_safety(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    """Mutation of a container the function did not create or receive.

    A name that is neither a parameter nor bound anywhere in the body is
    a closure cell or module global; ``acc.append(...)`` or
    ``acc[k] += v`` through it accumulates across *attempts*.  The
    engine re-executes tasks — retry after a fault, and a speculative
    backup copy races the original with both running to completion — so
    the accumulator counts some inputs twice.  Containers created
    locally die with the attempt and never match.
    """
    fn = info.node
    bound = _bound_names(fn)

    def _free_root(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Name) and node.id not in bound
                and node.id not in _MODULE_ROOTS):
            return node.id
        return None

    for node in ast.walk(fn):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS):
            name = _free_root(node.func.value)
            if name is not None:
                yield ("RPR061",
                       f"{name}.{node.func.attr}() accumulates into "
                       f"captured state; a re-executed attempt (retry or "
                       f"speculative backup) repeats the update",
                       node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Subscript):
                    name = _free_root(t.value)
                    if name is not None:
                        yield ("RPR061",
                               f"store into captured {name}[...]; a "
                               f"re-executed attempt (retry or speculative "
                               f"backup) repeats the update",
                               t)


# ----------------------------------------------------------------------
# RPR071 — cached cluster/store handles (stale across failure recovery)
# ----------------------------------------------------------------------

#: Constructors whose result is a live execution-substrate handle.
_HANDLE_FACTORIES = frozenset({
    "SimCluster", "MapReduceRuntime", "Session", "WorkerPool",
    "OnlineStateStore", "DFSStateStore",
})

#: Name fragments that mark an identifier as handle-like.  Deliberately
#: narrow: a free name must *look like* infrastructure before its use
#: is flagged, so captured plain data stays clean.
_HANDLE_FRAGMENTS = ("cluster", "runtime", "session", "kvstore",
                     "statestore", "state_store", "worker_pool", "store")


def _handleish_name(name: str) -> bool:
    lowered = name.lower()
    return any(frag in lowered for frag in _HANDLE_FRAGMENTS)


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_handle_expr(node: ast.AST) -> bool:
    """True when an expression evaluates to a cluster/store handle:
    a known constructor call, or a name/attribute that reads like one."""
    if isinstance(node, ast.Call):
        name = _terminal_name(node.func)
        return name in _HANDLE_FACTORIES or (
            name is not None and _handleish_name(name))
    name = _terminal_name(node)
    return name is not None and _handleish_name(name)


def _check_handle_caching(info: FunctionLint) -> "Iterator[tuple[str, str, ast.AST]]":
    """Cluster/store handles cached across task attempts.

    Failure recovery makes a cached handle silently wrong: a node death
    replaces the machine at the next round, tablet maps remap on
    splits/merges, and the process executor gives every worker its own
    divergent copy.  Two shapes are flagged: *storing* a handle where
    it outlives the attempt (assignment through a ``global``/
    ``nonlocal`` name, or a store into a captured container), and
    *using* a handle-named free name (the read side of the same cache).
    """
    fn = info.node
    bound = _bound_names(fn)
    declared: "set[str]" = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)

    def _free(name: "Optional[str]") -> bool:
        return name is not None and name not in bound \
            and name not in _MODULE_ROOTS

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            value = node.value
            if not _is_handle_expr(value):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name) and t.id in declared:
                    yield ("RPR071",
                           f"handle cached in global {t.id}: a replayed "
                           f"attempt after a node death reuses the "
                           f"pre-failure handle",
                           t)
                elif isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = t
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if _free(_terminal_name(root)):
                        yield ("RPR071",
                               f"handle stored into captured "
                               f"{_terminal_name(root)}: the cache "
                               f"outlives the attempt and failure "
                               f"recovery",
                               t)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)):
            root = node.func.value.id
            if _free(root) and _handleish_name(root):
                yield ("RPR071",
                       f"call through cached handle {root}: after a node "
                       f"death the replacement worker no longer matches "
                       f"this handle's state",
                       node)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

_CHECKS_BY_ROLE = {
    "map": (_check_nondeterminism, _check_set_iteration, _check_purity,
            _check_reexecution_safety, _check_handle_caching),
    "reduce": (_check_nondeterminism, _check_set_iteration, _check_purity,
               _check_values_mutation, _check_reexecution_safety,
               _check_handle_caching),
    "combine": (_check_nondeterminism, _check_set_iteration, _check_purity,
                _check_values_mutation, _check_combiner_algebra,
                _check_async_safety, _check_reexecution_safety,
                _check_handle_caching),
}


def analyze_function(info: FunctionLint) -> "list[Finding]":
    """Run every static rule for ``info.role`` over one function AST."""
    if info.role not in _CHECKS_BY_ROLE:
        raise ValueError(f"role must be one of {ROLES}, got {info.role!r}")
    findings: "list[Finding]" = []
    for check in _CHECKS_BY_ROLE[info.role]:
        for code, message, node in check(info):
            findings.append(Finding(
                code=code,
                message=message,
                function=info.qualname,
                filename=info.filename,
                line=getattr(node, "lineno", 0) + info.line_offset,
            ))
    findings.sort(key=lambda f: (f.line, f.code))
    return findings


def iter_role_functions(tree: ast.AST) -> "Iterable[tuple[str, str, ast.AST]]":
    """Yield ``(role, qualname, node)`` for every role-named ``def`` in a
    parsed module, including methods and nested functions."""
    class _Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.stack: "list[str]" = []
            self.found: "list[tuple[str, str, ast.AST]]" = []

        def _visit_scope(self, node: ast.AST, name: str) -> None:
            self.stack.append(name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self._visit_scope(node, node.name)

        def _visit_function(self, node: ast.AST, name: str) -> None:
            role = role_for_name(name)
            if role is not None:
                qual = ".".join((*self.stack, name))
                self.found.append((role, qual, node))
            self._visit_scope(node, name)

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self._visit_function(node, node.name)

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            self._visit_function(node, node.name)

    visitor = _Visitor()
    visitor.visit(tree)
    return visitor.found
