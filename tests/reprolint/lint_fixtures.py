"""Fixture job functions for the lint rule catalog.

Every ``RPR`` rule has at least one *trigger* here (a function the rule
must flag) and one *near-miss* (a superficially similar function the
rule must NOT flag).  The functions are role-named (``*_map`` /
``*_reduce`` / ``*_combine``) so the static discovery path picks them
up too — CI lints this file and asserts the expected exit code.

``TRIGGERS`` maps rule code -> list of (function, role) expected to
fire it; ``NEAR_MISSES`` maps rule code -> list of (function, role)
expected to stay clean of that code.
"""

from __future__ import annotations

import functools
import operator
import random
import threading
import time

import numpy as np

# ---------------------------------------------------------------------
# RPR001 — nondeterministic calls
# ---------------------------------------------------------------------

def clock_map(key, value, ctx):
    ctx.emit(key, time.time())


def entropy_map(key, value, ctx):
    ctx.emit(key, random.random())


def unseeded_rng_map(key, value, ctx):
    rng = np.random.default_rng()
    ctx.emit(key, value + rng.standard_normal())


def global_rng_map(key, value, ctx):
    ctx.emit(key, value + np.random.rand())


def seeded_rng_map(key, value, ctx):
    # Near-miss: an explicitly seeded generator is deterministic.
    rng = np.random.default_rng(int(key))
    ctx.emit(key, value + rng.standard_normal())


def sleepy_map(key, value, ctx):
    # Near-miss: sleeping changes timing, not output.
    time.sleep(0)
    ctx.emit(key, value)


# ---------------------------------------------------------------------
# RPR002 — set-iteration emission order
# ---------------------------------------------------------------------

def set_iter_map(key, value, ctx):
    for neighbour in {value, value + 1, value + 2}:
        ctx.emit(neighbour, 1)


def set_call_iter_map(key, value, ctx):
    for neighbour in set(value):
        ctx.emit(neighbour, 1)


def sorted_set_map(key, value, ctx):
    # Near-miss: sorting pins the emission order.
    for neighbour in sorted(set(value)):
        ctx.emit(neighbour, 1)


# ---------------------------------------------------------------------
# RPR003 — id()-derived keys
# ---------------------------------------------------------------------

def identity_key_map(key, value, ctx):
    ctx.emit(id(value), 1)


def method_id_map(key, value, ctx):
    # Near-miss: a .id() *method* is the record's own identifier.
    ctx.emit(value.id(), 1)


# ---------------------------------------------------------------------
# RPR011 — writes that escape the task
# ---------------------------------------------------------------------

_SEEN = []


def global_write_map(key, value, ctx):
    global _SEEN
    _SEEN = [key]
    ctx.emit(key, value)


class StatefulSpec:
    """Trigger: methods cache results on self between invocations."""

    def __init__(self):
        self._cache = {}
        self.total = 0.0

    def lmap(self, key, value, ctx):
        self._cache[key] = value
        ctx.emit_local_intermediate(key, value)

    def lreduce(self, key, values, ctx):
        self.total += sum(values)
        ctx.emit_local(key, self.total)

    def greduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class EvictingSpec(StatefulSpec):
    """Trigger: deleting cached entries mutates self just as writing does."""

    def lreduce(self, key, values, ctx):
        del self._cache[key]
        ctx.emit_local(key, sum(values))


def make_nonlocal_count_map():
    count = 0

    def nonlocal_count_map(key, value, ctx):
        nonlocal count
        count += 1
        ctx.emit(key, count)

    return nonlocal_count_map


class ReadOnlySpec:
    """Near-miss: reading self attributes is fine."""

    def __init__(self, damping=0.85):
        self.damping = damping

    def lmap(self, key, value, ctx):
        ctx.emit_local_intermediate(key, value * self.damping)

    def lreduce(self, key, values, ctx):
        scale = self.damping
        ctx.emit_local(key, sum(values) * scale)

    def greduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


# ---------------------------------------------------------------------
# RPR012 — mutation of the aliased values list
# ---------------------------------------------------------------------

def sorting_reduce(key, values, ctx):
    values.sort()
    ctx.emit(key, values[0])


def slicing_store_reduce(key, values, ctx):
    values[0] = 0.0
    ctx.emit(key, sum(values))


def appending_reduce(key, values, ctx):
    values.append(0.0)
    ctx.emit(key, sum(values))


def dropping_reduce(key, values, ctx):
    del values[0]
    ctx.emit(key, sum(values))


def copying_reduce(key, values, ctx):
    # Near-miss: sorted() copies; the alias stays untouched.
    ordered = sorted(values)
    ctx.emit(key, ordered[0])


def dropping_copy_reduce(key, values, ctx):
    # Near-miss: the deletion lands in a fresh list.
    rest = list(values)
    del rest[0]
    ctx.emit(key, sum(rest))


# ---------------------------------------------------------------------
# RPR021 — non-commutative accumulation in a combine
# ---------------------------------------------------------------------

def subtracting_combine(key, values, ctx):
    acc = 0.0
    for v in values:
        acc -= v
    ctx.emit(key, acc)


def dividing_combine(key, values, ctx):
    acc = 1.0
    for v in values:
        acc = acc / v
    ctx.emit(key, acc)


def reduce_sub_combine(key, values, ctx):
    ctx.emit(key, functools.reduce(operator.sub, values))


def positional_combine(key, values, ctx):
    ctx.emit(key, values[0] - values[1])


def lambda_fold_combine(key, values, ctx):
    ctx.emit(key, functools.reduce(lambda a, b: a - b, values))


def reduce_div_combine(key, values, ctx):
    ctx.emit(key, functools.reduce(operator.truediv, values))


def lambda_max_combine(key, values, ctx):
    # Near-miss: max() commutes, whatever order the partials arrive in.
    ctx.emit(key, functools.reduce(lambda a, b: max(a, b), values))


def summing_combine(key, values, ctx):
    # Near-miss: addition commutes.
    acc = 0.0
    for v in values:
        acc += v
    ctx.emit(key, acc)


def countdown_combine(key, values, ctx):
    # Near-miss: `-=` on loop bookkeeping, not on the accumulation.
    budget = 10
    total = 0.0
    for v in values:
        budget -= 1
        if budget >= 0:
            total += v
    ctx.emit(key, total)


def mean_after_loop_combine(key, values, ctx):
    # Near-miss: one division after the fold (k-means' shape).
    total, count = 0.0, 0
    for v in values:
        total += v
        count += 1
    ctx.emit(key, total / max(count, 1))


# ---------------------------------------------------------------------
# RPR022 — order-dependent string concatenation in a combine
# ---------------------------------------------------------------------

def joining_combine(key, values, ctx):
    ctx.emit(key, ",".join(values))


def sorted_join_combine(key, values, ctx):
    # Near-miss: a canonical order makes the concat order-free.
    ctx.emit(key, ",".join(sorted(values)))


# ---------------------------------------------------------------------
# RPR051 — async-unsafe in-place state update in a combine
# ---------------------------------------------------------------------

def overwriting_state_combine(state, reports, ctx):
    for r in reports:
        nodes, x = r
        state[nodes] = x
    ctx.emit(0, state)


def accumulating_state_combine(state, reports, ctx):
    for r in reports:
        nodes, x = r
        state[nodes] += x
    ctx.emit(0, state)


def copying_state_combine(state, reports, ctx):
    # Near-miss: the fold lands in a fresh copy; the shared view the
    # async backend hands out is never written.
    new_state = state.copy()
    for r in reports:
        nodes, x = r
        new_state[nodes] = x
    ctx.emit(0, new_state)


# ---------------------------------------------------------------------
# RPR061 — captured mutable accumulators (double-count when the engine
# re-executes the task: retry after a fault, or a speculative backup)
# ---------------------------------------------------------------------

_HITS = {}


def counting_map(key, value, ctx):
    _HITS[key] = _HITS.get(key, 0) + 1
    ctx.emit(key, value)


def make_audit_map():
    seen = []

    def audit_map(key, value, ctx):
        seen.append(key)
        ctx.emit(key, value)

    return audit_map


def make_tally_reduce():
    totals = {}

    def tally_reduce(key, values, ctx):
        totals[key] = totals.get(key, 0.0) + sum(values)
        ctx.emit(key, totals[key])

    return tally_reduce


def local_tally_reduce(key, values, ctx):
    # Near-miss: the accumulator is born and dies inside the attempt,
    # so a backup copy's accumulator is independent.
    totals = {}
    for v in values:
        totals[key] = totals.get(key, 0.0) + v
    ctx.emit(key, totals[key])


def make_lookup_map(weights):
    # Near-miss: *reading* captured plain data is re-execution safe.
    def lookup_map(key, value, ctx):
        ctx.emit(key, value * weights.get(key, 1.0))

    return lookup_map


# ---------------------------------------------------------------------
# RPR071 — cluster/store handles cached across attempts (stale after
# a node death replaces the machine at the next round)
# ---------------------------------------------------------------------

_CLUSTER = None
_HANDLES = {}


def cached_cluster_map(key, value, ctx):
    global _CLUSTER
    if _CLUSTER is None:
        _CLUSTER = SimCluster()  # noqa: F821 - linted, never called
    ctx.emit(key, value)


def handle_stashing_reduce(key, values, ctx):
    _HANDLES["store"] = OnlineStateStore(1)  # noqa: F821
    ctx.emit(key, sum(values))


def stale_store_read_map(key, value, ctx):
    row, _ = _TABLET_STORE.get(str(key))  # noqa: F821
    ctx.emit(key, value + row)


def local_cluster_map(key, value, ctx):
    # Near-miss: the handle is born and dies inside the attempt.
    cluster = SimCluster()  # noqa: F821
    ctx.emit(key, cluster.run_map_phase([value]).makespan)


def fresh_store_reduce(key, values, ctx):
    # Near-miss: handle-like *name*, but a plain local container.
    store = {}
    store[key] = sum(values)
    ctx.emit(key, store[key])


def global_round_counter_map(key, value, ctx):
    # Near-miss for RPR071 (RPR011's business): the escaping write is
    # plain data, not an execution-substrate handle.
    global _ROUND
    _ROUND = value
    ctx.emit(key, value)


# ---------------------------------------------------------------------
# RPR031 — process-executor hazards (runtime-object rules: exercised
# through lint_callable, not the static file path)
# ---------------------------------------------------------------------

def make_locked_map():
    lock = threading.Lock()

    def locked_map(key, value, ctx):
        with lock:
            ctx.emit(key, value)

    return locked_map


def make_live_rng_map():
    rng = np.random.default_rng(3)

    def rng_map(key, value, ctx):
        ctx.emit(key, value + rng.standard_normal())

    return rng_map


def make_file_map(path):
    fh = open(path)  # noqa: SIM115 - the leak is the point

    def file_map(key, value, ctx, _fh=fh):
        ctx.emit(key, value)

    return file_map


def make_scaled_map(scale):
    # Near-miss: plain data in the closure ships fine.
    def scaled_map(key, value, ctx):
        ctx.emit(key, value * scale)

    return scaled_map


#: rule code -> [(function, role)] the rule must flag.
TRIGGERS = {
    "RPR001": [(clock_map, "map"), (entropy_map, "map"),
               (unseeded_rng_map, "map"), (global_rng_map, "map")],
    "RPR002": [(set_iter_map, "map"), (set_call_iter_map, "map")],
    "RPR003": [(identity_key_map, "map")],
    "RPR011": [(global_write_map, "map"),
               (StatefulSpec.lmap, "map"), (StatefulSpec.lreduce, "reduce"),
               (EvictingSpec.lreduce, "reduce"),
               (make_nonlocal_count_map(), "map")],
    "RPR012": [(sorting_reduce, "reduce"), (slicing_store_reduce, "reduce"),
               (appending_reduce, "reduce"), (dropping_reduce, "reduce")],
    "RPR021": [(subtracting_combine, "combine"),
               (dividing_combine, "combine"),
               (reduce_sub_combine, "combine"),
               (positional_combine, "combine"),
               (lambda_fold_combine, "combine"),
               (reduce_div_combine, "combine")],
    "RPR022": [(joining_combine, "combine")],
    "RPR051": [(overwriting_state_combine, "combine"),
               (accumulating_state_combine, "combine")],
    "RPR061": [(counting_map, "map"), (make_audit_map(), "map"),
               (make_tally_reduce(), "reduce")],
    "RPR071": [(cached_cluster_map, "map"),
               (handle_stashing_reduce, "reduce"),
               (stale_store_read_map, "map")],
}

#: rule code -> [(function, role)] the rule must NOT flag.
NEAR_MISSES = {
    "RPR001": [(seeded_rng_map, "map"), (sleepy_map, "map")],
    "RPR002": [(sorted_set_map, "map")],
    "RPR003": [(method_id_map, "map")],
    "RPR011": [(ReadOnlySpec.lmap, "map"), (ReadOnlySpec.lreduce, "reduce")],
    "RPR012": [(copying_reduce, "reduce"), (dropping_copy_reduce, "reduce")],
    "RPR021": [(summing_combine, "combine"),
               (countdown_combine, "combine"),
               (mean_after_loop_combine, "combine"),
               (lambda_max_combine, "combine")],
    "RPR022": [(sorted_join_combine, "combine")],
    "RPR051": [(copying_state_combine, "combine"),
               (overwriting_state_combine, "reduce")],
    "RPR061": [(local_tally_reduce, "reduce"),
               (make_lookup_map({}), "map")],
    "RPR071": [(local_cluster_map, "map"),
               (fresh_store_reduce, "reduce"),
               (global_round_counter_map, "map")],
}
