"""``NodeBlockSpec.global_converged``: the four node apps' global
termination test, written once.

Each app used to carry its own copy.  The formulas those copies
computed are kept below as the oracle, and the shared rule must give
the same ``(converged, residual)`` on every input each copy was defined
for: float iterates, SSSP's ``inf`` for unreached nodes, and the int64
labels of connected components.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    ComponentsBlockSpec,
    JacobiBlockSpec,
    PageRankBlockSpec,
    PageRankKVSpec,
    SsspBlockSpec,
    SsspKVSpec,
    make_diagonally_dominant_system,
)
from repro.graph import DiGraph, Partition


def _plain_max(prev, curr):
    return float(np.abs(curr - prev).max()) if len(prev) else 0.0


def _sssp_max(prev, curr):
    both_inf = np.isinf(prev) & np.isinf(curr)
    with np.errstate(invalid="ignore"):
        diff = np.abs(curr - prev)
    diff[both_inf] = 0.0
    return float(diff.max()) if len(diff) else 0.0


def _old_pagerank(spec, prev, curr):
    r = _plain_max(prev, curr)
    return r < spec.tol, r


def _old_sssp(spec, prev, curr):
    r = _sssp_max(prev, curr)
    return r == 0.0, r


def _old_components(spec, prev, curr):
    r = _plain_max(prev, curr)
    return r == 0.0, r


_old_jacobi = _old_pagerank


@pytest.fixture(scope="module")
def specs():
    g = DiGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    part = Partition(g, np.array([0, 0, 0, 1, 1, 1]), 2)
    system = make_diagonally_dominant_system(part, seed=0)
    return {
        "pagerank": (PageRankBlockSpec(g, part), _old_pagerank),
        "sssp": (SsspBlockSpec(g, part), _old_sssp),
        "components": (ComponentsBlockSpec(g, part), _old_components),
        "jacobi": (JacobiBlockSpec(system, part), _old_jacobi),
    }


def _float_pairs():
    rng = np.random.default_rng(0)
    prev = rng.normal(size=50)
    yield prev, prev.copy()                          # nothing moved
    for step in (1e-9, 1e-6, 1e-3, 0.5):             # below/above each tol
        curr = prev.copy()
        curr[rng.integers(0, 50, 5)] += step
        yield prev, curr
    yield np.empty(0), np.empty(0)


def _inf_pairs():
    prev = np.array([0.0, 1.5, np.inf, np.inf, 4.0])
    yield prev, prev.copy()                          # unreached stay inf
    yield prev, np.array([0.0, 1.5, 7.0, np.inf, 4.0])   # one newly reached
    yield prev, np.array([0.0, 1.25, np.inf, np.inf, 4.0])


def _int_pairs():
    prev = np.array([0, 0, 2, 3, 3, 5], dtype=np.int64)
    yield prev, prev.copy()
    yield prev, np.array([0, 0, 2, 2, 2, 3], dtype=np.int64)
    yield np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def _assert_parity(spec, old, prev, curr):
    got = spec.global_converged(prev.copy(), curr.copy())
    want = old(spec, prev, curr)
    assert got == want
    assert type(got[0]) is type(want[0]) and isinstance(got[1], float)


@pytest.mark.parametrize("app", ["pagerank", "sssp", "components", "jacobi"])
def test_float_parity(specs, app):
    spec, old = specs[app]
    for prev, curr in _float_pairs():
        _assert_parity(spec, old, prev, curr)


@pytest.mark.parametrize("app", ["pagerank", "sssp", "components", "jacobi"])
def test_int64_parity(specs, app):
    spec, old = specs[app]
    for prev, curr in _int_pairs():
        _assert_parity(spec, old, prev, curr)


def test_inf_parity_with_sssp(specs):
    """SSSP is the app whose state holds ``inf``; an entry unreached on
    both sides counts 0 and a newly reached one counts ``inf``."""
    spec, old = specs["sssp"]
    pairs = list(_inf_pairs())
    for prev, curr in pairs:
        _assert_parity(spec, old, prev, curr)
    assert spec.global_converged(*pairs[0]) == (True, 0.0)
    assert spec.global_converged(*pairs[1]) == (False, float("inf"))
    # Every app now reads equal entries as 0, inf == inf included,
    # where the plain formula read inf - inf as NaN.
    for other, _ in specs.values():
        assert other.global_converged(*pairs[0])[1] == 0.0


def test_sum_and_min_rules(specs):
    """A sum app stops below ``tol``; a min app only when nothing moved."""
    prev = np.zeros(4)
    curr = np.array([0.0, 1e-9, 0.0, 0.0])
    assert specs["pagerank"][0].global_converged(prev, curr) == (True, 1e-9)
    assert specs["sssp"][0].global_converged(prev, curr) == (False, 1e-9)


def test_kv_specs_compare_the_value_column(specs):
    """The engine's state is one row per node; the KV specs hand the
    shared rule column 0 (``NodeRowState``)."""
    g = DiGraph(4, [0, 1, 2], [1, 2, 3])
    part = Partition(g, np.array([0, 0, 1, 1]), 2)
    prev = np.array([[0.0, 9.0], [np.inf, 1.0], [2.0, 3.0], [np.inf, 4.0]])
    curr = prev.copy()
    curr[:, 1] += 100.0                 # frozen columns move, values do not
    for cls in (PageRankKVSpec, SsspKVSpec):
        assert cls(g, part).global_converged(prev, curr) == (True, 0.0)
    curr[2, 0] = 1.5
    assert SsspKVSpec(g, part).global_converged(prev, curr) == (False, 0.5)
