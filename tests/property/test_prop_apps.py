"""Property-based tests for the applications' core invariants.

PageRank: General and Eager agree with the dense oracle on arbitrary
graphs and partitionings.  SSSP: always exactly Dijkstra.  K-Means:
centroids are means, the objective never increases under general Lloyd
steps.  These run on random graphs, not just the tuned paper inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import (
    ComponentsBlockSpec,
    JacobiBlockSpec,
    PageRankBlockSpec,
    SsspBlockSpec,
    kmeans_reference,
    make_diagonally_dominant_system,
    pagerank_reference,
    pagerank_spec,
    sssp_reference,
    sssp_spec,
    components_spec,
    components_reference,
)
from repro.graph import DiGraph, Partition, partition_graph


@st.composite
def graph_and_partition(draw, max_nodes=30, max_edges=90):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.floats(0.5, 20.0, allow_nan=False),
                      min_size=m, max_size=m))
    g = DiGraph(n, src, dst, w)
    k = draw(st.integers(min_value=1, max_value=min(6, n)))
    method = draw(st.sampled_from(["multilevel", "chunk", "hash"]))
    return g, partition_graph(g, k, method=method, seed=0)


class TestPageRankProperties:
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_partition(), st.sampled_from(["general", "eager"]))
    def test_agrees_with_oracle_on_any_graph(self, gp, mode):
        g, part = gp
        res = pagerank_spec(g, part, mode=mode, tol=1e-7).run()
        expected = pagerank_reference(g, tol=1e-10)
        assert np.abs(res.state - expected).max() < 1e-4

    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_partition())
    def test_ranks_bounded(self, gp):
        g, part = gp
        ranks = pagerank_spec(g, part, mode="eager").run().state
        # rank >= teleport mass; total rank bounded by n/(1-d) trivially
        assert np.all(ranks >= 0.15 - 1e-9)
        assert np.all(np.isfinite(ranks))


class TestSsspProperties:
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_partition(), st.sampled_from(["general", "eager"]))
    def test_exactly_dijkstra(self, gp, mode):
        g, part = gp
        res = sssp_spec(g, part, source=0, mode=mode).run()
        expected = sssp_reference(g, source=0)
        assert np.allclose(res.state, expected)

    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_partition())
    def test_triangle_inequality_on_edges(self, gp):
        g, part = gp
        dist = sssp_spec(g, part, mode="eager").run().state
        src, dst, w = g.edge_arrays()
        finite = np.isfinite(dist[src])
        assert np.all(dist[dst[finite]] <= dist[src[finite]] + w[finite] + 1e-9)


class TestComponentsProperties:
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_partition(), st.sampled_from(["general", "eager"]))
    def test_exactly_scipy(self, gp, mode):
        g, part = gp
        res = components_spec(g, part, mode=mode).run()
        assert np.array_equal(res.state, components_reference(g))


class TestKMeansProperties:
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=100))
    def test_centroids_are_member_means(self, k, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(60, 3))
        cents = kmeans_reference(pts, k, threshold=1e-9, seed=seed)
        from repro.apps import assign_points

        a = assign_points(pts, cents)
        for j in range(k):
            members = pts[a == j]
            if len(members):
                assert np.allclose(cents[j], members.mean(0), atol=1e-6)

    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=1, max_value=6))
    def test_general_matches_reference_any_partitioning(self, k, seed, parts):
        from repro.apps import kmeans_spec

        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(80, 2)) * 3
        got = kmeans_spec(pts, k, mode="general", threshold=1e-4,
                          num_partitions=parts, seed=seed).run()
        expected = kmeans_reference(pts, k, threshold=1e-4, seed=seed)
        assert np.allclose(got.state, expected, atol=1e-6)


@st.composite
def graph_and_any_assignment(draw, max_nodes=25, max_edges=80):
    """A random weighted digraph and a random assignment of its nodes
    to ``k`` parts, ``k`` up to ``n + 3``: empty parts and ``k >= n``
    included."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.floats(0.5, 20.0, allow_nan=False),
                      min_size=m, max_size=m))
    k = draw(st.integers(min_value=1, max_value=n + 3))
    assign = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    g = DiGraph(n, src, dst, w)
    return g, Partition(g, np.array(assign, dtype=np.int64), k)


class TestGeneralRoundProperty:
    """On any graph and assignment, a node-partitioned app's one-pass
    general round is the per-part solves, report for report, bytes
    included."""

    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_any_assignment(), st.integers(0, 2**32 - 1))
    def test_equals_the_per_part_solves(self, gp, seed):
        from tests.apps.test_general_round import rounds_agree

        g, part = gp
        rng = np.random.default_rng(seed)
        system = make_diagonally_dominant_system(part, seed=seed)
        source = int(rng.integers(g.num_nodes))
        for spec in (PageRankBlockSpec(g, part), SsspBlockSpec(g, part, source=source),
                     ComponentsBlockSpec(g, part), JacobiBlockSpec(system, part)):
            state = spec.init_state()
            if state.dtype.kind == "f":
                pick = rng.random(len(state)) < 0.5
                state[pick] = rng.uniform(0.0, 3.0, pick.sum())
            rounds_agree(spec, state, rounds=2)
