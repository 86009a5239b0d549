"""The combiner contract, probed on every bundled app.

Map-side combining (and the arbitrary-arrival asynchronous discipline
the paper studies) is only sound when each app's combine step is
order- and grouping-insensitive.  This parametrizes the runtime probes
of :mod:`tools.reprolint` over all seven bundled applications:

* KV specs declare ``columnar_combine`` by name — probed directly as
  a fold (pagerank/sum, sssp/min), plus the wordcount reduce, which
  doubles as its combiner.
* Block specs fold per-partition :class:`LocalSolveReport` objects in
  ``global_combine`` — worker reports arrive in scheduler-dependent
  order, so the fold must be permutation-invariant (pagerank, sssp,
  components, jacobi, k-means; APSP runs SSSP once per landmark, so it
  is covered by probing the SSSP fold from several source nodes).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.apps.components import ComponentsBlockSpec
from repro.apps.jacobi import JacobiBlockSpec, make_diagonally_dominant_system
from repro.apps.kmeans import KMeansBlockSpec
from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.apps.sssp import SsspBlockSpec, SsspKVSpec
from repro.apps.wordcount import wordcount_reduce
from tools.reprolint import probe_commutative, probe_permutation_invariant


class TestKVCombiners:
    def test_pagerank_declares_sum(self):
        assert PageRankKVSpec.columnar_combine == "sum"

    def test_sssp_declares_min(self):
        assert SsspKVSpec.columnar_combine == "min"

    @pytest.mark.parametrize("agg", ["sum", "min"],
                             ids=["pagerank", "sssp"])
    def test_declared_aggregations_commute(self, agg):
        result = probe_commutative(agg)
        assert result.ok, result.failures

    def test_wordcount_reduce_is_a_valid_combiner(self):
        # The reduce sums counts, so it doubles as the map-side combiner.
        result = probe_commutative(
            wordcount_reduce,
            samples=[[1, 1, 1], [2, 5, 1, 7], [1] * 16])
        assert result.ok, result.failures


def _probe_global_combine(spec, *, max_local_iters=2, rounds=12,
                          rtol=1e-9, atol=1e-12):
    """Permutation-probe a block spec's report fold.

    Reports are generated once by running ``local_solve`` on every
    partition; the probe then folds deep copies (``global_combine`` may
    update state arrays in place) under random report orders.
    """
    state0 = spec.init_state()
    reports = [
        spec.local_solve(part_id, copy.deepcopy(state0),
                         max_local_iters=max_local_iters)
        for part_id in range(spec.num_partitions())
    ]

    def fold(permuted_reports):
        return spec.global_combine(copy.deepcopy(state0),
                                   copy.deepcopy(permuted_reports))[0]

    return probe_permutation_invariant(
        fold, reports, rounds=rounds, rtol=rtol, atol=atol,
        name=f"{type(spec).__name__}.global_combine")


class TestBlockSpecFolds:
    def test_pagerank(self, small_graph, small_partition):
        result = _probe_global_combine(
            PageRankBlockSpec(small_graph, small_partition),
            rtol=1e-9, atol=1e-12)
        assert result.ok, result.failures

    def test_sssp(self, weighted_graph, weighted_partition):
        result = _probe_global_combine(
            SsspBlockSpec(weighted_graph, weighted_partition, source=0))
        assert result.ok, result.failures

    @pytest.mark.parametrize("landmark", [0, 17, 123])
    def test_apsp_landmark_folds(self, weighted_graph, weighted_partition,
                                 landmark):
        # APSP = one SSSP instance per landmark source; the fold must
        # commute from every source, not just node 0.
        result = _probe_global_combine(
            SsspBlockSpec(weighted_graph, weighted_partition,
                          source=landmark))
        assert result.ok, result.failures

    def test_components(self, small_graph, small_partition):
        result = _probe_global_combine(
            ComponentsBlockSpec(small_graph, small_partition))
        assert result.ok, result.failures

    def test_jacobi(self, small_graph, small_partition):
        system = make_diagonally_dominant_system(small_partition, seed=1)
        result = _probe_global_combine(
            JacobiBlockSpec(system, small_partition))
        assert result.ok, result.failures

    def test_kmeans(self):
        rng = np.random.default_rng(42)
        points = rng.normal(size=(200, 3))
        spec = KMeansBlockSpec(points, 5, num_partitions=4, seed=0)
        # Centroid updates average float sums, so permuted arrival
        # reassociates the arithmetic; tolerance covers the ulps.
        result = _probe_global_combine(spec, rtol=1e-7, atol=1e-9)
        assert result.ok, result.failures
