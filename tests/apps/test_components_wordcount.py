"""Tests for connected components and wordcount."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    components_reference,
    components_spec,
    wordcount,
)
from repro.cluster import SimCluster
from repro.engine import MapReduceRuntime
from repro.graph import DiGraph, chunk_partition, multilevel_partition


class TestComponents:
    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_matches_scipy(self, small_graph, small_partition, mode):
        res = components_spec(small_graph, small_partition, mode=mode).run()
        assert np.array_equal(res.state, components_reference(small_graph))

    def test_tiny_graph_components(self, tiny_graph):
        res = components_spec(tiny_graph, chunk_partition(tiny_graph, 2),
                              mode="eager").run()
        assert len(np.unique(res.state)) == 3
        assert res.state.tolist() == [0, 0, 0, 3, 3, 5]

    def test_direction_ignored(self):
        # a one-way edge still joins its endpoints weakly
        g = DiGraph(2, [0], [1])
        res = components_spec(g, chunk_partition(g, 2), mode="eager").run()
        assert len(np.unique(res.state)) == 1

    def test_eager_fewer_iterations(self, small_graph, small_partition):
        gen = components_spec(small_graph, small_partition,
                              mode="general").run()
        eag = components_spec(small_graph, small_partition, mode="eager").run()
        assert eag.global_iters <= gen.global_iters

    def test_sim_time_accounted(self, small_graph, small_partition):
        res = components_spec(small_graph, small_partition,
                              mode="eager").run(SimCluster())
        assert res.sim_time > 0

    def test_labels_are_component_minima(self, small_graph, small_partition):
        res = components_spec(small_graph, small_partition, mode="eager").run()
        # every label is the smallest node id in its component
        for lbl in np.unique(res.state):
            members = np.flatnonzero(res.state == lbl)
            assert members.min() == lbl


class TestWordcount:
    def test_counts(self):
        res = wordcount(["a b a", "c b"])
        assert res.as_dict() == {"a": 2, "b": 2, "c": 1}

    def test_case_and_punctuation(self):
        res = wordcount(["Hello, hello WORLD!"])
        assert res.as_dict() == {"hello": 2, "world": 1}

    def test_splits_param(self):
        res = wordcount(["a"] * 10, splits=3)
        assert res.as_dict() == {"a": 10}
        with pytest.raises(ValueError):
            wordcount(["a"], splits=0)

    def test_combiner_equivalence(self):
        docs = ["x y z x", "y y", "z"]
        with_c = wordcount(docs, use_combiner=True)
        without = wordcount(docs, use_combiner=False)
        assert with_c.as_dict() == without.as_dict()

    def test_combiner_reduces_shuffle(self):
        docs = ["token token token token"] * 5
        with_c = wordcount(docs, use_combiner=True)
        without = wordcount(docs, use_combiner=False)
        assert (with_c.counters.get("job.shuffle.bytes")
                < without.counters.get("job.shuffle.bytes"))

    def test_custom_runtime(self):
        rt = MapReduceRuntime("threads", workers=2)
        res = wordcount(["w w"], runtime=rt)
        assert res.as_dict() == {"w": 2}


class TestWordcountColumnar:
    """String keys ride the columnar path via dictionary encoding."""

    DOCS = ["the quick brown fox", "the lazy dog", "the fox", "dog dog dog"]

    def test_counts_match_classic(self):
        fast = wordcount(self.DOCS, columnar=True)
        classic = wordcount(self.DOCS)
        assert {k: int(v) for k, v in fast.as_dict().items()} \
            == classic.as_dict()

    def test_bitwise_vs_forced_object_path(self):
        """The same columnar job through JobConf(columnar=False) is the
        oracle: identical words, counts, and order."""
        import dataclasses

        from repro.apps import wordcount_job

        docs = [(i, d) for i, d in enumerate(self.DOCS)]
        rt = MapReduceRuntime("serial")
        for use_combiner in (True, False):
            fast_job = wordcount_job(columnar=True,
                                     use_combiner=use_combiner)
            fast = rt.run(fast_job, [docs])
            oracle_job = dataclasses.replace(
                fast_job, conf=dataclasses.replace(fast_job.conf,
                                                   columnar=False))
            oracle = rt.run(oracle_job, [docs])
            assert fast.output == oracle.output

    def test_all_executors_agree(self):
        outs = []
        for executor in ("serial", "threads", "processes"):
            with MapReduceRuntime(executor, workers=2) as rt:
                outs.append(wordcount(self.DOCS, runtime=rt,
                                      columnar=True).output)
        assert outs[0] == outs[1] == outs[2]

    def test_empty_documents(self):
        assert wordcount([]).as_dict() == {}
        assert wordcount([""]).as_dict() == {}
