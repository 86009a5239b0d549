"""End-to-end tests: the engine path's columnar fast lane vs the oracle.

``EngineBackend`` auto-opts columnar-capable specs (PageRank, SSSP) into
typed-batch shuffles with map-side combiners; ``columnar=False`` forces
the historical object path.  These tests pin that the fast lane changes
*nothing observable* — same fixed point, same round structure — except
the shuffle volume, which the combiner strictly shrinks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRankKVSpec, pagerank_reference
from repro.apps.sssp import SsspKVSpec, sssp_reference
from repro.cluster import SimCluster
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.engine import ColumnarBlock, MapReduceRuntime
from repro.graph import (
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)


@pytest.fixture(scope="module")
def setup():
    g = preferential_attachment(200, num_conn=2, locality_prob=0.9,
                                community_mean=25, seed=11)
    part = multilevel_partition(g, 3, seed=0)
    wg = attach_random_weights(g, seed=2)
    return g, part, wg


def _run(spec, *, columnar, mode="eager", runtime=None, **cfg):
    backend = EngineBackend(spec, columnar=columnar, runtime=runtime)
    return IterationLoop(backend, DriverConfig(mode=mode, **cfg)).run()


class TestPageRankColumnar:
    def test_auto_opt_in(self, setup):
        g, part, _ = setup
        assert EngineBackend(PageRankKVSpec(g, part)).columnar is True
        assert EngineBackend(PageRankKVSpec(g, part),
                             columnar=False).columnar is False

    def test_same_fixed_point_as_object_path(self, setup):
        g, part, _ = setup
        fast = _run(PageRankKVSpec(g, part), columnar=True)
        oracle = _run(PageRankKVSpec(g, part), columnar=False)
        assert fast.converged and oracle.converged
        assert fast.global_iters == oracle.global_iters
        ra = np.array([fast.state[u][0] for u in range(g.num_nodes)])
        rb = np.array([oracle.state[u][0] for u in range(g.num_nodes)])
        assert np.allclose(ra, rb)
        assert np.allclose(ra, pagerank_reference(g), atol=1e-3)

    def test_combiner_ships_fewer_shuffle_bytes(self, setup):
        """The partial-aggregation lever (§V-B): every RoundRecord of a
        combiner-enabled columnar run crosses the shuffle with fewer
        bytes than the object path's tagged records."""
        g, part, _ = setup
        fast = _run(PageRankKVSpec(g, part), columnar=True)
        oracle = _run(PageRankKVSpec(g, part), columnar=False)
        assert len(fast.history) == len(oracle.history)
        for rec_f, rec_o in zip(fast.history, oracle.history):
            assert 0 < rec_f.shuffle_bytes < rec_o.shuffle_bytes

    def test_round_records_shape_compatible(self, setup):
        g, part, _ = setup
        spec = PageRankKVSpec(g, part)
        res = _run(spec, columnar=True)
        for rec in res.history:
            assert len(rec.local_iters) == spec.num_partitions()
            assert all(li >= 1 for li in rec.local_iters)
            assert len(rec.state_partition_bytes) == spec.num_partitions()
            assert sum(rec.state_partition_bytes) > 0

    def test_general_mode(self, setup):
        g, part, _ = setup
        res = _run(PageRankKVSpec(g, part), columnar=True, mode="general",
                   max_global_iters=3)
        for rec in res.history:
            assert rec.local_iters == (1, 1, 1)

    def test_sim_time_accumulates_on_cluster(self, setup):
        g, part, _ = setup
        cl = SimCluster()
        rt = MapReduceRuntime("serial", cluster=cl)
        res = _run(PageRankKVSpec(g, part), columnar=True, runtime=rt)
        assert res.sim_time == pytest.approx(cl.clock)
        assert res.sim_time > 0

    def test_threads_executor_matches_serial(self, setup):
        g, part, _ = setup
        serial = _run(PageRankKVSpec(g, part), columnar=True)
        with MapReduceRuntime("threads", workers=2) as rt:
            threaded = _run(PageRankKVSpec(g, part), columnar=True,
                            runtime=rt)
        assert threaded.global_iters == serial.global_iters
        ra = np.array([serial.state[u][0] for u in range(g.num_nodes)])
        rb = np.array([threaded.state[u][0] for u in range(g.num_nodes)])
        assert np.array_equal(ra, rb)

    def test_non_columnar_spec_cannot_force_opt_in(self, setup):
        g, part, _ = setup

        class Stripped(PageRankKVSpec):
            supports_columnar = False

        with pytest.raises(ValueError, match="columnar"):
            EngineBackend(Stripped(g, part), columnar=True)


class TestSsspColumnar:
    def test_identical_distances_and_rounds(self, setup):
        """min-aggregation is exact, so the columnar run is bit-identical
        to the object path, round for round."""
        g, part, wg = setup
        wpart = multilevel_partition(wg, 3, seed=0)
        fast = _run(SsspKVSpec(wg, wpart), columnar=True)
        oracle = _run(SsspKVSpec(wg, wpart), columnar=False)
        assert fast.global_iters == oracle.global_iters
        d_f = np.array([fast.state[u][0] for u in range(wg.num_nodes)])
        d_o = np.array([oracle.state[u][0] for u in range(wg.num_nodes)])
        assert np.array_equal(d_f, d_o)
        ref = sssp_reference(wg, source=0)
        finite = np.isfinite(ref)
        assert np.allclose(d_f[finite], ref[finite])
        # Byte volumes track the different encodings (fixed 2-column
        # rows vs 1-char tags + payload), so unlike PageRank the
        # columnar run is not unconditionally smaller — but once the
        # frontier saturates and the "min" combiner has duplicates to
        # fold, it is.
        assert fast.history[-1].shuffle_bytes < oracle.history[-1].shuffle_bytes


def _kv_spec(app, setup):
    g, part, wg = setup
    if app == "pagerank":
        return PageRankKVSpec(g, part)
    return SsspKVSpec(wg, multilevel_partition(wg, 3, seed=0))


@pytest.mark.parametrize("app", ["pagerank", "sssp"])
class TestStateFromColumnar:
    """The columnar reduce output folds into the ``(N, 2)`` state array
    exactly as its materialised pairs fold through
    ``state_from_output``: one scatter into a copy."""

    def test_fold_is_a_scatter(self, setup, app):
        spec = _kv_spec(app, setup)
        prev = spec.initial_state()
        block = ColumnarBlock(np.array([2, 0], dtype=np.int64),
                              np.array([[5.0, 0.25], [7.0, np.inf]]))
        new = spec.state_from_columnar(block, prev)
        want = prev.copy()
        want[2] = (5.0, 0.25)
        want[0] = (7.0, np.inf)
        assert new.tobytes() == want.tobytes()
        assert new.shape == prev.shape and new.dtype == np.float64
        assert (new.tobytes()
                == spec.state_from_output(block.to_pairs(), prev).tobytes())

    def test_fold_leaves_the_previous_state_alone(self, setup, app):
        spec = _kv_spec(app, setup)
        prev = spec.initial_state()
        before = prev.copy()
        block = ColumnarBlock(np.array([1], dtype=np.int64),
                              np.array([[9.0, 9.0]]))
        new = spec.state_from_columnar(block, prev)
        assert new is not prev and prev.tobytes() == before.tobytes()
        assert not np.shares_memory(new, prev)
        assert tuple(new[1]) == (9.0, 9.0)
        assert tuple(prev[1]) == tuple(before[1])

    def test_empty_block_is_an_unshared_copy(self, setup, app):
        spec = _kv_spec(app, setup)
        prev = spec.initial_state()
        block = ColumnarBlock(np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        new = spec.state_from_columnar(block, prev)
        assert new.tobytes() == prev.tobytes() and new is not prev
        new[0] = (5.0, 5.0)
        assert tuple(prev[0]) != (5.0, 5.0)

    def test_partial_output_keeps_the_other_rows(self, setup, app):
        """``state_from_output`` over pairs for some keys only rewrites
        those rows — the rest keep the previous state's bits, as
        ``dict.update`` kept them — writes nothing into ``prev_state``,
        and is ``state_from_columnar`` on the same block, bit for bit."""
        spec = _kv_spec(app, setup)
        rng = np.random.default_rng(7)
        prev = spec.initial_state()
        prev[:, 0] = rng.uniform(0.0, 3.0, len(prev))
        before = prev.copy()
        keys = rng.choice(len(prev), size=len(prev) // 3, replace=False)
        rows = np.column_stack([rng.uniform(0.0, 3.0, len(keys)),
                                np.where(rng.random(len(keys)) < 0.3, np.inf,
                                         rng.uniform(0.0, 3.0, len(keys)))])
        output = list(zip(keys.tolist(), map(tuple, rows.tolist())))
        new = spec.state_from_output(output, prev)
        assert prev.tobytes() == before.tobytes()
        assert not np.shares_memory(new, prev)
        other = np.setdiff1d(np.arange(len(prev)), keys)
        assert new[other].tobytes() == before[other].tobytes()
        assert new[keys].tobytes() == rows.tobytes()
        block = ColumnarBlock(keys.astype(np.int64), rows)
        assert (new.tobytes()
                == spec.state_from_columnar(block, prev).tobytes())
        assert spec.state_from_output([], prev).tobytes() == prev.tobytes()
        assert spec.state_from_output([], prev) is not prev


class TestModeParity:
    """Both modes reach the object path's fixed point in as many rounds
    on the columnar lane — SSSP's ``min`` bit for bit."""

    @pytest.mark.parametrize("mode", ["general", "eager"])
    @pytest.mark.parametrize("app", ["pagerank", "sssp"])
    def test_columnar_matches_object_path(self, setup, app, mode):
        fast = _run(_kv_spec(app, setup), columnar=True, mode=mode)
        oracle = _run(_kv_spec(app, setup), columnar=False, mode=mode)
        assert fast.converged and oracle.converged
        assert fast.global_iters == oracle.global_iters
        n = len(oracle.state)
        a = np.array([fast.state[u][0] for u in range(n)])
        b = np.array([oracle.state[u][0] for u in range(n)])
        if app == "sssp":
            assert a.tobytes() == b.tobytes()
        else:
            assert np.allclose(a, b, rtol=0, atol=1e-9)
