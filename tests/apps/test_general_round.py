"""``BlockSpec.general_round``: a general round in one pass.

In a general round every part runs one local iteration against the same
state, so a spec may compute the whole round at once.  Whatever it
does, its reports must be ``local_solve(p, state, max_local_iters=1)``
for every part, field by field and byte for byte, and a whole run must
land on the per-part run's bits, op counts and simulated seconds.
``NodeBlockSpec`` runs its app's own step once over the parts laid end
to end (``repro.graph.join_blocks``); ``KMeansBlockSpec`` runs one
batched Lloyd step per group of parts.  The checks here are shown to
catch a join that drops an edge view or folds the wrong way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    ComponentsBlockSpec,
    JacobiBlockSpec,
    KMeansBlockSpec,
    PageRankBlockSpec,
    PageRankKVSpec,
    SsspBlockSpec,
    SsspKVSpec,
    components_spec,
    jacobi_spec,
    kmeans_spec,
    make_diagonally_dominant_system,
    pagerank_spec,
    sssp_spec,
)
from repro.apps import _nodeblock
from repro.apps._nodeblock import NodeBlockSpec, sum_fold_matrices
from repro.cluster import OnlineStateStore, SimCluster
from repro.core import AdaptiveSyncPolicy, BlockSpec, DriverConfig
from repro.engine import NodeFaultPlan
from repro.graph import (
    EdgeBlock,
    Partition,
    attach_random_weights,
    chunk_partition,
    hash_partition,
    join_blocks,
    multilevel_partition,
)

from tests.apps.test_local_solve_reference import _messy_graph
from tests.inputs import gaussian_mixture


def assert_same_reports(got, want):
    assert len(got) == len(want)
    for r, q in zip(got, want):
        assert (r.partition, r.local_iters, r.per_iter_ops, r.shuffle_bytes,
                r.update_nbytes) == (q.partition, q.local_iters, q.per_iter_ops,
                                     q.shuffle_bytes, q.update_nbytes)
        for a, b in zip(r.updates, q.updates, strict=True):
            a, b = np.asarray(a), np.asarray(b)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


def per_part(spec, state):
    return [spec.local_solve(p, state, max_local_iters=1)
            for p in range(spec.num_partitions())]


def _partitions(g):
    n = g.num_nodes
    return [
        multilevel_partition(g, 4, seed=0),
        hash_partition(g, 7),
        chunk_partition(g, 5),
        # parts 1 and 3 empty
        Partition(g, np.where(np.arange(n) % 3 == 0, 0, 2), 4),
        # k >= n: every node alone in its part, the other parts empty
        Partition(g, np.arange(n), n + 5),
    ]


def _graph_specs(g, part):
    wg = attach_random_weights(g, low=1.0, high=10.0, seed=1)
    system = make_diagonally_dominant_system(part, seed=0)
    return [PageRankBlockSpec(g, part), SsspBlockSpec(wg, part, source=3),
            ComponentsBlockSpec(g, part), JacobiBlockSpec(system, part),
            PageRankKVSpec(g, part), SsspKVSpec(wg, part, source=3)]


def _states(spec, rng):
    """The spec's first state and one off it (SSSP keeps some nodes
    unreached)."""
    first = spec.init_state()
    if first.dtype.kind == "i":
        return [first, rng.permutation(first)]
    other = first.copy()
    pick = rng.random(len(other)) < 0.6
    other[pick] = rng.uniform(0.0, 5.0, pick.sum())
    return [first, other]


def rounds_agree(spec, state, rounds=3):
    """``general_round`` equals the per-part solves, round after round."""
    for _ in range(rounds):
        got = spec.general_round(state)
        assert_same_reports(got, per_part(spec, state))
        state, _, _ = spec.global_combine(state, got)


class TestNodeBlockSpecs:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_app_every_partition(self, seed):
        g = _messy_graph(seed)
        rng = np.random.default_rng(seed)
        for part in _partitions(g):
            for spec in _graph_specs(g, part):
                for state in _states(spec, rng):
                    rounds_agree(spec, state)

    def test_the_join_lays_the_parts_end_to_end(self):
        g = _messy_graph(2)
        for part in _partitions(g):
            spec = PageRankBlockSpec(g, part)
            blocks = spec._blocks
            join = join_blocks(blocks)
            first = np.cumsum([0] + [len(b.nodes) for b in blocks])
            for name in ("int_src", "int_dst", "cut_src", "in_dst"):
                want = np.concatenate([getattr(b, name) + a
                                       for b, a in zip(blocks, first)])
                assert getattr(join, name).dtype == np.int32
                assert np.array_equal(getattr(join, name), want)
            for name in ("nodes", "int_w", "cut_dst", "cut_w", "in_src", "in_w"):
                want = np.concatenate([getattr(b, name) for b in blocks])
                assert getattr(join, name).tobytes() == want.tobytes()
            assert join.nodes.tolist() == [u for b in blocks for u in b.nodes.tolist()]

    def test_the_join_shares_the_split_tables(self):
        """``split_edges`` lays every field's parts end to end, so the
        join's values, remote ids and nodes are views, not copies."""
        g = _messy_graph(3)
        spec = SsspBlockSpec(attach_random_weights(g, seed=0),
                             multilevel_partition(g, 4, seed=0))
        join = join_blocks(spec._blocks)
        for name in ("nodes", "int_w", "cut_dst", "cut_w", "in_src", "in_w"):
            assert np.shares_memory(getattr(join, name),
                                    getattr(spec._blocks[0], name))
        # parts that do not lie end to end in one table are copied
        copied = join_blocks([EdgeBlock(*(np.copy(f) if isinstance(f, np.ndarray)
                                          else f for f in b))
                              for b in spec._blocks])
        assert copied.in_w.tobytes() == join.in_w.tobytes()
        assert not np.shares_memory(copied.in_w, spec._blocks[0].in_w)

    def test_built_once_at_the_first_general_round(self):
        g = _messy_graph(4)
        spec = PageRankBlockSpec(g, hash_partition(g, 5))
        state = spec.init_state()
        per_part(spec, state)
        assert spec._joined is None          # an eager solve builds nothing
        spec.general_round(state)
        join = spec._joined
        spec.general_round(state)
        assert spec._joined is join


#: Edge views a join can lose; every one is read by some app.
DROPS = {
    "internal": ("int_src", "int_dst", "int_w"),
    "outgoing cut": ("cut_src", "cut_dst", "cut_w"),
    "incoming cut": ("in_src", "in_dst", "in_w"),
    "cut targets": ("cut_dst",),
    "cut weights": ("cut_w",),
    "in weights": ("in_w",),
}


class TestTheChecksHaveTeeth:
    """A join that drops a field, or a sum app's fold run the other way,
    fails the equivalence above for at least one app."""

    @staticmethod
    def _caught(specs):
        caught = []
        for spec in specs:
            state = spec.init_state()
            if state.dtype.kind == "f":
                state = state + np.linspace(0.0, 1.0, len(state))
            try:
                rounds_agree(spec, state, rounds=2)
            except (AssertionError, ValueError, IndexError):
                caught.append(type(spec).__name__)
        return caught

    @pytest.mark.parametrize("view", sorted(DROPS))
    def test_a_dropped_field(self, view, monkeypatch):
        def dropping(blocks):
            join = join_blocks(blocks)
            return join._replace(**{f: getattr(join, f)[:0] for f in DROPS[view]})

        monkeypatch.setattr(_nodeblock, "join_blocks", dropping)
        g = _messy_graph(5)
        part = multilevel_partition(g, 4, seed=0)
        assert self._caught(_graph_specs(g, part))

    @pytest.mark.parametrize("cls", [PageRankBlockSpec, JacobiBlockSpec])
    def test_the_wrong_fold_direction(self, cls, monkeypatch):
        g = _messy_graph(6)
        part = multilevel_partition(g, 4, seed=0)
        spec = _graph_specs(g, part)[0 if cls is PageRankBlockSpec else 3]
        assert type(spec) is cls
        wrong = sum_fold_matrices(spec._blocks,
                                  into_target=cls is not PageRankBlockSpec)
        join_step = spec.block_step

        def step(b, mats, cols):
            return join_step(b, wrong if len(mats) > 1 else mats, cols)

        assert not self._caught([spec])
        monkeypatch.setattr(spec, "block_step", step)
        assert self._caught([spec])


def _general(cfg_kwargs=None):
    return DriverConfig(mode="general", **(cfg_kwargs or {}))


class TestWholeRuns:
    """A general run with the one-pass round lands on the per-part
    run's bits: state, history and simulated seconds."""

    @staticmethod
    def _twin(run, cls, monkeypatch):
        fast = run()
        with monkeypatch.context() as m:
            m.setattr(cls, "general_round", BlockSpec.general_round)
            slow = run()
        return fast, slow

    @staticmethod
    def _same_result(a, b):
        assert np.asarray(a.state).tobytes() == np.asarray(b.state).tobytes()
        assert a.global_iters == b.global_iters
        assert a.sim_time == b.sim_time
        assert a.history == b.history

    def test_graph_apps(self, monkeypatch):
        g = _messy_graph(7, n=120, m=600)
        part = multilevel_partition(g, 6, seed=0)
        wg = attach_random_weights(g, low=1.0, high=10.0, seed=2)
        system = make_diagonally_dominant_system(part, seed=1)
        runs = [
            lambda: pagerank_spec(g, part, mode="general").run(SimCluster()),
            lambda: sssp_spec(wg, part, source=0,
                              mode="general").run(SimCluster()),
            lambda: components_spec(g, part, mode="general").run(SimCluster()),
            lambda: jacobi_spec(system, part, mode="general").run(SimCluster()),
        ]
        for run in runs:
            self._same_result(*self._twin(run, NodeBlockSpec, monkeypatch))

    def test_kmeans(self, monkeypatch):
        points, _ = gaussian_mixture(900, 5, num_dims=4, seed=3)
        fast, slow = self._twin(
            lambda: kmeans_spec(points, 5, mode="general", num_partitions=13,
                                seed=2).run(SimCluster()),
            KMeansBlockSpec, monkeypatch)
        self._same_result(fast, slow)

    def test_kmeans_eager_with_a_budget_of_one(self, monkeypatch):
        """An adaptive budget at 1 runs eager k-means' rounds through
        ``general_round``: epochs, oscillation detection and all.  A cap
        of two local iterations lets the policy's shrink reach 1."""
        points, _ = gaussian_mixture(900, 5, num_dims=4, spread=1.0, seed=6)
        policies = []

        def run():
            policies.append(AdaptiveSyncPolicy())
            spec = kmeans_spec(points, 5, num_partitions=13, threshold=1e-6,
                               seed=2)
            spec.config = DriverConfig(mode="eager", max_local_iters=2)
            spec.sync_policy = policies[-1]
            return spec.run(SimCluster())

        fast, slow = self._twin(run, KMeansBlockSpec, monkeypatch)
        self._same_result(fast, slow)
        assert policies[0].budgets == policies[1].budgets
        assert policies[0].budgets[:4] == [2, 2, 1, 2]  # down to 1 and back
        assert fast.global_iters > 5                     # crosses a reshuffle

    def test_kmeans_general_rollback_replays_the_same_bits(self):
        points = np.random.default_rng(0).normal(size=(2000, 3))

        def run(node_faults=None):
            spec = kmeans_spec(points, 8, mode="general", num_partitions=8,
                               threshold=1e-6, seed=1)
            spec.config = _general({"state_store": OnlineStateStore(4),
                                    "checkpoint_every": 4})
            return spec.run(SimCluster(node_faults=node_faults))

        base = run()
        res = run(NodeFaultPlan.kill_node(1, round=6, at_seconds=20.5,
                                          num_nodes=8))
        assert res.history[6].rounds_replayed > 0
        assert res.global_iters == base.global_iters
        assert res.state.tobytes() == base.state.tobytes()


class TestKMeansGeneralRound:
    @pytest.mark.parametrize("rows, dims, parts", [
        (300, 3, 1),       # one part
        (900, 4, 13),      # one group of parts
        (3000, 40, 52),    # several groups (3000 * 40 cells > one group)
        (40, 2, 40),       # a point per part
    ])
    def test_equals_the_per_part_solves(self, rows, dims, parts):
        points, _ = gaussian_mixture(rows, 6, num_dims=dims, seed=rows)
        spec = KMeansBlockSpec(points, 6, num_partitions=parts,
                               reshuffle_every=2, seed=1)
        state = spec.init_state()
        for it in range(6):                   # three reshuffle epochs
            spec.on_global_iteration(it, state)
            got = spec.general_round(state)
            assert_same_reports(got, per_part(spec, state))
            state, _, _ = spec.global_combine(state, got)

    def test_after_init_state_the_new_draw_is_used(self):
        points, _ = gaussian_mixture(500, 4, num_dims=3, seed=9)
        spec = KMeansBlockSpec(points, 4, num_partitions=7, reshuffle_every=1,
                               seed=4)
        state = spec.init_state()
        for it in range(3):
            spec.on_global_iteration(it, state)
            spec.general_round(state)
        state = spec.init_state()
        spec.on_global_iteration(0, state)
        assert_same_reports(spec.general_round(state), per_part(spec, state))
