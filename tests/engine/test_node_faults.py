"""Correlated failure domains on the real engine (NodeFaultPlan).

The paper's §II fault-tolerance story is deterministic replay of lost
map outputs; these tests inject whole-node and whole-rack deaths into
the thread/process executors and pin the §II guarantee: the job always
completes with output bitwise identical to a failure-free run, no
matter which domain died or what it took with it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import RoundAccountant, SimCluster
from repro.engine import (
    Job,
    JobConf,
    MapReduceRuntime,
    NodeDeath,
    NodeFaultPlan,
    ShuffleBuffer,
)
from repro.engine.counters import LOST_MAP_OUTPUTS, MAP_OPS, NODE_DEATHS


def _word_map(key, value, ctx):
    for w in value.split():
        ctx.emit(w, 1)


def _splits(num=8):
    corpus = ["the quick brown fox", "jumps over the lazy dog",
              "the dog barks", "a quick fix", "lazy summer days",
              "fox and dog", "over and over", "the end"]
    return [[(m, corpus[m % len(corpus)])] for m in range(num)]


def _job(num_reducers=3):
    return Job(_word_map, "sum", conf=JobConf(num_reducers=num_reducers))


def _oracle(splits, num_reducers=3):
    with MapReduceRuntime("serial") as rt:
        return rt.run(_job(num_reducers), splits).output


class TestNodeFaultPlanModel:
    def test_none_is_empty(self):
        assert NodeFaultPlan.none().is_empty
        assert not NodeFaultPlan.kill_node(0).is_empty

    def test_plan_pickles_to_an_equal_plan(self):
        plan = NodeFaultPlan.kill_rack(1, round=2, at_seconds=1.5)
        back = pickle.loads(pickle.dumps(plan))
        assert back == plan
        assert back.deaths_in_round(2) == plan.deaths_in_round(2)

    def test_rack_topology(self):
        plan = NodeFaultPlan(num_nodes=8, nodes_per_rack=4)
        assert plan.node_rack(0) == 0
        assert plan.node_rack(3) == 0
        assert plan.node_rack(4) == 1
        assert plan.rack_nodes(1) == (4, 5, 6, 7)

    def test_rack_death_expands_to_all_rack_nodes(self):
        plan = NodeFaultPlan.kill_rack(1, round=2, num_nodes=8,
                                       nodes_per_rack=4)
        deaths = plan.deaths_in_round(2)
        assert sorted(deaths) == [4, 5, 6, 7]
        assert plan.deaths_in_round(0) == {}
        assert plan.deaths_in_round(3) == {}

    def test_node_death_is_single_domain(self):
        plan = NodeFaultPlan.kill_node(2, round=1)
        assert sorted(plan.deaths_in_round(1)) == [2]
        assert plan.deaths_in_round(0) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFaultPlan(num_nodes=0)
        with pytest.raises(ValueError):
            NodeFaultPlan(num_nodes=4, nodes_per_rack=8)
        with pytest.raises(ValueError):
            NodeFaultPlan(heartbeat_seconds=-1.0)
        with pytest.raises(ValueError):
            NodeFaultPlan.kill_node(9, num_nodes=8)
        with pytest.raises(ValueError):
            NodeFaultPlan.kill_rack(2, num_nodes=8, nodes_per_rack=4)
        with pytest.raises(ValueError):
            NodeDeath(node=-1)
        with pytest.raises(ValueError):
            NodeDeath(node=0, at_seconds=-0.5)

    @pytest.mark.parametrize("kwargs", [{"round": -1},
                                        {"after_completions": -1}])
    def test_death_triggers_must_be_non_negative(self, kwargs):
        with pytest.raises(ValueError, match="must be >= 0"):
            NodeDeath(node=0, **kwargs)

    # A nan clock compares false against every death clock, so the
    # death would silently never fire; an infinite one is the same.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [
        lambda x: NodeDeath(node=0, at_seconds=x),
        lambda x: NodeFaultPlan.kill_node(1, round=1, at_seconds=x),
        lambda x: NodeFaultPlan.kill_rack(0, at_seconds=x),
        lambda x: NodeFaultPlan(heartbeat_seconds=x),
    ], ids=["death", "kill_node", "kill_rack", "heartbeat"])
    def test_clocks_must_be_finite(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)


class TestEngineNodeDeaths:
    def test_serial_executor_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            MapReduceRuntime("serial",
                             node_faults=NodeFaultPlan.kill_node(0))

    def test_node_kill_replays_bitwise_identically(self):
        splits = _splits()
        plan = NodeFaultPlan.kill_node(1, after_completions=2, num_nodes=4)
        with MapReduceRuntime("threads", workers=3, node_faults=plan) as rt:
            res = rt.run(_job(), splits)
        assert res.counters.get(NODE_DEATHS) == 1
        assert res.output == _oracle(splits)

    def test_rack_kill_replays_bitwise_identically(self):
        splits = _splits()
        plan = NodeFaultPlan.kill_rack(0, after_completions=2,
                                       num_nodes=4, nodes_per_rack=2)
        with MapReduceRuntime("threads", workers=3, node_faults=plan) as rt:
            res = rt.run(_job(), splits)
        assert res.counters.get(NODE_DEATHS) == 2
        assert res.output == _oracle(splits)

    def test_completed_outputs_are_lineage_lost(self):
        """Killing a node late in the map phase invalidates its already
        completed outputs, which the runtime recomputes from lineage."""
        splits = _splits()
        plan = NodeFaultPlan.kill_node(0, after_completions=7, num_nodes=2)
        with MapReduceRuntime("threads", workers=4, node_faults=plan) as rt:
            res = rt.run(_job(), splits)
        assert res.counters.get(NODE_DEATHS) == 1
        assert res.counters.get(LOST_MAP_OUTPUTS) >= 1
        assert res.output == _oracle(splits)

    def test_death_fires_at_most_once_per_round(self):
        """The same runtime re-running the same round index must not
        re-kill the node — the rollback-replay invariant."""
        splits = _splits()
        plan = NodeFaultPlan.kill_node(1, round=0, after_completions=1,
                                       num_nodes=4)
        with MapReduceRuntime("threads", workers=3, node_faults=plan) as rt:
            first = rt.run(_job(), splits, round_index=0)
            replay = rt.run(_job(), splits, round_index=0)
            other = rt.run(_job(), splits, round_index=1)
        assert first.counters.get(NODE_DEATHS) == 1
        assert replay.counters.get(NODE_DEATHS) == 0
        assert other.counters.get(NODE_DEATHS) == 0
        assert first.output == replay.output == _oracle(splits)

    def test_cluster_prices_detection_plus_lost_work(self):
        """With a simulated cluster attached, a death adds a recovery
        charge: the heartbeat silence before it is noticed plus the
        compute of every map output the domain took with it."""
        splits = _splits()
        # fires once every map has finished: node 0's tasks 0 and 4 are
        # both completed outputs, whatever order the workers ran in
        plan = NodeFaultPlan.kill_node(0, after_completions=len(splits),
                                       num_nodes=4, heartbeat_seconds=2.5)
        cluster = SimCluster()
        acct = RoundAccountant(cluster)
        with MapReduceRuntime("threads", workers=2, cluster=cluster,
                              node_faults=plan) as rt:
            res = rt.run(_job(), splits, accountant=acct)
        assert res.counters.get(LOST_MAP_OUTPUTS) == 2
        with MapReduceRuntime("serial") as rt:
            lost_ops = rt.run(_job(), [splits[0], splits[4]]).counters.get(
                MAP_OPS)
        expected = 2.5 + cluster.cost_model.map_compute_seconds(lost_ops)
        assert res.sim_times["recovery"] == pytest.approx(expected)
        ledger = acct.ledger
        assert ledger.recovery_seconds == pytest.approx(expected)
        assert (ledger.node_deaths, ledger.lost_map_outputs) == (1, 2)
        assert res.output == _oracle(splits)


class TestDeferMergeBuffer:
    """The defer-merge shuffle mode death rounds run under: parked
    contributions stay individually revocable until sealed."""

    def test_invalidate_and_readd(self):
        buf = ShuffleBuffer(num_maps=3, num_reducers=2, defer_merge=True)
        buf.add(0, [[("a", 1)], []])
        buf.add(1, [[("b", 2)], []])
        assert not buf.complete
        assert buf.invalidate(1)
        assert not buf.invalidate(1)      # already gone
        buf.add(1, [[("b", 5)], []])
        buf.add(2, [[], [("c", 3)]])
        assert buf.complete
        groups = buf.groups()
        assert groups[0] == [("a", [1]), ("b", [5])]
        assert groups[1] == [("c", [3])]

    def test_eager_buffer_rejects_invalidate(self):
        buf = ShuffleBuffer(num_maps=2, num_reducers=1)
        buf.add(0, [[("a", 1)]])
        with pytest.raises(RuntimeError, match="defer_merge"):
            buf.invalidate(0)

    def test_deferred_output_matches_eager(self):
        parts = [[[("x", 1)], [("y", 9)]], [[("x", 2)], []],
                 [[("z", 3)], [("y", 8)]]]
        eager = ShuffleBuffer(num_maps=3, num_reducers=2)
        defer = ShuffleBuffer(num_maps=3, num_reducers=2, defer_merge=True)
        for m, buckets in enumerate(parts):
            eager.add(m, [list(b) for b in buckets])
        # deferred buffers accept arrivals in any order
        for m in (2, 0, 1):
            defer.add(m, [list(b) for b in parts[m]])
        assert eager.groups() == defer.groups()
