"""Property-based tests for the cluster simulator's scheduling laws."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import CostModel, SimCluster, ZERO_COST, ec2_nodes

costs_lists = st.lists(st.floats(0.0, 50.0, allow_nan=False),
                       min_size=0, max_size=40)
#: A cluster's nodes: 1-4 of them, 1-3 map slots each, mixed speeds.
node_sets = st.integers(1, 4).flatmap(lambda count: st.builds(
    lambda slots, speeds: ec2_nodes(count, map_slots=slots, speeds=speeds),
    st.integers(1, 3),
    st.lists(st.sampled_from([0.25, 0.5, 0.6, 1.0, 2.0]),
             min_size=count, max_size=count)))


class TestSchedulingLaws:
    @settings(deadline=None, max_examples=60)
    @given(costs_lists)
    def test_makespan_between_bounds(self, costs):
        cl = SimCluster(ec2_nodes(), ZERO_COST)
        # unit-speed slots: no less than the longest task or work / slots
        lb = max([*costs, sum(costs) / cl.total_map_slots])
        res = cl.run_map_phase(costs)
        assert res.makespan >= lb - 1e-9
        assert res.makespan <= sum(costs) + 1e-9  # never worse than serial

    @settings(deadline=None, max_examples=60)
    @given(costs_lists)
    def test_trace_never_overlaps(self, costs):
        cl = SimCluster(ec2_nodes(2), ZERO_COST)
        cl.run_map_phase(costs)
        cl.trace.check_no_overlap()

    @settings(deadline=None, max_examples=40)
    @given(costs_lists, st.integers(min_value=1, max_value=4))
    def test_more_nodes_never_slower(self, costs, extra):
        small = SimCluster(ec2_nodes(1), ZERO_COST).run_map_phase(costs)
        big = SimCluster(ec2_nodes(1 + extra), ZERO_COST).run_map_phase(costs)
        assert big.makespan <= small.makespan + 1e-9

    @settings(deadline=None, max_examples=60)
    @given(costs_lists, node_sets)
    def test_lpt_within_list_scheduling_bounds(self, costs, nodes):
        # area and longest-task lower bounds; any greedy list schedule
        # starts its last task before the area bound, on some slot
        makespan = SimCluster(nodes, ZERO_COST).run_map_phase(costs).makespan
        capacity = sum(n.speed * n.map_slots for n in nodes)
        area = sum(costs) / capacity
        longest = max(costs, default=0.0)
        speeds = [n.speed for n in nodes]
        tol = 1e-9 * (1.0 + area + longest)
        assert makespan >= max(area, longest / max(speeds)) - tol
        assert makespan <= area + longest / min(speeds) + tol

    @settings(deadline=None, max_examples=40)
    @given(st.data(), costs_lists, node_sets)
    def test_lpt_ignores_submission_order(self, data, costs, nodes):
        shuffled = data.draw(st.permutations(costs))
        assert (SimCluster(nodes, ZERO_COST).run_map_phase(shuffled).makespan
                == SimCluster(nodes, ZERO_COST).run_map_phase(costs).makespan)

    @settings(deadline=None, max_examples=60)
    @given(costs_lists, st.integers(1, 4), st.integers(1, 3))
    def test_lpt_on_identical_nodes_is_one_node_with_every_slot(
            self, costs, count, slots):
        # the tie order, (slot, node), only relabels identical slots
        spread = SimCluster(ec2_nodes(count, map_slots=slots), ZERO_COST)
        pooled = SimCluster(ec2_nodes(1, map_slots=count * slots), ZERO_COST)
        assert (spread.run_map_phase(costs).makespan
                == pooled.run_map_phase(costs).makespan)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0.0, 1e9), st.floats(0.0, 1e9))
    def test_shuffle_charge_additive_superadditive(self, a, b):
        cm = CostModel()
        # one combined transfer is at most as costly as two separate ones
        # (a single latency term instead of two)
        assert cm.shuffle_seconds(a + b) <= (
            cm.shuffle_seconds(a) + cm.shuffle_seconds(b) + 1e-9)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0.0, 1e9))
    def test_dfs_roundtrip_monotone(self, nbytes):
        cm = CostModel()
        assert cm.dfs_write_seconds(nbytes) >= 0
        assert cm.dfs_read_seconds(nbytes) <= cm.dfs_write_seconds(nbytes) \
            or nbytes == 0
