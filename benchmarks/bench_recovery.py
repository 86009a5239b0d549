"""Correlated-failure recovery — checkpoint cadence x kill time x domain.

MapReduce's deterministic replay (§II) is the license for everything
the paper relaxes; this bench prices what the license costs when the
failure is not one task but a whole node or rack, and the state store
is the non-durable online store whose un-checkpointed rounds die with
their tablets.

Three sweeps, three gates:

* **Checkpoint cadence**: kill node 1 in round 11 and sweep
  ``checkpoint_every`` in {2, 4, 6, 12}.  A death in round *i* replays
  ``i % cadence + 1`` rounds, so recovery time must **strictly
  decrease** as the cadence tightens (the acceptance gate), while the
  recovered iterates stay bitwise identical to a failure-free run.
* **Kill time**: with the cadence fixed, a death farther from the last
  checkpoint replays more rounds — recovery grows monotonically with
  the distance.
* **Domain size**: a rack death (4 nodes) on the same trace costs
  strictly more recovery than a node death (1 node), and the real
  engine completes node- and rack-kill jobs bitwise identical to the
  serial oracle.

Emits every recovery bill into ``BENCH_recovery.json`` so the
fault-tolerance trajectory is machine-readable across PRs, with an
``answer_ok`` per sweep: every recovered state equals ``GeoSpec``'s
closed form, and the engine's replayed outputs equal the serial
oracle's.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conftest import record
from repro.cluster import EC2_DEFAULTS, OnlineStateStore, SimCluster
from repro.core import (
    BlockBackend,
    BlockSpec,
    DriverConfig,
    IterationLoop,
    LocalSolveReport,
)
from repro.engine import (
    Job,
    JobConf,
    MapReduceRuntime,
    NodeFaultPlan,
)
from repro.engine.counters import LOST_MAP_OUTPUTS, NODE_DEATHS
from repro.util import ascii_table

#: Slow maps so a mid-wave kill always catches tasks in flight and the
#: replayed rounds dominate the recovery bill.
COMPUTE_BOUND = replace(EC2_DEFAULTS, map_op_seconds=0.5)

#: The ISSUE gate's sweep: death in round 11, cadences dividing 12.
KILL_ROUND = 11
CADENCES = (2, 4, 6, 12)

#: Kill-time sweep at fixed cadence 4: replay depth 1, 3, 4.
KILL_ROUNDS = (4, 6, 7)

ROUNDS = 20


class GeoSpec(BlockSpec):
    """Each partition halves its slot toward zero — one op per round,
    so the rollback arithmetic is exactly predictable."""

    partition_scoped_state = True

    def __init__(self, parts: int = 12) -> None:
        self.parts = parts

    def num_partitions(self):
        return self.parts

    def init_state(self):
        return np.full(self.parts, 1.0)

    def local_solve(self, part_id, state, *, max_local_iters):
        x = float(state[part_id])
        ops = []
        iters = 0
        while iters < max_local_iters:
            x = x / 2
            ops.append(4.0)
            iters += 1
        return LocalSolveReport(partition=part_id, updates=x,
                                local_iters=iters, per_iter_ops=ops,
                                shuffle_bytes=8)

    def global_combine(self, state, reports):
        new = state.copy()
        for r in reports:
            new[r.partition] = r.updates
        return new, 1.0, 64

    def global_converged(self, prev, curr):
        res = float(np.abs(curr - prev).max())
        return res < 1e-9, res


def _answer_ok(*results) -> float:
    """1.0 when every run halved every slot once a round: ``2**-rounds``
    exactly, ``GeoSpec``'s closed form."""
    return float(all(np.array_equal(r.state, np.full(len(r.state),
                                                     0.5 ** r.global_iters))
                     for r in results))


def _run(parts=12, *, node_faults=None, checkpoint_every=4):
    cfg = DriverConfig(mode="eager", max_global_iters=ROUNDS,
                       max_local_iters=1,
                       checkpoint_every=checkpoint_every,
                       state_store=OnlineStateStore(num_tablets=4))
    cl = SimCluster(cost_model=COMPUTE_BOUND, node_faults=node_faults)
    return IterationLoop(BlockBackend(GeoSpec(parts), cluster=cl), cfg).run()


def _kill(round_, *, rack=False, parts_nodes=8):
    if rack:
        return NodeFaultPlan.kill_rack(0, round=round_, at_seconds=1.0,
                                       num_nodes=parts_nodes,
                                       nodes_per_rack=4)
    return NodeFaultPlan.kill_node(1, round=round_, at_seconds=1.0,
                                   num_nodes=parts_nodes)


# ----------------------------------------------------------------------
# Gate 1: recovery time strictly improves with tighter checkpoints
# ----------------------------------------------------------------------

def test_checkpoint_cadence_prices_recovery(once):
    def run():
        base = _run()
        sweep = {c: _run(node_faults=_kill(KILL_ROUND), checkpoint_every=c)
                 for c in CADENCES}
        return base, sweep

    base, sweep = once(run)

    rows, out = [], {}
    costs = []
    for cadence in CADENCES:
        rec = sweep[cadence].history[KILL_ROUND]
        rows.append([cadence, rec.rounds_replayed,
                     f"{rec.recovery_seconds:.1f}",
                     f"{sweep[cadence].sim_time:.1f}"])
        out[f"cadence_{cadence}_recovery_s"] = rec.recovery_seconds
        out[f"cadence_{cadence}_rounds_replayed"] = rec.rounds_replayed
        out[f"cadence_{cadence}_makespan_s"] = sweep[cadence].sim_time
        costs.append(rec.recovery_seconds)
    out["failure_free_makespan_s"] = base.sim_time
    out["answer_ok"] = _answer_ok(base, *sweep.values())
    print(ascii_table(
        ["checkpoint_every", "rounds replayed", "recovery (s)",
         "makespan (s)"], rows,
        title=f"node death in round {KILL_ROUND}"))
    record("BENCH_recovery.json", "cadence_sweep", out)
    assert out["answer_ok"] == 1.0

    # Gate: strictly decreasing recovery as the cadence tightens.
    assert costs == sorted(costs) and len(set(costs)) == len(costs), \
        f"recovery not strictly improving with cadence: {costs}"
    # Gate: rollback replays exactly the un-checkpointed suffix.
    for cadence in CADENCES:
        assert (sweep[cadence].history[KILL_ROUND].rounds_replayed
                == KILL_ROUND % cadence + 1)
    # Gate: bitwise identity with the failure-free oracle.
    for cadence in CADENCES:
        assert np.array_equal(sweep[cadence].state, base.state)


# ----------------------------------------------------------------------
# Gate 2: recovery grows with the distance from the last checkpoint
# ----------------------------------------------------------------------

def test_kill_time_prices_replay_depth(once):
    def run():
        return {r: _run(node_faults=_kill(r)) for r in KILL_ROUNDS}

    sweep = once(run)
    out, costs = {}, []
    for r in KILL_ROUNDS:
        rec = sweep[r].history[r]
        out[f"kill_round_{r}_recovery_s"] = rec.recovery_seconds
        out[f"kill_round_{r}_rounds_replayed"] = rec.rounds_replayed
        costs.append(rec.recovery_seconds)
    out["answer_ok"] = _answer_ok(*sweep.values())
    print("kill-time sweep (cadence 4):",
          {r: f"{c:.1f}s" for r, c in zip(KILL_ROUNDS, costs)})
    record("BENCH_recovery.json", "kill_time_sweep", out)
    assert out["answer_ok"] == 1.0
    assert costs == sorted(costs) and len(set(costs)) == len(costs)
    assert [sweep[r].history[r].rounds_replayed for r in KILL_ROUNDS] \
        == [r % 4 + 1 for r in KILL_ROUNDS]


# ----------------------------------------------------------------------
# Gate 3: a rack costs more than a node, and both recover bitwise
# ----------------------------------------------------------------------

def test_rack_domain_costs_more_than_node(once):
    def run():
        base = _run(parts=64)
        node = _run(parts=64, node_faults=_kill(KILL_ROUND))
        rack = _run(parts=64, node_faults=_kill(KILL_ROUND, rack=True))
        return base, node, rack

    base, node, rack = once(run)
    nrec, rrec = node.history[KILL_ROUND], rack.history[KILL_ROUND]
    out = {"node_deaths": nrec.node_deaths,
           "node_recovery_s": nrec.recovery_seconds,
           "node_makespan_s": node.sim_time,
           "rack_deaths": rrec.node_deaths,
           "rack_recovery_s": rrec.recovery_seconds,
           "rack_makespan_s": rack.sim_time,
           "answer_ok": _answer_ok(base, node, rack)}
    print(ascii_table(
        ["domain", "deaths", "recovery (s)", "makespan (s)"],
        [["node", nrec.node_deaths, f"{nrec.recovery_seconds:.1f}",
          f"{node.sim_time:.1f}"],
         ["rack", rrec.node_deaths, f"{rrec.recovery_seconds:.1f}",
          f"{rack.sim_time:.1f}"]],
        title=f"same trace, death in round {KILL_ROUND}"))
    record("BENCH_recovery.json", "domain_size", out)

    assert out["answer_ok"] == 1.0
    assert rrec.node_deaths == 4 and nrec.node_deaths == 1
    assert rrec.recovery_seconds > nrec.recovery_seconds
    assert np.array_equal(node.state, base.state)
    assert np.array_equal(rack.state, base.state)


# ----------------------------------------------------------------------
# Gate 4: the real engine replays both domains bitwise-identically
# ----------------------------------------------------------------------

def _block_map(key, value, ctx):
    keys, values = value
    ctx.emit_block(keys, values)


def _engine_splits(num=8, n=2000, seed=23):
    rng = np.random.default_rng(seed)
    return [[(m, (rng.integers(0, 300, n), rng.random(n)))]
            for m in range(num)]


def test_engine_lineage_replay_is_oracle_identical(once):
    splits = _engine_splits()
    job = Job(_block_map, "sum", combine_fn="sum",
              conf=JobConf(num_reducers=3))

    def run():
        with MapReduceRuntime("serial") as rt:
            oracle = rt.run(job, splits)
        plan = NodeFaultPlan.kill_node(0, after_completions=6, num_nodes=4)
        with MapReduceRuntime("threads", workers=3, node_faults=plan) as rt:
            node = rt.run(job, splits)
        plan = NodeFaultPlan.kill_rack(0, after_completions=2,
                                       num_nodes=4, nodes_per_rack=2)
        with MapReduceRuntime("threads", workers=3, node_faults=plan) as rt:
            rack = rt.run(job, splits)
        return oracle, node, rack

    oracle, node, rack = once(run)
    out = {"node_deaths": node.counters.get(NODE_DEATHS),
           "node_lost_map_outputs": node.counters.get(LOST_MAP_OUTPUTS),
           "rack_deaths": rack.counters.get(NODE_DEATHS),
           "rack_lost_map_outputs": rack.counters.get(LOST_MAP_OUTPUTS),
           "node_identical": float(node.output == oracle.output),
           "rack_identical": float(rack.output == oracle.output),
           "answer_ok": float(node.output == rack.output == oracle.output)}
    print("engine lineage replay:", out)
    record("BENCH_recovery.json", "engine_identity", out)

    assert node.counters.get(NODE_DEATHS) == 1
    assert rack.counters.get(NODE_DEATHS) == 2
    assert node.counters.get(LOST_MAP_OUTPUTS) >= 1
    assert node.output == oracle.output
    assert rack.output == oracle.output
