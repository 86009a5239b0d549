"""Extension — online state store between iterations (§VIII future work).

    "Currently, the output from a reduction is written to the
    (distributed) file system (DFS) and must be accessed from the DFS by
    the next set of maps.  This involves significant overhead.  Using
    online data structures (for example, Bigtable) provides credible
    alternatives; however, issues of fault tolerance must be resolved."

Compares General PageRank (many global iterations — the configuration
that pays the most state round trips) across
:class:`~repro.cluster.statestore.StateStore` backends: the replicated
DFS, a single-tablet online store (the historical scalar model),
a properly sharded 8-tablet online store, and the online store with
periodic DFS checkpoints (the resolved-fault-tolerance variant).

The store prices bytes and never touches values, so every variant must
end on ranks bit-for-bit equal to the DFS run's; ``answer_ok`` records
that.  Emits its per-config simulated seconds and ``answer_ok`` into
``BENCH_state_store.json`` (shared with ``bench_state_skew.py``) so the
perf trajectory is machine-readable across changes.
"""

from __future__ import annotations

import numpy as np
from conftest import record
from repro.apps.pagerank import PageRankBlockSpec
from repro.bench import get_graph, get_partition, graph_scale, make_cluster
from repro.cluster import DFSStateStore, OnlineStateStore
from repro.core import BlockBackend, DriverConfig, IterationLoop
from repro.util import ascii_table

VARIANTS = (
    ("DFS (Hadoop baseline)", DFSStateStore, None),
    ("online, 1 tablet", lambda: OnlineStateStore(num_tablets=1), None),
    ("online, 8 tablets", lambda: OnlineStateStore(num_tablets=8), None),
    ("online, 8 tablets + ckpt/5", lambda: OnlineStateStore(num_tablets=8), 5),
)


def test_extension_online_state_store(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    part = get_partition("A", scale, max(2, int(round(100 * scale))))

    def run():
        out = {}
        for name, store_factory, ckpt in VARIANTS:
            cfg = DriverConfig(mode="general", state_store=store_factory(),
                               checkpoint_every=ckpt)
            res = IterationLoop(
                BlockBackend(PageRankBlockSpec(g, part),
                             cluster=make_cluster()), cfg).run()
            out[name] = (res.global_iters, res.sim_time, np.asarray(res.state))
        return out

    results = once(run)
    print()
    print(ascii_table(
        ["state store", "global iters", "sim time (s)"],
        [[n, it, f"{t:.0f}"] for n, (it, t, _) in results.items()],
        title="Extension: inter-iteration state store (General PageRank)"))
    ranks_dfs = results["DFS (Hadoop baseline)"][2]
    same_ranks = {name: np.array_equal(ranks, ranks_dfs)
                  for name, (_, _, ranks) in results.items()}
    record("BENCH_state_store.json", "ext_state_store",
           {**{name: t for name, (_, t, _) in results.items()},
            "answer_ok": float(all(same_ranks.values()))})

    it_dfs, t_dfs, _ = results["DFS (Hadoop baseline)"]
    it_one, t_one, _ = results["online, 1 tablet"]
    it_many, t_many, _ = results["online, 8 tablets"]
    it_ckpt, t_ckpt, _ = results["online, 8 tablets + ckpt/5"]
    # identical algorithm whatever the store: same rounds, same bits
    assert it_dfs == it_one == it_many == it_ckpt
    assert all(same_ranks.values()), same_ranks
    # online store saves time; tablets serve in parallel, so sharding
    # saves more; checkpoints give back part of the saving
    assert t_one < t_dfs
    assert t_many <= t_one
    assert t_many < t_ckpt < t_dfs
