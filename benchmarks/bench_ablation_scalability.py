"""Ablation — scalability to a large cluster (§VI).

    "In order to get a quantitative understanding of our scalability, we
    ran a few experiments on the 460-node cluster (provided by the
    IBM-Google consortium as part of the CluE NSF program) using larger
    data sets.  ...  By showing significant performance improvements on
    a huge data set even in a setting of such large scale, our approach
    demonstrates scalability."

This ablation runs Eager-vs-General PageRank on the Table I 8-node
testbed and on a CluE-like 460-node configuration: the speedup must
persist (and neither configuration may be slower than the smaller one
for the same work).
"""

from __future__ import annotations

from repro.apps import pagerank_spec
from repro.bench import get_graph, get_partition, graph_scale
from repro.cluster import EC2_DEFAULTS, SimCluster, ec2_nodes
from repro.util import ascii_table

CONFIGS = (("8-node EC2 (Table I)", 8), ("460-node CluE (§VI)", 460))


def test_ablation_scalability(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    # more partitions for the big cluster regime
    k = max(8, int(round(800 * scale)))
    part = get_partition("A", scale, k)

    def run():
        out = {}
        for name, nodes in CONFIGS:
            gen = pagerank_spec(g, part, mode="general").run(
                SimCluster(ec2_nodes(nodes), EC2_DEFAULTS))
            eag = pagerank_spec(g, part, mode="eager").run(
                SimCluster(ec2_nodes(nodes), EC2_DEFAULTS))
            out[name] = (gen.sim_time, eag.sim_time)
        return out

    results = once(run)
    rows = [[name, f"{gt:.0f}", f"{et:.0f}", f"{gt / et:.2f}x"]
            for name, (gt, et) in results.items()]
    print()
    print(ascii_table(
        ["cluster", "general (s)", "eager (s)", "speedup"],
        rows, title=f"Ablation: scalability (Graph A, {k} partitions)"))

    small_gen, small_eag = results[CONFIGS[0][0]]
    big_gen, big_eag = results[CONFIGS[1][0]]
    # the eager speedup persists at scale ...
    assert big_gen / big_eag > 1.3
    # ... and the big cluster is never slower for the same work
    assert big_eag <= small_eag + 1e-9
    assert big_gen <= small_gen + 1e-9
