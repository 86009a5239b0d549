"""Ablation — synchronization-cost sensitivity (cloud vs HPC).

§II: "the difference in overhead between a partial and global
synchronization in relation to the intervening useful computation is
not as large for HPC platforms.  Consequently, the performance
improvement from algorithmic asynchrony is significantly amplified on
distributed platforms."  This ablation sweeps the overhead scale from
HPC-like to cloud-like and shows the Eager/General speedup growing with
synchronization cost.
"""

from __future__ import annotations

from repro.apps import pagerank_spec
from repro.bench import get_graph, get_partition, graph_scale
from repro.cluster import EC2_DEFAULTS, SimCluster, ec2_nodes, scaled_model
from repro.util import ascii_table

SCALES = (0.001, 0.01, 0.1, 1.0)


def test_ablation_barrier_cost_sensitivity(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    part = get_partition("A", scale, max(2, int(round(100 * scale))))

    def run():
        out = []
        for s in SCALES:
            cm = scaled_model(EC2_DEFAULTS, overhead_scale=s)
            gen = pagerank_spec(g, part, mode="general").run(
                SimCluster(ec2_nodes(), cm))
            eag = pagerank_spec(g, part, mode="eager").run(
                SimCluster(ec2_nodes(), cm))
            out.append((s, gen.sim_time, eag.sim_time,
                        gen.sim_time / eag.sim_time))
        return out

    results = once(run)

    rows = [[s, f"{gt:.1f}", f"{et:.1f}", f"{r:.2f}x"]
            for s, gt, et, r in results]
    print()
    print(ascii_table(
        ["overhead scale (0=HPC-like, 1=cloud)", "general (s)", "eager (s)",
         "speedup"],
        rows, title="Ablation: speedup vs synchronization cost"))

    ratios = [r for _, _, _, r in results]
    # speedup grows with synchronization cost (allowing tiny wobbles)
    assert ratios[-1] > ratios[0] * 1.5
    assert ratios[-1] > 2.0
