"""Ablation — partitioner quality.

The paper's §II insists partial synchronizations "must be augmented with
suitable locality enhancing techniques"; §V-B.3 uses Metis because "a
good partitioning algorithm that minimizes edge-cuts has the desired
effect of reducing global synchronizations as well".  This ablation runs
Eager PageRank with the multilevel (Metis-substitute), chunk (crawl
order), and hash (locality-oblivious) partitioners at one partition
count and shows the iteration/time gap.  Each answer is checked: every
partitioner's eager ranks lie within 2x of a general run's distance to
the true fixed point (general mode is partition-independent).
"""

from __future__ import annotations

from repro.apps import pagerank_spec
from repro.bench import get_graph, graph_scale, make_cluster, true_ranks
from repro.graph import partition_graph
from repro.util import ascii_table, max_abs_diff

METHODS = ("multilevel", "chunk", "hash")


def test_ablation_partitioner_quality(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    k = max(2, int(round(100 * scale)))  # the paper's 100-partition point

    truth = true_ranks("A", scale)

    def run():
        out = {}
        for method in METHODS:
            part = partition_graph(g, k, method=method, seed=0)
            res = pagerank_spec(g, part, mode="eager").run(make_cluster())
            out[method] = (part.cut_fraction(), res.global_iters, res.sim_time,
                           max_abs_diff(res.state, truth))
        part = partition_graph(g, k, method=METHODS[0], seed=0)
        general = pagerank_spec(g, part, mode="general").run(make_cluster())
        return out, max_abs_diff(general.state, truth)

    results, general_error = once(run)

    rows = [[m, f"{c:.3f}", it, f"{t:.0f}", f"{e:.2e}"]
            for m, (c, it, t, e) in results.items()]
    print()
    print(ascii_table(
        ["partitioner", "cut fraction", "eager global iters", "sim time (s)",
         "answer error"],
        rows, title=f"Ablation: partitioner quality (Graph A, {k} partitions; "
                    f"general's answer error {general_error:.2e})"))

    # every partitioner's eager answer is as good as the general run's
    for method, (*_, error) in results.items():
        assert error <= 2 * general_error, (method, error, general_error)
    ml_cut, ml_iters, ml_time, _ = results["multilevel"]
    h_cut, h_iters, h_time, _ = results["hash"]
    # locality-enhancing partitioning must cut less and converge in fewer
    # global rounds than the oblivious baseline
    assert ml_cut < h_cut / 2
    assert ml_iters < h_iters
    assert ml_time < h_time
