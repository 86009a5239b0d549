"""Extension — broader applicability (§V-E / §VI).

    "While we present results for only three applications, our approach
    is applicable to a broad set of applications that admit asynchronous
    algorithms.  These applications include — all-pairs shortest path,
    network flow and coding, neural-nets, linear and non-linear solvers,
    and constraint matching." (§V-E)

This bench quantifies the claim on three additional application classes
implemented in this repository: connected components (sparse-graph
class), an asynchronous Jacobi linear solver (linear-solver class), and
landmark all-pairs shortest paths — each in General vs Eager form on
the same partitioned input.
"""

from __future__ import annotations

import numpy as np

from repro.apps import (
    components_reference,
    components_spec,
    jacobi_spec,
    landmark_apsp,
    make_diagonally_dominant_system,
)
from repro.bench import get_graph, get_partition, graph_scale, make_cluster
from repro.util import ascii_table


def test_extension_broader_applicability(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    gw = get_graph("A", scale, weighted=True)
    k = max(2, int(round(100 * scale)))
    part = get_partition("A", scale, k)
    part_w = get_partition("A", scale, k, weighted=True)

    def run():
        rows = []
        # connected components
        cc_g = components_spec(g, part, mode="general").run(make_cluster())
        cc_e = components_spec(g, part, mode="eager").run(make_cluster())
        assert np.array_equal(cc_e.state, components_reference(g))
        rows.append(("connected components", cc_g.global_iters, cc_e.global_iters,
                     cc_g.sim_time, cc_e.sim_time))
        # async Jacobi solver
        system = make_diagonally_dominant_system(part, seed=1)
        ja_g = jacobi_spec(system, part, mode="general").run(make_cluster())
        ja_e = jacobi_spec(system, part, mode="eager").run(make_cluster())
        assert system.residual_norm(ja_e.state) < 1e-4
        rows.append(("jacobi linear solver", ja_g.global_iters, ja_e.global_iters,
                     ja_g.sim_time, ja_e.sim_time))
        # landmark APSP (2 landmarks keeps the bench quick)
        ap_g = landmark_apsp(gw, part_w, num_landmarks=2, mode="general",
                             cluster=make_cluster(), seed=0)
        ap_e = landmark_apsp(gw, part_w, num_landmarks=2, mode="eager",
                             cluster=make_cluster(), seed=0)
        rows.append(("landmark APSP (2 sources)", ap_g.global_iters,
                     ap_e.global_iters, ap_g.sim_time, ap_e.sim_time))
        return rows

    rows = once(run)
    print()
    print(ascii_table(
        ["application", "general iters", "eager iters", "general (s)",
         "eager (s)"],
        [[n, ig, ie, f"{tg:.0f}", f"{te:.0f}"] for n, ig, ie, tg, te in rows],
        title=f"Extension: broader applicability (Graph A, {k} partitions)"))

    for name, ig, ie, tg, te in rows:
        assert ie <= ig, name
        assert te < tg, name
