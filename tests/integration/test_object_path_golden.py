"""Golden accounting of the object path, end to end.

``IterationLoop(EngineBackend(spec, columnar=False))`` on a priced
``SimCluster``: the rounds taken, every round's shuffle bytes and
state-store bytes, and the simulated time, as literals recorded at the
commit before the object path's bookkeeping was rewritten (exact-type
size table, hash memo, one routing+sizing pass).  Everywhere else these
numbers are compared between two live runs of the same code, where a
drift in sizing or routing that hits both sides passes.
"""

from __future__ import annotations

import pytest

from repro.apps.pagerank import PageRankKVSpec
from repro.apps.sssp import SsspKVSpec
from repro.cluster import SimCluster
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.engine import MapReduceRuntime
from repro.graph import (
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)

PARTS = REDUCERS = 3

#: (app, mode) -> (global_iters, shuffle bytes per round, sim_time).
#: Every round round-trips 2160 state bytes, 720 per partition.
GOLDEN = {
    ("pagerank", "eager"): (24, [3806] * 24, 598.7989649999998),
    ("pagerank", "general"): (45, [3806] * 45, 1120.742409375),
    ("sssp", "eager"): (5, [3143, 3602, 3806, 3925, 3925],
                        124.54867506250001),
    ("sssp", "general"): (11, [2191, 3143, 3483, 3534, 3755, 3908, 3925,
                               3925, 3925, 3925, 3925], 273.9531964375001),
}


@pytest.fixture(scope="module")
def graphs():
    g = preferential_attachment(90, num_conn=2, locality_prob=0.9,
                                community_mean=15, seed=9)
    wg = attach_random_weights(g, low=0.5, high=5.0, seed=4)
    return (g, multilevel_partition(g, PARTS, seed=0),
            wg, multilevel_partition(wg, PARTS, seed=0))


@pytest.fixture(scope="module", params=["serial", "threads", "processes"])
def runtime(request):
    with MapReduceRuntime(request.param, workers=2) as rt:
        yield rt


@pytest.mark.parametrize("app, mode", list(GOLDEN))
def test_rounds_bytes_and_sim_time_are_the_recorded_ones(graphs, runtime,
                                                         app, mode):
    g, part, wg, wpart = graphs
    spec = (PageRankKVSpec(g, part) if app == "pagerank"
            else SsspKVSpec(wg, wpart, source=1))
    runtime.cluster = SimCluster()  # a fresh clock per run
    backend = EngineBackend(spec, runtime=runtime, num_reducers=REDUCERS,
                            columnar=False)
    res = IterationLoop(backend, DriverConfig(mode=mode)).run()

    iters, shuffle_bytes, sim_time = GOLDEN[app, mode]
    assert res.converged and res.global_iters == iters
    assert [r.shuffle_bytes for r in res.history] == shuffle_bytes
    assert ([r.state_partition_bytes for r in res.history]
            == [(720,) * PARTS] * iters)
    assert res.sim_time == sim_time
