"""Check helpers report failures as strings and never raise."""

import numpy as np

from repro.cluster import Event, SimCluster

from perfbench import checks


def _cluster(events):
    cluster = SimCluster()
    cluster.trace.extend(events)
    return cluster


def test_slot_check_is_per_job_and_per_slot_pool():
    events = [
        Event("a:iter0:map", "a:iter0:map:0", 0, 0, 0.0, 2.0),
        Event("a:iter0:reduce", "a:iter0:reduce:0", 0, 0, 1.0, 3.0),  # other pool
        Event("b:iter0:map", "b:iter0:map:0", 0, 0, 0.5, 1.5),        # other job
        Event("a:iter0:map", "a:iter0:map:1:backup", 0, 0, 0.5, 1.0),  # projected
    ]
    assert checks.check_slots(_cluster(events), ["a", "b"]) == []


def test_slot_check_reports_a_real_overlap():
    events = [
        Event("a:iter0:map", "a:iter0:map:0", 0, 0, 0.0, 2.0),
        Event("a:iter0:map", "a:iter0:map:1", 0, 0, 1.0, 3.0),
    ]
    (failure,) = checks.check_slots(_cluster(events), ["a"])
    assert failure.startswith("a map slots: overlap on slot")


def test_array_checks_describe_the_difference():
    want = np.array([1.0, 2.0, 3.0])
    assert checks.check_equal("x", want.copy(), want) == []
    assert checks.check_equal("x", want + 1e-16 * 0, want) == []
    assert checks.check_equal("x", want + 1e-12, want) == ["x: not bitwise equal"]
    assert checks.check_close("x", want + 1e-12, want, rtol=1e-9) == []
    assert checks.check_close("x", want[:2], want) == ["x: shape (2,) != (3,)"]
    assert "max abs diff" in checks.check_close("x", want + 1.0, want, atol=1e-3)[0]


def test_digest_depends_on_bytes_and_order():
    a, b = np.arange(4.0), np.arange(4.0) + 1
    assert checks.digest([a, b]) == checks.digest([a.copy(), b.copy()])
    assert checks.digest([a, b]) != checks.digest([b, a])
