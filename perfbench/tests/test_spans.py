"""Span self-time arithmetic and the Chrome trace export."""

import json

import pytest

from perfbench.spans import (
    Tracer,
    chrome_trace,
    durations,
    self_times,
    span_counts,
)


def _spans():
    # job [0, 10] > step [1, 9] > (solve [2, 5], solve [5, 7]); charge [9, 9.5]
    return [
        ["job", 0.0, 10.0, -1],
        ["step", 1.0, 9.0, 0],
        ["solve", 2.0, 5.0, 1],
        ["solve", 5.0, 7.0, 1],
        ["charge", 9.0, 9.5, 0],
    ]


def test_self_time_is_duration_minus_direct_children():
    own = self_times(_spans())
    assert own == {"job": pytest.approx(1.5), "step": pytest.approx(3.0),
                   "solve": pytest.approx(5.0), "charge": pytest.approx(0.5)}


def test_self_times_add_up_to_the_root():
    assert sum(self_times(_spans()).values()) == pytest.approx(10.0)


def test_nested_spans_of_one_name_are_not_double_counted():
    spans = [["charge", 0.0, 4.0, -1], ["charge", 1.0, 3.0, 0]]
    assert self_times(spans) == {"charge": pytest.approx(4.0)}


def test_counts_and_durations():
    assert span_counts(_spans()) == {"job": 1, "step": 1, "solve": 2, "charge": 1}
    assert durations(_spans(), "solve") == [3.0, 2.0]


def test_tracer_records_the_causal_chain():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    tracer.begin("outer")
    assert inner(1) == 2
    tracer.end()
    (outer, child) = tracer.spans
    assert outer[0] == "outer" and outer[3] == -1
    assert child[0] == "inner" and child[3] == 0
    assert outer[1] <= child[1] <= child[2] <= outer[2]


def test_tracer_closes_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][2] >= tracer.spans[0][1] > 0.0
    tracer.begin("next")
    tracer.end()
    assert tracer.spans[1][3] == -1        # the stack was unwound


def test_chrome_trace_is_loadable_json(tmp_path):
    path = tmp_path / "t.json"
    chrome_trace(_spans(), str(path), process="unit")
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["job", "step", "solve", "solve", "charge"]
    assert complete[1]["ts"] == pytest.approx(1e6) and complete[1]["dur"] == pytest.approx(8e6)
