"""The run protocol on a synthetic workload: a wrong output lowers
``success_rate`` instead of raising, and the emitted names are the
ones ``BENCHMARK.json`` declares."""

import json
import os

import numpy as np
import pytest

from perfbench import REPO_ROOT, runner
from perfbench.names import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_NAMES
from perfbench.workloads import WORKLOADS, JobOutcome, Workload


class _Toy(Workload):
    """Three-element 'job'; repetition ``wrong_on`` returns bad output."""

    name = "toy"
    reps = 7
    wrong_on = -1

    def setup(self, seed):
        self.calls = 0
        self.expected = np.arange(3.0) + seed
        return self.run_job()

    def run_job(self, tracer=None):
        self.calls += 1
        out = self.expected.copy()
        if self.calls == self.wrong_on:
            out[1] += 1.0
        if tracer is not None:
            tracer.begin("core.loop.step")
            tracer.end()
        return JobOutcome(global_iters=4, sim_seconds=12.5, outputs=[out])

    def check(self, outcome):
        ok = np.array_equal(outcome.outputs[0], self.expected)
        return [] if ok else ["toy: wrong output"]


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "toy", _Toy)
    monkeypatch.setattr(runner, "busy_cores", lambda: 0.0)
    return _Toy


def test_clean_run_reports_every_end_to_end_metric(toy):
    report = runner.run_workload("toy", seed=1, seconds=RUN_SECONDS, trace=False)
    assert set(report["metrics"]) == set(END_TO_END)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == 1 + _Toy.reps       # the discarded job counts
    assert report["metrics"]["success_rate"]["value"] == 1.0
    assert report["metrics"]["output_digest_stable"]["value"] == 1.0
    assert report["metrics"]["global_iters"]["value"] == 4.0
    assert report["metrics"]["sim_seconds"]["value"] == 12.5
    line = json.loads(runner.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_wrong_output_lowers_success_rate_without_raising(toy, monkeypatch):
    monkeypatch.setattr(_Toy, "wrong_on", 3)      # third measured repetition
    report = runner.run_workload("toy", seed=0, seconds=RUN_SECONDS, trace=False)
    attempted = report["attempted"]
    assert report["failed"] == 1 and not report["correct"]
    assert report["metrics"]["success_rate"]["value"] == (attempted - 1) / attempted
    assert report["metrics"]["output_digest_stable"]["value"] == (attempted - 1) / attempted
    assert "toy: wrong output" in report["failures"]


def test_traced_run_reports_every_per_layer_metric(toy, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "OUT_DIR", str(tmp_path))
    report = runner.run_workload("toy", seed=0, seconds=RUN_SECONDS, trace=True)
    assert set(report["metrics"]) == set(PER_LAYER)
    assert report["correct"]
    assert report["metrics"]["trace.overhead_ratio"]["value"] > 0.0
    assert os.path.exists(tmp_path / "toy-seed0.trace.json")


def test_repetition_count_is_fixed_and_only_a_longer_window_raises_it():
    assert runner.repetitions(_Toy, RUN_SECONDS) == 7
    assert runner.repetitions(_Toy, 2 * RUN_SECONDS) == 14
    assert runner.repetitions(_Toy, 1) == 7


def manifest() -> dict:
    """``BENCHMARK.json`` as the name tables and workloads define it.
    After changing either, rewrite the file from this (README, Files)."""
    return {
        "command": ["python3", "-m", "perfbench", "run"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].why}
                      for name in WORKLOAD_NAMES],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }


def test_benchmark_json_is_what_the_runner_emits():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == manifest()
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    for cls in WORKLOADS.values():
        assert len(cls.why) <= 200
        assert cls.reps >= (9 if cls.name == "engine-sweep-proc" else 7)


def test_run_all_keeps_going_past_a_failed_workload(monkeypatch, capsys):
    from types import SimpleNamespace

    from perfbench import __main__ as cli

    ran = []

    def fake_run(cmd, **_kwargs):
        name = cmd[cmd.index("--workload") + 1]
        ran.append(name)
        failed = int(name == WORKLOAD_NAMES[0])
        line = json.dumps({"correct": not failed, "attempted": 8, "failed": failed,
                           "metrics": {"success_rate": {"value": 1 - failed / 8,
                                                        "unit": "ratio"}}})
        return SimpleNamespace(stdout=f"perfbench {name}\n{line}\n",
                               returncode=failed)

    monkeypatch.setattr(cli.subprocess, "run", fake_run)
    assert cli.main(["run", "--workload", "all"]) == 1
    assert ran == list(WORKLOAD_NAMES)
    combined = json.loads(capsys.readouterr().out.rstrip("\n").split("\n")[-1])
    assert not combined["correct"]
    assert (combined["attempted"], combined["failed"]) == (32, 1)
    assert combined["metrics"][f"{WORKLOAD_NAMES[0]}/success_rate"]["value"] == 0.875


_HYGIENE = """
import multiprocessing, os, time
from multiprocessing import resource_tracker
from perfbench.probes import stop_children

resource_tracker.ensure_running()
tracker = resource_tracker._resource_tracker._pid
worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
worker.start()
stop_children()
for pid in (tracker, worker.pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        continue
    raise SystemExit(f"pid {pid} outlived stop_children")
"""


def test_stop_children_leaves_no_process_behind():
    """The shm transport's resource tracker used to outlive the run
    (it exits only once the driver's pipe end closes) — in its own
    interpreter, so this suite's tracker and pools are left alone."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _HYGIENE], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
