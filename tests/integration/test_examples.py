"""Smoke tests: every example script runs to completion.

The examples are user-facing documentation; a broken one is a bug.  They
are executed in-process (imported as modules and ``main()`` called) at
reduced output, with a generous-but-bounded runtime expectation.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "custom_async_algorithm.py",
    "census_clustering.py",
    "extensions_tour.py",
    "multi_job_scheduling.py",
    "transaction_paths.py",
    "web_ranking.py",
]


def _run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys):
    out = _run_example(name, capsys)
    assert len(out) > 100  # produced a real report


def test_quickstart_reports_speedup(capsys):
    out = _run_example("quickstart.py", capsys)
    assert "Eager speedup" in out
    assert "WordCount" in out


def test_custom_algorithm_correct(capsys):
    out = _run_example("custom_async_algorithm.py", capsys)
    assert "correct=True" in out
    assert "correct=False" not in out


def test_all_examples_exist():
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    expected = {
        "quickstart.py",
        "web_ranking.py",
        "transaction_paths.py",
        "census_clustering.py",
        "custom_async_algorithm.py",
        "extensions_tour.py",
        "multi_job_scheduling.py",
    }
    assert expected <= present
