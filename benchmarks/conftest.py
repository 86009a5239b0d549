"""Benchmark-suite configuration.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index), printing the same rows/series the paper
reports and asserting its qualitative shape.  The sweeps are memoised in
``repro.bench``, so figure pairs that share runs (iterations + time)
compute them once.

Run with::

    pytest benchmarks/ --benchmark-only

Scale is controlled by ``REPRO_SCALE`` (default laptop-friendly; set
``REPRO_SCALE=full`` for the paper's input sizes).
"""

from __future__ import annotations

import json
import os

import pytest


def record(artifact: str, section: str, values: "dict[str, float]") -> None:
    """Merge one benchmark's ``{config: number}`` mapping into the JSON
    artifact ``artifact`` (``BENCH_*.json`` in the working directory, which
    the CI bench-smoke job uploads so the trajectory is comparable across
    changes) under ``section``."""
    data: "dict[str, dict]" = {}
    if os.path.exists(artifact):
        try:
            with open(artifact) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[section] = {k: round(float(v), 4) for k, v in values.items()}
    with open(artifact, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_once(benchmark, fn):
    """Benchmark a sweep exactly once (sweeps are long; statistical
    repetition adds nothing because the simulated times are
    deterministic)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture()
def once(benchmark):
    return lambda fn: run_once(benchmark, fn)
