"""Judge two sets of recorded runs: ``compare`` and ``selfcheck``.

Input files hold one JSON line per run (``run --append FILE``).  Runs
are grouped by workload and paired in file order — run *i* of the
parent with run *i* of the change.  Noisy runs (the busy-machine guard
fired) and traced runs are no evidence: a pair with one on either side
is dropped whole, after pairing.  Verdicts follow choosing-metrics §6 and §8:

* ``gain`` — at least ten pairs, the change won at least nine tenths of
  them (ties count for neither side) and the medians are further apart
  than the parent's own inter-quartile distance;
* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own spread exceeds the bound, unless
  every change run beats every parent run;
* ``changed`` / ``same`` — exact metrics: bit equality, pair by pair;
* ``unchanged`` — none of the above.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Sequence

from perfbench import OUT_DIR, REPO_ROOT
from perfbench.names import END_TO_END, EXACT, WORKLOAD_NAMES
from perfbench.stats import median, quartiles, relative_spread

__all__ = ["judge", "judge_exact", "load_runs", "pair_runs", "compare_files",
           "measured_bound", "selfcheck"]

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9
#: ``selfcheck`` records two sets of this many runs of every workload ...
SELFCHECK_RUNS = 3
#: ... all on this seed, so the exact metrics must be bit-equal.
SELFCHECK_SEED = 0


def judge(pairs: "Sequence[tuple[float, float]]", *, better: str,
          bound: float) -> str:
    """Verdict for one timing-like metric on one workload.

    ``pairs`` are ``(parent, change)`` values of paired runs.
    """
    if not pairs:
        return "no-data"
    sign = 1.0 if better == "lower" else -1.0
    parent = [sign * p for p, _ in pairs]
    change = [sign * c for _, c in pairs]
    p_med, c_med = median(parent), median(change)
    spread = relative_spread(parent)
    if spread > bound:
        if max(change) < min(parent):
            return "gain" if len(pairs) >= MIN_PAIRS_FOR_GAIN else "unchanged"
        return "unresolved"
    if p_med and (c_med - p_med) / abs(p_med) > bound:
        return "regressed"
    wins = sum(1 for p, c in zip(parent, change) if c < p)
    q1, _, q3 = quartiles(parent)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
            and p_med - c_med > q3 - q1):
        return "gain"
    return "unchanged"


def judge_exact(pairs: "Sequence[tuple[float, float]]") -> str:
    """Exact metrics read ``changed`` on the first differing pair."""
    if not pairs:
        return "no-data"
    return "changed" if any(p != c for p, c in pairs) else "same"


def load_runs(path: str) -> "dict[str, list[dict]]":
    """Every run of a ``--append`` file, in file order, grouped by workload."""
    runs: "dict[str, list[dict]]" = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                runs.setdefault(run["workload"], []).append(run)
    return runs


def pair_runs(parent: "list[dict]", change: "list[dict]"
              ) -> "list[tuple[dict, dict]]":
    """Run *i* with run *i*; a pair with a traced or noisy side is
    dropped whole, so the pairs after it keep their partners."""
    if len(parent) != len(change):
        print(f"perfbench: {len(parent)} parent runs vs {len(change)} change runs "
              f"of {(parent or change)[0]['workload']}; the surplus is unpaired",
              file=sys.stderr)
    return [(p, c) for p, c in zip(parent, change)
            if not (p.get("trace") or c.get("trace")
                    or p.get("noisy") or c.get("noisy"))]


def _rows(parent: "dict[str, list[dict]]", change: "dict[str, list[dict]]"
          ) -> "list[tuple]":
    """One row per workload x end-to-end metric."""
    rows = []
    for workload in sorted(set(parent) | set(change)):
        paired = pair_runs(parent.get(workload, []), change.get(workload, []))
        for metric, (unit, better, bound) in END_TO_END.items():
            values = [(p["metrics"][metric], c["metrics"][metric])
                      for p, c in paired]
            verdict = (judge_exact(values) if metric in EXACT
                       else judge(values, better=better, bound=bound))
            p_vals = [p for p, _ in values]
            c_vals = [c for _, c in values]
            rows.append((workload, metric, unit, len(values), median(p_vals),
                         relative_spread(p_vals), median(c_vals), bound, verdict))
    return rows


def _print_rows(rows: "list[tuple]") -> None:
    print(f"{'workload':<18} {'metric':<21} {'pairs':>5} {'parent p50':>14} "
          f"{'spread':>7} {'change p50':>14} {'bound':>6}  verdict")
    for workload, metric, unit, n, p_med, spread, c_med, bound, verdict in rows:
        print(f"{workload:<18} {metric:<21} {n:>5} {p_med:>14.6g} "
              f"{spread:>7.2%} {c_med:>14.6g} {bound:>6.2f}  {verdict} [{unit}]")


def compare_files(parent_path: str, change_path: str) -> int:
    """Print the verdict table; non-zero when any row regressed or an
    exact metric changed."""
    rows = _rows(load_runs(parent_path), load_runs(change_path))
    _print_rows(rows)
    bad = [r for r in rows if r[-1] in ("regressed", "changed")]
    return 1 if bad else 0


def measured_bound(values: "Sequence[float]") -> float:
    """ISSUE 12's rule for a timing bound, from runs of identical code:
    twice the widest relative gap between any two runs, at least 0.05."""
    return max(0.05, 2.0 * (max(values) - min(values)) / min(values))


def selfcheck() -> int:
    """Record two interleaved sets of ``SELFCHECK_RUNS`` full runs from
    the working tree (kept in ``perfbench/out/``) and require them to
    agree: every run correct, exact metrics bit-equal, every timing
    row's set medians within its bound.  Also prints, per timing row,
    the bound the recorded runs support."""
    os.makedirs(OUT_DIR, exist_ok=True)
    files = [os.path.join(OUT_DIR, f"selfcheck-{side}.jsonl") for side in "ab"]
    for path in files:
        open(path, "w").close()     # a run that crashes appends nothing
    for _ in range(SELFCHECK_RUNS):
        for path in files:                      # A, B, A, B, ...
            for name in WORKLOAD_NAMES:
                subprocess.run(
                    [sys.executable, "-m", "perfbench", "run", "--workload",
                     name, "--seed", str(SELFCHECK_SEED), "--append", path],
                    cwd=REPO_ROOT, stdout=subprocess.DEVNULL)
    sets = [load_runs(path) for path in files]
    rows = _rows(*sets)
    _print_rows(rows)
    disagree = []
    for workload in WORKLOAD_NAMES:
        runs = sets[0].get(workload, []) + sets[1].get(workload, [])
        if len(runs) < 2 * SELFCHECK_RUNS or not all(r["correct"] for r in runs):
            disagree.append((workload, "a run failed its checks or printed nothing"))
    for workload, metric, _unit, _n, p_med, _spread, c_med, bound, verdict in rows:
        if metric in EXACT:
            if verdict != "same":
                disagree.append((workload, metric))
            continue
        if p_med and abs(c_med - p_med) / abs(p_med) > bound:
            disagree.append((workload, metric))
        values = [r["metrics"][metric] for s in sets for r in s.get(workload, [])
                  if not r.get("noisy")]
        if values:
            print(f"{workload:<18} {metric:<21} these runs support a bound of "
                  f"{measured_bound(values):.3f}")
    for workload, what in disagree:
        print(f"DISAGREE: {workload} {what}", file=sys.stderr)
    return 1 if disagree else 0
