"""``python3 -m perfbench`` — run, compare, selfcheck.

``run`` is the benchmark command of ``BENCHMARK.json``: it prints every
metric by name with its unit and, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs the four workloads one process
each and prints them under their names in one object.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from perfbench import REPO_ROOT
from perfbench.names import RUN_SECONDS, WORKLOAD_NAMES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload (or all) and print its metrics")
    run.add_argument("--workload", required=True,
                     choices=(*WORKLOAD_NAMES, "all"))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="the driver's window; repetitions are fixed per workload "
                          "and only grow for a window longer than run_seconds")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = per-layer metrics from traced repetitions")
    run.add_argument("--append", metavar="FILE",
                     help="also append the run as one JSON line to FILE")

    cmp_ = sub.add_parser("compare", help="judge CHANGE runs against PARENT runs")
    cmp_.add_argument("parent", metavar="PARENT.jsonl")
    cmp_.add_argument("change", metavar="CHANGE.jsonl")

    sub.add_parser("selfcheck",
                   help="two interleaved sets of runs of this tree must agree")
    return parser


def _run_all(args: argparse.Namespace) -> int:
    """One process per workload; one combined object on the last line.

    A workload whose checks failed still contributes its result (its
    ``success_rate`` says so) and the remaining workloads still run;
    only a child that printed no result at all aborts.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, "-m", "perfbench", "run", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.append:
            cmd += ["--append", args.append]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(proc.stdout, end="")
            print(f"perfbench: {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from perfbench.compare import compare_files

        return compare_files(args.parent, args.change)
    if args.command == "selfcheck":
        from perfbench.compare import selfcheck

        return selfcheck()
    if args.workload == "all":
        return _run_all(args)
    # numpy/repro load here: before any clock starts, and only for the
    # command that needs them.
    try:
        from perfbench.probes import stop_children
        from perfbench.runner import append_report, print_report, run_workload
    except ModuleNotFoundError as exc:
        print(f"perfbench: {exc}; run from a checkout that has src/repro",
              file=sys.stderr)
        return 2

    try:
        report = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                              trace=bool(args.trace))
    finally:
        # This process is the workload's only owner: nothing it started
        # (pool workers, the shm resource tracker) may outlive it.
        stop_children()
    print_report(report)
    if args.append:
        append_report(report, args.append)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
