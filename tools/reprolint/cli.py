"""Command line: ``python -m tools.reprolint [--strict] [--format json] TARGET...``.

Run from the repository root with ``PYTHONPATH=src``.  Exit codes: 0 no
findings at the failure threshold, 1 findings at or above it, 2 usage
error (an unknown or unparsable target).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from tools.reprolint.discovery import lint_targets
from tools.reprolint.findings import Severity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Statically check job functions against the RPR rule "
                    "catalog (docs/lint_rules.md).")
    parser.add_argument("targets", nargs="+", metavar="TARGET",
                        help="a .py file, a directory, a dotted module "
                             "(repro.apps.pagerank), or a bundled app name "
                             "(pagerank)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        dest="fmt", help="finding output format")
    parser.add_argument("--strict", action="store_true",
                        help="fail (exit 1) on warning-severity findings "
                             "too, not only errors")
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """Lint every target; returns the process exit code.

    "Findings" for the exit code means error severity (``--strict``:
    warning severity too); informational notes — e.g. the RPR041
    columnar-eligibility explainer — never fail the run.  Unresolvable
    or unparsable targets raise ``ValueError``, mapped to exit 2.
    """
    args = build_parser().parse_args(argv)
    try:
        findings = lint_targets(args.targets)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
            print(f"    hint: {f.hint}")
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    failing = [f for f in findings if f.severity >= threshold]
    if args.fmt == "text":
        print(f"{len(findings)} finding(s), {len(failing)} at or above "
              f"{threshold} severity")
    return 1 if failing else 0
