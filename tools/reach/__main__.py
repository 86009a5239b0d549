"""``python -m tools.reach``: trace the repository's own drivers and
write what they never call to ``tools/reach/unreached.txt``.

The drivers are everything that uses the library outside ``tests/``:
the examples, the benchmark (``perfbench``, untraced and traced), the
CLI's tests and every figure bench in quick mode.  Run from the repo
root; two runs of one tree write the same file.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tools.reach import unreached

ROOT = Path(__file__).resolve().parents[2]
QUICK = {"BENCH_QUICK": "1", "REPRO_SCALE": "0.05"}
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]


def drivers() -> "list[tuple[list[str], dict[str, str]]]":
    runs: "list[tuple[list[str], dict[str, str]]]" = [
        ([str(p)], {}) for p in sorted((ROOT / "examples").glob("*.py"))]
    for trace in ("0", "1"):
        runs.append((["-m", "perfbench", "run", "--workload", "all",
                      "--seed", "0", "--trace", trace], {}))
    runs.append(([*PYTEST, str(ROOT / "tests" / "test_cli.py")], {}))
    benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    runs.append(([*PYTEST, "--benchmark-disable", *benches], QUICK))
    return runs


def main() -> int:
    names = unreached(ROOT, ROOT / "src", drivers())
    out = ROOT / "tools" / "reach" / "unreached.txt"
    out.write_text("".join(f"{name}\n" for name in names))
    print(f"{len(names)} functions unreached; list in {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
