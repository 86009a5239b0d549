"""perfbench — the repo's performance instrument (see README.md).

Four long workloads, seven end-to-end metrics, and per-layer numbers
taken *from outside*: every figure is obtained by timing calls into
``repro``'s public functions or by wrapping objects the benchmark
itself constructs.  Nothing under ``src/`` knows it is being measured.

Importing this package has one side effect: when ``repro`` is not
importable, the sibling ``src/`` directory of the checkout is put on
``sys.path`` (the benchmark is run as ``python3 -m perfbench`` from a
checkout that is not installed).
"""

from __future__ import annotations

import importlib.util
import os
import sys

__all__ = ["REPO_ROOT", "OUT_DIR"]

#: Root of the checkout this package sits in.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where Chrome traces and ``selfcheck``'s recorded runs go (ignored by git).
OUT_DIR = os.path.join(REPO_ROOT, "perfbench", "out")

if importlib.util.find_spec("repro") is None:
    _src = os.path.join(REPO_ROOT, "src")
    if os.path.isdir(_src):
        sys.path.insert(0, _src)
