"""Shared utilities: validation, deterministic RNG handling, and small helpers.

These are internal helpers used across the substrates (graph, cluster,
engine) and the core partial-synchronization driver.  Nothing here is
specific to the paper; it exists so that the rest of the codebase can stay
focused on the algorithms.
"""

from repro.util.checks import (
    check_array_1d,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.util.diff import max_abs_diff
from repro.util.radix import stable_key_order, stable_pair_order
from repro.util.rng import as_rng
from repro.util.tables import ascii_table, format_series

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_array_1d",
    "check_probability",
    "as_rng",
    "max_abs_diff",
    "stable_key_order",
    "stable_pair_order",
    "ascii_table",
    "format_series",
]
