"""Tests for repro.util: validation helpers, RNG plumbing, tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util import (
    as_rng,
    ascii_table,
    check_array_1d,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    format_series,
)


class TestChecks:
    def test_check_positive_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)

    def test_check_positive_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", -3)

    def test_check_positive_rejects_non_scalar(self):
        with pytest.raises(TypeError):
            check_positive("x", [1, 2])

    def test_check_positive_rejects_bool(self):
        # bool subclasses int (True > 0 holds), so without an explicit
        # rejection a flag passed where a count belongs slips through.
        with pytest.raises(TypeError, match="x must be a scalar number"):
            check_positive("x", True)
        with pytest.raises(TypeError, match="x must be a scalar number"):
            check_positive("x", np.bool_(True))

    def test_check_positive_accepts_numpy_scalars(self):
        check_positive("x", np.int64(3))
        check_positive("x", np.int32(3))
        check_positive("x", np.float64(0.5))
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", np.int64(0))
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", np.float64(-1.5))

    def test_check_positive_rejects_non_numeric_scalars(self):
        with pytest.raises(TypeError):
            check_positive("x", "3")
        with pytest.raises(TypeError):
            check_positive("x", np.str_("3"))
        with pytest.raises(TypeError):
            check_positive("x", 3 + 0j)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        check_non_negative("x", 2.5)
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)

    def test_check_non_negative_rejects_bool(self):
        with pytest.raises(TypeError, match="x must be a scalar number"):
            check_non_negative("x", False)
        with pytest.raises(TypeError, match="x must be a scalar number"):
            check_non_negative("x", np.bool_(False))

    def test_check_non_negative_accepts_numpy_scalars(self):
        check_non_negative("x", np.int64(0))
        check_non_negative("x", np.float32(2.5))
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative("x", np.int64(-1))

    def test_check_in_range_inclusive(self):
        check_in_range("x", 0.0, 0.0, 1.0)
        check_in_range("x", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range("x", 1.01, 0.0, 1.0)

    def test_check_in_range_exclusive(self):
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 0.0, 1.0, inclusive=False)
        check_in_range("x", 0.5, 0.0, 1.0, inclusive=False)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_array_1d_passthrough_is_view(self):
        a = np.arange(5)
        out = check_array_1d("a", a)
        assert out is a

    def test_check_array_1d_rejects_2d(self):
        with pytest.raises(ValueError, match="must be 1-D"):
            check_array_1d("a", np.zeros((2, 2)))

    def test_check_array_1d_length(self):
        check_array_1d("a", [1, 2, 3], length=3)
        with pytest.raises(ValueError, match="length 4"):
            check_array_1d("a", [1, 2, 3], length=4)

    def test_check_array_1d_dtype_kind(self):
        check_array_1d("a", np.zeros(3), dtype_kind="f")
        with pytest.raises(TypeError, match="dtype kind"):
            check_array_1d("a", np.zeros(3, dtype=np.int64), dtype_kind="f")


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=10)
        b = as_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestTables:
    def test_ascii_table_contains_cells(self):
        out = ascii_table(["a", "bb"], [[1, 2.5], ["x", "y"]])
        assert "a" in out and "bb" in out
        assert "2.5" in out and "x" in out

    def test_ascii_table_title(self):
        out = ascii_table(["h"], [[1]], title="Table I")
        assert out.splitlines()[0] == "Table I"

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row 0 has"):
            ascii_table(["a", "b"], [[1]])

    def test_ascii_table_column_alignment(self):
        out = ascii_table(["col"], [[123456]])
        lines = [l for l in out.splitlines() if l.startswith("|")]
        assert len({len(l) for l in lines}) == 1  # equal widths

    def test_format_series_pairs(self):
        out = format_series("Eager", [100, 200], [5, 7],
                            x_label="#partitions", y_label="iters")
        assert "series Eager" in out
        assert "#partitions=       100" in out

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("s", [1, 2], [1])

    def test_format_series_float_formatting(self):
        out = format_series("s", [1], [3.14159265])
        assert "3.14159" in out
