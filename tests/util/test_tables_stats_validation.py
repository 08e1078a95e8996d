"""Table rendering and argument validation."""

import pytest

from repro.util import (
    Table,
    check_in_range,
    check_non_negative,
    check_positive,
    format_table,
)


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = out.splitlines()
        assert lines[1].startswith("| a ")
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title_prepended(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["v"], [[1.23456789e-7], [0.0], [None]])
        assert "1.235e-07" in out
        assert "| 0" in out
        assert "| -" in out

    def test_table_class_accumulates(self):
        t = Table(["name", "val"], title="T")
        t.add_row("x", 1)
        t.add_row("y", 2)
        assert len(t) == 2
        assert t.rows == [["x", 1], ["y", 2]]
        assert "T" in t.render()
        with pytest.raises(ValueError):
            t.add_row("only-one-cell")


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        for bad in (0, -1, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                check_positive("x", bad)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -0.001)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", -1, 0, 10)
