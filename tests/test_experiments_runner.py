"""runner helpers: _fmt/print_table formatting and oracle_hit_rate edges."""

import pytest

from repro.experiments.runner import oracle_hit_rate, print_table
from repro.util.table import _fmt


class TestFmt:
    def test_zero_and_negative_zero(self):
        assert _fmt(0.0) == "0"
        assert _fmt(-0.0) == "0"

    def test_integral_floats_print_as_integers(self):
        assert _fmt(12.0) == "12"
        assert _fmt(-12.0) == "-12"
        assert _fmt(5_000_000.0) == "5000000"

    def test_negative_floats_match_positive_formatting(self):
        for v in (0.0005, 0.5, 2.5, 1234.5):
            assert _fmt(-v) == "-" + _fmt(v)
        assert _fmt(-0.0005) == "-0.0005"

    def test_small_and_large_magnitudes_use_sigfigs(self):
        assert _fmt(0.0005) == "0.0005"
        assert _fmt(1234.5) == "1.23e+03"

    def test_mid_range_uses_three_decimals(self):
        assert _fmt(2.5) == "2.500"
        assert _fmt(0.125) == "0.125"

    def test_huge_integral_float_stays_sigfig(self):
        assert _fmt(1e18) == "1e+18"

    def test_non_floats_pass_through(self):
        assert _fmt(12) == "12"
        assert _fmt("x") == "x"
        assert _fmt(None) == "None"


class TestPrintTable:
    def test_columns_aligned_and_returned(self, capsys):
        text = print_table(
            ["name", "value"],
            [("hit_rate", 12.0), ("cost", -0.0005)],
            title="t",
        )
        out = capsys.readouterr().out
        assert text in out
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "12" in text and "-0.0005" in text
        # fixed-width: all data lines equally long
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_no_title(self):
        text = print_table(["a"], [(1,)])
        assert text.splitlines()[0].startswith("a")


class TestOracleHitRate:
    def test_zero_items_returns_zero(self):
        # regression: used to raise ZeroDivisionError via sum(weights)
        assert oracle_hit_rate(0, 1.0, 0.5) == 0.0
        assert oracle_hit_rate(0, 1.0, 1.0) == 0.0
        assert oracle_hit_rate(-3, 1.0, 0.5) == 0.0

    def test_existing_shape_preserved(self):
        assert oracle_hit_rate(100, 1.0, 0.0) == 0.0
        assert oracle_hit_rate(100, 1.0, 1.0) == 1.0
        assert 0 < oracle_hit_rate(100, 1.0, 0.25) < 1

    def test_monotone_in_capacity(self):
        rates = [
            oracle_hit_rate(1000, 1.0, f) for f in (0.1, 0.2, 0.4, 0.8)
        ]
        assert rates == sorted(rates)
