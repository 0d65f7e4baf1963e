"""Reference-table reproduction: recomputation, matching, conventions."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from collab_avg.table1 import (
    MISMATCH_ROWS,
    TableRow,
    compute_row_outputs,
    match_cell,
    reproduce_table,
)

# sha256 of the 17 compute_row_outputs tuples' reprs, one per line.
GOLDEN_ROW_OUTPUTS = "fef64694e741b513bf6f4830a37f4e1b4232e6bf7de09a09aebb86cee461b3d8"


def by_index() -> dict[int, TableRow]:
    return {row.index: row for row in reproduce_table()}


class TestReferenceData:
    def test_seventeen_rows(self):
        assert [row.index for row in reproduce_table()] == list(range(1, 18))

    def test_blank_cells_inherit_from_above(self):
        rows = by_index()
        assert rows[2].inputs[0] == "0"  # bias2_over_varx
        assert rows[2].printed[1] == "0.00"  # e_ratio_opt
        assert rows[2].printed[3] == "0.25"  # e_ratio_half
        assert rows[8].inputs[:2] == ("0.25", "10")  # bias2_over_varx, n_x
        assert rows[11].inputs[:2] == ("0.25", "20")
        assert rows[13].inputs[:2] == ("1", "5")
        assert rows[17].printed[1:3] == ("1.00", "inf")  # e_ratio_opt, e_ratio_fifth


class TestComputation:
    def test_unbiased_low_variance_helper(self):
        alpha, opt, fifth, half = compute_row_outputs(0.0, None, 1.0, 6.0)
        assert alpha == pytest.approx(6.0 / 7.0, rel=1e-15)
        assert opt == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert round(fifth, 2) == 0.65
        assert round(half, 2) == 0.29

    def test_star_cells_do_not_matter(self):
        base = compute_row_outputs(0.0, None, 0.0, None)
        for n_x in (1.0, 2.0, 7.0, 1000.0):
            for ny in (0.5, 1.0, 12.0):
                assert compute_row_outputs(0.0, n_x, 0.0, ny) == base
        assert base[0] == 1.0
        assert base[1] == 0.0

    def test_half_weight_cell_is_exact_dyadic(self):
        # bias^2 = var_x at 50 local samples, exact helper: ratio 12.75,
        # which rounds half-even to 12.8 at one printed decimal.
        _, _, _, half = compute_row_outputs(1.0, 50.0, 0.0, math.inf)
        assert half == 12.75
        assert round(half, 1) == 12.8

    def test_limit_rows(self):
        assert compute_row_outputs(None, math.inf, None, None) == (0.0, 1.0, math.inf, math.inf)
        assert compute_row_outputs(math.inf, None, None, None) == (0.0, 1.0, math.inf, math.inf)

    def test_golden_row_outputs_repr(self):
        # The CSV shows two decimals; the full reprs pin every bit of all
        # 17 rows, recorded before alpha* came from ErrorProfile.
        rows = reproduce_table()
        text = "\n".join(repr(row.computed) for row in rows)
        assert len(rows) == 17
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_ROW_OUTPUTS


class TestMatching:
    def test_printed_precision_is_respected(self):
        assert match_cell(12.75, "12.8")
        assert match_cell(0.857142857, "0.86")
        assert not match_cell(0.2857, "0.57")
        assert match_cell(1.0, "1.0")
        assert match_cell(0.0, "0.00")

    def test_infinities(self):
        assert match_cell(math.inf, "inf")
        assert not match_cell(math.inf, "1.00")
        assert not match_cell(1.0, "inf")

    def test_widened_tolerance(self):
        assert not match_cell(2.68, "2.65")
        assert match_cell(2.68, "2.65", tolerance=0.04)


class TestReproduction:
    def test_statuses(self):
        for row in reproduce_table():
            expected = "Mismatch" if row.index in MISMATCH_ROWS else "Match"
            assert row.status == expected, f"row {row.index}: {row.cell_matches}"

    def test_flagged_rows_recompute_lower_weights(self):
        rows = by_index()
        assert round(rows[7].computed[0], 2) == 0.29  # alpha_star
        assert rows[7].printed[0] == "0.57"
        assert round(rows[8].computed[0], 2) == 0.22
        assert rows[8].printed[0] == "0.44"

    def test_rounding_discrepancy_cell(self):
        row = by_index()[15]
        assert round(row.computed[2], 2) == 2.68  # e_ratio_fifth
        assert row.printed[2] == "2.65"
        assert row.cell_matches["e_ratio_fifth"]
        assert row.status == "Match"

    def test_spot_values(self):
        rows = by_index()
        assert round(rows[9].computed[0], 2) == 0.04
        assert round(rows[9].computed[2], 2) == 1.64
        assert round(rows[9].computed[3], 2) == 6.50
        assert round(rows[14].computed[3], 1) == 12.8
        assert rows[16].computed[0] == 0.0
        assert math.isinf(rows[16].computed[3])


class TestDerivedVerdicts:
    """A row's cell matches and status are read from its cells, never stored."""

    def test_one_bad_cell_reads_mismatch(self):
        row = by_index()[3]
        assert row.status == "Match"
        bad = dataclasses.replace(row, printed=(row.printed[0], "0.15", *row.printed[2:]))
        assert bad.cell_matches == {
            "alpha_star": True,
            "e_ratio_opt": False,
            "e_ratio_fifth": True,
            "e_ratio_half": True,
        }
        assert bad.status == "Mismatch"

    def test_widened_cell_applies_to_its_row_only(self):
        # Row 15's e_ratio_fifth (2.68 vs printed 2.65) matches only under
        # its widened tolerance; the same cells at another index do not.
        row = by_index()[15]
        assert dataclasses.replace(row, index=14).status == "Mismatch"
