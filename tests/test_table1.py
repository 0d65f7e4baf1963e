"""Reference-table reproduction: recomputation, matching, conventions."""

from __future__ import annotations

import hashlib
import math

import pytest

from collab_avg.table1 import (
    MISMATCH_ROWS,
    RowStatus,
    compute_row_outputs,
    match_cell,
    reference_rows,
    reproduce_table,
)

# sha256 of the 17 compute_row_outputs tuples' reprs, one per line.
GOLDEN_ROW_OUTPUTS = "fef64694e741b513bf6f4830a37f4e1b4232e6bf7de09a09aebb86cee461b3d8"


class TestReferenceData:
    def test_seventeen_rows(self):
        assert len(reference_rows()) == 17

    def test_blank_cells_inherit_from_above(self):
        rows = {row.index: row for row in reference_rows()}
        assert rows[2].bias2_over_varx == "0"
        assert rows[2].e_ratio_opt == "0.00"
        assert rows[2].e_ratio_half == "0.25"
        assert rows[8].bias2_over_varx == "0.25"
        assert rows[8].n_x == "10"
        assert rows[11].bias2_over_varx == "0.25"
        assert rows[11].n_x == "20"
        assert rows[13].bias2_over_varx == "1"
        assert rows[13].n_x == "5"
        assert rows[17].e_ratio_opt == "1.00"
        assert rows[17].e_ratio_fifth == "inf"


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
        rows = [comparison.row for comparison in reproduce_table()]
        text = "\n".join(
            repr(compute_row_outputs(r.bias2_over_varx, r.n_x, r.vary_over_varx, r.ny_over_nx))
            for r in rows
        )
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
        comparisons = reproduce_table()
        for comparison in comparisons:
            expected = (
                RowStatus.MISMATCH
                if comparison.index in MISMATCH_ROWS
                else RowStatus.MATCH
            )
            assert comparison.row.status is expected, (
                f"row {comparison.index}: {comparison.cell_matches}"
            )

    def test_flagged_rows_recompute_lower_weights(self):
        rows = {c.index: c for c in reproduce_table()}
        assert round(rows[7].row.alpha_star, 2) == 0.29
        assert rows[7].reference.alpha_star == "0.57"
        assert round(rows[8].row.alpha_star, 2) == 0.22
        assert rows[8].reference.alpha_star == "0.44"

    def test_rounding_discrepancy_cell(self):
        rows = {c.index: c for c in reproduce_table()}
        assert round(rows[15].row.e_ratio_fifth, 2) == 2.68
        assert rows[15].reference.e_ratio_fifth == "2.65"
        assert rows[15].cell_matches["e_ratio_fifth"]
        assert rows[15].row.status is RowStatus.MATCH

    def test_spot_values(self):
        rows = {c.index: c for c in reproduce_table()}
        assert round(rows[9].row.alpha_star, 2) == 0.04
        assert round(rows[9].row.e_ratio_fifth, 2) == 1.64
        assert round(rows[9].row.e_ratio_half, 2) == 6.50
        assert round(rows[14].row.e_ratio_half, 1) == 12.8
        assert rows[16].row.alpha_star == 0.0
        assert math.isinf(rows[16].row.e_ratio_half)
