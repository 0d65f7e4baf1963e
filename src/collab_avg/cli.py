"""Command-line front end.

Subcommands::

    profile    error profile, bounds and ESE of one scenario
    table1     recompute the built-in reference table and compare
    curve      ESE-ratio curve over a weight grid, with linear bounds
    contour    optimal-weight grid over the two variance ratios
    validate   Monte Carlo agreement with the closed form
    federate   reduce the helpers to one and report the optimal weight

Exit codes: 0 success, 1 invalid input, 2 validation failure, 130
interrupted (Ctrl-C). All CSV output is UTF-8 with LF line endings and a
header row; numbers use the shortest round-trip decimal form except the
reference-table comparison columns, which are fixed to two decimals
(half-even). Identical configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from collections.abc import Iterator
from contextlib import closing

import numpy as np

from ._workers import cpu_count, ordered_map
from .config import ConfigError, RunConfig, load_run_config
from .federation import reduce_to_two_agent
from .montecarlo import VALIDATION_ALPHAS, estimate_suite_curves, validate_scenario
from .table1 import INPUT_COLUMNS, OUTPUT_COLUMNS, reproduce_table
from .theory import (
    ErrorProfile,
    Scenario,
    alpha_star_upper_bounds,
    error_profile,
    ese_of_alpha,
    max_ese,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VALIDATION = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

_DEFAULT_CURVE_GRID = 1001
_DEFAULT_CONTOUR_GRID = 101

#: ``contour`` forks row workers only from this many grid cells on.
#: Measured on a 2-core Xeon (numpy 2.4.6, rows written to a file, median
#: of 11, alternating): two workers took 1.26x the serial time at 10,201
#: cells, 0.98x at 19,881, 0.85-0.87x at 36,481 and 40,401 and 0.78-0.81x
#: from 63,001 on; a round of two forks costs about 7.7 ms.
_PARALLEL_MIN_CELLS = 40_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to the invalid-input code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def _fmt2(value: float) -> str:
    """Fixed two decimals, half-even; infinities pass through."""
    if math.isinf(value):
        return "inf"
    return f"{round(value, 2):.2f}"


def _write_csv(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to ``out``, or to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _profile_lines(scenario: Scenario, profile: ErrorProfile, alphas: tuple[float, ...]) -> list[str]:
    lines = [
        f"scenario: mu_x={_fmt(scenario.mu_x)} var_x={_fmt(scenario.var_x)} n_x={scenario.n_x} "
        f"mu_y={_fmt(scenario.mu_y)} var_y={_fmt(scenario.var_y)} "
        f"n_y={'inf' if scenario.infinite_helper else scenario.n_y}",
        f"e0 = {_fmt(profile.e0)}",
        f"e1 = {_fmt(profile.e1)}",
        f"alpha_star = {_fmt(profile.alpha_star)}",
        f"degenerate = {'true' if profile.degenerate else 'false'}",
        f"ese_opt = {_fmt(profile.ese_opt)}",
        f"break_even = {_fmt(profile.break_even)}",
    ]
    if scenario.var_x > 0:
        bound_bias, bound_var = alpha_star_upper_bounds(scenario)
        lines.append(f"bound_bias = {_fmt(bound_bias)}")
        lines.append(f"bound_var = {_fmt(bound_var)}")
    else:
        lines.append("warning: local model already exact (var_x = 0); averaging cannot help")
        lines.append("bound_bias = n/a")
        lines.append("bound_var = n/a")
    lines.append(f"max_ese = {_fmt(max_ese(profile))}")
    for alpha in alphas:
        value = ese_of_alpha(profile, alpha)
        if profile.e0 > 0:
            lines.append(f"ese({_fmt(alpha)}) = {_fmt(value)} (ratio {_fmt(value / profile.e0)})")
        else:
            lines.append(f"ese({_fmt(alpha)}) = {_fmt(value)}")
    return lines


def cmd_profile(config: RunConfig) -> int:
    scenario = reduce_to_two_agent(config.scenarios[0])
    profile = error_profile(scenario)
    _emit("\n".join(_profile_lines(scenario, profile, config.alphas)) + "\n", config.out)
    return EXIT_OK


def cmd_table1(config: RunConfig) -> int:
    rows = reproduce_table()
    printed_columns = [f"printed_{column}" for column in OUTPUT_COLUMNS]
    header = ["row", *INPUT_COLUMNS, *OUTPUT_COLUMNS, *printed_columns, "status"]
    csv_text = _write_csv(
        header,
        [
            [str(row.index), *row.inputs, *map(_fmt2, row.computed), *row.printed, row.status]
            for row in rows
        ],
    )
    mismatches = [row for row in rows if row.status == "Mismatch"]
    report_lines = [
        f"rows: {len(rows)}, match: {len(rows) - len(mismatches)}, mismatch: {len(mismatches)}"
    ]
    for row in mismatches:
        matches = row.cell_matches
        values = ", ".join(
            f"{column} computed {_fmt2(value)} vs printed {cell}"
            for column, value, cell in zip(OUTPUT_COLUMNS, row.computed, row.printed)
            if not matches[column]
        )
        report_lines.append(f"row {row.index}: {values}")
    report = "\n".join(report_lines) + "\n"
    _emit(csv_text, config.out)
    # The report goes wherever the CSV does not.
    (sys.stderr if config.out is None else sys.stdout).write(report)
    return EXIT_OK


def cmd_curve(config: RunConfig) -> int:
    scenario = reduce_to_two_agent(config.scenarios[0])
    profile = error_profile(scenario)
    if profile.alpha_star <= 0.0:
        print(
            "error: curve requires alpha_star > 0 (var_x > 0 and a non-degenerate scenario)",
            file=sys.stderr,
        )
        return EXIT_INVALID
    points = config.grid if config.grid is not None else _DEFAULT_CURVE_GRID
    rows = []
    for alpha in np.linspace(0.0, 1.0, points):
        alpha = float(alpha)
        ratio = ese_of_alpha(profile, alpha) / profile.e0
        upper = _fmt(1.0 - alpha) if alpha <= profile.alpha_star else ""
        rows.append([_fmt(alpha), _fmt(ratio), _fmt(1.0 - 2.0 * alpha), upper])
    header = ["alpha", "ese_ratio", "lower_bound", "upper_bound_segment"]
    _emit(_write_csv(header, rows), config.out)
    return EXIT_OK


def cmd_contour(config: RunConfig) -> int:
    u_min, u_max, v_min, v_max = config.contour_bounds
    points = config.grid if config.grid is not None else _DEFAULT_CONTOUR_GRID
    u_grid = np.logspace(math.log10(u_min), math.log10(u_max), points)
    v_grid = np.logspace(math.log10(v_min), math.log10(v_max), points)
    with closing(_contour_rows(u_grid, v_grid)) as rows:
        if config.out is None:
            sys.stdout.flush()  # anything written as text goes first
            sys.stdout.buffer.writelines(rows)
        else:
            with open(config.out, "wb") as handle:
                handle.writelines(rows)
    return EXIT_OK


def _contour_rows(u_grid: np.ndarray, v_grid: np.ndarray) -> Iterator[bytes]:
    """The contour CSV as UTF-8, one chunk per u, in O(len(v_grid)) memory.

    From ``_PARALLEL_MIN_CELLS`` cells on, the u-rows are made round-robin
    by one forked worker per CPU and streamed back in order, as the bytes
    that are written; each row is built by the same code either way, so
    the output does not depend on it. Close the generator when done with
    it: that reaps the workers.
    """
    yield b"varxbar_over_bias2,varxbar_over_varybar,alpha_star\n"
    # u = Var[xbar]/bias^2 and v = Var[xbar]/Var[ybar] give the optimal weight
    # 1 / (1 + 1/u + 1/v): ErrorProfile's alpha_star at e0 = 1, summed in this
    # order because summing e1 = 1/u + 1/v first changes the last bit of
    # 108,498 of 1,002,001 cells at --grid 1001. Overflow to inf stays silent,
    # as in the scalar formula. Cells are _fmt's repr form.
    with np.errstate(over="ignore"):
        inv_v = 1.0 / v_grid
    v_cells = [f",{v!r}," for v in v_grid.tolist()]
    u_values = u_grid.tolist()

    def row(i: int) -> bytes:
        u = u_values[i]
        with np.errstate(over="ignore"):
            alphas = 1.0 / (1.0 + 1.0 / u + inv_v)
        u_cell = repr(u)
        return "".join([f"{u_cell}{cell}{alpha!r}\n" for cell, alpha in zip(v_cells, alphas.tolist())]).encode()

    workers = 1
    if len(u_values) * len(v_cells) >= _PARALLEL_MIN_CELLS:
        workers = cpu_count()
    with closing(ordered_map(row, len(u_values), workers)) as rows:
        yield from rows


def cmd_validate(config: RunConfig) -> int:
    curves = estimate_suite_curves(config.scenarios, VALIDATION_ALPHAS, config.trials, config.seed)
    reports = [
        validate_scenario(scenario, config.trials, config.seed, k=config.k, expected=expected, estimates=curve)
        for scenario, expected, curve in zip(config.scenarios, config.expected, curves)
    ]
    lines = []
    for index, report in enumerate(reports, start=1):
        lines.append(
            f"scenario {index}: {'PASS' if report.passed else 'FAIL'} "
            f"(trials={report.trials}, k={_fmt(report.k)}, seed={report.seed.master_seed})"
        )
        for point in report.points:
            lines.append(
                f"  alpha={_fmt(point.alpha)} mc={_fmt(point.estimate.mean_sq_error)} "
                f"closed={_fmt(point.closed_form)} se={_fmt(point.estimate.std_error)} "
                f"dev={_fmt(point.deviation)} {'ok' if point.passed else 'FAIL'}"
            )
    passed = all(report.passed for report in reports)
    lines.append("overall: " + ("PASS" if passed else "FAIL"))
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK if passed else EXIT_VALIDATION


def cmd_federate(config: RunConfig) -> int:
    sampled = config.scenarios[0]
    scenario = reduce_to_two_agent(sampled)
    profile = error_profile(scenario)
    total = scenario.n_y
    lines = [
        f"helpers = {1 + len(sampled.more)}",
        f"pooled_n = {total}",
        f"reduced: mu_y={_fmt(scenario.mu_y)} var_y={_fmt(scenario.var_y)} n_y={total} "
        f"var_ybar={_fmt(scenario.var_helper_mean)}",
        f"e0 = {_fmt(profile.e0)}",
        f"e1 = {_fmt(profile.e1)}",
        f"alpha_star = {_fmt(profile.alpha_star)}",
        f"ese_opt = {_fmt(profile.ese_opt)}",
        f"ese_ratio_opt = {_fmt(1.0 - profile.alpha_star)}",
    ]
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


_COMMANDS = {
    "profile": (cmd_profile, True),
    "table1": (cmd_table1, False),
    "curve": (cmd_curve, True),
    "contour": (cmd_contour, False),
    "validate": (cmd_validate, True),
    "federate": (cmd_federate, True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="collab-avg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        command = sub.add_parser(name)
        command.add_argument("--scenario", help="scenario file (YAML)")
        command.add_argument("--out", help="output path (default: stdout)")
        command.add_argument("--seed", type=int, help="master seed (fallback: file, then $COLLAB_AVG_SEED)")
        command.add_argument("--trials", type=int, help="Monte Carlo trials per point")
        command.add_argument("--grid", type=int, help="grid resolution (curve/contour)")
        command.add_argument("--k", type=float, help="acceptance band in standard errors")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    run, needs_scenario = _COMMANDS[args.command]
    try:
        config = load_run_config(
            args.scenario,
            seed=args.seed,
            trials=args.trials,
            k=args.k,
            grid=args.grid,
            out=args.out,
            require_scenario=needs_scenario,
            sampling=args.command == "validate",
        )
        if needs_scenario and args.command != "validate" and len(config.scenarios) > 1:  # a suite is for validate
            raise ConfigError(f"{args.command} takes one scenario, but the file defines {len(config.scenarios)}")
        return run(config)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
