"""Command-line front end.

Subcommands::

    profile    error profile, bounds and ESE of one scenario
    table1     recompute the built-in reference table and compare
    curve      ESE-ratio curve over a weight grid, with linear bounds
    contour    optimal-weight grid over the two variance ratios
    validate   Monte Carlo agreement with the closed form
    federate   reduce the helpers to one and report the optimal weight

Exit codes: 0 success, 1 invalid input, 2 validation failure, 130
interrupted (Ctrl-C). Everything a command writes, to stdout or ``--out``,
is the same UTF-8 bytes with LF line endings; a text-only stdout (one with
no ``buffer``) gets the same text. CSV has a header row; numbers
take the shortest round-trip form, except table1's two-decimal (half-even)
comparison columns. Identical configuration and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from contextlib import closing, suppress

import numpy as np

from ._workers import cpu_count, ordered_map
from .config import DEFAULT_GRID, RunConfig, load_run_config
from .federation import reduce_to_two_agent
from .montecarlo import BAND, VALIDATION_ALPHAS, Verdict, estimate_suite_curves, validate_scenario
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
_VERDICT_EXIT = {Verdict.PASS: EXIT_OK, Verdict.FAIL: EXIT_VALIDATION}  # validate's exit code for a run's verdict

#: ``contour`` forks block workers only from this many grid cells on.
#: Measured on a 2-core Xeon (numpy 2.4.6, rows written to a file, median
#: of 21 or 25 alternating pairs): two workers took 1.50x the serial time
#: at 19,881 cells, 1.04-1.20x at 40,401, 0.97-0.99x at 48,841 and 53,361,
#: 0.94-0.95x at 63,001, 0.78-0.82x from 78,961 to 100,489, 0.69x at
#: 160,801 and 0.60x at 1,002,001; a round of two forks costs about 7.7 ms.
_PARALLEL_MIN_CELLS = 60_000
#: ``contour`` makes its rows in blocks of about this many cells, at least
#: one u-row each; a block's traced peak is about 2.5 MiB.
_BLOCK_CELLS = 8_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; report them as one line with the invalid-input code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def _fmt2(value: float) -> str:
    """Fixed two decimals, half-even; infinities read "inf"."""
    return f"{round(value, 2):.2f}"


def _emit(chunks: Iterable[bytes], out: str | None) -> None:
    """Write the bytes ``chunks`` to ``out``, or to stdout after any text already written there;
    a stdout with no ``buffer`` (text only) gets them decoded as UTF-8. If making, writing or closing
    them raises, or Ctrl-C comes, the regular file that ``out`` itself names (not a symlink, device,
    pipe or path ``open`` failed on) is removed, and that error is raised, never one from removing."""
    if out is not None:
        opened = None
        try:
            with open(out, "wb") as handle:
                opened = os.fstat(handle.fileno())
                handle.writelines(chunks)
        except BaseException:
            if opened is not None and stat.S_ISREG(opened.st_mode):
                with suppress(OSError):
                    if os.path.samestat(os.lstat(out), opened):  # lstat: a symlink never matches
                        os.remove(out)
            raise
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    else:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)


def _profile_lines(scenario: Scenario, profile: ErrorProfile, alphas: tuple[float, ...]) -> list[str]:
    lines = [
        f"scenario: mu_x={_fmt(scenario.mu_x)} var_x={_fmt(scenario.var_x)} n_x={scenario.n_x} "
        f"mu_y={_fmt(scenario.mu_y)} var_y={_fmt(scenario.var_y)} n_y={scenario.n_y}",
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
    _emit([("\n".join(_profile_lines(scenario, profile, config.alphas)) + "\n").encode()], config.out)
    return EXIT_OK


def cmd_table1(config: RunConfig) -> int:
    rows = reproduce_table()
    printed_columns = [f"printed_{column}" for column in OUTPUT_COLUMNS]
    # No cell needs quoting: table strings, two-decimal numbers and empty cells.
    csv_rows = [["row", *INPUT_COLUMNS, *OUTPUT_COLUMNS, *printed_columns, "status"]]
    csv_rows += [[str(row.index), *row.inputs, *map(_fmt2, row.computed), *row.printed, row.status] for row in rows]
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
    _emit([",".join(cells).encode() + b"\n" for cells in csv_rows], config.out)
    # The report goes wherever the CSV does not.
    if config.out is None:
        sys.stderr.write(report)
    else:
        _emit([report.encode()], None)
    return EXIT_OK


def cmd_curve(config: RunConfig) -> int:
    scenario = reduce_to_two_agent(config.scenarios[0])
    profile = error_profile(scenario)
    if profile.alpha_star <= 0.0:
        raise ValueError("curve requires alpha_star > 0 (var_x > 0 and a non-degenerate scenario)")
    lines = ["alpha,ese_ratio,lower_bound,upper_bound_segment"]
    for alpha in np.linspace(0.0, 1.0, config.grid).tolist():
        ratio = ese_of_alpha(profile, alpha) / profile.e0
        upper = _fmt(1.0 - alpha) if alpha <= profile.alpha_star else ""
        lines.append(f"{_fmt(alpha)},{_fmt(ratio)},{_fmt(1.0 - 2.0 * alpha)},{upper}")
    _emit([("\n".join(lines) + "\n").encode()], config.out)
    return EXIT_OK


def cmd_contour(config: RunConfig) -> int:
    u_min, u_max, v_min, v_max = config.contour_bounds
    u_grid = np.logspace(math.log10(u_min), math.log10(u_max), config.grid)
    v_grid = np.logspace(math.log10(v_min), math.log10(v_max), config.grid)
    with closing(_contour_rows(u_grid, v_grid)) as rows:
        _emit(rows, config.out)
    return EXIT_OK


#: Bytes per formatted alpha* cell: ``repr`` of a float has at most 24
#: characters ("-2.2250738585072014e-308").
_FIELD = 24
#: 10**17 .. 10**20, each exact, and their Veltkamp halves (high, low).
_SCALES = 10.0 ** np.arange(17, 21)
_SCALES_HIGH = _SCALES * 134217729.0 - (_SCALES * 134217729.0 - _SCALES)
_SCALES_LOW = _SCALES - _SCALES_HIGH
_STEPS = np.array([1, 10, 100])
#: Two ASCII bytes read as one uint16, a NUL for each byte left out. At
#: 100 * j + d: the last two of digits ending in d, less the last j of them
#: ("00" .. "99" for j = 0); at 300 + d: "\0" and the digit d; at 310, 311
#: and 312: "\0\0", "0\0" and "0.".
_PAIRS = [f"{d:02d}" for d in range(100)] + [f"{d // 10}\0" for d in range(100)] + ["\0\0"] * 100
_PAIRS = np.frombuffer("".join([*_PAIRS, *(f"\0{d}" for d in range(10)), "\0\0", "0\0", "0."]).encode(), np.uint16)


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """``repr`` of each value of the float64 vector ``x``, as ``(len(x), _FIELD)`` bytes.

    Row i without its NUL bytes is ``repr(x[i])`` in ASCII. ``repr`` gives
    the shortest decimal inside x's rounding interval and, of those, the
    one nearest to x. Values in [1e-4, 1) are worked out in numpy, exactly:

    - Scale by 10**k, k = 17 .. 20 from comparing x with 0.1, 0.01 and
      0.001 (each float above its decimal), so that V = x * 10**k lies in
      (1e16, 1e17). Dekker's product with Veltkamp's split (Numer. Math. 18,
      1971) gives V exactly as a float integer p plus a float e, without
      FMA.
    - Scaled the same way, the half-ulp h = 2**(E - 54) * 10**k (E from
      ``frexp``) is 5**k times a power of two, so exact, and so are e - h
      and e + h, which need fewer than 53 bits. V - h and V + h are odd
      multiples of 2**(E + k - 54) with E + k <= 17, so not integers: the
      candidates are the integers in [L + 1, H], L and H their floors.
    - The shortest form ends at the largest j in 2, 1, 0 for which a
      multiple of 10**j is a candidate. The interval is symmetric about V,
      so the multiple of 10**j nearest to V is a candidate too: its 17
      digits, less the last j, follow "0." and k - 17 zeros.

    Values outside [1e-4, 1) take ``repr`` itself, and so do the two cases
    the argument leaves open: V halfway between two multiples of 10**j
    (``repr`` rounds the tie to even), and a multiple of 1000 among the
    candidates (a shorter form, or a round-up to 1e17, might exist). The
    latter takes in the powers of two, whose intervals are not symmetric:
    2**-1 .. 2**-13 have at most 13 digits, so V is a multiple of 1000
    itself. All the arithmetic is IEEE-exact (+, -, *, /, floor, frexp and
    integers), so the bytes do not depend on the CPU's SIMD paths.
    """
    fast = (x >= 1e-4) & (x < 1.0)
    values, x = x, np.where(fast, x, 0.3)  # the others get harmless stand-ins
    zeros = (x < 0.1).astype(np.intp) + (x < 0.01) + (x < 0.001)  # k - 17
    scale, scale_high, scale_low = (np.take(table, zeros) for table in (_SCALES, _SCALES_HIGH, _SCALES_LOW))
    p = x * scale
    x_high = x * 134217729.0
    x_high -= x_high - x
    x_low = x - x_high
    e = (((x_high * scale_high - p) + x_high * scale_low) + x_low * scale_high) + x_low * scale_low
    h = x / np.frexp(x)[0] * scale * 2.0**-54  # x / mantissa = 2**E exactly
    p = p.astype(np.int64)
    low, high = p + np.floor(e - h).astype(np.int64), p + np.floor(e + h).astype(np.int64)
    fast &= high // 1000 == low // 1000
    j = (high // 100 > low // 100).astype(np.intp) + (high // 10 > low // 10)
    step = np.take(_STEPS, j)
    # V = whole + rest with rest in [0, 1); round it to a multiple of step.
    floor_e = np.floor(e)
    rest = e - floor_e
    whole = p + floor_e.astype(np.int64)
    under = whole % step
    half = step / 2 - under
    fast &= rest != half
    digits = whole - under + step * (rest > half)

    codes = np.empty((12, x.size), np.intp)  # indices into _PAIRS, one row per two bytes
    codes[0], codes[11] = 312, 310
    codes[1] = np.take([310, 311, 0, 0], zeros)
    for row in range(10, 2, -1):
        head = digits // 100
        np.subtract(digits, head * 100, out=codes[row])
        digits = head
    codes[2] = digits + np.take([300, 300, 300, 0], zeros)
    codes[10] += 100 * j
    cells = np.take(_PAIRS, codes).T.copy().view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [repr(value).encode().ljust(_FIELD, b"\0") for value in values[slow].tolist()]
        cells[slow] = np.frombuffer(b"".join(texts), np.uint8).reshape(slow.size, _FIELD)
    return cells


def _text_cells(texts: list[str]) -> np.ndarray:
    """ASCII ``texts`` as rows of one width, padded with NUL bytes."""
    width = max(map(len, texts))
    return np.frombuffer("".join(text.ljust(width, "\0") for text in texts).encode(), np.uint8).reshape(-1, width)


def _contour_rows(u_grid: np.ndarray, v_grid: np.ndarray) -> Iterator[bytes]:
    """The contour CSV as UTF-8, one chunk per block of u-rows, in O(len(v_grid)) memory.

    A block holds about ``_BLOCK_CELLS`` cells, and at least one u-row. It
    is built in numpy: each line's fields side by side in a byte array,
    padded with NUL bytes that are then dropped, the alpha* cells from
    ``_repr_cells``, so that every cell reads as ``_fmt`` gives it. From
    ``_PARALLEL_MIN_CELLS`` cells on, the blocks are made round-robin by
    one forked worker per CPU and streamed back in order, as the bytes that
    are written; each block is built by the same code either way, so the
    output does not depend on it. Close the generator when done with it:
    that reaps the workers.
    """
    yield b"varxbar_over_bias2,varxbar_over_varybar,alpha_star\n"
    # u = Var[xbar]/bias^2 and v = Var[xbar]/Var[ybar] give the optimal weight
    # 1 / (1 + 1/u + 1/v): ErrorProfile's alpha_star at e0 = 1, summed in this
    # order because summing e1 = 1/u + 1/v first changes the last bit of
    # 108,498 of 1,002,001 cells at --grid 1001. Overflow to inf stays silent,
    # as in the scalar formula.
    with np.errstate(over="ignore"):
        inv_v = 1.0 / v_grid
    u_cells = _text_cells([repr(u) for u in u_grid.tolist()])
    v_cells = _text_cells([f",{v!r}," for v in v_grid.tolist()])
    per_block = max(1, _BLOCK_CELLS // v_grid.size)

    def block(i: int) -> bytes:
        rows = slice(i * per_block, (i + 1) * per_block)
        with np.errstate(over="ignore"):
            alphas = 1.0 / ((1.0 + 1.0 / u_grid[rows])[:, None] + inv_v)
        parts = (
            u_cells[rows, None],
            v_cells[None],
            _repr_cells(alphas.ravel()).reshape(*alphas.shape, _FIELD),
            np.array([[[ord("\n")]]], np.uint8),
        )
        lines = np.concatenate([np.broadcast_to(part, (*alphas.shape, part.shape[2])) for part in parts], axis=2)
        return lines.tobytes().translate(None, b"\0")

    workers = 1
    if u_grid.size * v_grid.size >= _PARALLEL_MIN_CELLS:
        workers = cpu_count()
    with closing(ordered_map(block, -(-u_grid.size // per_block), workers)) as blocks:
        yield from blocks


def cmd_validate(config: RunConfig) -> int:
    curves = estimate_suite_curves(config.scenarios, VALIDATION_ALPHAS, config.trials, config.seed)
    reports = list(map(validate_scenario, config.scenarios, curves, config.expected))
    lines = []
    for index, report in enumerate(reports, start=1):
        lines.append(
            f"scenario {index}: {report.verdict.name} "
            f"(trials={report.trials}, k={_fmt(BAND)}, seed={report.seed.master_seed})"
        )
        for point in report.points:
            lines.append(
                f"  alpha={_fmt(point.alpha)} mc={_fmt(point.estimate.mean_sq_error)} "
                f"closed={_fmt(point.closed_form)} se={_fmt(point.estimate.std_error)} "
                f"dev={_fmt(point.deviation)} {'ok' if point.verdict is Verdict.PASS else point.verdict.name}"
            )
    verdict = Verdict.worst(report.verdict for report in reports)
    lines.append(f"overall: {verdict.name}")
    _emit([("\n".join(lines) + "\n").encode()], config.out)
    return _VERDICT_EXIT[verdict]


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
    _emit([("\n".join(lines) + "\n").encode()], config.out)
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
    """Each command takes only the flags it reads."""
    parser = _Parser(prog="collab-avg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        command = sub.add_parser(name)
        if name != "table1":
            command.add_argument("--scenario", help="scenario file (YAML)")
        command.add_argument("--out", help="output path (default: stdout)")
        if name in DEFAULT_GRID:
            command.add_argument("--grid", type=int, help="grid resolution")
        if name == "validate":
            command.add_argument("--seed", type=int, help="master seed (fallback: file, then $COLLAB_AVG_SEED)")
            command.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    run, needs_scenario = _COMMANDS[args["command"]]
    try:
        return run(load_run_config(**args, require_scenario=needs_scenario))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    from .__main__ import run  # the one entry, as for `python -m collab_avg`
    raise SystemExit(run())
