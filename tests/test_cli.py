"""End-to-end command-line behaviour: formats, exit codes, determinism."""

from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from collab_avg import cli, montecarlo
from collab_avg.cli import main
from collab_avg.theory import Scenario, error_profile, ese_of_alpha
from conftest import command_flags, force_cpus, no_child_left, round_forks

TWO_AGENT_YAML = """\
x: {family: normal, params: {mu: 0.0, sd: 1.0}}
n_x: 10
y: {family: normal, params: {mu: 0.0, sd: 1.0}}
n_y: 60
alphas: [0.2, 0.5]
trials: 400
seed: 21
"""

DEGENERATE_YAML = """\
x: {constant: 1.0}
n_x: 5
y: {constant: 1.0}
n_y: 5
"""

FEDERATION_YAML = """\
x: {family: normal, params: {mu: 1.0, sd: 0.5}}
n_x: 32
y:
  union:
    - {family: normal, params: {mu: 1.0, sd: 0.5}, n: 8}
    - {family: normal, params: {mu: 1.0, sd: 0.5}, n: 8}
    - {family: normal, params: {mu: 1.0, sd: 0.5}, n: 8}
    - {family: normal, params: {mu: 1.0, sd: 0.5}, n: 8}
"""

# One helper in both forms. fsum([n * mu]) / n is one bit above mu = 0.1
# here, so pooling a single helper would show in the reduced mean.
ONE_HELPER_YAML = """\
x: {family: normal, params: {mu: 0.0, sd: 1.0}}
n_x: 5
y: {family: normal, params: {mu: 0.1, sd: 1.0}}
n_y: 3
alphas: [0.2, 0.5]
"""

ONE_HELPER_UNION_YAML = """\
x: {family: normal, params: {mu: 0.0, sd: 1.0}}
n_x: 5
y:
  union:
    - {family: normal, params: {mu: 0.1, sd: 1.0}, n: 3}
alphas: [0.2, 0.5]
"""

ONE_ENTRY_SUITE_YAML = """\
scenarios:
  - {x: {family: normal, params: {mu: 0.0, sd: 1.0}}, n_x: 5, y: {family: normal, params: {mu: 0.1, sd: 1.0}}, n_y: 3}
alphas: [0.2, 0.5]
"""


# e0 doubled: the scenario's closed form has e0 = 0.1.
DOUBLED_E0_YAML = """\
x: {family: normal, params: {mu: 0.0, sd: 1.0}}
n_x: 10
y: {family: normal, params: {mu: 0.5, sd: 1.0}}
n_y: 60
expected: {e0: 0.2, e1: 0.26666666666666666}
"""

# Inputs of the closed-form golden pins below: a biased helper with odd
# moments, so any change in the arithmetic's order shows in the last bit.
GOLDEN_PROFILE_YAML = """\
x: {family: normal, params: {mu: 0.3, sd: 1.7}}
n_x: 13
y: {family: uniform, params: {lo: -0.4, hi: 2.2}}
n_y: 29
alphas: [0.1, 0.25, 0.5, 0.9]
"""

GOLDEN_PROFILE_INF_YAML = """\
x: {family: exponential, params: {rate: 0.7}}
n_x: 9
y: {constant: 1.9}
n_y: inf
alphas: [0.05, 0.3]
"""

GOLDEN_FEDERATION_YAML = """\
x: {family: normal, params: {mu: 0.4, sd: 1.3}}
n_x: 11
y:
  union:
    - {family: normal, params: {mu: 0.1, sd: 0.9}, n: 7}
    - {family: uniform, params: {lo: -1.0, hi: 2.5}, n: 23}
    - {family: bernoulli, params: {p: 0.35}, n: 41}
"""

# sha256 of the closed-form commands' output bytes, recorded before
# ErrorProfile derived alpha* from (e0, e1) itself.
GOLDEN_CLOSED_FORM = {
    "profile_finite": "a65606a5757247f483fbb303aee618d24ac325c11032f57eb4f9e8b55c9a2e71",
    "profile_inf": "eaea0edfb291e450bbb1c37651c1cfa8b64047128aa832d01554b16a7e35e0dd",
    "curve_default": "4b580facf9d6472145cc5284f1dafc97f46feebabbab3440a3c18d4452299d8d",
    "federate_three": "8fd4ff7ac2a1f05dc06635021e50a77c546ce9fbe647e3b10f0cad0b5d92acf0",
    "table1_csv": "70a4cc1768075608c547f106f3b0677c03c10c65a13ad85bb5d8162f0cc416f0",
    "table1_report": "118b6f813fdcef55c5653f2acf51c3465d4eb445576bf3cd6d22a4ebcb396787",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error, from argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            values[key] = value
    return values


class TestProfile:
    def test_six_to_one_helper(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(TWO_AGENT_YAML)
        code, out, _ = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 0
        report = parse_report(out)
        assert round(float(report["alpha_star"]), 2) == 0.86
        assert round(float(report["ese_opt"]) / float(report["e0"]), 2) == 0.14

    def test_zero_variance_warns(self, tmp_path, capsys):
        path = tmp_path / "degenerate.yaml"
        path.write_text(DEGENERATE_YAML)
        code, out, _ = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 0
        assert "local model already exact" in out
        assert parse_report(out)["alpha_star"] == "0.0"

    def test_reference_row_with_infinite_helper(self, tmp_path, capsys):
        path = tmp_path / "row.yaml"
        path.write_text(
            "x: {family: normal, params: {mu: 0.0, sd: 1.0}}\n"
            "n_x: 100\n"
            "y: {constant: 0.5}\n"
            "n_y: inf\n"
            "alphas: [0.2, 0.5]\n"
        )
        code, out, _ = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 0
        report = parse_report(out)
        profile = error_profile(Scenario(0.0, 1.0, 100, 0.5, 0.0, math.inf))
        assert float(report["alpha_star"]) == profile.alpha_star
        assert round(float(report["alpha_star"]), 2) == 0.04
        assert round(1 - float(report["alpha_star"]), 2) == 0.96
        ratios = [round(ese_of_alpha(profile, a) / profile.e0, 2) for a in (0.2, 0.5)]
        assert ratios == [1.64, 6.50]

    @pytest.mark.parametrize(
        "text,key",
        [(GOLDEN_PROFILE_YAML, "profile_finite"), (GOLDEN_PROFILE_INF_YAML, "profile_inf")],
        ids=["finite_ny", "infinite_ny"],
    )
    def test_golden_output(self, tmp_path, capsys, text, key):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 0
        assert sha256(out.encode("utf-8")) == GOLDEN_CLOSED_FORM[key]

    def test_overflowing_error_sum_keeps_the_optimum(self, tmp_path, capsys):
        # e0 = e1 = 1e308, whose sum overflows: alpha* is still exactly 1/2.
        path = tmp_path / "huge.yaml"
        path.write_text(
            "x: {family: normal, params: {mu: 0, sd: 1.0e154}}\n"
            "n_x: 1\n"
            "y: {constant: 1.0e154}\n"
            "alphas: [0.5]\n"
        )
        code, out, _ = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 0
        report = parse_report(out)
        assert report["alpha_star"] == "0.5"
        assert report["break_even"] == "1.0"
        assert report["ese(0.5)"] == "5e+307 (ratio 0.5)"

    def test_missing_scenario_is_invalid(self, capsys):
        code, _, err = run_cli(capsys, "profile")
        assert code == 1
        assert "error" in err


class TestTable1:
    def test_csv_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table1", "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 17
        by_index = {int(row["row"]): row for row in rows}
        assert by_index[3]["alpha_star"] == "0.86"
        assert by_index[3]["status"] == "Match"
        assert by_index[7]["status"] == "Mismatch"
        assert by_index[7]["printed_alpha_star"] == "0.57"
        assert by_index[7]["alpha_star"] == "0.29"
        assert by_index[8]["status"] == "Mismatch"
        assert by_index[16]["e_ratio_fifth"] == "inf"
        assert "mismatch: 2" in out
        assert "row 7" in out and "row 8" in out

    def test_golden_csv_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table1", "--out", str(out_path))
        assert code == 0
        assert sha256(out_path.read_bytes()) == GOLDEN_CLOSED_FORM["table1_csv"]
        assert sha256(out.encode("utf-8")) == GOLDEN_CLOSED_FORM["table1_report"]

    def test_star_and_inf_cells_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        run_cli(capsys, "table1", "--out", str(out_path))
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        first = rows[0]
        assert first["n_x"] == "*"
        last = rows[-1]
        assert last["bias2_over_varx"] == "inf"


class TestCurve:
    def test_curve_grid_values(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(TWO_AGENT_YAML)
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "curve", "--scenario", str(path), "--out", str(out_path)
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 1001
        by_alpha = {row["alpha"]: row for row in rows}
        assert float(by_alpha["0.0"]["ese_ratio"]) == 1.0
        assert float(by_alpha["1.0"]["lower_bound"]) == -1.0
        # alpha* = 6/7 ~ 0.857: the upper-bound segment stops there.
        assert by_alpha["0.857"]["upper_bound_segment"] != ""
        assert by_alpha["0.858"]["upper_bound_segment"] == ""
        profile = error_profile(Scenario(0.0, 1.0, 10, 0.0, 1.0, 60))
        for alpha_text in ("0.2", "0.5", "0.857"):
            expected = ese_of_alpha(profile, float(alpha_text)) / profile.e0
            assert float(by_alpha[alpha_text]["ese_ratio"]) == expected

    def test_golden_default_grid(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOLDEN_PROFILE_YAML)
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "curve", "--scenario", str(path), "--out", str(out_path))
        assert code == 0
        assert sha256(out_path.read_bytes()) == GOLDEN_CLOSED_FORM["curve_default"]

    def test_break_even_row_when_on_grid(self, tmp_path, capsys):
        path = tmp_path / "quarter.yaml"
        # e0 = 0.1, e1 = 0.3: alpha* = 0.25, break-even at 0.5 exactly.
        path.write_text(
            "x: {family: normal, params: {mu: 0.0, sd: 1.0}}\n"
            "n_x: 10\n"
            "y: {family: normal, params: {mu: 0.5, sd: 0.223606797749979}}\n"
            "n_y: 1\n"
        )
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "curve", "--scenario", str(path), "--out", str(out_path))
        assert code == 0
        rows = {row["alpha"]: row for row in csv.DictReader(out_path.read_text().splitlines())}
        assert float(rows["0.25"]["ese_ratio"]) == pytest.approx(0.75, rel=1e-12)
        assert float(rows["0.5"]["ese_ratio"]) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "degenerate.yaml"
        path.write_text(DEGENERATE_YAML)
        code, _, err = run_cli(capsys, "curve", "--scenario", str(path))
        assert code == 1
        assert "alpha_star > 0" in err

    def test_largest_grid_runs(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(TWO_AGENT_YAML)
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "curve", "--scenario", str(path), "--out", str(out_path), "--grid", "10001"
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 10001
        assert rows[1]["alpha"] == "0.0001"

    def test_round_trip_at_emitted_precision(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(TWO_AGENT_YAML)
        out_path = tmp_path / "curve.csv"
        run_cli(capsys, "curve", "--scenario", str(path), "--out", str(out_path))
        text = out_path.read_text()
        reparsed = io.StringIO(text)
        next(reparsed)  # header
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in csv.reader(reparsed):
            as_floats = [float(cell) if cell else None for cell in row]
            writer.writerow([repr(v) if v is not None else "" for v in as_floats])
        body = text.split("\n", 1)[1]
        assert buffer.getvalue() == body


BOUNDS_YAML = "contour: {u_min: 1.0, u_max: 1.0e4, v_min: 1.0e6, v_max: 1.0e8}\n"

# sha256 of the contour CSV bytes, recorded from the scalar per-cell loop
# that the streamed writer replaced.
GOLDEN_CONTOUR = {
    "default_stdout": "61e39923ab1caf00d3592073616245581dc10d6dbba1a1f74d3e390382f46929",
    "grid_1001_out": "73620cdba2cd210c4abaf12ed08ad935fa52639f633a7e164e3be1e5e2ca38f7",
    "bounds_grid_7_stdout": "582ec0c81366510d3f232eab142d06694b6e49e0c6f74d3a7569ab9aba3bafa6",
}


def fail_fifth_block(monkeypatch, fault) -> None:
    """Make ``contour`` one u-row per block, in one process, and raise ``fault`` in its 5th block."""
    repr_cells, calls = cli._repr_cells, []

    def failing(x):
        calls.append(1)
        if len(calls) == 5:
            raise fault
        return repr_cells(x)

    monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(cli, "_repr_cells", failing)
    force_cpus(monkeypatch, 1)


class TestContour:
    def test_golden_default_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "contour")
        assert code == 0
        assert sha256(out.encode("utf-8")) == GOLDEN_CONTOUR["default_stdout"]

    def test_golden_grid_1001_out(self, tmp_path, capsys):
        out_path = tmp_path / "contour.csv"
        code, out, _ = run_cli(capsys, "contour", "--grid", "1001", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert sha256(out_path.read_bytes()) == GOLDEN_CONTOUR["grid_1001_out"]

    def test_golden_bounds_from_file_stdout(self, tmp_path, capsys):
        path = tmp_path / "contour.yaml"
        path.write_text(BOUNDS_YAML)
        code, out, _ = run_cli(capsys, "contour", "--grid", "7", "--scenario", str(path))
        assert code == 0
        assert sha256(out.encode("utf-8")) == GOLDEN_CONTOUR["bounds_grid_7_stdout"]

    def test_stdout_bytes_equal_out_bytes(self, tmp_path, capsys):
        out_path = tmp_path / "contour.csv"
        code, out, _ = run_cli(capsys, "contour", "--grid", "13")
        assert code == 0
        code, _, _ = run_cli(capsys, "contour", "--grid", "13", "--out", str(out_path))
        assert code == 0
        assert out.encode("utf-8") == out_path.read_bytes()

    @pytest.mark.parametrize(
        "fault,code,err",
        [(ValueError("bad cell"), 1, "error: bad cell\n"), (KeyboardInterrupt(), 130, "error: interrupted\n")],
        ids=["error", "interrupt"],
    )
    def test_a_failed_out_leaves_no_file(self, tmp_path, capsys, monkeypatch, fault, code, err):
        # One u-row per block: the 5th block fails after the header and 200
        # rows were written, which would read as a valid, shorter CSV.
        fail_fifth_block(monkeypatch, fault)
        out_path = tmp_path / "contour.csv"
        assert run_cli(capsys, "contour", "--grid", "50", "--out", str(out_path)) == (code, "", err)
        assert not out_path.exists()

    def test_a_failed_out_through_a_symlink_removes_neither(self, tmp_path, capsys, monkeypatch):
        # The path names a link, not the file written: removing it would
        # delete the link and leave the target holding the partial CSV.
        fail_fifth_block(monkeypatch, ValueError("bad cell"))
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"")
        link.symlink_to(target)
        assert run_cli(capsys, "contour", "--grid", "50", "--out", str(link)) == (1, "", "error: bad cell\n")
        assert link.is_symlink() and target.is_file()

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0, reason="root may unlink in a read-only directory")
    def test_a_failed_removal_keeps_the_interrupt(self, tmp_path, capsys, monkeypatch):
        # open("wb") succeeds on the existing file, but the directory refuses
        # the unlink: the run still reports Ctrl-C, not the unlink's error.
        fail_fifth_block(monkeypatch, KeyboardInterrupt())
        folder = tmp_path / "read-only"
        folder.mkdir()
        out_path = folder / "contour.csv"
        out_path.write_bytes(b"")
        folder.chmod(0o555)
        try:
            assert run_cli(capsys, "contour", "--grid", "50", "--out", str(out_path)) == (
                130,
                "",
                "error: interrupted\n",
            )
        finally:
            folder.chmod(0o755)

    @pytest.mark.parametrize(
        "fault,code,err",
        [(ValueError("bad cell"), 1, "error: bad cell\n"), (KeyboardInterrupt(), 130, "error: interrupted\n")],
        ids=["error", "interrupt"],
    )
    def test_a_failed_removal_keeps_the_first_error(self, tmp_path, capsys, monkeypatch, fault, code, err):
        # The same as a read-only directory, for any user: the unlink raises.
        def refuse(path):
            raise PermissionError(13, "Permission denied", path)

        fail_fifth_block(monkeypatch, fault)
        monkeypatch.setattr(os, "remove", refuse)
        out_path = tmp_path / "contour.csv"
        assert run_cli(capsys, "contour", "--grid", "50", "--out", str(out_path)) == (code, "", err)

    def test_memory_is_linear_in_grid(self, tmp_path, capsys, monkeypatch):
        # A 401 x 401 grid is 160k rows (~9 MB of CSV); streaming a block of
        # about _BLOCK_CELLS cells at a time keeps the traced peak to a few
        # blocks' worth, whether the blocks are made here or arrive from a
        # worker's pipe.
        out_path = tmp_path / "contour.csv"
        for cpus in (1, 2):
            forks = force_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                code = main(["contour", "--grid", "401", "--out", str(out_path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert len(forks) == round_forks(cpus)
            assert out_path.read_bytes().count(b"\n") == 401**2 + 1
            assert peak < 4 * 2**20

    def test_unsigned_exponent_bounds_are_numbers(self, tmp_path, capsys):
        path = tmp_path / "contour.yaml"
        path.write_text("contour: {u_min: 1e-2, u_max: 1e2, v_min: 1.0e-2, v_max: 1.0E+2}\n")
        code, out, _ = run_cli(capsys, "contour", "--scenario", str(path))
        assert code == 0
        assert sha256(out.encode("utf-8")) == GOLDEN_CONTOUR["default_stdout"]

    @pytest.mark.parametrize("grid", ["1", "10002"])
    def test_grid_out_of_range_rejected_before_running(self, capsys, monkeypatch, grid):
        def never(config):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, "contour", (never, False))
        code, out, err = run_cli(capsys, "contour", "--grid", grid)
        assert code == 1
        assert out == ""
        assert err == f"error: --grid must be in 2..10001, got {grid}\n"

    def test_formula_on_grid(self, tmp_path, capsys):
        out_path = tmp_path / "contour.csv"
        code, _, _ = run_cli(capsys, "contour", "--out", str(out_path), "--grid", "5")
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 25
        for row in rows:
            u = float(row["varxbar_over_bias2"])
            v = float(row["varxbar_over_varybar"])
            assert float(row["alpha_star"]) == 1.0 / (1.0 + 1.0 / u + 1.0 / v)

    def test_bounds_from_file(self, tmp_path, capsys):
        path = tmp_path / "contour.yaml"
        path.write_text(BOUNDS_YAML)
        out_path = tmp_path / "contour.csv"
        code, _, _ = run_cli(
            capsys, "contour", "--scenario", str(path), "--out", str(out_path), "--grid", "3"
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        # u = 1 with negligible helper variance sits on the 0.5 contour.
        assert float(rows[2]["varxbar_over_bias2"]) == 1.0
        assert float(rows[2]["alpha_star"]) == pytest.approx(0.5, rel=1e-6)
        assert float(rows[0]["varxbar_over_varybar"]) == 1e6

    def test_limit_contours(self, tmp_path, capsys):
        path = tmp_path / "contour.yaml"
        path.write_text("contour: {u_min: 0.01, u_max: 1.0e9, v_min: 1.0e9, v_max: 1.0e10}\n")
        out_path = tmp_path / "contour.csv"
        code, _, _ = run_cli(
            capsys, "contour", "--scenario", str(path), "--out", str(out_path), "--grid", "2"
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        # Strong bias dominance pins alpha* to the 0.01 contour; with both
        # ratios huge, alpha* approaches 1.
        assert float(rows[0]["alpha_star"]) == pytest.approx(0.0099, abs=2e-4)
        assert float(rows[-1]["alpha_star"]) == pytest.approx(1.0, abs=1e-8)

    def test_bad_bounds_rejected(self, tmp_path, capsys):
        path = tmp_path / "contour.yaml"
        path.write_text("contour: {u_min: -1.0}\n")
        code, _, err = run_cli(capsys, "contour", "--scenario", str(path))
        assert code == 1
        assert "contour bounds" in err

    # Contour bytes do not depend on how many forked workers make the rows.
    def _pinned(self, capsys, tmp_path, name: str) -> tuple[bytes, int]:
        """Output bytes of the command behind ``GOLDEN_CONTOUR[name]``, and its blocks of u-rows."""
        scenario = tmp_path / "contour.yaml"
        scenario.write_text(BOUNDS_YAML)
        out_path = tmp_path / "contour.csv"
        argv, rows = {
            "default_stdout": ([], 101),
            "grid_1001_out": (["--grid", "1001", "--out", str(out_path)], 1001),
            "bounds_grid_7_stdout": (["--grid", "7", "--scenario", str(scenario)], 7),
        }[name]
        code, out, _ = run_cli(capsys, "contour", *argv)
        assert code == 0
        blocks = -(-rows // max(1, cli._BLOCK_CELLS // rows))
        return (out_path.read_bytes() if out_path.exists() else out.encode("utf-8")), blocks

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONTOUR))
    def test_any_worker_count_gives_golden_bytes(self, monkeypatch, tmp_path, capsys, cpus, name):
        monkeypatch.setattr(cli, "_PARALLEL_MIN_CELLS", 0)
        forks = force_cpus(monkeypatch, cpus)
        data, blocks = self._pinned(capsys, tmp_path, name)
        assert sha256(data) == GOLDEN_CONTOUR[name]
        assert len(forks) == round_forks(min(cpus, blocks))
        assert no_child_left()

    @pytest.mark.parametrize("reached", [False, True], ids=["below", "at"])
    def test_cells_threshold(self, monkeypatch, capsys, reached):
        # The largest grid below the threshold, and the smallest at it.
        grid = str(math.isqrt(cli._PARALLEL_MIN_CELLS - 1) + (1 if reached else 0))
        force_cpus(monkeypatch, 1)
        _, serial, _ = run_cli(capsys, "contour", "--grid", grid)
        forks = force_cpus(monkeypatch, 2)
        code, out, _ = run_cli(capsys, "contour", "--grid", grid)
        assert code == 0
        assert out == serial
        assert len(forks) == (round_forks(2) if reached else 0)

    def test_failed_worker_rows_are_made_here(self, monkeypatch, capsys):
        _, serial, _ = run_cli(capsys, "contour", "--grid", "13")
        parent = os.getpid()
        ordered_map = cli.ordered_map

        def failing_map(make, n, workers):
            def make_or_fail(i):
                # Each worker sends its first block, then dies.
                if os.getpid() != parent and i >= workers:
                    raise RuntimeError("worker failure")
                return make(i)

            return ordered_map(make_or_fail, n, workers)

        monkeypatch.setattr(cli, "ordered_map", failing_map)
        monkeypatch.setattr(cli, "_PARALLEL_MIN_CELLS", 0)
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)  # one u-row per block
        forks = force_cpus(monkeypatch, 3)
        code, out, err = run_cli(capsys, "contour", "--grid", "13")
        assert (code, err) == (0, "")
        assert out == serial
        assert len(forks) == round_forks(3)
        assert no_child_left()

    def test_rows_that_cannot_be_forked_are_made_here(self, monkeypatch, capsys):
        _, serial, _ = run_cli(capsys, "contour", "--grid", "13")

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "_PARALLEL_MIN_CELLS", 0)
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)  # one u-row per block
        force_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        code, out, _ = run_cli(capsys, "contour", "--grid", "13")
        assert code == 0
        assert out == serial

    def test_broken_stdout_exits_1_leaving_no_worker(self, monkeypatch, capsys):
        class ClosedAfterFirstChunk:
            """Standard output whose bytes break after the first chunk."""

            def flush(self):
                pass

            @property
            def buffer(self):
                return self

            def writelines(self, chunks):
                for index, _ in enumerate(chunks):
                    if index:
                        raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_PARALLEL_MIN_CELLS", 0)
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)  # one u-row per block
        forks = force_cpus(monkeypatch, 3)
        monkeypatch.setattr(sys, "stdout", ClosedAfterFirstChunk())
        code, _, err = run_cli(capsys, "contour", "--grid", "13")
        assert code == 1
        assert err == "error: [Errno 32] Broken pipe\n"
        assert len(forks) == round_forks(3)
        assert no_child_left()


def _ulps(value: float, steps: int) -> float:
    """The float ``steps`` representable values above the positive ``value`` (below if negative)."""
    return float((np.array([value]).view(np.int64) + steps).view(np.float64)[0])


def _texts(cells: np.ndarray) -> list[bytes]:
    """The rows of ``cli._repr_cells``' result, each with its NUL bytes dropped."""
    return [row.tobytes().replace(b"\0", b"") for row in cells]


# Formats the float64 values on standard input with contour's cell
# formatter, writes the raw cells, and says on stderr whether numpy's
# AVX-512 (X86_V4) paths are on.
REPR_CELLS = """\
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from collab_avg import cli

sys.stdout.buffer.write(cli._repr_cells(np.frombuffer(sys.stdin.buffer.read())).tobytes())
print(f"X86_V4: {__cpu_features__['X86_V4']}", file=sys.stderr)
"""


def _has_avx512f() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512F"))


class TestReprCells:
    """``contour``'s alpha* cells read as ``repr`` gives them, on every path."""

    FLOATS = st.one_of(
        # Any float in [0, 1.5), subnormals and 0.0 included.
        st.integers(0, int(np.array([1.5]).view(np.int64)[0]) - 1).map(
            lambda bits: float(np.int64(bits).view(np.float64))
        ),
        # Short decimals in [1e-5, 1) and the floats up to 3 steps away.
        st.builds(
            lambda digits, zeros, steps: _ulps(digits / 10 ** (len(str(digits)) + zeros), steps),
            st.integers(1, 999_999),
            st.integers(0, 4),
            st.integers(-3, 3),
        ),
        # Few-bit fractions: V can fall halfway between two candidates.
        st.builds(lambda odd, bits: (2 * odd + 1) / 2.0**bits, st.integers(0, 2**17), st.integers(18, 24)),
        st.builds(lambda power, steps: _ulps(2.0**-power, steps), st.integers(0, 60), st.integers(-1, 1)),
        st.builds(_ulps, st.sampled_from([1e-4, 1e-3, 1e-2, 0.1, 1.0]), st.integers(-3, 3)),
    )

    @settings(deadline=None, max_examples=300)
    @given(values=st.lists(FLOATS, min_size=1, max_size=64))
    @example(values=[0.0, 5e-324, 2.2250738585072014e-308, 9.999999999999999e-05, 0.9999999999999999, 1.0])
    def test_cells_are_repr(self, values):
        assert _texts(cli._repr_cells(np.array(values))) == [repr(value).encode() for value in values]

    @pytest.mark.skipif(not _has_avx512f(), reason="without AVX-512 numpy already takes its other paths")
    def test_cells_without_avx512_are_repr(self):
        # The formatter's arithmetic is IEEE-exact, so turning off numpy's
        # AVX-512 paths changes no cell.
        u = np.logspace(-2.0, 2.0, 201)
        alphas = (1.0 / ((1.0 + 1.0 / u)[:, None] + 1.0 / u)).ravel()
        edges = [_ulps(edge, steps) for edge in (1e-4, 1e-3, 1e-2, 0.1, 1.0) for steps in range(-3, 4)]
        values = np.concatenate([alphas, edges, 10.0 ** np.random.default_rng(0).uniform(-5.0, 0.0, 10_000)])
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        result = subprocess.run(
            [sys.executable, "-c", REPR_CELLS], input=values.tobytes(), capture_output=True, env=env, timeout=120
        )
        assert result.returncode == 0
        assert result.stderr.decode().splitlines() == ["X86_V4: False"]
        cells = np.frombuffer(result.stdout, np.uint8).reshape(values.size, cli._FIELD)
        assert _texts(cells) == [repr(value).encode() for value in values.tolist()]


class TestValidate:
    def test_passing_suite(self, tmp_path, capsys):
        path = tmp_path / "suite.yaml"
        path.write_text(
            "scenarios:\n"
            "  - {x: {constant: 1.0}, n_x: 5, y: {constant: 1.0}, n_y: 5}\n"
            "  - {x: {family: bernoulli, params: {p: 0.5}}, n_x: 20, y: {constant: 0.5}}\n"
            "trials: 2000\n"
            "seed: 11\n"
        )
        code, out, _ = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 0
        assert "overall: PASS" in out
        assert out.count("scenario") == 2

    def test_constant_helper_passes_at_alpha_one(self, tmp_path, capsys):
        # Every trial's squared error at alpha = 1 is the same float, so its
        # standard error is only rounding; the band's floor covers the few
        # ulps between the estimate and a correct closed form.
        path = tmp_path / "constant.yaml"
        path.write_text("x: {family: normal, params: {mu: 0.0, sd: 1.0}}\nn_x: 10\ny: {constant: 0.1}\n")
        code, out, _ = run_cli(capsys, "validate", "--scenario", str(path), "--trials", "1000", "--seed", "0")
        assert code == 0
        assert "  alpha=1.0 mc=0.010000000000000005 closed=0.010000000000000002 se=1.0976844384286364e-19 " in out
        assert out.endswith(" ok\noverall: PASS\n")

    def test_corrupted_reference_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "x: {family: bernoulli, params: {p: 0.5}}\n"
            "n_x: 20\n"
            "y: {constant: 0.5}\n"
            "trials: 5000\n"
            "seed: 11\n"
            "expected: {e0: 0.025, e1: 0.0}\n"
        )
        code, out, _ = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert "overall: FAIL" in out

    # The band is 4 standard errors, not a setting: at 1e6 standard errors
    # this doubled e0 would read PASS.
    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_k_is_refused_with_one_line(self, tmp_path, capsys, where):
        path = tmp_path / "doubled_e0.yaml"
        path.write_text(DOUBLED_E0_YAML)
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), "--trials", "1000", "--seed", "0")
        assert (code, err) == (2, "")
        assert "(trials=1000, k=4.0, seed=0)" in out
        assert out.endswith("overall: FAIL\n")
        argv = ["--k", "1e6"]
        if where == "file":
            path.write_text(DOUBLED_E0_YAML + "k: 1e6\n")
            argv = []
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), "--trials", "1000", "--seed", "0", *argv)
        assert (code, out) == (1, "")
        assert err == {
            "flag": "error: unrecognized arguments: --k 1e6\n",
            "file": "error: 'k' is not a setting: validate's band is always 4 standard errors\n",
        }[where]

    def test_non_finite_estimate_never_reads_ok(self, tmp_path, capsys):
        # e0 = 1e308 is finite, but the sampled squared errors overflow, so
        # 20 of the 21 points have mc=inf, with se=inf or nan. A numpy
        # overflow warning would raise here (filterwarnings = error).
        path = tmp_path / "huge.yaml"
        path.write_text(
            "x: {family: normal, params: {mu: 0.0, sd: 1.0e154}}\n"
            "n_x: 1\n"
            "y: {constant: 0}\n"
            "trials: 1000\n"
            "seed: 0\n"
        )
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert (code, err) == (2, "")
        points = [dict(field.split("=") for field in line.split()[:-1]) for line in out.splitlines()[1:-1]]
        verdicts = [line.rsplit(" ", 1)[1] for line in out.splitlines()[1:-1]]
        finite = [math.isfinite(float(p["mc"])) and math.isfinite(float(p["se"])) for p in points]
        assert finite.count(False) == 20
        assert "inf" in [p["se"] for p in points]
        assert all(verdict == "FAIL" for verdict, ok in zip(verdicts, finite) if not ok)
        assert out.endswith("alpha=1.0 mc=0.0 closed=0.0 se=0.0 dev=0.0 ok\noverall: FAIL\n")

    @pytest.mark.parametrize(
        "scenarios,trials", [(1, 100_000), (3, 40_000)], ids=["one_scenario", "shared_suite"]
    )
    def test_overflowing_sums_warn_nothing(self, tmp_path, scenarios, trials):
        # Each squared error is finite (about 1e304 at most weights), but
        # their sums over the trials overflow between leaves of the tree. The
        # overflowed points read FAIL; Python's default warning filter, in a
        # fresh interpreter, would print any RuntimeWarning to stderr.
        side = "{x: {family: normal, params: {mu: 0.0, sd: 1.0e152}}, n_x: 1, y: {constant: 0}}"
        path = tmp_path / "huge.yaml"
        path.write_text(f"trials: {trials}\nseed: 0\nscenarios:\n" + f"  - {side}\n" * scenarios)
        result = subprocess.run(
            [sys.executable, "-m", "collab_avg", "validate", "--scenario", str(path)], capture_output=True, timeout=120
        )
        assert (result.returncode, result.stderr) == (2, b"")
        assert result.stdout.endswith(b"overall: FAIL\n")

    def test_trials_below_oracle_minimum_rejected_by_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(DEGENERATE_YAML)
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), "--trials", "99")
        assert code == 1
        assert out == ""
        assert err == "error: trials must be an integer >= 100, got 99\n"
        code, out, _ = run_cli(capsys, "validate", "--scenario", str(path), "--trials", "100")
        assert code == 0
        assert "trials=100" in out

    def test_varying_helper_at_an_infinite_count_validates_as_its_mean(self, tmp_path, capsys):
        # At n_y: inf the helper's mean is exact: never drawn, it enters each
        # trial's error only through the bias, as the constant at its mean does.
        text = "x: {family: exponential, params: {rate: 2.0}}\nn_x: 7\ntrials: 5000\nseed: 9\n"
        helpers = {
            "inf": "y: {family: normal, params: {mu: 0.5, sd: 3}}\nn_y: inf\n",
            "constant": "y: {constant: 0.5}\nn_y: 1\n",
        }
        outputs = []
        for name, helper in helpers.items():
            path, out_path = tmp_path / f"{name}.yaml", tmp_path / f"{name}.txt"
            path.write_text(text + helper)
            assert run_cli(capsys, "validate", "--scenario", str(path), "--out", str(out_path)) == (0, "", "")
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(b"overall: PASS\n")

    def test_constant_helper_at_an_infinite_count_validates_as_at_one(self, tmp_path, capsys):
        # A helper that cannot vary is never drawn, so its count changes
        # neither the draws nor the closed form: n_y: inf gives n_y: 1's bytes.
        text = "x: {family: normal, params: {mu: 0, sd: 1}}\nn_x: 10\ny: {constant: 0.5}\ntrials: 1000\n"
        outputs = []
        for n_y in ("inf", "1"):
            path, out_path = tmp_path / f"{n_y}.yaml", tmp_path / f"{n_y}.txt"
            path.write_text(f"{text}n_y: {n_y}\n")
            assert run_cli(capsys, "validate", "--scenario", str(path), "--out", str(out_path)) == (0, "", "")
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(b"overall: PASS\n")

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "fault,message",
        [
            ("short_write", "error: short write to a scratch file: "),
            ("short_read", "error: short read from a scratch file: "),
            ("no_scratch_file", "error: [Errno 28] No space left on device"),
        ],
    )
    def test_scratch_file_failure_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, fault, message, cpus):
        # A shared suite keeps its first pass's trial means in a scratch
        # file. Half a block written or read back, or no file at all, must
        # end in an error, never in estimates from a partial file.
        path = tmp_path / "suite.yaml"
        path.write_text(SHARED_SHORT_STREAMS_YAML)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        pwrite, pread = os.pwrite, os.pread
        if fault == "short_write":
            monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, bytes(data)[: len(data) // 2], offset))
        elif fault == "short_read":
            monkeypatch.setattr(os, "pread", lambda fd, size, offset: pread(fd, size, offset)[: size // 2])
        else:

            def no_file(*args, **kwargs):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        monkeypatch.setattr(montecarlo, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(montecarlo, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, cpus)
        out_path = tmp_path / "out.txt"
        # 20,001 trials are two leaves on 2 CPUs, one per process.
        argv = ["validate", "--scenario", str(path), "--trials", "20001", "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(message)
        assert not out_path.exists()
        # A round of forks per pass reached; only pass 2 reads the file.
        assert len(forks) == round_forks(cpus) * {"short_write": 1, "short_read": 2, "no_scratch_file": 0}[fault]
        assert no_child_left()
        assert os.listdir(scratch) == []

    def test_without_positioned_io_runs_serially_to_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        # Windows has neither os.pwrite nor os.pread: the scratch file is
        # then written and read by seeking, by this process alone.
        path = tmp_path / "suite.yaml"
        path.write_text(SHARED_SHORT_STREAMS_YAML)
        monkeypatch.setattr(montecarlo, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(montecarlo, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, 2)
        outputs = []
        for name in ("positioned.txt", "seeking.txt"):
            if name == "seeking.txt":
                monkeypatch.delattr(os, "pwrite")
                monkeypatch.delattr(os, "pread")
            out_path = tmp_path / name
            argv = ["validate", "--scenario", str(path), "--trials", "20001", "--out", str(out_path)]
            assert run_cli(capsys, *argv) == (0, "", "")
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(forks) == 2 * round_forks(2)  # all from the first run, a round per pass
        assert no_child_left()

    def test_byte_identical_output_files(self, tmp_path):
        path = tmp_path / "suite.yaml"
        path.write_text(
            "x: {family: normal, params: {mu: 0.0, sd: 1.0}}\n"
            "n_x: 7\n"
            "y: {family: uniform, params: {lo: -1.0, hi: 1.0}}\n"
            "n_y: 9\n"
            "trials: 2000\n"
        )
        outputs = []
        for name in ("a.txt", "b.txt"):
            out_path = tmp_path / name
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "collab_avg",
                    "validate",
                    "--scenario",
                    str(path),
                    "--seed",
                    "77",
                    "--out",
                    str(out_path),
                ],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestFederate:
    def test_identical_spec_union(self, tmp_path, capsys):
        path = tmp_path / "federation.yaml"
        path.write_text(FEDERATION_YAML)
        code, out, _ = run_cli(capsys, "federate", "--scenario", str(path))
        assert code == 0
        report = parse_report(out)
        assert float(report["alpha_star"]) == 0.5
        assert float(report["ese_ratio_opt"]) == 0.5
        assert report["pooled_n"] == "32"

    def test_golden_three_helpers(self, tmp_path, capsys):
        path = tmp_path / "federation.yaml"
        path.write_text(GOLDEN_FEDERATION_YAML)
        code, out, _ = run_cli(capsys, "federate", "--scenario", str(path))
        assert code == 0
        assert sha256(out.encode("utf-8")) == GOLDEN_CLOSED_FORM["federate_three"]

    def test_two_agent_file_is_a_one_helper_union(self, tmp_path, capsys):
        results = []
        for name, text in (("two_agent", ONE_HELPER_YAML), ("union", ONE_HELPER_UNION_YAML)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            results.append(run_cli(capsys, "federate", "--scenario", str(path)))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, err) == (0, "")
        assert out.startswith("helpers = 1\npooled_n = 3\nreduced: mu_y=0.1 var_y=1.0 n_y=3 ")

        path = tmp_path / "inf.yaml"
        path.write_text(ONE_HELPER_YAML.replace("n_y: 3", "n_y: inf"))
        code, out, err = run_cli(capsys, "federate", "--scenario", str(path))
        assert (code, err) == (0, "")
        assert parse_report(out)["pooled_n"] == "inf"

    @pytest.mark.parametrize("count", ["inf", ".inf"])
    def test_infinite_union_count_exits_1_with_one_line(self, tmp_path, capsys, count):
        # A union entry's n is parsed as n_y is; only a lone helper may be infinite.
        path = tmp_path / "union.yaml"
        path.write_text(
            "x: {family: normal, params: {mu: 0, sd: 1}}\nn_x: 5\n"
            f"y: {{union: [{{family: normal, params: {{mu: 0, sd: 1}}, n: {count}}}, {{constant: 1.0, n: 3}}]}}\n"
        )
        code, out, err = run_cli(capsys, "federate", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err == "error: only a single helper may have an infinite sample count\n"


class TestScenarioForms:
    """A two-agent scenario is a federation of one helper, on every command."""

    @pytest.mark.parametrize(
        "argv", [["profile"], ["curve"], ["validate", "--trials", "2000", "--seed", "3"]], ids=lambda a: a[0]
    )
    def test_one_helper_union_gives_the_two_agent_bytes(self, tmp_path, capsys, argv):
        self.assert_same_bytes(tmp_path, capsys, argv, ONE_HELPER_YAML, ONE_HELPER_UNION_YAML)

    @pytest.mark.parametrize(
        "argv", [["profile"], ["federate"], ["validate", "--trials", "2000", "--seed", "3"]], ids=lambda a: a[0]
    )
    def test_one_helper_union_at_an_infinite_count_gives_the_two_agent_bytes(self, tmp_path, capsys, argv):
        two_agent = ONE_HELPER_YAML.replace("n_y: 3", "n_y: inf")
        union = ONE_HELPER_UNION_YAML.replace("n: 3", "n: inf")
        self.assert_same_bytes(tmp_path, capsys, argv, two_agent, union)

    @staticmethod
    def assert_same_bytes(tmp_path, capsys, argv, two_agent, union):
        results = []
        for name, text in (("two_agent", two_agent), ("union", union)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            results.append(run_cli(capsys, *argv, "--scenario", str(path)))
        assert results[0] == results[1]
        assert results[0][0] == 0

    def test_validate_on_several_helpers_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "federation.yaml"
        path.write_text(GOLDEN_FEDERATION_YAML)
        out_path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: a scenario with more than one helper cannot be sampled yet\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["profile", "curve", "federate"])
    def test_single_scenario_command_on_a_suite_exits_1_with_one_line(self, tmp_path, capsys, command):
        # It would answer for the first scenario alone; a one-entry list is
        # the two-agent file's scenario.
        path = tmp_path / "suite.yaml"
        path.write_text(SHARED_SHORT_STREAMS_YAML)
        out_path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, command, "--scenario", str(path), "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"error: {command} takes one scenario, but the file defines 4\n"
        assert not out_path.exists()
        results = []
        for name, text in (("two_agent", ONE_HELPER_YAML), ("one_entry", ONE_ENTRY_SUITE_YAML)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            results.append(run_cli(capsys, command, "--scenario", str(path)))
        assert results[0] == results[1]
        assert results[0][0] == 0


# The mc_long benchmark scenario: 7,000-draw streams over 2,000 trials fork
# trial-mean workers wherever more than one CPU is available.
MC_LONG_YAML = """\
trials: 2000
seed: 0
scenarios:
  - {x: {family: normal, params: {mu: 0.0, sd: 1.0}}, n_x: 1000, y: {family: exponential, params: {rate: 1.0}}, n_y: 6000}
"""

# Four scenarios over draws 0 .. 24 of each stream: validate draws them once
# per pass for all four.
SHARED_SHORT_STREAMS_YAML = """\
seed: 3
scenarios:
  - {x: {family: normal, params: {mu: 0.0, sd: 1.0}}, n_x: 5, y: {family: uniform, params: {lo: 0.0, hi: 1.0}}, n_y: 20}
  - {x: {family: exponential, params: {rate: 1.0}}, n_x: 20, y: {family: normal, params: {mu: 1.0, sd: 1.0}}, n_y: 5}
  - {x: {family: bernoulli, params: {p: 0.5}}, n_x: 25, y: {constant: 0.5}}
  - {x: {family: uniform, params: {lo: -1.0, hi: 1.0}}, n_x: 10, y: {family: bernoulli, params: {p: 0.3}}, n_y: 15}
"""

# No scenario's own stream reaches numpy's C Philox path (64 draws), but
# the span the suite shares, draws 0 .. 79, does.
SHARED_SPAN_OF_80_YAML = """\
seed: 4
scenarios:
  - {x: {family: normal, params: {mu: 0.0, sd: 1.0}}, n_x: 10, y: {family: uniform, params: {lo: 0.0, hi: 1.0}}, n_y: 50}
  - {x: {family: uniform, params: {lo: 0.0, hi: 1.0}}, n_x: 50, y: {family: normal, params: {mu: 0.0, sd: 1.0}}, n_y: 10}
  - {x: {family: exponential, params: {rate: 1.0}}, n_x: 60, y: {constant: 1.0}}
  - {x: {constant: 0.0}, n_x: 30, y: {family: exponential, params: {rate: 1.0}}, n_y: 50}
"""

# TWO_AGENT_YAML with 50 draws per trial, too few for numpy's C Philox.
SHORT_STREAMS_YAML = TWO_AGENT_YAML.replace("n_y: 60", "n_y: 40")

# Runs the CLI in a fresh interpreter with 2 CPUs and a fork hook that
# raises SIGINT once, in the parent, while os.fork runs its hooks. The last
# stderr line says whether any child process was left.
SIGINT_AT_FORK = """\
import os, signal, sys

from collab_avg import cli

os.sched_getaffinity = lambda pid: {0, 1}
raised = []


def interrupt_once():
    if not raised:
        raised.append(True)
        signal.raise_signal(signal.SIGINT)


os.register_at_fork(before=interrupt_once)
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(f"interrupts raised: {len(raised)}, child left: {left}", file=sys.stderr)
sys.exit(code)
"""

# Runs the CLI in a fresh interpreter, with scipy hidden when the first
# argument is "no-scipy". The last stderr line gives, when load_run_config
# returned and when main returned, how many ndtri functions and how many
# numpy Philox generators are loaded, the modules imported in between, and the
# scipy modules left at the end.
SCIPY_PROBE = """\
import sys

if sys.argv[1] == "no-scipy":
    sys.modules["scipy"] = None  # as if scipy were not installed
from collab_avg import _philox, cli, distributions


def state():
    return distributions._load_ndtri.cache_info().currsize, _philox._load_generator.cache_info().currsize


at_setup = []
modules = set()
load_run_config = cli.load_run_config


def recording(*args, **kwargs):
    config = load_run_config(*args, **kwargs)
    at_setup.append(state())
    modules.update(sys.modules)
    return config


cli.load_run_config = recording
code = cli.main(sys.argv[2:])
late = sorted(set(sys.modules) - modules) if at_setup else []
scipy = sorted(name for name, module in sys.modules.items() if module and name.split(".")[0] == "scipy")
print(f"set-up: {at_setup}, end: {state()}, imported after set-up: {late}, scipy: {scipy}", file=sys.stderr)
sys.exit(code)
"""

# Makes the sampling core's pass 1 fork a worker at any size, on two CPUs.
FORK_ALWAYS = """\
import os
from collab_avg import montecarlo

os.sched_getaffinity = lambda pid: {0, 1}
montecarlo._PARALLEL_MIN_DRAWS = 0
"""

NOTHING_LOADED = "set-up: [(0, 0)], end: (0, 0), imported after set-up: [], scipy: []"

# Runs the CLI in a fresh interpreter. The last stderr line gives which of
# the modules a full numpy.random would bring are loaded, whether numpy's C
# Philox gives the vectorized rounds' bits, and, imported after the run,
# whether secrets is the real module, whether numpy.random's Philox and
# Generator are the classes the run used, and default_rng(1)'s first draw.
PHILOX_AFTER_RUN = """\
import sys
from collab_avg import _philox, cli

code = cli.main(sys.argv[1:])
heavy = ["secrets", "hmac", "hashlib", "_hashlib", "numpy.random.mtrand", "numpy.random._generator"]
loaded = [name for name in heavy if name in sys.modules]
c_path = _philox.uniform_matrix(7, 2**64 - 2, 3, 301, 5)
_philox._C_MIN_DRAWS = 2**62
rounds = _philox.uniform_matrix(7, 2**64 - 2, 3, 301, 5)
import secrets
import numpy.random
generator = _philox._load_generator()
same = type(generator) is numpy.random.Generator and type(generator.bit_generator) is numpy.random.Philox
print(
    f"loaded: {loaded}, same bits: {c_path.tobytes() == rounds.tobytes()}, real secrets: "
    f"{hasattr(secrets, 'token_hex')}, same classes: {same}, rng: {numpy.random.default_rng(1).random()!r}",
    file=sys.stderr,
)
sys.exit(code)
"""

# Runs the CLI in a fresh interpreter that forks at any size on two CPUs.
# The last stderr line gives the process's threads at each fork.
THREADS_AT_FORK = FORK_ALWAYS + """\
import sys
from collab_avg import _workers, cli

fork = _workers._fork
threads = []


def recording(work):
    threads.append(len(os.listdir("/proc/self/task")))
    return fork(work)


_workers._fork = recording
cli._PARALLEL_MIN_CELLS = 0
code = cli.main(sys.argv[1:])
print(f"threads at each fork: {threads}", file=sys.stderr)
sys.exit(code)
"""


def run_python(script: str, *argv: str) -> tuple[int, bytes, list[str]]:
    """Exit code, stdout and stderr lines of ``script`` run in a new interpreter."""
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, timeout=120)
    return result.returncode, result.stdout, result.stderr.decode().splitlines()


class TestScipyImport:
    """Only validate samples, so only validate loads scipy's ndtri and numpy's Philox."""

    @pytest.mark.parametrize("command", ["profile", "curve", "contour", "table1", "federate"])
    def test_closed_form_commands_never_import_scipy(self, tmp_path, command):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(GOLDEN_FEDERATION_YAML if command == "federate" else GOLDEN_PROFILE_YAML)
        argv = {"contour": ["--grid", "201"], "table1": []}.get(command, ["--scenario", str(scenario)])
        code, _, err = run_python(SCIPY_PROBE, "scipy", command, *argv, "--out", str(tmp_path / "out"))
        assert code == 0
        assert err[-1] == NOTHING_LOADED

    def test_validate_imports_scipy_before_set_up_ends(self, tmp_path):
        # ndtri comes from scipy's extension alone, which leaves no scipy
        # module behind. These streams are too short for numpy's C Philox,
        # so it is never loaded.
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(SHORT_STREAMS_YAML)
        code, out, err = run_python(SCIPY_PROBE, "scipy", "validate", "--scenario", str(scenario))
        assert code == 0
        assert out.endswith(b"overall: PASS\n")
        assert err == ["set-up: [(1, 0)], end: (1, 0), imported after set-up: [], scipy: []"]

    @pytest.mark.parametrize(
        "yaml,long_streams",
        [
            (MC_LONG_YAML, 1),
            (SHORT_STREAMS_YAML, 0),
            (SHARED_SHORT_STREAMS_YAML, 0),
            (SHARED_SPAN_OF_80_YAML, 1),
        ],
        ids=["long_streams", "short_streams", "suite_short_span", "suite_long_span"],
    )
    def test_validate_imports_nothing_after_set_up(self, tmp_path, yaml, long_streams):
        # A module imported during the run is imported again by every forked
        # worker. MC_LONG_YAML's streams take numpy's C Philox path,
        # SHORT_STREAMS_YAML's the vectorized rounds. The suites draw their
        # shared span, whose length alone decides the path.
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml)
        argv = ["validate", "--scenario", str(scenario), "--trials", "300"]
        code, out, err = run_python(FORK_ALWAYS + SCIPY_PROBE, "scipy", *argv)
        assert code == 0
        assert out.endswith(b"overall: PASS\n")
        state = f"(1, {long_streams})"
        assert err[-1].startswith(f"set-up: [{state}], end: {state}, imported after set-up: [],")

    def test_validate_loads_numpy_philox_alone(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(MC_LONG_YAML)
        argv = ["validate", "--scenario", str(scenario), "--trials", "300"]
        code, out, err = run_python(PHILOX_AFTER_RUN, *argv)
        assert code == 0
        assert out.endswith(b"overall: PASS\n")
        # This process imported numpy.random the public way.
        rng = np.random.default_rng(1).random()
        assert err[-1] == f"loaded: [], same bits: True, real secrets: True, same classes: True, rng: {rng!r}"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    @pytest.mark.parametrize("command", ["validate", "contour"])
    def test_one_thread_at_each_fork(self, tmp_path, monkeypatch, command):
        # Importing collab_avg before numpy caps OpenBLAS at one thread.
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(MC_LONG_YAML)
        argv = {"validate": ["--scenario", str(scenario), "--trials", "300"], "contour": ["--grid", "201"]}[command]
        code, _, err = run_python(THREADS_AT_FORK, command, *argv, "--out", str(tmp_path / "out"))
        assert code == 0
        assert set(ast.literal_eval(err[-1].partition(": ")[2])) == {1}

    def test_validate_without_scipy_exits_1_with_one_line(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(TWO_AGENT_YAML)
        code, out, err = run_python(SCIPY_PROBE, "no-scipy", "validate", "--scenario", str(scenario))
        assert (code, out) == (1, b"")
        assert len(err) == 2
        assert err[0].startswith("error: validate needs scipy")
        assert err[1] == "set-up: [], end: (0, 0), imported after set-up: [], scipy: []"

    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["profile", "--scenario"], GOLDEN_CLOSED_FORM["profile_finite"]),
            (["contour"], GOLDEN_CONTOUR["default_stdout"]),
        ],
        ids=["profile", "contour"],
    )
    def test_closed_form_commands_run_without_scipy(self, tmp_path, argv, golden):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(GOLDEN_PROFILE_YAML)
        if argv[-1] == "--scenario":
            argv = [*argv, str(scenario)]
        code, out, err = run_python(SCIPY_PROBE, "no-scipy", *argv)
        assert code == 0
        assert sha256(out) == golden
        assert err == [NOTHING_LOADED]


class TestCommonBehaviour:
    @pytest.mark.parametrize(
        "command,scenario",
        [
            ("profile", GOLDEN_PROFILE_YAML),
            ("curve", GOLDEN_PROFILE_YAML),
            ("table1", None),
            ("validate", TWO_AGENT_YAML),
            ("federate", GOLDEN_FEDERATION_YAML),
            ("contour", None),
        ],
        ids=["profile", "curve", "table1", "validate", "federate", "contour"],
    )
    def test_stdout_gets_the_out_files_bytes(self, tmp_path, capsys, monkeypatch, command, scenario):
        # Even a stdout that would write each "\n" as "\r\n" gets LF bytes,
        # and a text-only stdout (no buffer) gets the same text.
        argv = [command]
        if scenario is not None:
            path = tmp_path / "scenario.yaml"
            path.write_text(scenario)
            argv += ["--scenario", str(path)]
        out_path = tmp_path / "out"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0
        raw = io.BytesIO()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", newline="\r\n")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        stdout.flush()
        assert raw.getvalue() == out_path.read_bytes()
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv) == 0
        assert text.getvalue().encode() == out_path.read_bytes()

    def test_table1s_report_reaches_stdout_as_its_golden_bytes(self, tmp_path, monkeypatch):
        # With the CSV in --out, the report goes to stdout through the same
        # writer, so a newline-translating stdout gets LF bytes too.
        raw = io.BytesIO()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", newline="\r\n")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["table1", "--out", str(tmp_path / "table.csv")]) == 0
        stdout.flush()
        assert sha256(raw.getvalue()) == GOLDEN_CLOSED_FORM["table1_report"]

    def test_env_var_seed_fallback(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "suite.yaml"
        path.write_text(
            "x: {family: normal, params: {mu: 0.0, sd: 1.0}}\n"
            "n_x: 5\n"
            "y: {constant: 0.0}\n"
            "trials: 500\n"
        )
        monkeypatch.setenv("COLLAB_AVG_SEED", "4242")
        code, out_env, _ = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 0
        monkeypatch.delenv("COLLAB_AVG_SEED")
        code, out_flag, _ = run_cli(
            capsys, "validate", "--scenario", str(path), "--seed", "4242"
        )
        assert code == 0
        assert out_env == out_flag
        assert "seed=4242" in out_env

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "table1", (interrupted, False))
        code, out, err = run_cli(capsys, "table1")
        assert (code, out, err) == (130, "", "error: interrupted\n")

    def test_sigint_to_contour_exits_130_leaving_no_process(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "collab_avg", "contour", "--grid", "2001"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
            # Python leaves SIGINT alone if it starts ignored, as under `cmd &`.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            # Wait for the second u-row, which arrives from a worker after
            # every fork: a signal that lands inside os.fork is swallowed by
            # its at-fork hooks.
            assert process.stdout.readline().startswith(b"varxbar_over_bias2,")
            first_u = process.stdout.readline().split(b",")[0]
            while process.stdout.readline().split(b",")[0] == first_u:
                pass
            os.killpg(process.pid, signal.SIGINT)
            _, err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
        assert process.returncode == 130
        assert err == b"error: interrupted\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(process.pid, 0)

    @pytest.mark.parametrize("command", ["contour", "validate"])
    def test_sigint_during_fork_exits_130_leaving_no_child(self, tmp_path, command):
        # contour forks row workers and validate forks subtree workers, both
        # through ordered_map.
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(MC_LONG_YAML)
        argv = {"contour": ["--grid", "301"], "validate": ["--scenario", str(scenario)]}[command]
        code, _, err = run_python(SIGINT_AT_FORK, command, *argv, "--out", str(tmp_path / "out"))
        assert code == 130
        assert err == ["error: interrupted", "interrupts raised: 1, child left: False"]

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--scenario", "/nonexistent.yaml")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "text,field,command",
        [
            ("x: {family: normal, params: {mu: [1], sd: 1.0}}\n", "scenario file.x.params.mu", "profile"),
            ("x: {constant: {value: 1}}\n", "scenario file.x.constant", "profile"),
            ("x: {family: normal, params: {mu: 0.0, sd: abc}}\n", "scenario file.x.params.sd", "profile"),
            ("x: {constant: 1.0}\nexpected: {e0: [1], e1: 0.5}\n", "scenario file.expected.e0", "validate"),
            ("x: {constant: 1.0}\nalphas: [[0.5]]\n", "alpha", "profile"),
            ("x: {constant: true}\n", "scenario file.x.constant", "profile"),
            ('x: {family: normal, params: {mu: "0.5", sd: 1.0}}\n', "scenario file.x.params.mu", "profile"),
            ("x: {constant: 1.0}\nalphas: [yes]\n", "alpha", "profile"),
            ("x: {constant: 1.0}\ncontour: {u_min: true}\n", "contour.u_min", "contour"),
            ('x: {constant: 1.0}\ncontour: {u_min: "0.5"}\n', "contour.u_min", "contour"),
        ],
        ids=[
            "param_list",
            "constant_mapping",
            "param_string",
            "expected_list",
            "alpha_list",
            "constant_bool",
            "param_quoted",
            "alpha_bool",
            "contour_bool",
            "contour_quoted",
        ],
    )
    def test_non_numeric_value_exits_1(self, tmp_path, capsys, text, field, command):
        path = tmp_path / "scenario.yaml"
        path.write_text(text + "n_x: 5\ny: {constant: 0.0}\n")
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be a number")
        assert err.count("\n") == 1

    def test_integer_too_large_for_float_exits_1(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text("x: {constant: 1" + "0" * 400 + "}\nn_x: 5\ny: {constant: 0.0}\n")
        code, out, err = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: scenario file.x.constant is too large for a float\n"

    @pytest.mark.parametrize("field", ["n_x", "n_y"])
    def test_count_too_large_for_float_exits_1(self, tmp_path, capsys, field):
        path = tmp_path / "scenario.yaml"
        huge = "1" + "0" * 400
        path.write_text(TWO_AGENT_YAML.replace(f"{field}: ", f"{field}: {huge} # ", 1))
        code, out, err = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: scenario file.{field} is too large for a float\n"

    # Neither 2**58 trials nor 2**58 draws per trial could ever finish; both
    # are refused by count before anything is allocated or run, for one
    # scenario as for a suite that shares its draws.
    @pytest.mark.parametrize(
        "n_x,flags,message",
        [
            (5, ["--trials", str(2**58)], f"error: {2**58} trials are too many to simulate (at most 2**40)\n"),
            (None, ["--trials", str(2**58)], f"error: {2**58} trials are too many to simulate (at most 2**40)\n"),
            (2**58, [], f"error: a trial of {2**58} draws is too long to simulate (at most 2**40)"),
        ],
        ids=["trials", "trials_shared_suite", "sample_size"],
    )
    def test_too_large_to_allocate_exits_1(self, tmp_path, capsys, n_x, flags, message):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            SHARED_SHORT_STREAMS_YAML
            if n_x is None
            else f"x: {{family: normal, params: {{mu: 0.0, sd: 1.0}}}}\nn_x: {n_x}\ny: {{constant: 0.0}}\ntrials: 100\n"
        )
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "n_y_lines,message,command",
        [
            (
                "n_y: -.inf",
                "scenario file.n_y must be a positive integer or math.inf, got -inf",
                "profile",
            ),
            (
                "n_y: 60\nexpected: {e0: -1.0, e1: 0.5}",
                "scenario file.expected: e0 must be finite and >= 0",
                "validate",
            ),
        ],
        ids=["negative_infinite_n_y", "negative_expected_e0"],
    )
    def test_invalid_value_exits_1_naming_its_field(self, tmp_path, capsys, n_y_lines, message, command):
        path = tmp_path / "scenario.yaml"
        path.write_text(TWO_AGENT_YAML.replace("n_y: 60", n_y_lines))
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    # The library's own alpha check, so its message is the one ese_of_alpha gives.
    @pytest.mark.parametrize("alpha,shown", [("1.5", "1.5"), ("-0.25", "-0.25"), (".nan", "nan")])
    def test_alpha_outside_unit_interval_exits_1(self, tmp_path, capsys, alpha, shown):
        path = tmp_path / "scenario.yaml"
        path.write_text(TWO_AGENT_YAML.replace("alphas: [0.2, 0.5]", f"alphas: [0.2, {alpha}]"))
        code, out, err = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: alpha must be in [0, 1], got {shown}\n"

    # Finite parameters whose moments overflow a float (or, squared,
    # underflow a divisor to zero).
    @pytest.mark.parametrize("command", ["profile", "validate"])
    @pytest.mark.parametrize(
        "x,message",
        [
            ("{family: normal, params: {mu: 0.0, sd: 1e200}}", "scenario file.x: Normal moments overflow a float"),
            ("{family: exponential, params: {rate: 1e-200}}", "scenario file.x: Exponential moments overflow a float"),
            ("{family: uniform, params: {lo: -1e200, hi: 1e200}}", "scenario file.x: Uniform moments overflow a float"),
            ("{family: normal, params: {mu: 1e300, sd: 1.0}}", "(mu_y - mu_x)**2 overflows a float"),
        ],
        ids=["normal_sd", "exponential_rate", "uniform_bounds", "bias"],
    )
    def test_overflowing_moments_exit_1(self, tmp_path, capsys, command, x, message):
        path = tmp_path / "scenario.yaml"
        path.write_text(f"x: {x}\nn_x: 3\ny: {{constant: 1}}\nn_y: 2\n")
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_deeply_nested_yaml_exits_1(self, tmp_path, capsys):
        path = tmp_path / "nested.yaml"
        path.write_text("x: " + "[" * 1000 + "]" * 1000 + "\n")
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert (code, out, err) == (1, "", "error: scenario file is nested too deeply\n")

    def test_bad_yaml_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("x: {family: normal\n")
        code, _, err = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 1
        assert "YAML" in err

    def test_duplicate_key_exits_1(self, tmp_path, capsys):
        # A key written twice is refused, where YAML would let the last one
        # win; a merge key's values still yield to the mapping's own.
        path = tmp_path / "duplicate.yaml"
        for old, new, where in [
            ("n_x: 10\n", "n_x: 10\nn_x: 20\n", "'n_x' at line 3, column 1"),
            ("sd: 1.0}", "sd: 1.0, sd: 5.0}", "'sd' at line 1, column 48"),
        ]:
            path.write_text(TWO_AGENT_YAML.replace(old, new, 1))
            err = f"error: scenario file is not valid YAML: found duplicate key {where}\n"
            assert run_cli(capsys, "profile", "--scenario", str(path)) == (1, "", err)
        merged = "sd: &sd {sd: 5.0}\nx: {family: normal, params: {<<: *sd, "
        path.write_text(TWO_AGENT_YAML.replace("x: {family: normal, params: {", merged, 1))
        code, out, _ = run_cli(capsys, "profile", "--scenario", str(path))
        assert (code, "var_x=1.0 " in out) == (0, True)


class TestFlags:
    """Each command takes only the flags and reads only the file keys that it uses."""

    def test_each_command_takes_only_the_flags_it_reads(self):
        assert command_flags() == {
            "profile": {"--scenario", "--out"},
            "table1": {"--out"},
            "curve": {"--scenario", "--out", "--grid"},
            "contour": {"--scenario", "--out", "--grid"},
            "validate": {"--scenario", "--out", "--seed", "--trials"},
            "federate": {"--scenario", "--out"},
        }

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["profile", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["contour", "--grid", "abc"], "argument --grid: invalid int value: 'abc'"),
            (["table1", "--scenario", "s.yaml"], "unrecognized arguments: --scenario s.yaml"),
            (
                ["profile", "--grid", "5", "--seed", "3", "--trials", "100", "--k", "2"],
                "unrecognized arguments: --grid 5 --seed 3 --trials 100 --k 2",
            ),
        ],
        ids=["profile_seed", "contour_grid_abc", "table1_scenario", "profile_four_flags"],
    )
    def test_usage_error_exits_1_with_one_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    # Each key with a value its command takes and one it refuses.
    VALUES = {
        "alphas": ("[0.2, 0.5]", "[2]"),
        "trials": ("400", "50"),
        "seed": ("21", "-1"),
        "expected": ("{e0: 0.1, e1: 0.016666666666666666}", "{e0: -1, e1: 0}"),
        "contour": ("{u_min: 0.1}", "{u_min: -1}"),
    }
    READS = {"profile": {"alphas"}, "contour": {"contour"}, "validate": {"trials", "seed", "expected"}}

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_values_a_command_does_not_read_cannot_refuse_it(self, tmp_path, capsys, monkeypatch, command):
        reads = self.READS.get(command, set())
        body = "".join(TWO_AGENT_YAML.splitlines(keepends=True)[:4])

        def run(refused: set[str]) -> tuple[int, str, str]:
            path = tmp_path / "scenario.yaml"
            path.write_text(body + "".join(f"{key}: {self.VALUES[key][key in refused]}\n" for key in self.VALUES))
            return run_cli(capsys, command, *([] if command == "table1" else ["--scenario", str(path)]))

        clean = run(set())
        assert clean[0] == 0
        for key in reads:
            assert run({key})[0] == 1, key
        if command != "validate":
            monkeypatch.setenv("COLLAB_AVG_SEED", "abc")
        assert run(set(self.VALUES) - reads) == clean


# Keys the scenario-file schema knows, so generated documents reach past the
# top-level checks, and values of every YAML type the loader can produce.
SCHEMA_KEYS = (
    "x", "n_x", "y", "n_y", "alphas", "trials", "seed", "k", "scenarios", "expected", "e0", "e1",
    "family", "params", "constant", "union", "n", "mu", "sd", "lo", "hi", "p", "rate", "value",
    "contour", "u_min", "u_max", "v_min", "v_max",
)
YAML_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.sampled_from(["inf", "+inf", "-inf", "normal", "Uniform", "bernoulli", "exponential", "pointmass", ""]),
    st.text(max_size=6),
)
YAML_VALUES = st.recursive(
    YAML_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | YAML_SCALARS.filter(lambda v: v == v), inner, max_size=4),
    max_leaves=10,
)


def _valid_document(helpers: int) -> dict:
    """Two-agent for no helpers, else the union form with that many."""
    side = {"family": "normal", "params": {"mu": 0.0, "sd": 1.0}}
    document = {"x": dict(side), "n_x": 10, "y": dict(side), "n_y": 20, "alphas": [0.2, 0.5], "trials": 400}
    if helpers:
        del document["n_y"]
        document["y"] = {"union": [{**side, "n": 20} for _ in range(helpers)]}
    return document


@st.composite
def scenario_documents(draw) -> str:
    """A scenario file: a valid document with some fields replaced, or any text.

    Half the documents give the helper side in the union form.
    """
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=40))
    document = _valid_document(draw(st.sampled_from([0, 0, 1, 2])))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([(), ("x",), ("y",), ("x", "params"), ("y", "params")]))
        node = document
        for key in path:
            if not isinstance(node.get(key), dict):  # replaced by an earlier draw
                break
            node = node[key]
        node[draw(st.sampled_from(SCHEMA_KEYS))] = draw(YAML_VALUES)
    if draw(st.booleans()):
        document = {"scenarios": [document, draw(YAML_VALUES)]}
    return yaml.safe_dump(document, allow_unicode=True)


class TestScenarioFileFuzz:
    """Every scenario file either runs or exits 1 with one line on stderr; validate may read FAIL (2)."""

    @settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=scenario_documents())
    @example(text="x: {family: normal\n")
    @example(text="x: \x00\n")
    @example(text="x: &a [*a]\n")
    @example(text="seed: 2001-01-01\n")
    @example(text="x: {family: normal, params: {1: 2}}\nn_x: 3\ny: {constant: 0}\n")
    @example(text="x: {constant: 0}\nn_x: 3\nn_x: 4\ny: {constant: 0}\n")
    @example(text="x: {family: normal, params: {mu: 0, sd: 1, sd: 5}}\nn_x: 3\ny: {constant: 0}\n")
    def test_loads_or_exits_1_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.yaml"
        path.write_text(text, encoding="utf-8")
        for argv in (["profile"], ["federate"], ["validate", "--trials", "100"]):
            code, _, err = run_cli(capsys, *argv, "--scenario", str(path))
            assert code in ((0, 1, 2) if argv[0] == "validate" else (0, 1)), err
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, err
