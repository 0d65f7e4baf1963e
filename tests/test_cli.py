"""End-to-end command-line behaviour: formats, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import subprocess
import sys
import tracemalloc

import pytest

from collab_avg import cli
from collab_avg.cli import main
from collab_avg.theory import Scenario, error_profile, ese_of_alpha

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


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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

    def test_memory_is_linear_in_grid(self, tmp_path, capsys):
        # A 401 x 401 grid is 160k rows (~9 MB of CSV); streaming one u-row
        # at a time keeps the traced peak to a few rows' worth.
        out_path = tmp_path / "contour.csv"
        tracemalloc.start()
        try:
            code = main(["contour", "--grid", "401", "--out", str(out_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
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

    @pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
    def test_non_finite_k_is_invalid(self, tmp_path, capsys, k):
        # The expected profile is deliberately wrong: an unbounded band
        # would turn it into PASS, a NaN band into FAIL at every point.
        path = tmp_path / "wrong.yaml"
        path.write_text(
            "x: {family: bernoulli, params: {p: 0.5}}\n"
            "n_x: 20\n"
            "y: {constant: 0.5}\n"
            "trials: 1000\n"
            "expected: {e0: 5.0, e1: 5.0}\n"
        )
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), f"--k={k}")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "k must be finite" in err

    def test_trials_below_oracle_minimum_rejected_by_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(DEGENERATE_YAML)
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), "--trials", "99")
        assert code == 1
        assert out == ""
        assert err == "error: trials must be an integer >= 100\n"
        code, out, _ = run_cli(capsys, "validate", "--scenario", str(path), "--trials", "100")
        assert code == 0
        assert "trials=100" in out

    def test_infinite_helper_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "inf.yaml"
        path.write_text(
            "x: {family: normal, params: {mu: 0, sd: 1}}\n"
            "n_x: 5\n"
            "y: {family: normal, params: {mu: 0, sd: 1}}\n"
            "n_y: inf\n"
            "trials: 200\n"
        )
        code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 1
        assert "closed form" in err

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

    def test_two_agent_file_is_invalid_here(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(TWO_AGENT_YAML)
        code, _, err = run_cli(capsys, "federate", "--scenario", str(path))
        assert code == 1
        assert "union" in err


class TestCommonBehaviour:
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

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--scenario", "/nonexistent.yaml")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "text,field",
        [
            ("x: {family: normal, params: {mu: [1], sd: 1.0}}\n", "scenario file.x.params.mu"),
            ("x: {constant: {value: 1}}\n", "scenario file.x.constant"),
            ("x: {family: normal, params: {mu: 0.0, sd: abc}}\n", "scenario file.x.params.sd"),
            ("x: {constant: 1.0}\nexpected: {e0: [1], e1: 0.5}\n", "scenario file.expected.e0"),
            ("x: {constant: 1.0}\nalphas: [[0.5]]\n", "alpha"),
            ("x: {constant: 1.0}\nk: [4]\n", "k"),
            ("x: {constant: true}\n", "scenario file.x.constant"),
            ('x: {family: normal, params: {mu: "0.5", sd: 1.0}}\n', "scenario file.x.params.mu"),
            ("x: {constant: 1.0}\nalphas: [yes]\n", "alpha"),
            ("x: {constant: 1.0}\ncontour: {u_min: true}\n", "contour.u_min"),
            ('x: {constant: 1.0}\ncontour: {u_min: "0.5"}\n', "contour.u_min"),
        ],
        ids=[
            "param_list",
            "constant_mapping",
            "param_string",
            "expected_list",
            "alpha_list",
            "k_list",
            "constant_bool",
            "param_quoted",
            "alpha_bool",
            "contour_bool",
            "contour_quoted",
        ],
    )
    def test_non_numeric_value_exits_1(self, tmp_path, capsys, text, field):
        path = tmp_path / "scenario.yaml"
        path.write_text(text + "n_x: 5\ny: {constant: 0.0}\n")
        code, out, err = run_cli(capsys, "profile", "--scenario", str(path))
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

    # 2**58 float64 values are 2 EiB, beyond any virtual address space, so
    # the first allocation fails at once and nothing is ever allocated or run.
    @pytest.mark.parametrize(
        "n_x,flags",
        [(5, ["--trials", str(2**58)]), (2**58, [])],
        ids=["trials", "sample_size"],
    )
    def test_too_large_to_allocate_exits_1(self, tmp_path, capsys, n_x, flags):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            f"x: {{family: normal, params: {{mu: 0.0, sd: 1.0}}}}\nn_x: {n_x}\n"
            "y: {constant: 0.0}\ntrials: 100\n"
        )
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: Unable to allocate")
        assert err.count("\n") == 1

    def test_bad_yaml_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("x: {family: normal\n")
        code, _, err = run_cli(capsys, "profile", "--scenario", str(path))
        assert code == 1
        assert "YAML" in err
