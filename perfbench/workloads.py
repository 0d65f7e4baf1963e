"""Workload definitions: generated inputs, counts expected from them, output checks.

Every workload is a list of collab-avg commands that one pass runs, each in
a fresh child process. Inputs are written as YAML from the benchmark seed;
the program sees only those files. The counts a traced run must reproduce
(uniform draws, transformed draws per family, Monte Carlo trials, output
rows) are derived here from the same inputs, not from the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FAMILIES = ("normal", "exponential", "uniform", "bernoulli", "pointmass")

#: Points on validate's weight grid (``validate_scenario``'s default).
VALIDATE_GRID = 21
#: Rows ``curve`` writes without ``--grid``.
CURVE_GRID = 1001
CONTOUR_GRID = 1001
CONTOUR_BOUNDS = (0.01, 100.0, 0.01, 100.0)
TABLE1_ROWS = 17
TABLE1_MISMATCH_ROWS = ("7", "8")

# c06's fixed Monte Carlo suite: (x family, x params, n_x, y family, y params, n_y).
MC_SUITE = (
    ("normal", {"mu": 0.0, "sd": 1.0}, 5, "normal", {"mu": 0.5, "sd": 1.0}, 20),
    ("normal", {"mu": 1.0, "sd": 2.0}, 20, "pointmass", {"value": 1.0}, 5),
    ("uniform", {"lo": 0.0, "hi": 1.0}, 20, "uniform", {"lo": 0.2, "hi": 1.2}, 100),
    ("bernoulli", {"p": 0.5}, 20, "bernoulli", {"p": 0.6}, 100),
    ("exponential", {"rate": 1.0}, 5, "exponential", {"rate": 0.5}, 20),
    ("pointmass", {"value": 2.0}, 5, "normal", {"mu": 2.0, "sd": 1.0}, 20),
    ("normal", {"mu": 0.0, "sd": 1.0}, 100, "bernoulli", {"p": 0.5}, 100),
    ("uniform", {"lo": -1.0, "hi": 1.0}, 5, "pointmass", {"value": 0.0}, 5),
    ("exponential", {"rate": 2.0}, 100, "uniform", {"lo": 0.0, "hi": 1.0}, 20),
    ("bernoulli", {"p": 0.3}, 5, "exponential", {"rate": 1.0}, 5),
    ("normal", {"mu": -1.0, "sd": 0.5}, 20, "normal", {"mu": 1.0, "sd": 3.0}, 5),
    ("pointmass", {"value": 1.0}, 5, "pointmass", {"value": 1.0}, 5),
)
MC_LONG = (("normal", {"mu": 0.0, "sd": 1.0}, 1000, "exponential", {"rate": 1.0}, 6000),)
MC_MANY_TRIALS = (("normal", {"mu": 0.0, "sd": 1.0}, 2, "uniform", {"lo": 0.0, "hi": 1.0}, 2),)


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    """One collab-avg invocation of a pass; ``--out`` is added per pass."""

    name: str
    args: tuple[str, ...]
    scenario: str | None
    rows: int
    check: Callable[[Path, str], None]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    #: Counts a traced pass should reproduce, derived from the inputs.
    counts: dict[str, int]

    @property
    def draws(self) -> int:
        return self.counts.get("philox.draws", 0)

    @property
    def rows(self) -> int:
        return sum(command.rows for command in self.commands)


def _side_yaml(family: str, params: dict) -> str:
    if family == "pointmass":
        return f"{{constant: {params['value']!r}}}"
    inner = ", ".join(f"{key}: {value!r}" for key, value in params.items())
    return f"{{family: {family}, params: {{{inner}}}}}"


def _scenario_yaml(entry: tuple) -> str:
    x_family, x_params, n_x, y_family, y_params, n_y = entry
    return (
        f"{{x: {_side_yaml(x_family, x_params)}, n_x: {n_x}, "
        f"y: {_side_yaml(y_family, y_params)}, n_y: {n_y}}}"
    )


def _mc_counts(suite: tuple, trials: int) -> dict[str, int]:
    """Uniforms, transformed draws and trials that validating ``suite`` costs.

    A scenario with two constant sides draws nothing. Otherwise every trial
    draws n_x + n_y uniforms, and each sampled side transforms its own n.
    """
    counts = {"philox.draws": 0, "montecarlo.trials": trials * len(suite)}
    counts.update({f"transform.{family}.draws": 0 for family in FAMILIES})
    for x_family, _, n_x, y_family, _, n_y in suite:
        if x_family == y_family == "pointmass":
            continue
        counts["philox.draws"] += trials * (n_x + n_y)
        for family, n in ((x_family, n_x), (y_family, n_y)):
            if family != "pointmass":
                counts[f"transform.{family}.draws"] += trials * n
    return counts


def _check_validate(scenarios: int) -> Callable[[Path, str], None]:
    def check(out: Path, stdout: str) -> None:
        lines = out.read_text(encoding="utf-8").splitlines()
        if not lines or lines[-1] != "overall: PASS":
            raise CheckError(f"validate did not print 'overall: PASS' (last line {lines[-1:]!r})")
        passed = sum(1 for line in lines if line.startswith("scenario ") and ": PASS " in line)
        if passed != scenarios:
            raise CheckError(f"validate passed {passed} of {scenarios} scenarios")

    return check


def _validate_workload(name: str, suite: tuple, trials: int, seed: int) -> Workload:
    body = "\n".join(f"  - {_scenario_yaml(entry)}" for entry in suite)
    scenario = f"trials: {trials}\nseed: {seed}\nscenarios:\n{body}\n"
    command = Command(
        name="validate",
        args=("validate",),
        scenario=scenario,
        rows=len(suite) * (1 + VALIDATE_GRID) + 1,
        check=_check_validate(len(suite)),
    )
    return Workload(name, (command,), _mc_counts(suite, trials))


def _moments(family: str, params: dict) -> tuple[float, float]:
    if family == "normal":
        return params["mu"], params["sd"] ** 2
    if family == "uniform":
        return (params["lo"] + params["hi"]) / 2.0, (params["hi"] - params["lo"]) ** 2 / 12.0
    if family == "bernoulli":
        return params["p"], params["p"] * (1.0 - params["p"])
    if family == "exponential":
        return 1.0 / params["rate"], 1.0 / params["rate"] ** 2
    raise ValueError(family)


def _random_side(rng: random.Random, family: str) -> dict:
    if family == "normal":
        return {"mu": round(rng.uniform(-1.0, 1.0), 6), "sd": round(rng.uniform(0.5, 2.0), 6)}
    if family == "uniform":
        lo = round(rng.uniform(-1.0, 1.0), 6)
        return {"lo": lo, "hi": round(lo + rng.uniform(0.5, 2.0), 6)}
    if family == "bernoulli":
        return {"p": round(rng.uniform(0.1, 0.9), 6)}
    return {"rate": round(rng.uniform(0.5, 2.0), 6)}


def _printed_value(text: str, key: str) -> float:
    prefix = f"{key} = "
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    raise CheckError(f"no '{key}' line in output")


def _check_alpha_star(expected: float) -> Callable[[Path, str], None]:
    def check(out: Path, stdout: str) -> None:
        printed = _printed_value(out.read_text(encoding="utf-8"), "alpha_star")
        if not math.isclose(printed, expected, rel_tol=1e-9):
            raise CheckError(f"alpha_star {printed!r}, independent value {expected!r}")

    return check


def _alpha_star(var_x: float, n_x: int, mu_x: float, mu_y: float, var_y: float, n_y: int) -> float:
    e0 = var_x / n_x
    e1 = (mu_y - mu_x) ** 2 + var_y / n_y
    return e0 / (e0 + e1)


def _check_contour(out: Path, stdout: str) -> None:
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    u_min, u_max, v_min, v_max = CONTOUR_BOUNDS
    u_grid = np.logspace(math.log10(u_min), math.log10(u_max), CONTOUR_GRID)
    v_grid = np.logspace(math.log10(v_min), math.log10(v_max), CONTOUR_GRID)
    u, v = np.meshgrid(u_grid, v_grid, indexing="ij")
    u, v = u.ravel(), v.ravel()
    if data.shape != (u.size, 3):
        raise CheckError(f"contour wrote {data.shape} values, expected {(u.size, 3)}")
    if not (np.array_equal(data[:, 0], u) and np.array_equal(data[:, 1], v)):
        raise CheckError("contour grid columns differ from the log-spaced grid")
    alpha = 1.0 / (1.0 + 1.0 / u + 1.0 / v)
    worst = float(np.max(np.abs(data[:, 2] - alpha) / alpha))
    if worst > 1e-12:
        raise CheckError(f"contour alpha_star off by {worst:.3g} relative")


def _check_table1(out: Path, stdout: str) -> None:
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    flagged = tuple(line.split(",", 1)[0] for line in lines if line.endswith(",Mismatch"))
    if len(lines) != TABLE1_ROWS or flagged != TABLE1_MISMATCH_ROWS:
        raise CheckError(f"table1 wrote {len(lines)} rows flagging {flagged}, expected rows 7 and 8")


def _check_curve(out: Path, stdout: str) -> None:
    lines = out.read_text(encoding="utf-8").splitlines()
    if lines[:2] != ["alpha,ese_ratio,lower_bound,upper_bound_segment", "0.0,1.0,1.0,1.0"]:
        raise CheckError(f"curve starts {lines[:2]!r}")


def _closed_form(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    x = _random_side(rng, "normal")
    n_x = rng.randint(5, 100)
    y = _random_side(rng, "normal")
    n_y = rng.randint(5, 200)
    two_agent = _scenario_yaml(("normal", x, n_x, "normal", y, n_y)) + "\n"
    profile_alpha = _alpha_star(x["sd"] ** 2, n_x, x["mu"], y["mu"], y["sd"] ** 2, n_y)

    helpers = []
    for i in range(8):
        family = ("normal", "uniform", "bernoulli", "exponential")[i % 4]
        helpers.append((family, _random_side(rng, family), rng.randint(5, 100)))
    pooled = sum(n for _, _, n in helpers)
    moments = [(_moments(family, params), n) for family, params, n in helpers]
    mu_y = math.fsum(n * mu for (mu, _), n in moments) / pooled
    var_y = math.fsum(n * var for (_, var), n in moments) / pooled
    federate_alpha = _alpha_star(x["sd"] ** 2, n_x, x["mu"], mu_y, var_y, pooled)
    union = "\n".join(
        f"    - {{{_side_yaml(family, params)[1:-1]}, n: {n}}}" for family, params, n in helpers
    )
    federation = f"x: {_side_yaml('normal', x)}\nn_x: {n_x}\ny:\n  union:\n{union}\n"

    commands = (
        Command("contour", ("contour", "--grid", str(CONTOUR_GRID)), None,
                CONTOUR_GRID**2 + 1, _check_contour),
        Command("curve", ("curve",), two_agent, CURVE_GRID + 1, _check_curve),
        # CSV with header, then a 3-line report on stdout.
        Command("table1", ("table1",), None, TABLE1_ROWS + 1 + 3, _check_table1),
        # 7 profile lines, 2 bounds, max_ese and the 2 default weights.
        Command("profile", ("profile",), two_agent, 12, _check_alpha_star(profile_alpha)),
        Command("federate", ("federate",), federation, 8, _check_alpha_star(federate_alpha)),
    )
    return Workload(name, commands, _mc_counts((), 0))


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs generated from ``seed``."""
    if name == "mc_suite":
        return _validate_workload(name, MC_SUITE, 100_000, seed)
    if name == "mc_long":
        return _validate_workload(name, MC_LONG, 2_000, seed)
    if name == "mc_many_trials":
        return _validate_workload(name, MC_MANY_TRIALS, 2_000_000, seed)
    if name == "closed_form":
        return _closed_form(name, seed)
    raise KeyError(name)
