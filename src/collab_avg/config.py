"""Scenario-file parsing and run configuration.

Scenario files are YAML mappings. The two-agent form names both data
sources directly; the helper side may instead be a plain constant or a
union of helper agents (a federation):

    x: {family: normal, params: {mu: 0.0, sd: 1.0}}
    n_x: 10
    y: {family: normal, params: {mu: 0.5, sd: 1.0}}   # or {constant: 0.5}
    n_y: 10                                            # "inf" accepted, -inf rejected
    alphas: [0.0, 0.2, 0.5]
    trials: 100000
    seed: 42

    # union form:
    # y: {union: [{family: normal, params: {mu: 0, sd: 1}, n: 10}, ...]}

A ``scenarios:`` list of such mappings defines a validation suite. Every
run is fully determined by the parsed configuration plus the seed.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import yaml

from .distributions import Distribution, PointMass, make_distribution
from .federation import Agent, SampledScenario
from .montecarlo import _check_k, _check_trials, _draw_plan, _load_sampling
from .theory import ErrorProfile, _check_alpha, _check_count

ENV_SEED = "COLLAB_AVG_SEED"

DEFAULT_TRIALS = 100_000
DEFAULT_K = 4.0
DEFAULT_SEED = 0
DEFAULT_ALPHAS = (0.2, 0.5)
DEFAULT_CONTOUR_BOUNDS = (0.01, 100.0, 0.01, 100.0)
GRID_RANGE = (2, 10_001)


class _Loader(yaml.SafeLoader):
    """YAML 1.1 reads ``1e6`` and ``1.0e6`` (no exponent sign) as strings;
    resolve them as floats, as YAML 1.2 does, so numbers are never strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


class ConfigError(ValueError):
    """The scenario file or flags violate the expected schema."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on besides the command name.

    ``expected`` holds each scenario's ``expected`` profile, or None.
    """

    scenarios: tuple[SampledScenario, ...]
    expected: tuple[ErrorProfile | None, ...]
    alphas: tuple[float, ...]
    trials: int
    seed: int
    k: float
    grid: int | None
    out: str | None
    contour_bounds: tuple[float, float, float, float]


def _require_mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _checked(check: Callable[..., None], *args: Any) -> None:
    """Run one of the library's argument checks; its ValueError becomes a ConfigError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_count(node: Any, where: str, allow_infinite: bool = False) -> int | float:
    if allow_infinite and node in ("inf", "+inf"):
        return math.inf
    _checked(_check_count, where, node, allow_infinite)
    return node


def _parse_float(node: Any, where: str) -> float:
    # bool is an int subclass and a quoted "0.5" is a string: neither is a number.
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{where} must be a number, got {node!r}")
    try:
        return float(node)
    except OverflowError as exc:
        raise ConfigError(f"{where} is too large for a float") from exc


def _parse_distribution(node: Any, where: str) -> Distribution:
    node = _require_mapping(node, where)
    if "constant" in node:
        return PointMass(_parse_float(node["constant"], f"{where}.constant"))
    if "family" not in node:
        raise ConfigError(f"{where} needs a 'family' (or 'constant'/'union') key")
    params = node.get("params", {})
    params = _require_mapping(params, f"{where}.params")
    values = {str(k): _parse_float(v, f"{where}.params.{k}") for k, v in params.items()}
    try:
        return make_distribution(str(node["family"]), **values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_helpers(node: Any, where: str) -> tuple[Agent, ...]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where} must be a non-empty list of helper agents")
    helpers = []
    for i, entry in enumerate(node):
        entry = _require_mapping(entry, f"{where}[{i}]")
        if "n" not in entry:
            raise ConfigError(f"{where}[{i}] needs an 'n' sample count")
        spec = _parse_distribution({k: v for k, v in entry.items() if k != "n"}, f"{where}[{i}]")
        helpers.append(Agent(spec=spec, n=_parse_count(entry["n"], f"{where}[{i}].n")))
    return tuple(helpers)


def _parse_expected(node: Any, where: str) -> ErrorProfile:
    node = _require_mapping(node, where)
    if "e0" not in node or "e1" not in node:
        raise ConfigError(f"{where} needs 'e0' and 'e1'")
    e0 = _parse_float(node["e0"], f"{where}.e0")
    e1 = _parse_float(node["e1"], f"{where}.e1")
    try:
        return ErrorProfile(e0, e1)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_scenario(node: Any, where: str) -> tuple[SampledScenario, ErrorProfile | None]:
    node = _require_mapping(node, where)
    if "x" not in node:
        raise ConfigError(f"{where} needs an 'x' distribution")
    x = _parse_distribution(node["x"], f"{where}.x")
    if "n_x" not in node:
        raise ConfigError(f"{where} needs 'n_x'")
    n_x = _parse_count(node["n_x"], f"{where}.n_x")
    if "y" not in node:
        raise ConfigError(f"{where} needs a 'y' side")
    y_node = _require_mapping(node["y"], f"{where}.y")
    expected = _parse_expected(node["expected"], f"{where}.expected") if "expected" in node else None

    if "union" in y_node:
        first, *more = _parse_helpers(y_node["union"], f"{where}.y.union")
        y, n_y = first.spec, first.n
    else:
        y, more = _parse_distribution(y_node, f"{where}.y"), ()
        if "n_y" in node:
            n_y = _parse_count(node["n_y"], f"{where}.n_y", allow_infinite=True)
        elif isinstance(y, PointMass):
            n_y = 1  # a constant helper has a zero-variance mean at any count
        else:
            raise ConfigError(f"{where} needs 'n_y' for a sampled y")
    return SampledScenario(x, n_x, y, n_y, tuple(more)), expected


def _resolve_seed(flag_seed: int | None, file_seed: Any) -> int:
    if flag_seed is not None:
        seed = flag_seed
    elif file_seed is not None:
        if isinstance(file_seed, bool) or not isinstance(file_seed, int):
            raise ConfigError("seed must be a non-negative integer")
        seed = file_seed
    else:
        env = os.environ.get(ENV_SEED)
        if env is None:
            return DEFAULT_SEED
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    return seed


def load_run_config(
    scenario_path: str | None,
    *,
    seed: int | None = None,
    trials: int | None = None,
    k: float | None = None,
    grid: int | None = None,
    out: str | None = None,
    require_scenario: bool = False,
    sampling: bool = False,
) -> RunConfig:
    """Combine a scenario file (optional) with flag overrides.

    ``sampling`` says the command will sample the scenarios: what that
    imports (ndtri in any case) is loaded here, in set-up, rather than in
    the run or in every forked worker.
    """
    data: dict = {}
    if scenario_path is not None:
        try:
            with open(scenario_path, "r", encoding="utf-8") as handle:
                loaded = yaml.load(handle, Loader=_Loader)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file: {exc}") from exc
        except yaml.MarkedYAMLError as exc:
            mark = exc.problem_mark
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ConfigError(f"scenario file is not valid YAML: {exc.problem or exc.context}{where}") from exc
        except yaml.YAMLError as exc:  # its message spans lines
            raise ConfigError(f"scenario file is not valid YAML: {' '.join(str(exc).split())}") from exc
        except RecursionError:
            raise ConfigError("scenario file is nested too deeply") from None
        data = _require_mapping(loaded if loaded is not None else {}, "scenario file")
    elif require_scenario:
        raise ConfigError("this command requires --scenario <path>")

    parsed: list[tuple[SampledScenario, ErrorProfile | None]] = []
    if "scenarios" in data:
        entries = data["scenarios"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("'scenarios' must be a non-empty list")
        for i, entry in enumerate(entries):
            parsed.append(_parse_scenario(entry, f"scenarios[{i}]"))
    elif "x" in data:
        parsed.append(_parse_scenario(data, "scenario file"))
    elif require_scenario:
        raise ConfigError("scenario file defines no scenario (needs 'x' or 'scenarios')")
    scenarios, expected = tuple(zip(*parsed)) or ((), ())

    alphas_node = data.get("alphas", list(DEFAULT_ALPHAS))
    if not isinstance(alphas_node, list):
        raise ConfigError("'alphas' must be a list of numbers in [0, 1]")
    alphas = []
    for value in alphas_node:
        alpha = _parse_float(value, "alpha")
        _checked(_check_alpha, alpha)
        alphas.append(alpha)

    trials_value = trials if trials is not None else data.get("trials", DEFAULT_TRIALS)
    _checked(_check_trials, trials_value)
    k_value = _parse_float(k if k is not None else data.get("k", DEFAULT_K), "k")
    _checked(_check_k, k_value)

    if grid is not None and not GRID_RANGE[0] <= grid <= GRID_RANGE[1]:
        raise ConfigError(f"--grid must be in {GRID_RANGE[0]}..{GRID_RANGE[1]}, got {grid}")

    bounds = DEFAULT_CONTOUR_BOUNDS
    if "contour" in data:
        node = _require_mapping(data["contour"], "contour")
        bounds = tuple(
            _parse_float(node.get(name, default), f"contour.{name}")
            for name, default in zip(("u_min", "u_max", "v_min", "v_max"), DEFAULT_CONTOUR_BOUNDS)
        )
        if not all(b > 0 and math.isfinite(b) for b in bounds):
            raise ConfigError("contour bounds must be positive and finite")
        if bounds[0] >= bounds[1] or bounds[2] >= bounds[3]:
            raise ConfigError("contour bounds must satisfy u_min < u_max and v_min < v_max")

    if sampling:
        try:
            _load_sampling(_draw_plan(scenarios)[0], ndtri=True)
        except ImportError as exc:
            raise ConfigError(f"validate needs scipy to sample: {exc}") from None
    return RunConfig(
        scenarios=scenarios,
        expected=expected,
        alphas=tuple(alphas),
        trials=trials_value,
        seed=_resolve_seed(seed, data.get("seed")),
        k=k_value,
        grid=grid,
        out=out,
        contour_bounds=bounds,
    )
