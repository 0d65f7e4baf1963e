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
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any

import yaml

from .distributions import Distribution, PointMass, _load_ndtri, make_distribution
from .federation import Agent, SampledScenario
from .montecarlo import BAND, _check_trials, _draw_plan, _load_sampling
from .theory import ErrorProfile, _check_alpha, _check_count

ENV_SEED = "COLLAB_AVG_SEED"

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0
DEFAULT_ALPHAS = (0.2, 0.5)
DEFAULT_CONTOUR_BOUNDS = (0.01, 100.0, 0.01, 100.0)
GRID_RANGE = (2, 10_001)
DEFAULT_GRID = {"curve": 1001, "contour": 101}  # the commands that take --grid, and its default


class _Loader(yaml.SafeLoader):
    """YAML 1.1 reads ``1e6`` and ``1.0e6`` (no exponent sign) as strings;
    resolve them as floats, as YAML 1.2 does, so numbers are never strings.
    A key written twice in one mapping is refused rather than overridden;
    a merge key (``<<``) keeps its override rule."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue  # the base class refuses it
            if key in seen:
                raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on besides the command name.

    A command's run sets the fields it reads; the others keep their
    defaults. ``expected`` holds each scenario's ``expected`` profile, or
    None.
    """

    scenarios: tuple[SampledScenario, ...] = ()
    expected: tuple[ErrorProfile | None, ...] = ()
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    grid: int | None = None
    out: str | None = None
    contour_bounds: tuple[float, float, float, float] = DEFAULT_CONTOUR_BOUNDS


def _require_mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ValueError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _parse_count(node: Any, where: str, allow_infinite: bool = False) -> int | float:
    if allow_infinite and node in ("inf", "+inf"):
        return math.inf
    _check_count(where, node, allow_infinite)
    return node


def _parse_float(node: Any, where: str) -> float:
    # bool is an int subclass and a quoted "0.5" is a string: neither is a number.
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValueError(f"{where} must be a number, got {node!r}")
    try:
        return float(node)
    except OverflowError as exc:
        raise ValueError(f"{where} is too large for a float") from exc


def _parse_distribution(node: Any, where: str) -> Distribution:
    node = _require_mapping(node, where)
    if "constant" in node:
        return PointMass(_parse_float(node["constant"], f"{where}.constant"))
    if "family" not in node:
        raise ValueError(f"{where} needs a 'family' (or 'constant'/'union') key")
    params = node.get("params", {})
    params = _require_mapping(params, f"{where}.params")
    values = {str(k): _parse_float(v, f"{where}.params.{k}") for k, v in params.items()}
    try:
        return make_distribution(str(node["family"]), **values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _parse_helpers(node: Any, where: str) -> tuple[Agent, ...]:
    if not isinstance(node, list) or not node:
        raise ValueError(f"{where} must be a non-empty list of helper agents")
    helpers = []
    for i, entry in enumerate(node):
        entry = _require_mapping(entry, f"{where}[{i}]")
        if "n" not in entry:
            raise ValueError(f"{where}[{i}] needs an 'n' sample count")
        spec = _parse_distribution({k: v for k, v in entry.items() if k != "n"}, f"{where}[{i}]")
        helpers.append(Agent(spec=spec, n=_parse_count(entry["n"], f"{where}[{i}].n", allow_infinite=True)))
    return tuple(helpers)


def _parse_expected(node: Any, where: str) -> ErrorProfile:
    node = _require_mapping(node, where)
    if "e0" not in node or "e1" not in node:
        raise ValueError(f"{where} needs 'e0' and 'e1'")
    e0 = _parse_float(node["e0"], f"{where}.e0")
    e1 = _parse_float(node["e1"], f"{where}.e1")
    try:
        return ErrorProfile(e0, e1)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _parse_scenario(node: Any, where: str, with_expected: bool) -> tuple[SampledScenario, ErrorProfile | None]:
    node = _require_mapping(node, where)
    if "x" not in node:
        raise ValueError(f"{where} needs an 'x' distribution")
    x = _parse_distribution(node["x"], f"{where}.x")
    if "n_x" not in node:
        raise ValueError(f"{where} needs 'n_x'")
    n_x = _parse_count(node["n_x"], f"{where}.n_x")
    if "y" not in node:
        raise ValueError(f"{where} needs a 'y' side")
    y_node = _require_mapping(node["y"], f"{where}.y")
    expected = None
    if with_expected and "expected" in node:
        expected = _parse_expected(node["expected"], f"{where}.expected")

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
            raise ValueError(f"{where} needs 'n_y' for a sampled y")
    return SampledScenario(x, n_x, y, n_y, tuple(more)), expected


def _resolve_seed(flag_seed: int | None, file_seed: Any) -> int:
    if flag_seed is not None:
        seed = flag_seed
    elif file_seed is not None:
        if isinstance(file_seed, bool) or not isinstance(file_seed, int):
            raise ValueError("seed must be a non-negative integer")
        seed = file_seed
    else:
        env = os.environ.get(ENV_SEED)
        if env is None:
            return DEFAULT_SEED
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def load_run_config(
    command: str,
    scenario: str | None = None,
    *,
    out: str | None = None,
    grid: int | None = None,
    seed: int | None = None,
    trials: int | None = None,
    require_scenario: bool = False,
) -> RunConfig:
    """The configuration of a ``command`` run: its flags and the keys of the
    scenario file at ``scenario`` that it reads.

    ``profile`` reads ``alphas``, ``curve`` and ``contour`` a ``grid``
    checked and defaulted here, and ``contour`` its ``contour`` section; a
    command reads the scenarios when ``require_scenario`` says it needs one,
    and only ``validate`` may have more than one. ``validate`` alone reads
    ``trials``, ``seed`` (then ``$COLLAB_AVG_SEED``) and each scenario's
    ``expected``, refuses a ``k`` (its band is always 4 standard errors),
    and loads what sampling imports (ndtri in any case) here, in set-up,
    rather than in the run or in every forked worker. No command reads
    another's keys, so their values cannot refuse its run.
    """
    data: dict = {}
    if scenario is not None:
        try:
            with open(scenario, "r", encoding="utf-8") as handle:
                loaded = yaml.load(handle, Loader=_Loader)
        except OSError as exc:
            raise ValueError(f"cannot read scenario file: {exc}") from exc
        except yaml.MarkedYAMLError as exc:
            mark = exc.problem_mark
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ValueError(f"scenario file is not valid YAML: {exc.problem or exc.context}{where}") from exc
        except yaml.YAMLError as exc:  # its message spans lines
            raise ValueError(f"scenario file is not valid YAML: {' '.join(str(exc).split())}") from exc
        except RecursionError:
            raise ValueError("scenario file is nested too deeply") from None
        data = _require_mapping(loaded if loaded is not None else {}, "scenario file")
    elif require_scenario:
        raise ValueError("this command requires --scenario <path>")
    validating = command == "validate"
    fields: dict[str, Any] = {"out": out}

    if require_scenario:
        if "scenarios" in data:
            entries = data["scenarios"]
            if not isinstance(entries, list) or not entries:
                raise ValueError("'scenarios' must be a non-empty list")
            parsed = [_parse_scenario(entry, f"scenarios[{i}]", validating) for i, entry in enumerate(entries)]
        elif "x" in data:
            parsed = [_parse_scenario(data, "scenario file", validating)]
        else:
            raise ValueError("scenario file defines no scenario (needs 'x' or 'scenarios')")
        if len(parsed) > 1 and not validating:  # a suite is for validate
            raise ValueError(f"{command} takes one scenario, but the file defines {len(parsed)}")
        fields["scenarios"], fields["expected"] = zip(*parsed)

    if command == "profile":
        alphas_node = data.get("alphas", list(DEFAULT_ALPHAS))
        if not isinstance(alphas_node, list):
            raise ValueError("'alphas' must be a list of numbers in [0, 1]")
        alphas = []
        for value in alphas_node:
            alpha = _parse_float(value, "alpha")
            _check_alpha(alpha)
            alphas.append(alpha)
        fields["alphas"] = tuple(alphas)

    grid = DEFAULT_GRID.get(command) if grid is None else grid
    if grid is not None and not GRID_RANGE[0] <= grid <= GRID_RANGE[1]:
        raise ValueError(f"--grid must be in {GRID_RANGE[0]}..{GRID_RANGE[1]}, got {grid}")
    fields["grid"] = grid

    if command == "contour" and "contour" in data:
        node = _require_mapping(data["contour"], "contour")
        bounds = tuple(
            _parse_float(node.get(name, default), f"contour.{name}")
            for name, default in zip(("u_min", "u_max", "v_min", "v_max"), DEFAULT_CONTOUR_BOUNDS)
        )
        if not all(b > 0 and math.isfinite(b) for b in bounds):
            raise ValueError("contour bounds must be positive and finite")
        if bounds[0] >= bounds[1] or bounds[2] >= bounds[3]:
            raise ValueError("contour bounds must satisfy u_min < u_max and v_min < v_max")
        fields["contour_bounds"] = bounds

    if validating:
        if "k" in data:
            raise ValueError(f"'k' is not a setting: validate's band is always {BAND:g} standard errors")
        fields["trials"] = trials if trials is not None else data.get("trials", DEFAULT_TRIALS)
        _check_trials(fields["trials"])
        fields["seed"] = _resolve_seed(seed, data.get("seed"))
        try:
            _load_ndtri()
            _load_sampling(_draw_plan(fields["scenarios"])[0])
        except ImportError as exc:
            raise ValueError(f"validate needs scipy to sample: {exc}") from None
    return RunConfig(**fields)
