"""Simulation oracle for the weighted-average estimator.

Estimates the expected squared error of ``(1-alpha)*xbar + alpha*ybar`` by
repeated sampling and compares it against the closed forms in
:mod:`collab_avg.theory`. Trial ``t`` draws from stream
``(master_seed, stream_id + t)``: the local samples occupy draw indices
``0 .. n_x-1`` and the helper samples ``n_x .. n_x+n_y-1``, so results are
bit-reproducible no matter how trials are chunked or distributed.

Common random numbers: a whole error curve reuses the same per-trial means
across all weights, which keeps curve-shape comparisons (argmin location,
convexity) tight at moderate trial counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._philox import uniform_matrix
from .distributions import Distribution, PointMass, SeedSpec
from .theory import ErrorProfile, Scenario, error_profile, ese_of_alpha

#: Target number of scalar draws generated per chunk. Sized so that the
#: sampler's work arrays stay in a per-core L2 cache; output does not depend
#: on it.
_CHUNK_DRAWS = 65_536

_MIN_TRIALS = 100


@dataclass(frozen=True)
class SampledScenario:
    """A two-agent scenario realized by concrete distributions."""

    x: Distribution
    n_x: int
    y: Distribution
    n_y: int | float

    def __post_init__(self) -> None:
        if not isinstance(self.x, Distribution) or not isinstance(self.y, Distribution):
            raise ValueError("x and y must be Distribution instances")
        _check_count("n_x", self.n_x, allow_infinite=False)
        _check_count("n_y", self.n_y, allow_infinite=True)

    def to_scenario(self) -> Scenario:
        """The moment-level scenario induced by the exact moments."""
        return Scenario(
            mu_x=self.x.mean(),
            var_x=self.x.variance(),
            n_x=self.n_x,
            mu_y=self.y.mean(),
            var_y=self.y.variance(),
            n_y=self.n_y,
        )


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Simulated ESE with its standard error and seed provenance."""

    mean_sq_error: float
    std_error: float
    trials: int
    seed: SeedSpec


@dataclass(frozen=True)
class ValidationPoint:
    alpha: float
    closed_form: float
    estimate: MonteCarloEstimate
    limit: float
    passed: bool

    @property
    def deviation(self) -> float:
        return abs(self.estimate.mean_sq_error - self.closed_form)


@dataclass(frozen=True)
class ValidationReport:
    """Per-weight agreement between simulation and closed form."""

    points: tuple[ValidationPoint, ...]
    k: float
    trials: int
    seed: SeedSpec

    @property
    def passed(self) -> bool:
        return all(point.passed for point in self.points)


def _check_count(name: str, n: int | float, allow_infinite: bool) -> None:
    if isinstance(n, int) and not isinstance(n, bool) and n >= 1:
        return
    if allow_infinite and isinstance(n, float) and math.isinf(n) and n > 0:
        return
    kind = "a positive integer or math.inf" if allow_infinite else "a positive integer"
    raise ValueError(f"{name} must be {kind}, got {n!r}")


def _as_seed(seed: SeedSpec | int) -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(seed)


def trial_means(
    x: Distribution,
    n_x: int,
    y: Distribution,
    n_y: int,
    trials: int,
    seed: SeedSpec | int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial empirical means (xbar_t, ybar_t) for t = 0 .. trials-1."""
    seed = _as_seed(seed)
    _check_count("n_x", n_x, allow_infinite=False)
    if isinstance(n_y, float) and math.isinf(n_y):
        raise ValueError("infinite n_y cannot be simulated; use the closed form")
    _check_count("n_y", n_y, allow_infinite=False)
    xbar = np.empty(trials, dtype=np.float64)
    ybar = np.empty(trials, dtype=np.float64)
    # A point mass consumes no randomness: only the random side's index
    # range is generated, and the constant side's slots stay reserved so
    # the other agent's draw indices do not shift.
    x_const = isinstance(x, PointMass)
    y_const = isinstance(y, PointMass)
    if x_const:
        xbar.fill(float(x.value))
    if y_const:
        ybar.fill(float(y.value))
    if x_const and y_const:
        return xbar, ybar
    if x_const:
        start, count = n_x, n_y
    elif y_const:
        start, count = 0, n_x
    else:
        start, count = 0, n_x + n_y
    chunk = max(1, _CHUNK_DRAWS // count)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        u = uniform_matrix(seed.master_seed, seed.stream_id + lo, hi - lo, count, start)
        if not x_const:
            xbar[lo:hi] = x._from_uniforms(u[:, :n_x]).mean(axis=1)
        if not y_const:
            ybar[lo:hi] = y._from_uniforms(u[:, count - n_y :]).mean(axis=1)
    return xbar, ybar


def _estimates_from_means(
    xbar: np.ndarray,
    ybar: np.ndarray,
    alphas: list[float],
    mu_x: float,
    seed: SeedSpec,
) -> list[MonteCarloEstimate]:
    """Mean squared error and its standard error at each weight.

    Two trial-length buffers are reused across weights. The sums follow
    numpy's ``mean`` and ``std(ddof=1)`` operation for operation, so the
    results are bitwise those of ``sq.mean()`` and ``sq.std(ddof=1)``.
    """
    trials = xbar.size
    err = np.empty(trials, dtype=np.float64)
    sq = np.empty(trials, dtype=np.float64)
    estimates = []
    for alpha in alphas:
        # err = (1 - alpha) * xbar + alpha * ybar - mu_x; sq = err**2
        np.multiply(xbar, 1.0 - alpha, out=err)
        np.multiply(ybar, alpha, out=sq)
        np.add(err, sq, out=err)
        np.subtract(err, mu_x, out=err)
        np.square(err, out=sq)
        mean = np.add.reduce(sq) / trials
        np.subtract(sq, mean, out=err)
        np.square(err, out=err)
        std = math.sqrt(np.add.reduce(err) / (trials - 1))
        estimates.append(
            MonteCarloEstimate(
                mean_sq_error=float(mean),
                std_error=std / math.sqrt(trials),
                trials=trials,
                seed=seed,
            )
        )
    return estimates


def estimate_ese(
    x: Distribution,
    n_x: int,
    y: Distribution,
    n_y: int,
    alpha: float,
    trials: int,
    seed: SeedSpec | int,
) -> MonteCarloEstimate:
    """Simulate the ESE of the weighted average at one weight.

    Each trial draws fresh samples for both agents, combines their means
    with weight ``alpha`` and records the squared error against the exact
    local mean; reported is the average with its standard error.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    _check_trials(trials)
    seed = _as_seed(seed)
    xbar, ybar = trial_means(x, n_x, y, n_y, trials, seed)
    return _estimates_from_means(xbar, ybar, [alpha], x.mean(), seed)[0]


def estimate_error_curve(
    x: Distribution,
    n_x: int,
    y: Distribution,
    n_y: int,
    alphas: list[float] | np.ndarray,
    trials: int,
    seed: SeedSpec | int,
) -> list[MonteCarloEstimate]:
    """Simulated ESE over a grid of weights with common random numbers.

    Every grid point reuses the same per-trial draws, so each entry is
    bitwise identical to a standalone :func:`estimate_ese` call at that
    weight and seed.
    """
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    _check_trials(trials)
    seed = _as_seed(seed)
    xbar, ybar = trial_means(x, n_x, y, n_y, trials, seed)
    return _estimates_from_means(xbar, ybar, alphas, x.mean(), seed)


def _check_trials(trials: int) -> None:
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < _MIN_TRIALS:
        raise ValueError(f"trials must be an integer >= {_MIN_TRIALS}, got {trials!r}")


def validate_scenario(
    scenario: SampledScenario,
    trials: int,
    seed: SeedSpec | int,
    k: float = 4.0,
    grid_points: int = 21,
    expected: ErrorProfile | None = None,
) -> ValidationReport:
    """Check simulation against closed form on a fixed weight grid.

    Each of the ``grid_points`` equally spaced weights passes when
    ``|simulated - closed_form| <= k * std_error``. ``expected`` overrides
    the closed-form reference profile (diagnostics; the default recomputes
    it from the scenario's exact moments).
    """
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"k must be finite and > 0, got {k!r}")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    seed = _as_seed(seed)
    profile = expected if expected is not None else error_profile(scenario.to_scenario())
    alphas = np.linspace(0.0, 1.0, grid_points)
    estimates = estimate_error_curve(
        scenario.x, scenario.n_x, scenario.y, scenario.n_y, alphas, trials, seed
    )
    points = []
    for alpha, estimate in zip(alphas, estimates):
        closed = ese_of_alpha(profile, float(alpha))
        limit = k * estimate.std_error
        deviation = abs(estimate.mean_sq_error - closed)
        points.append(
            ValidationPoint(
                alpha=float(alpha),
                closed_form=closed,
                estimate=estimate,
                limit=limit,
                passed=deviation <= limit,
            )
        )
    return ValidationReport(points=tuple(points), k=k, trials=trials, seed=seed)
