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
import mmap
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from ._philox import uniform_matrix
from ._workers import _fill_in_workers, cpu_count
from .distributions import Distribution, Normal, PointMass, SeedSpec, _load_ndtri
from .theory import ErrorProfile, Scenario, _check_count, error_profile, ese_of_alpha

#: Target number of scalar draws generated per chunk. Sized so that the
#: sampler's work arrays stay in a per-core L2 cache; output does not depend
#: on it.
_CHUNK_DRAWS = 65_536

#: ``trial_means`` forks workers only from this many drawn uniforms on.
#: Measured on a 2-core Xeon (numpy 2.4.6): a fork and wait cost 3.1-3.3 ms
#: with ndtri and numpy.random loaded, as ``validate`` has them (4.3-4.5 ms
#: with all of scipy.special); two workers lost to one at 100k draws and
#: won by 1.2-1.6x from 400k draws on, at 4, 25 and 120 draws per trial.
_PARALLEL_MIN_DRAWS = 500_000

#: Trials per slice of the curve statistics: at least 128 (see
#: ``_pairwise_sum``), and small enough that the two means slices and the two
#: scratch arrays share a per-core L2 cache. Measured serially on a 2-core
#: Xeon (numpy 2.4.6, 2M trials x 21 weights, median of 6): 0.167 s at
#: 16,384, 0.154 s at 32,768, 0.164 s at 65,536 and 0.29 s at 131,072;
#: two whole trial-length buffers took 0.30 s.
_SUM_LEAF = 32_768

#: The curve statistics fork workers only from this many trials x weights
#: on. Same machine, 21 weights, scipy loaded: two workers took 1.1-1.25x
#: the serial time at 2M, 0.81-0.84x at 4M and 0.68-0.84x at 8M.
_PARALLEL_MIN_CURVE = 4_000_000

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
        self.to_scenario()  # Scenario validates the counts and moments

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
    """Per-trial empirical means (xbar_t, ybar_t) for t = 0 .. trials-1.

    Calls that draw at least ``_PARALLEL_MIN_DRAWS`` uniforms split their
    chunks over one forked worker per CPU the process may run on; each
    row's mean does not depend on the split, so neither does any byte.
    """
    seed = _as_seed(seed)
    _check_count("n_x", n_x)
    if isinstance(n_y, float) and math.isinf(n_y):
        raise ValueError("infinite n_y cannot be simulated; use the closed form")
    _check_count("n_y", n_y)
    # A point mass consumes no randomness: only the random side's index
    # range is generated, and the constant side's slots stay reserved so
    # the other agent's draw indices do not shift.
    x_const = isinstance(x, PointMass)
    y_const = isinstance(y, PointMass)
    if x_const:
        start, count = n_x, n_y
    elif y_const:
        start, count = 0, n_x
    else:
        start, count = 0, n_x + n_y
    chunk = max(1, _CHUNK_DRAWS // count)
    n_chunks = -(-trials // chunk)
    workers = 1
    if trials * count >= _PARALLEL_MIN_DRAWS:
        workers = min(cpu_count(), n_chunks)
    if workers > 1:
        try:
            means = np.frombuffer(mmap.mmap(-1, 16 * trials), np.float64).reshape(2, trials)
        except (OSError, OverflowError):
            workers = 1  # numpy's own allocation below reports a size it cannot make
    if workers > 1:
        # What sampling imports is loaded here, once, rather than in every
        # worker: numpy.random (the long-stream Philox path) and ndtri.
        import numpy.random  # noqa: F401

        if isinstance(x, Normal) or isinstance(y, Normal):
            _load_ndtri()
    if workers == 1:
        means = np.empty((2, trials), dtype=np.float64)
    xbar, ybar = means
    if x_const:
        xbar.fill(float(x.value))
    if y_const:
        ybar.fill(float(y.value))
    if x_const and y_const:
        return xbar, ybar

    def fill(lo: int, hi: int) -> None:
        for c_lo in range(lo, hi, chunk):
            c_hi = min(c_lo + chunk, hi)
            u = uniform_matrix(seed.master_seed, seed.stream_id + c_lo, c_hi - c_lo, count, start)
            if not x_const:
                xbar[c_lo:c_hi] = x._from_uniforms(u[:, :n_x]).mean(axis=1)
            if not y_const:
                ybar[c_lo:c_hi] = y._from_uniforms(u[:, count - n_y :]).mean(axis=1)

    # Whole chunks per worker, so no chunk boundary moves.
    bounds = [n_chunks * w // workers * chunk for w in range(workers)] + [trials]
    _fill_in_workers(fill, bounds)
    return xbar, ybar


T = TypeVar("T")


def _pairwise_sum(leaf_sum: Callable[[int, int], T], lo: int, hi: int, leaf: int) -> T:
    """``leaf_sum`` over ``lo .. hi``, added up as numpy's pairwise sum would.

    numpy's ``add.reduce`` sums a run of ``n > 128`` elements as the sum of
    its first ``n//2 - (n//2) % 8`` elements plus the sum of the rest, each
    half split the same way, and a run of at most 128 elements with eight
    unrolled accumulators. This walks that tree down to nodes of at most
    ``leaf >= 128`` elements, calls ``leaf_sum(node_lo, node_hi)`` on each
    in order and adds the results back up the tree. A ``leaf_sum`` that
    returns ``np.add.reduce`` of its range therefore gives numpy's bits
    exactly, from leaf-sized scratch; one returning an array sums each
    entry.
    """
    n = hi - lo
    if n <= leaf:
        return leaf_sum(lo, hi)
    mid = lo + n // 2 - (n // 2) % 8
    return _pairwise_sum(leaf_sum, lo, mid, leaf) + _pairwise_sum(leaf_sum, mid, hi, leaf)


def _estimates_from_means(
    xbar: np.ndarray,
    ybar: np.ndarray,
    alphas: list[float],
    mu_x: float,
    seed: SeedSpec,
) -> list[MonteCarloEstimate]:
    """Mean squared error and its standard error at each weight.

    The trials are taken in slices of at most ``_SUM_LEAF`` along numpy's
    pairwise-sum tree, every weight per slice, so the scratch memory is
    two slices whatever the trial count. Each slice's squared errors are
    computed as ``(1 - alpha) * xbar + alpha * ybar - mu_x``, squared, and
    the sums follow numpy's ``mean`` and ``std(ddof=1)`` operation for
    operation, so the results are bitwise those of ``sq.mean()`` and
    ``sq.std(ddof=1)``. From ``_PARALLEL_MIN_CURVE`` trials x weights on,
    the weights are split over one forked worker per CPU.
    """
    trials = xbar.size
    workers = 1
    if trials * len(alphas) >= _PARALLEL_MIN_CURVE:
        workers = min(cpu_count(), len(alphas))
    # Row w holds weight w's (mean, std); a small shared buffer when forked.
    if workers > 1:
        stats = np.frombuffer(mmap.mmap(-1, 16 * len(alphas))).reshape(-1, 2)
    else:
        stats = np.empty((len(alphas), 2))

    def fill(w_lo: int, w_hi: int) -> None:
        weights = alphas[w_lo:w_hi]
        err = np.empty(min(trials, _SUM_LEAF))
        sq = np.empty_like(err)

        def squared_errors(lo: int, hi: int, alpha: float) -> np.ndarray:
            e, q = err[: hi - lo], sq[: hi - lo]
            np.multiply(xbar[lo:hi], 1.0 - alpha, out=e)
            np.multiply(ybar[lo:hi], alpha, out=q)
            np.add(e, q, out=e)
            np.subtract(e, mu_x, out=e)
            np.square(e, out=q)
            return q

        def sums(lo: int, hi: int) -> np.ndarray:
            return np.array([np.add.reduce(squared_errors(lo, hi, alpha)) for alpha in weights])

        mean = _pairwise_sum(sums, 0, trials, _SUM_LEAF) / trials

        def deviations(lo: int, hi: int) -> np.ndarray:
            out = []
            for alpha, m in zip(weights, mean):
                q = squared_errors(lo, hi, alpha)
                np.subtract(q, m, out=q)
                np.square(q, out=q)
                out.append(np.add.reduce(q))
            return np.array(out)

        stats[w_lo:w_hi, 0] = mean
        stats[w_lo:w_hi, 1] = np.sqrt(_pairwise_sum(deviations, 0, trials, _SUM_LEAF) / (trials - 1))

    # Squared errors can overflow a float; the point then reads FAIL, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        _fill_in_workers(fill, [len(alphas) * w // workers for w in range(workers)] + [len(alphas)])
    return [
        MonteCarloEstimate(
            mean_sq_error=float(mean),
            std_error=float(std) / math.sqrt(trials),
            trials=trials,
            seed=seed,
        )
        for mean, std in stats
    ]


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
    bitwise identical to a one-weight grid at that weight and seed.
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
        # A non-finite estimate or standard error never agrees: inf <= inf.
        finite = math.isfinite(estimate.mean_sq_error) and math.isfinite(estimate.std_error)
        points.append(
            ValidationPoint(
                alpha=float(alpha),
                closed_form=closed,
                estimate=estimate,
                limit=limit,
                passed=finite and deviation <= limit,
            )
        )
    return ValidationReport(points=tuple(points), k=k, trials=trials, seed=seed)
