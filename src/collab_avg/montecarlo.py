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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from ._philox import _C_MIN_DRAWS, uniform_matrix
from ._workers import _fill_in_workers, cpu_count
from .distributions import Distribution, Normal, PointMass, SeedSpec, _load_ndtri
from .theory import ErrorProfile, Scenario, _check_alpha, _check_count, error_profile, ese_of_alpha

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
#: on. Same machine, 21 weights, ndtri and numpy.random loaded, two forks
#: per call (median of 25): two workers took 1.44-1.49x the serial time at
#: 2M, 0.95-1.09x at 4M, 0.81-0.86x at 6M, 0.67-0.85x at 8M and 0.65-0.70x
#: at 16M.
_PARALLEL_MIN_CURVE = 6_000_000

_MIN_TRIALS = 100

#: Weights ``validate_scenario`` checks: 21, equally spaced over [0, 1].
VALIDATION_ALPHAS = tuple(np.linspace(0.0, 1.0, 21).tolist())


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
    """One weight's simulated ESE beside its closed form; the verdict is derived."""

    alpha: float
    closed_form: float
    estimate: MonteCarloEstimate
    k: float

    @property
    def deviation(self) -> float:
        return abs(self.estimate.mean_sq_error - self.closed_form)

    @property
    def limit(self) -> float:
        """The acceptance band, ``k`` standard errors wide."""
        return self.k * self.estimate.std_error

    @property
    def passed(self) -> bool:
        """Within the band; a non-finite estimate never agrees (inf <= inf)."""
        estimate = self.estimate
        finite = math.isfinite(estimate.mean_sq_error) and math.isfinite(estimate.std_error)
        return finite and self.deviation <= self.limit


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


def _buffer(shape: tuple[int, ...], workers: int) -> tuple[np.ndarray, int]:
    """An empty float array of ``shape``, and how many workers may fill it.

    For more than one worker the array is a shared anonymous mapping. Should
    the mapping fail, one worker fills numpy's own allocation, which
    reports a size it cannot make.
    """
    if workers > 1:
        try:
            return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape), workers
        except (OSError, OverflowError):
            pass
    return np.empty(shape), 1


def _draw_range(x: Distribution, n_x: int, y: Distribution, n_y: int) -> tuple[int, int]:
    """``(start, count)`` of the draw indices one trial uses; the counts are checked.

    A point mass consumes no randomness: only the random side's index range
    is drawn (none when both sides are constant), and the constant side's
    slots stay reserved so the other agent's draw indices do not shift.
    """
    _check_count("n_x", n_x)
    if isinstance(n_y, float) and math.isinf(n_y):
        raise ValueError("infinite n_y cannot be simulated; use the closed form")
    _check_count("n_y", n_y)
    if isinstance(x, PointMass):
        start, count = n_x, 0 if isinstance(y, PointMass) else n_y
    else:
        start, count = 0, n_x if isinstance(y, PointMass) else n_x + n_y
    if count > 2**40:  # hours of one core per trial, and a run has at least 100 trials
        raise ValueError(f"a trial of {count} draws is too long to simulate (at most 2**40)")
    return start, count


def _load_sampler_modules(dists: Iterable[Distribution], draws: int) -> None:
    """Import what sampling ``dists`` in streams of ``draws`` draws uses.

    Called before forking, so that each module is imported once rather than
    in every worker: numpy.random, which numpy 2 imports lazily and only the
    C Philox path of streams of ``_C_MIN_DRAWS`` draws or more uses, and
    ndtri for a normal side.
    """
    if draws >= _C_MIN_DRAWS:
        import numpy.random  # noqa: F401
    if any(isinstance(dist, Normal) for dist in dists):
        _load_ndtri()


def _row_means(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1)``, bit for bit.

    numpy adds a row of fewer than 8 elements one by one onto 0.0, so the
    same additions column by column give its bits at about a third of its
    per-row cost on narrow rows; wider rows take numpy's own pairwise sum.
    """
    n = a.shape[1]
    if n >= 8:
        return a.mean(axis=1)
    total = a[:, 0] + 0.0
    for j in range(1, n):
        total += a[:, j]
    total /= n
    return total


def trial_means(
    x: Distribution,
    n_x: int,
    y: Distribution,
    n_y: int,
    trials: int,
    seed: SeedSpec | int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial empirical means (xbar_t, ybar_t) for t = 0 .. trials-1.

    A trial of more than ``_CHUNK_DRAWS`` draws is drawn side by side in
    leaves of numpy's pairwise-sum tree, so its draws are never held whole
    and each mean keeps the bits of ``mean`` over the whole side. Calls
    that draw at least ``_PARALLEL_MIN_DRAWS`` uniforms split their chunks
    over one forked worker per CPU the process may run on; each row's mean
    does not depend on the split, so neither does any byte.
    """
    seed = _as_seed(seed)
    start, count = _draw_range(x, n_x, y, n_y)
    chunk = max(1, _CHUNK_DRAWS // max(count, 1))
    n_chunks = -(-trials // chunk)
    workers = 1
    if trials * count >= _PARALLEL_MIN_DRAWS:
        workers = min(cpu_count(), n_chunks)
    (xbar, ybar), workers = _buffer((2, trials), workers)
    if workers > 1:
        _load_sampler_modules((x, y), count)
    # (distribution, its means, its first draw index, its draw count): x
    # takes draws 0 .. n_x-1 and y draws n_x .. n_x+n_y-1.
    sides = []
    for dist, means, d_lo, n in ((x, xbar, 0, n_x), (y, ybar, n_x, n_y)):
        if isinstance(dist, PointMass):
            means.fill(float(dist.value))
        else:
            sides.append((dist, means, d_lo, n))

    def fill(lo: int, hi: int) -> None:
        for c_lo in range(lo, hi, chunk):
            c_hi = min(c_lo + chunk, hi)
            stream = seed.stream_id + c_lo
            if count > _CHUNK_DRAWS:  # a chunk of one trial
                for dist, means, d_lo, n in sides:

                    def leaf_sum(l_lo: int, l_hi: int) -> float:
                        u = uniform_matrix(seed.master_seed, stream, 1, l_hi - l_lo, l_lo)[0]
                        return np.add.reduce(dist._from_uniforms(u))

                    means[c_lo] = _pairwise_sum(leaf_sum, d_lo, d_lo + n, _CHUNK_DRAWS) / n
                continue
            u = uniform_matrix(seed.master_seed, stream, c_hi - c_lo, count, start)
            for dist, means, d_lo, n in sides:
                means[c_lo:c_hi] = _row_means(dist._from_uniforms(u[:, d_lo - start : d_lo - start + n]))

    # Whole chunks per worker, so no chunk boundary moves.
    bounds = [n_chunks * w // workers * chunk for w in range(workers)] + [trials]
    if sides:
        _fill_in_workers(fill, bounds)
    return xbar, ybar


T = TypeVar("T")


def _pairwise_sum(leaf_sum: Callable[[int, int], T], lo: int, hi: int, leaf: int) -> T:
    """``leaf_sum`` over ``lo .. hi``, added up as numpy's pairwise sum would.

    numpy's ``add.reduce`` sums a run of ``n > 128`` elements as the sum of
    its first ``n//2 - (n//2) % 8`` elements plus the sum of the rest, each
    half split the same way, and a run of at most 128 elements with eight
    unrolled accumulators. This walks that tree down to nodes of at most
    ``max(leaf, 128)`` elements, calls ``leaf_sum(node_lo, node_hi)`` on
    each in order and adds the results back up the tree. A ``leaf_sum``
    that returns ``np.add.reduce`` of its range therefore gives numpy's
    bits exactly, from leaf-sized scratch; one returning an array sums
    each entry.
    """
    n = hi - lo
    if n <= max(leaf, 128):
        return leaf_sum(lo, hi)
    mid = lo + n // 2 - (n // 2) % 8
    return _pairwise_sum(leaf_sum, lo, mid, leaf) + _pairwise_sum(leaf_sum, mid, hi, leaf)


def _curve_sums(
    xbar: np.ndarray,
    ybar: np.ndarray,
    alphas: Sequence[float],
    mu_x: float,
    scratch: np.ndarray,
    centres: np.ndarray | None = None,
) -> np.ndarray:
    """Per-weight ``np.add.reduce`` over these trials of the squared errors.

    Each weight's squared errors are ``(1 - alpha) * xbar + alpha * ybar -
    mu_x``, squared, as numpy's ``mean`` would see them. Given each
    weight's mean squared error as ``centres``, the sums are of the squared
    deviations from it instead, as in numpy's ``std``. ``scratch`` has two
    rows of at least the trials' length, reused from call to call. A
    squared error can overflow a float; its point then reads FAIL, silently.
    """
    err, sq = scratch[:, : xbar.size]
    out = np.empty(len(alphas))
    with np.errstate(over="ignore", invalid="ignore"):
        for w, alpha in enumerate(alphas):
            np.multiply(xbar, 1.0 - alpha, out=err)
            np.multiply(ybar, alpha, out=sq)
            np.add(err, sq, out=err)
            np.subtract(err, mu_x, out=err)
            np.square(err, out=sq)
            if centres is not None:
                np.subtract(sq, centres[w], out=sq)
                np.square(sq, out=sq)
            out[w] = np.add.reduce(sq)
    return out


def _estimates(mean: np.ndarray, std: np.ndarray, trials: int, seed: SeedSpec) -> list[MonteCarloEstimate]:
    """One estimate per weight: its mean squared error and the squared errors' standard deviation."""
    return [
        MonteCarloEstimate(mean_sq_error=float(m), std_error=float(s) / math.sqrt(trials), trials=trials, seed=seed)
        for m, s in zip(mean, std)
    ]


def _tree_statistics(
    leaf_sums: Callable[[int, int, np.ndarray | None], np.ndarray],
    trials: int,
    leaf: int,
    shape: tuple[int, ...],
    parallel: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry mean and ``std(ddof=1)`` over the trials of a ``shape`` of squared errors.

    ``leaf_sums(lo, hi, centres)`` gives ``np.add.reduce`` over trials ``lo
    .. hi-1`` of the squared errors, or with ``centres`` of their squared
    deviations from them (``_curve_sums``). Each of the two passes writes a
    table per leaf of numpy's pairwise-sum tree (at most ``leaf`` trials)
    and adds the tables up in tree order, which keeps numpy's bits. When
    ``parallel``, a pass splits its leaves into one contiguous run per CPU,
    each filled by a forked worker that reads only its own trials.
    """
    # The tree's leaves, in the order _pairwise_sum visits them.
    leaves = _pairwise_sum(lambda lo, hi: [(lo, hi)], 0, trials, leaf)

    def summed(centres: np.ndarray | None) -> np.ndarray:
        tables, workers = _buffer((len(leaves), *shape), min(cpu_count(), len(leaves)) if parallel else 1)

        def fill(i_lo: int, i_hi: int) -> None:
            for i in range(i_lo, i_hi):
                tables[i] = leaf_sums(*leaves[i], centres)

        _fill_in_workers(fill, [len(leaves) * w // workers for w in range(workers)] + [len(leaves)])
        in_order = iter(tables)
        return _pairwise_sum(lambda lo, hi: next(in_order), 0, trials, leaf)

    mean = summed(None) / trials
    return mean, np.sqrt(summed(mean) / (trials - 1))


def _estimates_from_means(
    xbar: np.ndarray,
    ybar: np.ndarray,
    alphas: list[float],
    mu_x: float,
    seed: SeedSpec,
) -> list[MonteCarloEstimate]:
    """Mean squared error and its standard error at each weight.

    The results are bitwise ``sq.mean()`` and ``sq.std(ddof=1)``, from
    ``_tree_statistics`` over leaves of at most ``_SUM_LEAF`` trials, every
    weight per leaf, so the scratch memory is two leaves whatever the trial
    count. Workers fork from ``_PARALLEL_MIN_CURVE`` trials x weights on.
    """
    trials = xbar.size
    scratch = np.empty((2, min(trials, _SUM_LEAF)))

    def leaf_sums(lo: int, hi: int, centres: np.ndarray | None) -> np.ndarray:
        return _curve_sums(xbar[lo:hi], ybar[lo:hi], alphas, mu_x, scratch, centres)

    parallel = trials * len(alphas) >= _PARALLEL_MIN_CURVE
    return _estimates(*_tree_statistics(leaf_sums, trials, _SUM_LEAF, (len(alphas),), parallel), trials, seed)


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
    alphas = _checked_alphas(alphas)
    _check_trials(trials)
    seed = _as_seed(seed)
    xbar, ybar = trial_means(x, n_x, y, n_y, trials, seed)
    return _estimates_from_means(xbar, ybar, alphas, x.mean(), seed)


def _shared_range(ranges: Sequence[tuple[int, int]]) -> tuple[int, int] | None:
    """``(start, count)`` spanning every scenario's draws, when a suite should share them.

    The shared path draws this span twice per trial and runs each family
    transform twice, where each scenario on its own draws and transforms
    its range once. It is taken when the scenarios' ranges add up to more
    than three times the span, and the span fits in a chunk. Measured
    serially on a 2-core Xeon (numpy 2.4.6, 21 weights, median of 5), the
    shared path took, against the scenarios on their own, 1.25x, 0.92x,
    0.85x and 0.71x at 2, 2.5, 3 and 3.5 times a 200-draw span, and 1.19x,
    1.04x, 0.93x and 0.79x at those multiples of a 20-draw span; c06's
    suite adds up to 3.45 times its 200-draw span.
    """
    drawn = [(start, start + count) for start, count in ranges if count]
    if not drawn:
        return None
    lo = min(start for start, _ in drawn)
    hi = max(end for _, end in drawn)
    if 3 * (hi - lo) < sum(end - start for start, end in drawn) and hi - lo <= _CHUNK_DRAWS:
        return lo, hi - lo
    return None


def _load_suite_modules(scenarios: Sequence[SampledScenario]) -> None:
    """Import what :func:`estimate_suite_curves` on ``scenarios`` will use.

    A command that samples calls this while setting up, so that nothing is
    imported later, in the run or in a forked worker.
    """
    ranges = [_draw_range(s.x, s.n_x, s.y, s.n_y) for s in scenarios]
    shared = _shared_range(ranges)
    longest = shared[1] if shared else max((count for _, count in ranges), default=0)
    _load_sampler_modules([dist for s in scenarios for dist in (s.x, s.y)], longest)


#: Trials per leaf of the shared path: at least 128 (see ``_pairwise_sum``).
#: Each leaf holds its trial means for every scenario. Measured serially on
#: the same machine at c06's suite (12 scenarios, 100k trials): 3.8-4.2 s
#: at 4,096 and 8,192, 4.2-4.6 s at 2,048, where the numpy calls per leaf
#: add up; peak RSS grew from 52.3 MB at 4,096 to 53.4, 55.6 and 60.2 MB
#: at 8,192, 16,384 and 32,768.
_SUITE_LEAF = 8_192


def estimate_suite_curves(
    scenarios: Sequence[SampledScenario],
    alphas: Sequence[float],
    trials: int,
    seed: SeedSpec | int,
) -> list[list[MonteCarloEstimate]]:
    """:func:`estimate_error_curve` for each scenario, bit for bit, sharing their draws.

    Every scenario of a suite reads trial ``t``'s draws from stream
    ``(seed, stream_id + t)`` from the same index on. When ``_shared_range``
    says it pays, each pass of ``_tree_statistics`` draws a leaf's span once,
    chunk by chunk, and takes every scenario's trial means from slices of
    it, so no trial-length buffer is kept. The passes fork from
    ``_PARALLEL_MIN_DRAWS`` draws on. Otherwise each scenario is estimated
    on its own.
    """
    alphas = _checked_alphas(alphas)
    _check_trials(trials)
    seed = _as_seed(seed)
    shared = _shared_range([_draw_range(s.x, s.n_x, s.y, s.n_y) for s in scenarios])
    if shared is None:
        return [
            estimate_error_curve(s.x, s.n_x, s.y, s.n_y, alphas, trials, seed) for s in scenarios
        ]
    first, count = shared
    chunk = max(1, _CHUNK_DRAWS // count)
    parallel = trials * count >= _PARALLEL_MIN_DRAWS
    if parallel:
        _load_suite_modules(scenarios)

    # (scenario, side, distribution, its draws' slice of the span): x takes
    # draws 0 .. n_x-1 and y draws n_x .. n_x+n_y-1.
    sides = [
        (s, side, dist, slice(d_lo - first, d_hi - first))
        for s, sc in enumerate(scenarios)
        for side, dist, d_lo, d_hi in ((0, sc.x, 0, sc.n_x), (1, sc.y, sc.n_x, sc.n_x + sc.n_y))
    ]

    mus = [scenario.x.mean() for scenario in scenarios]
    scratch = np.empty((2, min(trials, _SUITE_LEAF)))

    def leaf_sums(lo: int, hi: int, centres: np.ndarray | None) -> np.ndarray:
        """``[scenario, weight]`` sums over trials ``lo .. hi-1``, from one draw of their span."""
        # means[scenario, side, trial], as trial_means gives them.
        means = np.empty((len(scenarios), 2, hi - lo))
        for s, side, dist, _ in sides:
            if isinstance(dist, PointMass):
                means[s, side].fill(float(dist.value))
        for c_lo in range(lo, hi, chunk):
            c_hi = min(c_lo + chunk, hi)
            u = uniform_matrix(seed.master_seed, seed.stream_id + c_lo, c_hi - c_lo, count, first)
            for s, side, dist, draws in sides:
                if not isinstance(dist, PointMass):
                    means[s, side, c_lo - lo : c_hi - lo] = _row_means(dist._from_uniforms(u[:, draws]))
        return np.array(
            [
                _curve_sums(means[s, 0], means[s, 1], alphas, mu_x, scratch, None if centres is None else centres[s])
                for s, mu_x in enumerate(mus)
            ]
        )

    stats = _tree_statistics(leaf_sums, trials, _SUITE_LEAF, (len(scenarios), len(alphas)), parallel)
    return [_estimates(mean, std, trials, seed) for mean, std in zip(*stats)]


def _checked_alphas(alphas: Iterable[float]) -> list[float]:
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        _check_alpha(alpha)
    return alphas


def _check_trials(trials: int) -> None:
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < _MIN_TRIALS:
        raise ValueError(f"trials must be an integer >= {_MIN_TRIALS}, got {trials!r}")


def _check_k(k: float) -> None:
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"k must be finite and > 0, got {k!r}")


def validate_scenario(
    scenario: SampledScenario,
    trials: int,
    seed: SeedSpec | int,
    k: float = 4.0,
    expected: ErrorProfile | None = None,
    estimates: Sequence[MonteCarloEstimate] | None = None,
) -> ValidationReport:
    """Check simulation against closed form on a fixed weight grid.

    Each weight of ``VALIDATION_ALPHAS`` passes when ``|simulated -
    closed_form| <= k * std_error``. ``expected`` overrides the closed-form
    reference profile (diagnostics; the default recomputes it from the
    scenario's exact moments). ``estimates``, the scenario's simulated
    curve on that grid when already made (as by
    :func:`estimate_suite_curves` for a whole suite), spares sampling it.
    """
    _check_k(k)
    seed = _as_seed(seed)
    profile = expected if expected is not None else error_profile(scenario.to_scenario())
    if estimates is None:
        estimates = estimate_error_curve(
            scenario.x, scenario.n_x, scenario.y, scenario.n_y, VALIDATION_ALPHAS, trials, seed
        )
    points = tuple(
        ValidationPoint(alpha, ese_of_alpha(profile, alpha), estimate, k)
        for alpha, estimate in zip(VALIDATION_ALPHAS, estimates)
    )
    return ValidationReport(points=points, k=k, trials=trials, seed=seed)
