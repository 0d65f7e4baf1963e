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

import contextlib
import enum
import math
import os
import tempfile
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from ._philox import _C_MIN_DRAWS, _load_generator, uniform_matrix
from ._workers import cpu_count, ordered_map
from .distributions import Distribution, SeedSpec
from .federation import SampledScenario, reduce_to_two_agent
from .theory import ErrorProfile, _check_alpha, error_profile, ese_of_alpha

#: Target number of scalar draws generated per chunk. Sized so that the
#: sampler's work arrays stay in a per-core L2 cache; output does not depend
#: on it.
_CHUNK_DRAWS = 65_536

#: Pass 1 of the curve statistics forks workers only from this many drawn
#: uniforms on. Measured on a 2-core Xeon (numpy 2.4.6, ndtri and
#: numpy.random loaded, 40 MiB resident): a fork costs 1.4 ms and a fork,
#: exit and reap 4.4 ms; a round of two workers 7.7 ms. Against one process
#: (median of 9-11, alternating), two workers took, at 4 and 25 draws per
#: trial, 1.22-1.31x the time at 200k draws, 1.03-1.10x at 400k, 0.86-0.90x
#: at 500k and 0.70-0.74x at 1M.
_PARALLEL_MIN_DRAWS = 500_000

#: The curve statistics fork workers only from this many trials x weights
#: on. Same machine, 21 weights, a round of forks per pass (median of 9-21,
#: three runs): two workers took 2.38x the serial time at 2M, 1.07-1.20x
#: at 6M and 8M, 0.97-1.04x at 10M, 0.85-0.93x at 12M and 0.77-0.80x at
#: 16M and 24M. On mc_many_trials (42M) forking pass 2 took 0.90x of the
#: whole curve's time, faster in 11 of 12 runs.
_PARALLEL_MIN_CURVE = 12_000_000

_MIN_TRIALS = 100

#: More trials could never finish. A scenario that draws nothing still
#: takes 0.11 us per trial on validate's 21 weights (one core of a 2-core
#: Xeon, numpy 2.4.6), 34 hours for 2**40 trials; a sampled one also writes
#: 8 bytes per trial and random side to the scratch file, 8 TiB per side.
_MAX_TRIALS = 2**40

#: Weights ``validate_scenario`` checks: 21, equally spaced over [0, 1].
VALIDATION_ALPHAS = tuple(np.linspace(0.0, 1.0, 21).tolist())

#: Half-width of the acceptance band, in standard errors.
BAND = 4.0


class Verdict(enum.IntEnum):
    """What a check reads, by severity: ``ValidationPoint.verdict`` decides each, and a group reads its worst."""

    PASS = 0
    FAIL = 1

    @classmethod
    def worst(cls, verdicts: Iterable[Verdict]) -> Verdict:
        """The most severe of ``verdicts``; PASS when there are none."""
        return max(verdicts, default=cls.PASS)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Simulated ESE at one weight, with its standard error and seed provenance."""

    alpha: float
    mean_sq_error: float
    std_error: float
    trials: int
    seed: SeedSpec


@dataclass(frozen=True)
class ValidationPoint:
    """One weight's simulated ESE beside its closed form; the verdict is derived."""

    closed_form: float
    estimate: MonteCarloEstimate

    @property
    def alpha(self) -> float:
        return self.estimate.alpha

    @property
    def deviation(self) -> float:
        return abs(self.estimate.mean_sq_error - self.closed_form)

    @property
    def limit(self) -> float:
        """The acceptance band: ``BAND`` standard errors, and a floor for rounding.

        Where every trial gives the same squared error (a constant helper's
        at alpha = 1, or two constant sides), the standard error is only
        rounding. The floor bounds the rounding by Higham's ``h * eps / 2``
        of a sum of non-negative terms, ``h`` the most additions one term
        goes through ("Accuracy and Stability of Numerical Algorithms", 2nd
        ed., section 4.2), counting ``eps`` per rounding: in numpy's
        pairwise sum 24 in a block of at most 128 terms (14 in an
        accumulator, 3 joining the eight, 7 for the remainder), 1 onto the
        start value and 1 per halving above the blocks (``levels``: a half
        may be 8 longer than half its parent); then 1 for the division, 3
        for the squared error and 7 for the closed form (e1's 4;
        ``alpha**2``, its product and the sum 3). At 1,000 trials that is
        9e-15 of the estimate.
        """
        levels = (max(self.estimate.trials, 128) - 1).bit_length() - 6
        rounding = (24 + 1 + levels + 1 + 3 + 7) * 2.0**-52
        return BAND * self.estimate.std_error + rounding * self.estimate.mean_sq_error

    @property
    def verdict(self) -> Verdict:
        """PASS within a finite band: a non-finite estimate, or a band that overflows, never agrees (inf <= inf)."""
        limit = self.limit
        return Verdict.PASS if math.isfinite(limit) and self.deviation <= limit else Verdict.FAIL


@dataclass(frozen=True)
class ValidationReport:
    """Per-weight agreement between simulation and closed form, over one run of trials at one seed."""

    points: tuple[ValidationPoint, ...]

    def __post_init__(self) -> None:
        if len({(point.estimate.trials, point.estimate.seed) for point in self.points}) != 1:
            raise ValueError("a report needs one or more points, of one trial count and one seed")

    @property
    def trials(self) -> int:
        return self.points[0].estimate.trials

    @property
    def seed(self) -> SeedSpec:
        return self.points[0].estimate.seed

    @property
    def verdict(self) -> Verdict:
        return Verdict.worst(point.verdict for point in self.points)


def _as_seed(seed: SeedSpec | int) -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(seed)


def _write_at(fd: int, a: np.ndarray, offset: int) -> None:
    """Write ``a`` at byte ``offset`` of file ``fd``; a short write raises.

    Without ``os.pwrite`` (Windows) it seeks and writes, which moves the
    file position that every process sharing ``fd`` sees.
    """
    if hasattr(os, "pwrite"):
        written = os.pwrite(fd, a, offset)
    else:
        os.lseek(fd, offset, os.SEEK_SET)
        written = os.write(fd, a)
    if written != a.nbytes:
        raise OSError(f"short write to a scratch file: {written} of {a.nbytes} bytes")


def _read_at(fd: int, shape: tuple[int, ...], offset: int) -> np.ndarray:
    """The float array of ``shape`` at byte ``offset`` of file ``fd``; a short read raises.

    A read past the file's end comes back short, so a block that was never
    written cannot be read as zeros at the end of the file.
    """
    size = 8 * math.prod(shape)
    if hasattr(os, "pread"):
        data = os.pread(fd, size, offset)
    else:
        os.lseek(fd, offset, os.SEEK_SET)
        data = os.read(fd, size)
    if len(data) != size:
        raise OSError(f"short read from a scratch file: {len(data)} of {size} bytes")
    return np.frombuffer(data).reshape(shape)


#: :func:`_draw_plan`'s runs ``(first, end, kernels)`` in order of their
#: first draw, each kernel ``(function, first, end, sides)`` and each side
#: ``(row, distribution, first, end)``, rows 0, 1, ... in scenario order.
_Side = tuple[int, Distribution, int, int]
_Runs = list[tuple[int, int, list[tuple[Callable[[np.ndarray], np.ndarray], int, int, list[_Side]]]]]


def _join(sides: list[_Side], longest: float) -> list[tuple[int, int, list[_Side]]]:
    """``sides``, in order of their first draw, as stretches ``(first, end, sides)``.

    A side joins the stretch before it when their draws overlap or adjoin
    and the joined stretch is at most ``longest`` draws.
    """
    stretches = []
    for side in sides:
        first, end, members = stretches[-1] if stretches else (0, -1, [])
        if side[2] <= end and max(end, side[3]) - first <= longest:
            stretches[-1] = (first, max(end, side[3]), [*members, side])
        else:
            stretches.append((side[2], side[3], [side]))
    return stretches


def _draw_plan(scenarios: Sequence[SampledScenario]) -> tuple[_Runs, list[tuple[int | float, int | float]]]:
    """The runs of draws each trial takes, and each scenario's ``(x, y)``: a random side's row, or 0.0.

    Each scenario's x takes draws 0 .. n_x-1 of a trial's stream and y draws
    n_x .. n_x+n_y-1. A side whose mean cannot vary, at ``variance()`` 0 or
    an infinite count, is never drawn; its slots stay reserved so the other
    side's draw indices do not shift. Only one helper can be sampled. The
    random sides, in order of their first draw, are :func:`_join`-ed into
    runs that fit in a chunk, so a side longer than a chunk is a run by
    itself and no uniform is drawn that no side reads. A run's sides that
    share ``type(dist)._kernel`` are joined into that function's kernels, so
    no kernel transforms a draw that none of its sides reads.
    """
    sides, sources = [], []
    for scenario in scenarios:
        x, n_x, y, n_y = scenario.x, scenario.n_x, scenario.y, scenario.n_y
        if scenario.more:
            raise ValueError("a scenario with more than one helper cannot be sampled yet")
        first_row, source = len(sides), []
        for dist, d_lo, d_hi in ((x, 0, n_x), (y, n_x, n_x + n_y)):
            if dist.variance() == 0 or d_hi == math.inf:
                source.append(0.0)
            else:
                source.append(len(sides))
                sides.append((len(sides), dist, d_lo, d_hi))
        sources.append(tuple(source))
        if len(sides) > first_row and (count := sides[-1][3] - sides[first_row][2]) > 2**40:
            # hours of one core per trial, and a run has at least 100 trials
            raise ValueError(f"a trial of {count} draws is too long to simulate (at most 2**40)")
    runs: _Runs = []
    for first, end, members in _join(sorted(sides, key=lambda side: side[2]), _CHUNK_DRAWS):
        by_kernel: dict[Callable, list[_Side]] = {}
        for side in members:
            by_kernel.setdefault(type(side[1])._kernel, []).append(side)
        kernels = [(kernel, *stretch) for kernel, group in by_kernel.items() for stretch in _join(group, math.inf)]
        runs.append((first, end, kernels))
    return runs, sources


def _row_means(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1)``, bit for bit.

    numpy adds a row of fewer than 8 elements one by one onto 0.0, so the
    same additions column by column give its bits at about a third of its
    per-row cost on narrow rows; wider rows take numpy's own pairwise sum.
    """
    n = a.shape[1]
    if n >= 8:
        return np.add.reduce(a, axis=1) / n  # what mean computes, without its wrapper
    total = a[:, 0] + 0.0
    for j in range(1, n):
        total += a[:, j]
    total /= n
    return total


def _fill_means(means: np.ndarray, runs: _Runs, seed: SeedSpec, lo: int) -> None:
    """Fill ``means[row]`` with the random side's mean deviations of trials ``lo .. lo+means.shape[1]-1``.

    ``runs`` are :func:`_draw_plan`'s. A run that fits in a chunk is drawn
    chunk by chunk, each of its kernels made once per chunk over the draws
    it covers. A longer run, a single side, is drawn a trial at a time in
    leaves of numpy's pairwise-sum tree. Each side's ``_standard`` values
    are averaged with the bits of ``mean``, and the mean is then mapped by
    the side's ``_centred``: no draw is shifted by its distribution's mean.
    """
    hi = lo + means.shape[1]
    for first, end, kernels in runs:
        count = end - first
        if count > _CHUNK_DRAWS:
            ((kernel, _, _, ((row, dist, _, _),)),) = kernels
            for t in range(lo, hi):

                def leaf_sum(l_lo: int, l_hi: int) -> float:
                    u = uniform_matrix(seed.master_seed, seed.stream_id + t, 1, l_hi - l_lo, l_lo)[0]
                    return np.add.reduce(dist._standard(kernel(u)))

                means[row, t - lo] = dist._centred(_pairwise_sum(leaf_sum, first, end, _CHUNK_DRAWS) / count)
            continue
        rows = _CHUNK_DRAWS // count
        # u stays bound until the next chunk's u is made: freed at each chunk's
        # end, glibc trims the heap and the next chunk faults it back in (serial
        # mc_long, 2-core Xeon: 44,226 minor faults, not 1,041; 36% more time).
        for c_lo in range(lo, hi, rows):
            c_hi = min(c_lo + rows, hi)
            u = uniform_matrix(seed.master_seed, seed.stream_id + c_lo, c_hi - c_lo, count, first)
            out = means[:, c_lo - lo : c_hi - lo]
            for kernel, k_lo, k_hi, sides in kernels:
                k = kernel(u[:, k_lo - first : k_hi - first])
                for row, dist, d_lo, d_hi in sides:
                    out[row] = dist._centred(_row_means(dist._standard(k[:, d_lo - k_lo : d_hi - k_lo])))
                del k  # freed before the next kernel is made


def trial_means(
    x: Distribution,
    n_x: int,
    y: Distribution,
    n_y: int | float,
    trials: int,
    seed: SeedSpec | int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial empirical means (xbar_t, ybar_t) for t = 0 .. trials-1: ``mean()`` plus :func:`_fill_means`' deviation."""
    runs, (sources,) = _draw_plan([SampledScenario(x, n_x, y, n_y)])
    means = np.empty((2, trials))  # the rows of up to two random sides
    _fill_means(means, runs, _as_seed(seed), 0)
    pairs = zip((x, y), sources)
    return tuple(d.mean() + means[s] if isinstance(s, int) else np.full(trials, d.mean()) for d, s in pairs)


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
    left, right = _pairwise_sum(leaf_sum, lo, mid, leaf), _pairwise_sum(leaf_sum, mid, hi, leaf)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum reads inf, its point FAIL
        return left + right


def _curve_sums(
    dx: np.ndarray | float,
    dy: np.ndarray | float,
    alphas: Sequence[float],
    b: float,
    scratch: np.ndarray,
    centres: np.ndarray | None = None,
) -> np.ndarray:
    """Per-weight ``np.add.reduce`` over these trials of the squared errors.

    ``dx`` and ``dy`` are the sides' mean deviations and ``b = mu_y - mu_x``
    the bias, the float the closed form squares into e1. Each weight's
    squared errors are ``(1 - alpha) * dx + alpha * (dy + b)``, squared, as
    numpy's ``mean`` would see them; a constant side is 0.0, which numpy
    broadcasts with a filled row's bits. No mean enters but through ``b``.
    Given each weight's mean squared error as ``centres``, the sums are of
    the squared deviations from it instead, as in numpy's ``std``.
    ``scratch`` is three rows of the trials' length. A squared error can
    overflow a float; its point then reads FAIL, silently.
    """
    err, sq, shifted = scratch
    out = np.empty(len(alphas))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(dy, b, out=shifted)
        for w, alpha in enumerate(alphas):
            np.multiply(dx, 1.0 - alpha, out=err)
            np.multiply(shifted, alpha, out=sq)
            np.add(err, sq, out=err)
            np.square(err, out=sq)
            if centres is not None:
                np.subtract(sq, centres[w], out=sq)
                np.square(sq, out=sq)
            out[w] = np.add.reduce(sq)
    return out


def _tree_statistics(
    leaf_sums: Callable[[int, int, np.ndarray | None], np.ndarray],
    trials: int,
    leaf: int,
    shape: tuple[int, ...],
    parallel: tuple[bool, bool],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry mean and ``std(ddof=1)`` over the trials of a ``shape`` of squared errors.

    ``leaf_sums(lo, hi, centres)`` gives ``np.add.reduce`` over trials ``lo
    .. hi-1`` of the squared errors, or with ``centres`` of their squared
    deviations from them (``_curve_sums``). Each of the two passes sums a
    table per leaf of numpy's pairwise-sum tree (at most ``leaf`` trials)
    and adds the tables up in tree order, which keeps numpy's bits. The
    tree is cut into a few whole subtrees per CPU, each summed by one
    process, so neither the leaves nor their tables are ever listed. A
    pass whose entry of ``parallel`` is true only deals the same subtrees
    to one forked worker per CPU (:func:`ordered_map`), which reads only its
    own trials and sends their tables back for this process to add up.
    """
    cpus = cpu_count()
    # The subtrees, in tree order: the tree's leaves, or nodes of about a
    # quarter of a CPU's share of the trials when those are larger.
    top = max(leaf, trials // (4 * cpus))
    nodes = _pairwise_sum(lambda lo, hi: [(lo, hi)], 0, trials, top)

    def summed(centres: np.ndarray | None, fork: bool) -> np.ndarray:
        def table(i: int) -> bytes:  # subtree i's
            return _pairwise_sum(lambda lo, hi: leaf_sums(lo, hi, centres), *nodes[i], leaf).tobytes()

        with contextlib.closing(ordered_map(table, len(nodes), cpus if fork else 1)) as tables:
            return _pairwise_sum(lambda lo, hi: np.frombuffer(next(tables)).reshape(shape), 0, trials, top)

    mean = summed(None, parallel[0]) / trials
    return mean, np.sqrt(summed(mean, parallel[1]) / (trials - 1))


def estimate_error_curve(
    x: Distribution,
    n_x: int,
    y: Distribution,
    n_y: int | float,
    alphas: list[float] | np.ndarray,
    trials: int,
    seed: SeedSpec | int,
) -> list[MonteCarloEstimate]:
    """Simulated ESE over a grid of weights with common random numbers.

    Every grid point reuses the same per-trial draws, so each entry is
    bitwise identical to a one-weight grid at that weight and seed. It is
    estimated leaf by leaf, as a suite of one (:func:`estimate_suite_curves`).
    """
    return estimate_suite_curves([SampledScenario(x, n_x, y, n_y)], alphas, trials, seed)[0]


def _load_sampling(runs: _Runs) -> None:
    """Load what sampling :func:`_draw_plan`'s ``runs`` uses: each kernel's, by making it on zero draws.

    Also numpy's C Philox and its ``Generator``, for a run of ``_C_MIN_DRAWS`` draws or more.
    Called while a command sets up, and before every tree, forked or not,
    so that nothing is imported in the run or in every forked worker.
    """
    if max((end - first for first, end, _ in runs), default=0) >= _C_MIN_DRAWS:
        _load_generator()
    for kernel in {kernel for *_, kernels in runs for kernel, *_ in kernels}:
        kernel(np.empty(0))


#: Trial means a leaf of ``estimate_suite_curves`` may hold over its random sides
#: (2 MiB). c06's suite, with 19 random sides, gets leaves of 8,192 trials.
#: Measured serially on a 2-core Xeon (numpy 2.4.6) at its 100k trials:
#: 3.62 s at 8,192 against 3.76 s at 4,096 (median of 8, runs alternating)
#: and 4.2-4.6 s at 2,048, where the numpy calls per leaf add up; peak RSS
#: 2.2 and 6.8 MB higher at 16,384 and 32,768.
_LEAF_MEANS = 2**18

#: The most trials per leaf of ``estimate_suite_curves``. For mc_many_trials (one
#: scenario, two random 2-draw sides, 2M trials), on the same machine, at
#: 16,384, 32,768 and 65,536 against the means held whole: peak RSS 37.6,
#: 39.1 and 40.3 MB against 53.4 (perfbench, 4 runs alternating); median
#: wall 0.556 and 0.538 s, and CPU 1.384 and 1.353 s, at 32,768 and 65,536
#: against 0.524 and 1.341 s (validate in a fresh process on 2 CPUs, 12
#: runs alternating). Serially, 65,536 took 19,900 page faults against
#: 53,900 at 32,768: the larger leaf's freed buffers lift glibc's mmap and
#: trim thresholds, so the sampler's per-chunk arrays are reused.
_SUITE_LEAF = 65_536


def estimate_suite_curves(
    scenarios: Sequence[SampledScenario],
    alphas: Iterable[float],
    trials: int,
    seed: SeedSpec | int,
) -> list[list[MonteCarloEstimate]]:
    """:func:`estimate_error_curve` for each scenario, bit for bit, sharing their draws.

    Every scenario of a suite reads trial ``t``'s draws from stream
    ``(seed, stream_id + t)`` from the same index on, and each trial is
    drawn once by one :func:`_draw_plan`, whose runs join the sides whose
    draws overlap or adjoin.

    Pass 1 of ``_tree_statistics`` takes a leaf's random sides' deviations
    from ``_fill_means`` and writes them to an unlinked scratch file (trials x
    random sides x 8 bytes, in TMPDIR), which pass 2 reads back instead of
    drawing again; so no trial-length buffer is held in memory, and a
    constant side is only its deviation, 0.0. Pass 1 forks from ``_PARALLEL_MIN_DRAWS`` draws on; pass 2,
    which only sums, from ``_PARALLEL_MIN_CURVE`` trials x scenarios x
    weights on. The workers share the file. Without a random side nothing
    is drawn and no file is made.
    """
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        _check_alpha(alpha)
    _check_trials(trials)
    seed = _as_seed(seed)
    runs, sources = _draw_plan(scenarios)
    draws = sum(end - first for first, end, _ in runs)
    # Processes that seek in one shared file would move each other's
    # position, so without positioned I/O neither pass forks.
    forks = hasattr(os, "pwrite") and hasattr(os, "pread")
    parallel = (
        forks and trials * draws >= _PARALLEL_MIN_DRAWS,
        forks and trials * len(scenarios) * len(alphas) >= _PARALLEL_MIN_CURVE,
    )
    _load_sampling(runs)
    rows = sum(len(sides) for *_, kernels in runs for *_, sides in kernels)  # the random sides, the file's rows
    biases = [scenario.y.mean() - scenario.x.mean() for scenario in scenarios]
    # Trials per leaf: the largest power of two whose random sides' means fit
    # in _LEAF_MEANS, at most _SUITE_LEAF, and at most a CPU's share of the
    # trials, so that every CPU has a leaf (mc_long's 2,000 trials are two
    # leaves on 2 CPUs); at least 128 (see _pairwise_sum), even where 128
    # trials' means exceed _LEAF_MEANS (past 2,048 random sides).
    fits = 1 << max((_LEAF_MEANS // max(rows, 1)).bit_length() - 1, 0)
    leaf = max(128, min(fits, _SUITE_LEAF, -(-trials // cpu_count())))
    scratch = np.empty((3, min(trials, leaf)))

    def leaf_sums(lo: int, hi: int, centres: np.ndarray | None) -> np.ndarray:
        """``[scenario, weight]`` sums over trials ``lo .. hi-1``.

        Pass 1 draws the random sides' deviations by the plan and writes them to
        ``spill`` as the leaf's ``[row, trial]`` block; pass 2 reads it back.
        """
        shape, offset = (rows, hi - lo), 8 * rows * lo
        if centres is not None:
            means = _read_at(spill.fileno(), shape, offset) if rows else None
        else:
            means = np.empty(shape)
            _fill_means(means, runs, seed, lo)
            if rows:
                _write_at(spill.fileno(), means, offset)
        sides = [[means[side] if isinstance(side, int) else side for side in pair] for pair in sources]
        return np.array(
            [
                _curve_sums(*sides[s], alphas, b, scratch[:, : hi - lo], None if centres is None else centres[s])
                for s, b in enumerate(biases)
            ]
        ).reshape(len(biases), len(alphas))  # an empty suite's too

    # The scratch file honours TMPDIR and is unlinked at creation.
    with tempfile.TemporaryFile() if rows else contextlib.nullcontext() as spill:
        stats = _tree_statistics(leaf_sums, trials, leaf, (len(scenarios), len(alphas)), parallel)
    return [
        [
            MonteCarloEstimate(alpha, float(m), float(s) / math.sqrt(trials), trials, seed)
            for alpha, m, s in zip(alphas, mean, std)
        ]
        for mean, std in zip(*stats)
    ]


def _check_trials(trials: int) -> None:
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < _MIN_TRIALS:
        raise ValueError(f"trials must be an integer >= {_MIN_TRIALS}, got {trials!r}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"{trials} trials are too many to simulate (at most 2**40)")


def validate_scenario(
    scenario: SampledScenario,
    curve: Sequence[MonteCarloEstimate],
    expected: ErrorProfile | None = None,
) -> ValidationReport:
    """Compare ``curve``, a scenario's simulated ESE, with its closed form weight by weight.

    ``curve`` comes from :func:`estimate_suite_curves` or :func:`estimate_error_curve`
    on ``VALIDATION_ALPHAS``, in order, at one trial count and one seed. Each
    weight passes within ``ValidationPoint.limit``. ``expected`` overrides the
    closed-form reference profile (diagnostics; the default recomputes it
    from the scenario's exact moments).
    """
    if tuple(estimate.alpha for estimate in curve) != VALIDATION_ALPHAS:
        raise ValueError("a curve to validate must be estimated at VALIDATION_ALPHAS, in order")
    profile = expected if expected is not None else error_profile(reduce_to_two_agent(scenario))
    return ValidationReport(tuple(ValidationPoint(ese_of_alpha(profile, e.alpha), e) for e in curve))
