"""The simulation oracle against closed forms, and its determinism."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import inspect
import math
import mmap
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import collab_avg.distributions as distributions
import collab_avg.montecarlo as mc
from collab_avg._philox import uniform_matrix
from collab_avg.cli import main
from collab_avg.distributions import Bernoulli, Exponential, Normal, PointMass, SeedSpec, Uniform
from collab_avg.federation import reduce_to_two_agent
from collab_avg.montecarlo import (
    SampledScenario,
    Verdict,
    estimate_error_curve,
    trial_means,
    validate_scenario,
)
from collab_avg.theory import ErrorProfile, error_profile, ese_of_alpha

from conftest import (
    force_cpus,
    no_child_left,
    numpy_statistics,
    round_forks,
    variance_std_error,
    whole_row_deviations,
)
from test_acceptance import MC_BASE_SEED, MC_SUITE

TRIALS = 10**5


def one_weight(x, n_x, y, n_y, alpha, trials, seed):
    """The simulated ESE at one weight: a one-point grid."""
    return estimate_error_curve(x, n_x, y, n_y, [alpha], trials, seed)[0]


class TestEstimateEse:
    """The simulated ESE at one weight."""

    def test_point_masses_have_exactly_zero_error(self):
        result = one_weight(PointMass(1.0), 3, PointMass(1.0), 2, 0.37, 200, SeedSpec(1))
        assert result.mean_sq_error == 0.0
        assert result.std_error == 0.0

    def test_shrinkage_scenario_matches_closed_form(self):
        # X ~ Normal(0,1) with 10 samples, helper pinned at the true mean:
        # e(0.2) = 0.8^2 * 0.1 = 0.064.
        result = one_weight(Normal(0.0, 1.0), 10, PointMass(0.0), 1, 0.2, TRIALS, SeedSpec(11))
        assert abs(result.mean_sq_error - 0.064) <= 4.0 * result.std_error

    def test_biased_helper_matches_closed_form(self):
        # e(1/2) = 0.25 * 0.1 + 0.25 * (0.25 + 0.1) = 0.1125.
        result = one_weight(
            Normal(0.0, 1.0), 10, Normal(0.5, 1.0), 10, 0.5, TRIALS, SeedSpec(13)
        )
        assert abs(result.mean_sq_error - 0.1125) <= 4.0 * result.std_error

    def test_preconditions(self):
        with pytest.raises(ValueError):
            one_weight(Normal(0, 1), 5, Normal(0, 1), 5, 1.5, 200, SeedSpec(1))
        with pytest.raises(ValueError):
            one_weight(Normal(0, 1), 5, Normal(0, 1), 5, 0.5, 99, SeedSpec(1))
        with pytest.raises(ValueError):
            one_weight(Normal(0, 1), 0, Normal(0, 1), 5, 0.5, 200, SeedSpec(1))
        # An infinite count is not refused: the helper's mean is exact, as a constant's at n_y = 1 is.
        exact = one_weight(Normal(0, 1), 5, Normal(0, 1), math.inf, 0.5, 200, SeedSpec(1))
        assert exact == one_weight(Normal(0, 1), 5, PointMass(0.0), 1, 0.5, 200, SeedSpec(1))

    def test_bitwise_reproducible(self):
        args = (Uniform(0, 1), 7, Bernoulli(0.3), 9, 0.4, 500, SeedSpec(99, 5))
        assert one_weight(*args) == one_weight(*args)

    @pytest.mark.parametrize("chunk_draws", [1, 64, 65_536])
    @pytest.mark.parametrize(
        "x,y",
        [
            (Normal(0, 1), Exponential(2.0)),
            (PointMass(0.5), Exponential(2.0)),
            (Normal(0, 1), PointMass(0.5)),
        ],
        ids=["both_random", "pointmass_x", "pointmass_y"],
    )
    def test_chunking_does_not_change_results(self, monkeypatch, chunk_draws, x, y):
        args = (x, 11, y, 13, 0.3, 1000, SeedSpec(7))
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", 10**9)
        whole = one_weight(*args)
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        chunked = one_weight(*args)
        assert whole == chunked


class TestErrorCurve:
    def test_common_random_numbers_across_grid(self):
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
        curve = estimate_error_curve(Normal(0, 1), 5, Normal(1, 1), 5, alphas, 300, SeedSpec(3))
        for alpha, point in zip(alphas, curve):
            standalone = one_weight(Normal(0, 1), 5, Normal(1, 1), 5, alpha, 300, SeedSpec(3))
            assert point == standalone

    # 200,003 trials span four leaves of at most ``_SUITE_LEAF`` trials.
    @pytest.mark.parametrize("trials", [100, 1001, 40_000, 200_003])
    def test_statistics_bitwise_equal_numpy_mean_and_std(self, trials):
        """The sliced sums reproduce ``mean`` and ``std(ddof=1)`` bit for bit."""
        x, y, seed = Exponential(0.7), Normal(1.5, 2.0), SeedSpec(8, 123)
        alphas = [0.0, 0.1, 1 / 3, 0.9, 1.0]
        dx, dy = whole_row_deviations(x, 3, y, 2, trials, seed)
        curve = estimate_error_curve(x, 3, y, 2, alphas, trials, seed)
        expected = numpy_statistics(dx, dy, alphas, y.mean() - x.mean())
        assert [(point.mean_sq_error, point.std_error) for point in curve] == expected

    def test_point_mass_endpoints_exact(self):
        curve = estimate_error_curve(
            PointMass(2.0), 4, PointMass(2.5), 4, [0.0, 1.0], 200, SeedSpec(5)
        )
        assert curve[0].mean_sq_error == 0.0
        assert curve[1].mean_sq_error == 0.25

    def test_empirical_argmin_near_optimum(self):
        scenario = SampledScenario(Normal(0.0, 1.0), 10, Normal(0.2, 1.0), 40)
        profile = error_profile(reduce_to_two_agent(scenario))
        alphas = np.linspace(0.0, 1.0, 11)
        curve = estimate_error_curve(
            scenario.x, scenario.n_x, scenario.y, scenario.n_y, alphas, TRIALS, SeedSpec(17)
        )
        empirical = float(alphas[int(np.argmin([p.mean_sq_error for p in curve]))])
        assert abs(empirical - profile.alpha_star) <= 0.1


class TestRowMeans:
    @settings(deadline=None, max_examples=200)
    @given(
        a=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.one_of(
                st.sampled_from([-0.0, 0.0, 1.0]),
                st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            ),
        )
    )
    @example(a=np.full((3, 2), -0.0))
    @example(a=np.array([[-0.0, 0.0, -0.0, 1.0, 0.0, 1.0, -0.0]]))
    def test_bitwise_equal_numpy_mean(self, a):
        """Also catches a numpy that changes how it adds up a short row."""
        assert mc._row_means(a).tobytes() == a.mean(axis=1).tobytes()


class TestTrialMeans:
    def test_moment_checks_for_weighted_average(self):
        """Simulated mean and variance of the combined estimator."""
        x, n_x, y, n_y = Normal(1.0, 2.0), 8, Uniform(0.0, 2.0), 50
        xbar, ybar = trial_means(x, n_x, y, n_y, TRIALS, SeedSpec(19))
        for alpha in (0.0, 0.3, 0.7, 1.0):
            est = (1 - alpha) * xbar + alpha * ybar
            closed_mean = (1 - alpha) * x.mean() + alpha * y.mean()
            mean_band = 4.0 * est.std(ddof=1) / math.sqrt(TRIALS)
            assert abs(est.mean() - closed_mean) <= mean_band
            closed_var = (1 - alpha) ** 2 * x.variance() / n_x + alpha**2 * y.variance() / n_y
            var_band = 5.0 * variance_std_error(est)
            assert abs(est.var(ddof=1) - closed_var) <= var_band

    def test_bias_variance_decomposition(self):
        x, n_x, y, n_y = Bernoulli(0.5), 20, Normal(1.0, 1.0), 10
        xbar, ybar = trial_means(x, n_x, y, n_y, TRIALS, SeedSpec(23))
        alpha = 0.4
        est = (1 - alpha) * xbar + alpha * ybar
        sq = (est - x.mean()) ** 2
        ese_mc = sq.mean()
        decomposition = est.var(ddof=1) + (est.mean() - x.mean()) ** 2
        band = 4.0 * sq.std(ddof=1) / math.sqrt(TRIALS)
        assert abs(ese_mc - decomposition) <= band

    def test_point_mass_sides_do_not_shift_draws(self):
        """A constant agent still reserves its slots in the trial stream."""
        _, ybar_with_const = trial_means(PointMass(0.0), 3, Normal(0, 1), 5, 50, SeedSpec(29))
        _, ybar_with_noise = trial_means(Normal(9.0, 1.0), 3, Normal(0, 1), 5, 50, SeedSpec(29))
        assert np.array_equal(ybar_with_const, ybar_with_noise)

    def test_a_constant_helper_at_an_infinite_count(self):
        # Never drawn, so its count moves nothing: x's means are n_y = 1's.
        xbar, ybar = trial_means(Normal(0.0, 1.0), 10, PointMass(0.5), math.inf, 200, SeedSpec(31))
        assert np.array_equal(ybar, np.full(200, 0.5))
        assert np.array_equal(xbar, trial_means(Normal(0.0, 1.0), 10, PointMass(0.5), 1, 200, SeedSpec(31))[0])

    def test_a_varying_helper_at_an_infinite_count(self):
        # Its mean is exact, so it is never drawn: the constant helper's means at its mean.
        xbar, ybar = trial_means(Normal(0.0, 1.0), 10, Exponential(2.0), math.inf, 200, SeedSpec(31))
        assert np.array_equal(ybar, np.full(200, 0.5))
        assert np.array_equal(xbar, trial_means(Normal(0.0, 1.0), 10, PointMass(0.5), 1, 200, SeedSpec(31))[0])


RANDOM_SIDES = (Normal(0.3, 1.2), Uniform(-1.0, 2.0), Bernoulli(0.35), Exponential(1.5))
CONSTANT_SIDE = PointMass(0.75)


def _whole_row_means(x, n_x, y, n_y, trials, seed):
    """Each side's ``mean()`` plus its naive ``whole_row_deviations``: ``trial_means``' reference."""
    return tuple(dist.mean() + d for dist, d in zip((x, y), whole_row_deviations(x, n_x, y, n_y, trials, seed)))


class TestNaiveReference:
    """``trial_means`` gives the naive reference's bits for every family, on either path."""

    # Each family on each side, a constant on each side. A 64-draw chunk
    # sends the 300-draw side down the long path, in leaves of at most 128.
    @pytest.mark.parametrize("chunk_draws", [65_536, 64], ids=["fits_a_chunk", "side_beyond_a_chunk"])
    @pytest.mark.parametrize(
        "x,y",
        list(zip(RANDOM_SIDES + (CONSTANT_SIDE,), (CONSTANT_SIDE,) + RANDOM_SIDES)),
        ids=["normal_constant", "uniform_normal", "bernoulli_uniform", "exponential_bernoulli", "constant_exponential"],
    )
    def test_bitwise_equal(self, monkeypatch, chunk_draws, x, y):
        args = (x, 5, y, 300, 40, SeedSpec(17, 2**64 - 9))
        expected = _means_bytes(_whole_row_means(*args))
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        assert _means_bytes(trial_means(*args)) == expected

    # A sum of zeros and ones is exact, so a Bernoulli side's deviation is
    # its successes over its draws less p, on either path; its mean is p
    # plus that, which is not always the share itself (p = 0.3 and 11 of 13).
    @pytest.mark.parametrize("chunk_draws", [65_536, 64], ids=["fits_a_chunk", "side_beyond_a_chunk"])
    def test_bernoulli_means_are_successes_over_draws(self, monkeypatch, chunk_draws):
        x, n_x, y, n_y, trials, seed = Bernoulli(0.3), 13, Bernoulli(0.6), 300, 40, SeedSpec(18, 2**64 - 7)
        u = uniform_matrix(seed.master_seed, seed.stream_id, trials, n_x + n_y)
        shares = ((u[:, :n_x] < x.p).sum(axis=1) / n_x, (u[:, n_x:] < y.p).sum(axis=1) / n_y)
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        expected = tuple(dist.p + (share - dist.p) for dist, share in zip((x, y), shares))
        assert _means_bytes(trial_means(x, n_x, y, n_y, trials, seed)) == _means_bytes(expected)


# A process's ru_maxrss starts from the peak of the process that started
# it, the test runner here; a child forked from a bare interpreter starts
# from that interpreter's RSS. So each memory script runs in such a child.
FORKED = """
import os
if os.fork():
    os._exit(os.waitstatus_to_exitcode(os.wait()[1]))
"""

# Peak RSS in MiB of a fresh interpreter that takes 20 trials' means of a
# uniform x side of argv[1] draws beside a constant y.
LONG_STREAM_PEAK = FORKED + """
import resource, sys
from collab_avg import montecarlo as mc
from collab_avg.distributions import PointMass, SeedSpec, Uniform
mc.trial_means(Uniform(0.0, 1.0), int(sys.argv[1]), PointMass(0.0), 1, 20, SeedSpec(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


# Peak RSS in MiB of a fresh interpreter on 2 CPUs that estimates a curve at
# argv[1] trials of a 2-draw side beside a 512-draw one, longer than a
# 511-draw chunk: the long side is drawn a trial at a time, in two leaves
# of 256 draws, each a single call of numpy's C Philox.
LONG_TRIAL_PEAK = FORKED + """
import resource, sys
os.sched_getaffinity = lambda pid: {0, 1}
from collab_avg import montecarlo as mc
from collab_avg.distributions import Normal, SeedSpec, Uniform
mc._CHUNK_DRAWS = 511
mc._SUITE_LEAF = 1_024
mc.estimate_error_curve(Normal(0.0, 1.0), 2, Uniform(0.0, 1.0), 512, mc.VALIDATION_ALPHAS, int(sys.argv[1]), SeedSpec(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


# Minor page faults of a fresh interpreter on one CPU while it estimates a
# curve at argv[1] trials of 7,000-draw streams (numpy's C Philox), once
# what sampling loads is loaded.
LONG_STREAM_FAULTS = """
import os, resource, sys
os.sched_getaffinity = lambda pid: {0}
from collab_avg import montecarlo as mc
from collab_avg.distributions import Exponential, Normal, SeedSpec
args = (Normal(0.0, 1.0), 1000, Exponential(1.0), 6000, mc.VALIDATION_ALPHAS, int(sys.argv[1]), SeedSpec(0))
mc._load_sampling(mc._draw_plan([mc.SampledScenario(*args[:4])])[0])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mc.estimate_error_curve(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestLongStreams:
    """A trial longer than a chunk is drawn side by side in leaves, with the whole row's bits."""

    @settings(deadline=None, max_examples=25)
    @given(
        x=st.sampled_from(RANDOM_SIDES + (CONSTANT_SIDE,)),
        y=st.sampled_from(RANDOM_SIDES + (CONSTANT_SIDE,)),
        long=st.integers(60_000, 200_000),
        short=st.integers(1, 40_000),
        long_first=st.booleans(),
        seed=st.sampled_from([SeedSpec(0), SeedSpec(5, 2**64 - 1)]),
    )
    # Sides straddling a leaf, and sides of fewer than 8 draws beside a long one.
    @example(x=RANDOM_SIDES[0], y=RANDOM_SIDES[1], long=65_535, short=2, long_first=True, seed=SeedSpec(1))
    @example(x=RANDOM_SIDES[1], y=RANDOM_SIDES[2], long=65_536, short=1, long_first=True, seed=SeedSpec(2))
    @example(x=RANDOM_SIDES[2], y=RANDOM_SIDES[3], long=65_537, short=7, long_first=True, seed=SeedSpec(3))
    @example(x=RANDOM_SIDES[3], y=RANDOM_SIDES[0], long=131_073, short=3, long_first=False, seed=SeedSpec(4))
    @example(x=CONSTANT_SIDE, y=RANDOM_SIDES[0], long=65_537, short=5, long_first=False, seed=SeedSpec(5))
    def test_bitwise_equal_whole_row_mean(self, x, y, long, short, long_first, seed):
        """Also catches a numpy that changes its pairwise rule."""
        short = max(short, mc._CHUNK_DRAWS + 1 - long)  # a trial longer than a chunk
        n_x, n_y = (long, short) if long_first else (short, long)
        means = trial_means(x, n_x, y, n_y, 2, seed)
        assert _means_bytes(means) == _means_bytes(_whole_row_means(x, n_x, y, n_y, 2, seed))

    def test_a_side_that_fits_a_chunk_is_drawn_for_many_trials_at_once(self, monkeypatch):
        # 70,000 draws are two leaves of 35,000, drawn trial by trial; the
        # 100-draw side takes one call for all 20 trials.
        x, n_x, y, n_y, trials, seed = Normal(0.0, 1.0), 100, Uniform(0.0, 1.0), 70_000, 20, SeedSpec(1)
        spy = _DrawSpy(monkeypatch)
        means = trial_means(x, n_x, y, n_y, trials, seed)
        assert spy.calls == [(trials, 100, 0)] + [(1, 35_000, 100), (1, 35_000, 35_100)] * trials
        assert _means_bytes(means) == _means_bytes(_whole_row_means(x, n_x, y, n_y, trials, seed))

    def test_memory_does_not_grow_with_the_stream(self):
        def peak(n_x: int) -> float:
            result = subprocess.run(
                [sys.executable, "-c", LONG_STREAM_PEAK, str(n_x)], capture_output=True, timeout=120
            )
            assert result.returncode == 0, result.stderr
            return float(result.stdout)

        assert peak(2_000_000) < peak(20_000) + 2.0

    def test_chunks_reuse_their_pages(self):
        # Each chunk's uniforms stay bound until the next chunk's are made,
        # so glibc never trims the heap between chunks: about 560 faults at
        # 500 trials and at 2,000 on a 2-core Xeon. Freeing them at the end
        # of each chunk took 10,954 and 43,757, the next chunk faulting back
        # in what the trim gave up.
        def faults(trials: int) -> int:
            result = subprocess.run(
                [sys.executable, "-c", LONG_STREAM_FAULTS, str(trials)], capture_output=True, timeout=120
            )
            assert result.returncode == 0, result.stderr
            return int(result.stdout)

        assert faults(2_000) < faults(500) + 1_000

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="workers need sched_getaffinity")
    def test_curve_memory_does_not_grow_with_trials(self):
        # 100,000 trials' means are 1.6 MB; held whole, they peaked 1.7 MiB
        # above 10,000 trials' on a 2-core Xeon. Leaves hold at most 1,024
        # trials' means.
        def peak(trials: int) -> float:
            result = subprocess.run(
                [sys.executable, "-c", LONG_TRIAL_PEAK, str(trials)], capture_output=True, timeout=300
            )
            assert result.returncode == 0, result.stderr
            return float(result.stdout)

        assert peak(100_000) < peak(10_000) + 1.0


def _means_bytes(means) -> bytes:
    xbar, ybar = means
    return xbar.tobytes() + ybar.tobytes()


class TestWorkers:
    """Trial means are drawn in this process, whatever the CPUs and the forking threshold."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "args",
        [
            # 24 draws per trial: chunks of 2,730 trials, the last one short.
            (Normal(0, 1), 11, Exponential(2.0), 13, 10_001, SeedSpec(7)),
            (PointMass(0.5), 11, Exponential(2.0), 13, 10_001, SeedSpec(7)),
            (Normal(0, 1), 11, PointMass(0.5), 13, 10_001, SeedSpec(7)),
            # 300-draw streams go through numpy's C Philox.
            (Normal(0, 1), 200, Uniform(0, 1), 100, 1_000, SeedSpec(8, 2**64 - 3)),
            # Trials longer than a chunk: one trial per chunk, drawn in leaves.
            (Uniform(0, 1), 70_000, Normal(0, 1), 3, 5, SeedSpec(9, 2**64 - 2)),
        ],
        ids=["both_random", "pointmass_x", "pointmass_y", "c_philox_stream", "long_stream"],
    )
    def test_no_fork_and_serial_bytes(self, monkeypatch, cpus, args):
        force_cpus(monkeypatch, 1)
        # Kept alive, so the next result cannot reuse (and so inherit) its memory.
        serial = trial_means(*args)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        forks = force_cpus(monkeypatch, cpus)
        assert _means_bytes(trial_means(*args)) == _means_bytes(serial)
        assert forks == []

    def test_unallocatable_shared_buffer_reports_numpy_error(self, monkeypatch):
        forks = force_cpus(monkeypatch, 2)
        with pytest.raises(MemoryError, match="^Unable to allocate"):
            trial_means(Normal(0, 1), 5, PointMass(0.0), 1, 2**58, SeedSpec(1))
        assert forks == []


def _curve_inputs(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial deviations on very different scales, so any change in summation order shows."""
    rng = np.random.default_rng(seed)
    dx = rng.normal(0.0, 1.0, trials) * 10.0 ** rng.integers(-3, 4, trials)
    return dx, rng.exponential(2.0, trials)


def _statistics(dx, dy, alphas, leaf=32_768, parallel=False, b=0.25):
    """``(mean, std_error)`` per weight from ``_tree_statistics`` of ``_curve_sums`` over these deviations.

    In leaves of at most ``leaf`` trials, both passes forked when
    ``parallel``, as ``estimate_suite_curves`` sums a leaf's deviations.
    """
    trials = dx.size
    scratch = np.empty((3, min(trials, leaf)))

    def leaf_sums(lo, hi, centres):
        return mc._curve_sums(dx[lo:hi], dy[lo:hi], alphas, b, scratch[:, : hi - lo], centres)

    mean, std = mc._tree_statistics(leaf_sums, trials, leaf, (len(alphas),), (parallel, parallel))
    return [(float(m), float(s) / math.sqrt(trials)) for m, s in zip(mean, std)]


CURVE_ALPHAS = [0.0, 0.05, 1 / 3, 0.5, 0.9, 1.0]


class TestCurveStatistics:
    """The curve statistics: numpy's bits from leaf-sized slices, on any worker count."""

    @settings(deadline=None, max_examples=40)
    @given(leaf=st.sampled_from([128, 256]), trials=st.integers(2, 5_000), seed=st.integers(0, 2**32))
    @example(leaf=128, trials=127, seed=1)
    @example(leaf=128, trials=128, seed=2)
    @example(leaf=128, trials=129, seed=3)
    @example(leaf=128, trials=9 * 128 + 7, seed=4)
    @example(leaf=256, trials=255, seed=5)
    @example(leaf=256, trials=256, seed=6)
    @example(leaf=256, trials=257, seed=7)
    @example(leaf=256, trials=17 * 256 + 7, seed=8)
    def test_bitwise_equal_numpy_mean_and_std(self, leaf, trials, seed):
        # A small leaf makes a deep tree out of few trials.
        dx, dy = _curve_inputs(trials, seed)
        assert _statistics(dx, dy, CURVE_ALPHAS, leaf) == numpy_statistics(dx, dy, CURVE_ALPHAS, 0.25)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("weights", [2, 21])
    def test_any_worker_count_gives_numpy_statistics(self, monkeypatch, cpus, weights):
        # Inputs differ per case and the reference is numpy's own, so a result
        # the workers never wrote cannot pass by reusing an earlier result's
        # freed memory. 70,001 trials are four leaves, split over the CPUs
        # whatever the weight count.
        dx, dy = _curve_inputs(70_001, 10 * cpus + weights)
        alphas = list(np.linspace(0.0, 1.0, weights))
        expected = numpy_statistics(dx, dy, alphas, 0.25)
        forks = force_cpus(monkeypatch, cpus)
        assert _statistics(dx, dy, alphas, parallel=True) == expected
        assert len(forks) == 2 * round_forks(cpus)  # a round per pass
        assert no_child_left()

    @pytest.mark.parametrize("reached", [False, True], ids=["below", "at"])
    def test_trials_times_weights_threshold(self, monkeypatch, reached):
        # A scenario's curve sums its trials in workers from the threshold
        # on; its draws stay in this process.
        alphas = CURVE_ALPHAS
        trials = -(-mc._PARALLEL_MIN_CURVE // len(alphas)) - (0 if reached else 1)
        args = (Normal(0.0, 1.0), 2, Uniform(0.0, 1.0), 2, alphas, trials, SeedSpec(10))
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 10**18)
        force_cpus(monkeypatch, 1)
        serial = estimate_error_curve(*args)
        forks = force_cpus(monkeypatch, 2)
        assert estimate_error_curve(*args) == serial
        assert len(forks) == (round_forks(2) if reached else 0)
        assert no_child_left()

    def test_failed_worker_leaves_are_redone_here(self, monkeypatch):
        dx, dy = _curve_inputs(70_001, 11)
        serial = _statistics(dx, dy, CURVE_ALPHAS)
        parent = os.getpid()
        curve_sums = mc._curve_sums
        failed = mmap.mmap(-1, 1)  # set by a worker, seen here

        def fails_in_child(*args):
            if os.getpid() != parent:
                failed[0] = 1
                raise RuntimeError("worker failure")
            return curve_sums(*args)

        monkeypatch.setattr(mc, "_curve_sums", fails_in_child)
        forks = force_cpus(monkeypatch, 2)
        assert _statistics(dx, dy, CURVE_ALPHAS, parallel=True) == serial
        assert len(forks) == 2 * round_forks(2)
        assert failed[0] == 1
        assert no_child_left()

    def test_forking_decides_only_who_makes_each_subtree(self, monkeypatch):
        # 128-trial leaves cut 20,001 trials on 2 CPUs into 12 subtrees per
        # pass, whether both passes fork or neither does: a serial run walks
        # the subtrees of a forked one, to the same bits.
        args = (Normal(0.0, 1.0), 4, Uniform(0.0, 1.0), 4, CURVE_ALPHAS, 20_001, SeedSpec(21))
        monkeypatch.setattr(mc, "_SUITE_LEAF", 128)
        ordered_map, items = mc.ordered_map, []

        def counted(make, n, workers):
            items.append(n)
            return ordered_map(make, n, workers)

        monkeypatch.setattr(mc, "ordered_map", counted)
        curves = []
        for threshold, rounds in ((0, 2), (10**18, 0)):
            monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", threshold)
            monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", threshold)
            forks = force_cpus(monkeypatch, 2)
            curves.append(estimate_error_curve(*args))
            assert len(forks) == rounds * round_forks(2)
        assert curves[0] == curves[1]
        assert items == [12] * 4
        assert no_child_left()

    def test_memory_is_bounded_by_the_leaf(self, monkeypatch):
        # One trial-length buffer at 1M trials is 8 MB. Two whole reused
        # buffers peaked at 15.3 MiB here; leaf-sized scratch peaks at 0.51
        # MiB. Serial, so every allocation is this process's own.
        dx, dy = _curve_inputs(1_000_000, 12)
        alphas = list(np.linspace(0.0, 1.0, 21))
        force_cpus(monkeypatch, 1)
        tracemalloc.start()
        try:
            _statistics(dx, dy, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="workers need sched_getaffinity")
    def test_each_process_reads_only_its_own_leaves(self):
        # 1M trials of 4-draw streams: 16 MB of means, half of them per
        # process on 2 CPUs. Splitting the weights instead had each process
        # read all of them: 14.2 MiB above the baseline on a 2-core Xeon,
        # against 6.6 MiB split by leaves.
        result = subprocess.run([sys.executable, "-c", LEAF_SPLIT_PEAKS], capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        baseline, own, children = ast.literal_eval(result.stdout.decode())
        limit = baseline + 0.6 * 16e6 / 1024
        assert own < limit
        assert children < limit


# A fresh interpreter on 2 CPUs: ru_maxrss in KiB of this process before and
# after estimating a 21-weight curve at 1M trials, and of its workers. The
# baseline is taken after a serial 100,000-trial call, so it holds the
# sampler's chunk and the curve's leaf of scratch, which do not grow with
# the trial count.
LEAF_SPLIT_PEAKS = FORKED + """
import resource
os.sched_getaffinity = lambda pid: {0, 1}
from collab_avg import montecarlo as mc
from collab_avg.distributions import Normal, SeedSpec, Uniform

def curve(trials):
    mc.estimate_error_curve(Normal(0.0, 1.0), 2, Uniform(0.0, 1.0), 2, mc.VALIDATION_ALPHAS, trials, SeedSpec(0))

curve(100_000)
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
curve(1_000_000)
print([baseline, *(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))])
"""


# A fresh interpreter on 2 CPUs that forks at any size and records, at each
# fork, how many ndtri functions and how many numpy Philox generators are loaded,
# around the call its argument names: suites of four scenarios that share
# draws 0 .. 4 or draws 0 .. 299 of each stream, and a suite of a 300-draw
# scenario and a 5-draw one that holds its normal side.
SCIPY_AT_FORK = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from collab_avg import _philox, _workers, montecarlo as mc
from collab_avg.distributions import Exponential, Normal, SeedSpec, _load_ndtri

fork = _workers._fork
loaded = []


def recording(work):
    loaded.append((_load_ndtri.cache_info().currsize, _philox._load_generator.cache_info().currsize))
    return fork(work)


_workers._fork = recording
mc._PARALLEL_MIN_DRAWS = mc._PARALLEL_MIN_CURVE = 0
call = sys.argv[1]
if call == "suite_overlapping":
    suite = [mc.SampledScenario(Exponential(1.0), 200, Exponential(1.0), 100)]
    suite.append(mc.SampledScenario(Normal(0.0, 1.0), 3, Exponential(1.0), 2))
    mc.estimate_suite_curves(suite, [0.5], 20_000, SeedSpec(0))
else:
    n = 5 if call == "suite_short" else 300
    side = Normal(0.0, 1.0) if call == "suite_short" else Exponential(1.0)
    suite = [mc.SampledScenario(side, i, Exponential(1.0), n - i) for i in (1, 2, 3, 4)]
    mc.estimate_suite_curves(suite, [0.5], 20_000, SeedSpec(0))
print(loaded)
"""


def _loaded_at_forks(call: str) -> list[tuple[int, int]]:
    result = subprocess.run([sys.executable, "-c", SCIPY_AT_FORK, call], capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.decode())


def test_suite_loads_its_modules_before_forking():
    # A round per pass: 20,000 trials are two leaves, one per worker.
    assert _loaded_at_forks("suite_short") == [(1, 0)] * (2 * round_forks(2))
    assert _loaded_at_forks("suite_long") == [(0, 1)] * (2 * round_forks(2))
    # One plan for the suite: its 300-draw run and its normal side are
    # both loaded for before the first fork.
    assert _loaded_at_forks("suite_overlapping") == [(1, 1)] * (2 * round_forks(2))


class _DrawSpy:
    """Records each ``uniform_matrix`` call's ``(n_streams, count, start)``."""

    def __init__(self, monkeypatch):
        self.calls = []
        draw = mc.uniform_matrix

        def spy(master_seed, first_stream, n_streams, count, start=0):
            self.calls.append((n_streams, count, start))
            return draw(master_seed, first_stream, n_streams, count, start)

        monkeypatch.setattr(mc, "uniform_matrix", spy)

    @property
    def draws(self) -> int:
        return sum(n_streams * count for n_streams, count, _ in self.calls)


# Shares draws 0 .. 23 of each stream: 24 + 21 + 20 + 13 + 24 + 0 = 102
# draws when each scenario draws its own, more than 2 x 24. Every family,
# constant sides on either side and on both.
SHARED_SUITE = (
    SampledScenario(Normal(0.3, 1.2), 11, Exponential(2.0), 13),
    SampledScenario(Uniform(-1.0, 1.0), 20, Bernoulli(0.4), 1),
    SampledScenario(PointMass(0.5), 4, Normal(0.0, 2.0), 20),
    SampledScenario(Bernoulli(0.3), 13, PointMass(-1.0), 4),
    SampledScenario(Exponential(0.5), 3, Uniform(0.0, 2.0), 21),
    SampledScenario(PointMass(1.0), 5, PointMass(2.0), 5),
)


# Two 40-draw scenarios over the same range: their sides overlap in draws 0
# .. 39, which a trial draws once.
OVERLAP_SUITE = (
    SampledScenario(Normal(0.0, 1.0), 15, Uniform(0.0, 1.0), 25),
    SampledScenario(Exponential(1.0), 30, Normal(1.0, 1.0), 10),
)


# Random sides in draws 0 .. 4 and 60 .. 64: the constant sides' draws 5 ..
# 59 between them are never drawn.
GAP_SUITE = (
    SampledScenario(Normal(0.0, 1.0), 5, PointMass(0.0), 5),
    SampledScenario(PointMass(1.0), 60, Normal(1.0, 2.0), 5),
)


# Every x constant: the span these share is draws 4 .. 23.
CONSTANT_X_SUITE = (
    SampledScenario(PointMass(0.5), 4, Normal(0.0, 2.0), 20),
    SampledScenario(PointMass(-1.0), 4, Exponential(1.5), 20),
    SampledScenario(PointMass(2.0), 10, Uniform(0.0, 1.0), 14),
    SampledScenario(PointMass(0.0), 4, Bernoulli(0.6), 20),
)


# A family's sides whose draws overlap or adjoin share one kernel over the
# draws covering them (span 0 .. 29). Normal sides: 10 .. 21 and 16 .. 29,
# which overlap. Exponential sides: 4 .. 11 and 8 .. 13 together, then 20 ..
# 25 alone, leaving 14 .. 19 out. The sd-0 normal (draws 0 .. 3) and the
# Bernoulli sides at p = 0 and p = 1, of fewer than 8 and of 8 or more
# draws, have variance 0: no kernel takes them, and each is its mean.
KERNEL_SUITE = (
    SampledScenario(Normal(1.0, 0.0), 4, Exponential(2.0), 8),
    SampledScenario(Uniform(0.0, 1.0), 10, Normal(0.3, 1.2), 12),
    SampledScenario(PointMass(0.5), 8, Exponential(0.5), 6),
    SampledScenario(Uniform(-1.0, 1.0), 16, Normal(-1.0, 0.7), 14),
    SampledScenario(Uniform(2.0, 3.0), 20, Exponential(1.0), 6),
    SampledScenario(Bernoulli(1.0), 5, Bernoulli(0.0), 25),
    SampledScenario(Bernoulli(0.0), 3, Bernoulli(1.0), 9),
)


def _alone(suite, alphas, trials, seed):
    """Each scenario's curve from numpy's own ``mean`` and ``std(ddof=1)`` over its ``whole_row_deviations``."""
    curves = []
    for s in suite:
        dx, dy = whole_row_deviations(s.x, s.n_x, s.y, s.n_y, trials, seed)
        pairs = numpy_statistics(dx, dy, alphas, s.y.mean() - s.x.mean())
        curves.append([mc.MonteCarloEstimate(a, mean, se, trials, seed) for a, (mean, se) in zip(alphas, pairs)])
    return curves


PROC_FD = os.path.isdir("/proc/self/fd")

# Peak RSS in MiB of a fresh interpreter on 2 CPUs that estimates the suite
# pickled on stdin at argv[1] trials.
SUITE_PEAK = FORKED + """
import pickle, resource, sys
os.sched_getaffinity = lambda pid: {0, 1}
from collab_avg import montecarlo as mc
from collab_avg.distributions import SeedSpec
mc.estimate_suite_curves(pickle.load(sys.stdin.buffer), mc.VALIDATION_ALPHAS, int(sys.argv[1]), SeedSpec(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


# Peak RSS in MiB of a fresh interpreter on 1 CPU that estimates a suite of
# argv[1] scenarios with two constant sides at 100,000 trials.
CONSTANT_SUITE_PEAK = FORKED + """
import resource, sys
os.sched_getaffinity = lambda pid: {0}
from collab_avg import montecarlo as mc
from collab_avg.distributions import PointMass, SeedSpec
suite = [mc.SampledScenario(PointMass(1.0), 3, PointMass(1.5), 5)] * int(sys.argv[1])
mc.estimate_suite_curves(suite, mc.VALIDATION_ALPHAS, 100_000, SeedSpec(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


class Rate(Exponential):
    """A family of its own that reuses Exponential's kernel."""


class TestSuiteCurves:
    """A suite that shares its streams gives each scenario's own estimates, bit for bit."""

    # 20,001 trials are four leaves of 8,192 trials at most (5,000, the last
    # one 5,001), not a multiple of the leaf; the seed's stream ids wrap at
    # 2**64 within the first leaf.
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "suite,first,span",
        [(SHARED_SUITE, 0, 24), (CONSTANT_X_SUITE, 4, 20), (KERNEL_SUITE, 0, 30)],
        ids=["shared", "constant_x", "kernels"],
    )
    def test_each_scenario_bitwise_as_alone(self, monkeypatch, cpus, suite, first, span):
        trials, seed = 20_001, SeedSpec(7, 2**64 - 3)
        expected = _alone(suite, CURVE_ALPHAS, trials, seed)
        monkeypatch.setattr(mc, "_SUITE_LEAF", 8_192)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, cpus)
        spy = _DrawSpy(monkeypatch)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, seed) == expected
        assert len(forks) == 2 * round_forks(cpus)
        assert no_child_left()
        if cpus == 1:  # the workers' draws are not seen here
            assert spy.calls[0] == (mc._CHUNK_DRAWS // span, span, first)
            assert spy.draws == 1 * trials * span  # pass 2 reads pass 1's means back

    @pytest.mark.parametrize("trials", [100, 128 * 9 + 5])
    def test_many_small_leaves(self, monkeypatch, trials):
        # A 128-trial leaf makes a deep tree out of few trials: one leaf of
        # 100, or sixteen of 72 to 77.
        expected = _alone(SHARED_SUITE, CURVE_ALPHAS, trials, SeedSpec(11))
        monkeypatch.setattr(mc, "_SUITE_LEAF", 128)
        assert mc.estimate_suite_curves(SHARED_SUITE, CURVE_ALPHAS, trials, SeedSpec(11)) == expected

    def test_more_workers_than_cores(self, monkeypatch):
        # Six processes write and read sixteen leaves of one scratch file.
        trials, seed = 128 * 9 + 5, SeedSpec(16)
        expected = _alone(KERNEL_SUITE, CURVE_ALPHAS, trials, seed)
        monkeypatch.setattr(mc, "_SUITE_LEAF", 128)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, 6)
        assert mc.estimate_suite_curves(KERNEL_SUITE, CURVE_ALPHAS, trials, seed) == expected
        assert len(forks) == 2 * round_forks(6)
        assert no_child_left()

    def test_failed_worker_leaves_are_redone_here(self, monkeypatch):
        trials, seed = 20_001, SeedSpec(12)
        expected = _alone(SHARED_SUITE, CURVE_ALPHAS, trials, seed)
        parent = os.getpid()
        draw = mc.uniform_matrix
        failed = mmap.mmap(-1, 1)  # set by a worker, seen here

        def fails_in_child(*args):
            if os.getpid() != parent:
                failed[0] = 1
                raise RuntimeError("worker failure")
            return draw(*args)

        monkeypatch.setattr(mc, "uniform_matrix", fails_in_child)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, 2)
        assert mc.estimate_suite_curves(SHARED_SUITE, CURVE_ALPHAS, trials, seed) == expected
        assert len(forks) == 2 * round_forks(2)
        assert failed[0] == 1
        assert no_child_left()

    @pytest.mark.parametrize("ending", ["passed", "failed_worker", "interrupted"])
    def test_leaves_no_scratch_file(self, monkeypatch, tmp_path, ending):
        # Unless it passes, every worker fails, and an interrupted run is
        # interrupted here, redoing their leaves.
        trials, seed = 20_001, SeedSpec(15)
        expected = _alone(SHARED_SUITE, CURVE_ALPHAS, trials, seed)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        parent = os.getpid()
        write_at = mc._write_at
        failed = mmap.mmap(-1, 1)  # set by a worker, seen here
        # At each write, in any process: [0] set, and [1] set if the file
        # had a name in the directory or its path was outside it.
        seen = mmap.mmap(-1, 2)

        def watched(fd, a, offset):
            seen[0] = 1
            name = os.readlink(f"/proc/self/fd/{fd}") if PROC_FD else str(tmp_path)
            if os.listdir(tmp_path) or not name.startswith(str(tmp_path)):
                seen[1] = 1
            if os.getpid() != parent:
                if ending != "passed":
                    failed[0] = 1
                    raise RuntimeError("worker failure")
            elif ending == "interrupted":
                raise KeyboardInterrupt
            write_at(fd, a, offset)

        monkeypatch.setattr(mc, "_write_at", watched)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        force_cpus(monkeypatch, 2)
        if ending == "interrupted":
            with pytest.raises(KeyboardInterrupt):
                mc.estimate_suite_curves(SHARED_SUITE, CURVE_ALPHAS, trials, seed)
        else:
            assert mc.estimate_suite_curves(SHARED_SUITE, CURVE_ALPHAS, trials, seed) == expected
        assert failed[0] == (ending != "passed")
        assert no_child_left()
        # Unlinked from the start, in the temporary directory.
        assert seen[:] == b"\x01\x00"
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="workers need sched_getaffinity")
    def test_memory_does_not_grow_with_trials(self):
        # c06's suite has 19 random sides: 30.4 MB of trial means at 200,000
        # trials, 7.6 MB at 50,000. Both are cut into leaves of 6,250 trials.
        def peak(trials: int) -> float:
            result = subprocess.run(
                [sys.executable, "-c", SUITE_PEAK, str(trials)],
                input=pickle.dumps(MC_SUITE),
                capture_output=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            return float(result.stdout)

        assert peak(200_000) < peak(50_000) + 1.0

    def test_constant_sides_hold_no_trial_means(self):
        # Filled in per trial, 20 such scenarios' sides would take 20 x 2 x
        # 50,000 floats in each of the two leaves, 15.3 MiB: a peak 14.6 MiB
        # above one scenario's when measured. A constant side is its value.
        def peak(scenarios: int) -> float:
            result = subprocess.run(
                [sys.executable, "-c", CONSTANT_SUITE_PEAK, str(scenarios)], capture_output=True, timeout=300
            )
            assert result.returncode == 0, result.stderr
            return float(result.stdout)

        assert peak(20) < peak(1) + 2.0

    def test_one_write_and_one_read_per_leaf(self, monkeypatch):
        # c06's 19 random sides get leaves of at most 8,192 trials: 20,000
        # trials are four leaves of 5,000, each written and read back as its
        # whole [random side, trial] block of the file.
        trials, sides = 20_000, 19
        blocks = [(8 * sides * 5_000, 8 * sides * lo) for lo in range(0, trials, 5_000)]
        writes, reads = [], []
        pwrite, pread = os.pwrite, os.pread

        def counted_pwrite(fd, data, offset):
            writes.append((memoryview(data).nbytes, offset))
            return pwrite(fd, data, offset)

        def counted_pread(fd, size, offset):
            reads.append((size, offset))
            return pread(fd, size, offset)

        monkeypatch.setattr(os, "pwrite", counted_pwrite)
        monkeypatch.setattr(os, "pread", counted_pread)
        forks = force_cpus(monkeypatch, 1)
        mc.estimate_suite_curves(MC_SUITE, mc.VALIDATION_ALPHAS, trials, SeedSpec(MC_BASE_SEED))
        assert writes == blocks
        assert reads == blocks
        assert forks == []

    def test_one_kernel_per_family_and_chunk(self, monkeypatch):
        # c06's normal sides take 190 draws per trial, all among draws 0 ..
        # 99: after the warm-up on zero draws, one ndtri over those 100 per
        # chunk, not one per side, and none in pass 2, which reads pass 1's
        # means back.
        suite, trials, seed = MC_SUITE, 1_000, SeedSpec(MC_BASE_SEED)
        expected = _alone(suite, CURVE_ALPHAS, trials, seed)
        ndtri = distributions._load_ndtri()
        shapes = []

        def counted(u):
            shapes.append(u.shape)
            return ndtri(u)

        monkeypatch.setattr(distributions, "_load_ndtri", lambda: counted)
        force_cpus(monkeypatch, 1)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, seed) == expected
        chunk = mc._CHUNK_DRAWS // 200
        assert shapes == [(0,)] + [(min(chunk, trials - lo), 100) for lo in range(0, trials, chunk)]

    def test_one_kernel_per_stretch_of_a_family(self, monkeypatch):
        # The normal sides take draws 0 .. 14 and 30 .. 39: after the warm-up
        # on zero draws, ndtri transforms those 25 per trial, not the 40 from
        # 0 to 39, and the bits hold.
        suite, trials, seed = OVERLAP_SUITE, 300, SeedSpec(15)
        expected = _alone(suite, CURVE_ALPHAS, trials, seed)
        ndtri = distributions._load_ndtri()
        shapes = []

        def counted(u):
            shapes.append(u.shape)
            return ndtri(u)

        monkeypatch.setattr(distributions, "_load_ndtri", lambda: counted)
        force_cpus(monkeypatch, 1)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, seed) == expected
        assert shapes[0] == (0,)
        assert sorted(shapes[1:]) == [(trials, 10), (trials, 15)]

    def test_zero_variance_sides_are_never_drawn(self, monkeypatch):
        # A normal of sd 0 and a Bernoulli of p 1 cannot vary: neither is
        # drawn or transformed, so the one run is the uniform sides' draws
        # 3 .. 9 and ndtri is never called.
        suite = [
            SampledScenario(Normal(1.0, 0.0), 4, Uniform(0.0, 1.0), 6),
            SampledScenario(Bernoulli(1.0), 3, Uniform(0.0, 1.0), 7),
        ]
        trials, seed = 200, SeedSpec(20)
        expected = _alone(suite, CURVE_ALPHAS, trials, seed)
        ndtri = distributions._load_ndtri()
        shapes = []

        def counted(u):
            shapes.append(u.shape)
            return ndtri(u)

        monkeypatch.setattr(distributions, "_load_ndtri", lambda: counted)
        force_cpus(monkeypatch, 1)
        ((first, end, _),), _ = mc._draw_plan(suite)
        assert (first, end) == (3, 10)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, seed) == expected
        assert shapes == []

    def test_a_family_that_reuses_a_kernel_shares_its_call(self, monkeypatch):
        # Draws 0 .. 4 and 5 .. 9 adjoin: after the warm-up on zero draws,
        # one call per 100-trial chunk over 10 draws, not one over each
        # side's 5, with the bits of each side alone.
        suite, trials, seed = [SampledScenario(Exponential(1.0), 5, Rate(2.0), 5)], 1_000, SeedSpec(19)
        expected = _alone(suite, CURVE_ALPHAS, trials, seed)
        kernel, shapes = Exponential(1.0)._kernel, []

        def counted(u):
            shapes.append(u.shape)
            return kernel(u)

        monkeypatch.setattr(Exponential, "_kernel", staticmethod(counted))
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", 1_000)
        force_cpus(monkeypatch, 1)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, seed) == expected
        assert shapes == [(0,)] + [(100, 10)] * 10

    def test_overlapping_sides_are_drawn_once(self, monkeypatch):
        # Every random side lies in draws 0 .. 39, and the constant side's
        # 20 .. 22 are among them: 40 uniforms per trial, not 40 + 40 + 20.
        suite = (*OVERLAP_SUITE, SampledScenario(Uniform(0.0, 1.0), 20, PointMass(0.0), 3))
        trials = 200
        expected = _alone(suite, CURVE_ALPHAS, trials, SeedSpec(14))
        force_cpus(monkeypatch, 1)
        spy = _DrawSpy(monkeypatch)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, SeedSpec(14)) == expected
        assert spy.calls == [(trials, 40, 0)]

    @pytest.mark.parametrize(
        "suite,chunk_draws,runs",
        [
            (SHARED_SUITE[:1], 65_536, [(0, 24)]),
            # Both scenarios' 40 draws, once: not 80.
            (OVERLAP_SUITE, 65_536, [(0, 40)]),
            # The four copies' 24 draws are more than a 16-draw chunk: their
            # x sides are one run and their y sides another, not eight runs.
            (SHARED_SUITE[:1] * 4, 16, [(0, 11), (11, 13)]),
            # Draws 0 .. 4 and 60 .. 64 only: 10 per trial, not 65.
            (GAP_SUITE, 65_536, [(0, 5), (60, 5)]),
        ],
        ids=["one_scenario", "overlapping", "span_beyond_a_chunk", "gap"],
    )
    def test_draws_each_run_chunk_by_chunk(self, monkeypatch, suite, chunk_draws, runs):
        trials = 200
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        force_cpus(monkeypatch, 1)
        expected = _alone(suite, CURVE_ALPHAS, trials, SeedSpec(13))
        spy = _DrawSpy(monkeypatch)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, SeedSpec(13)) == expected
        chunks = [(first, count, chunk_draws // count) for first, count in runs]
        assert spy.calls == [
            (min(rows, trials - lo), count, first) for first, count, rows in chunks for lo in range(0, trials, rows)
        ]

    def test_overlapping_suite_is_one_tree(self, monkeypatch):
        # Both scenarios are drawn leaf by leaf in one tree:
        # one round of forks per pass and one scratch file for the suite.
        trials, seed = 20_001, SeedSpec(17)
        expected = _alone(OVERLAP_SUITE, CURVE_ALPHAS, trials, seed)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, 2)
        files = []
        make = tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            files.append(1)
            return make(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        assert mc.estimate_suite_curves(OVERLAP_SUITE, CURVE_ALPHAS, trials, seed) == expected
        assert len(forks) == 2 * round_forks(2)
        assert files == [1]
        assert no_child_left()

    @pytest.mark.parametrize(
        "suite",
        [(SampledScenario(Uniform(0.0, 1.0), 1, Uniform(0.0, 1.0), 1),) * 3, OVERLAP_SUITE],
        ids=["shared", "overlapping"],
    )
    def test_leaf_of_128_trials_when_its_means_exceed_the_bound(self, monkeypatch, suite):
        # More random sides than _LEAF_MEANS: no power of two of trials fits.
        trials, seed = 128 * 3 + 5, SeedSpec(18)
        expected = _alone(suite, CURVE_ALPHAS, trials, seed)
        monkeypatch.setattr(mc, "_LEAF_MEANS", 1)
        assert mc.estimate_suite_curves(suite, CURVE_ALPHAS, trials, seed) == expected


# One of each family: Normal's kernel, Exponential's and the identity
# (uniform and Bernoulli), and a constant side.
FAMILY_MEMBERS = (Normal(0.0, 1.0), Uniform(0.0, 1.0), Bernoulli(0.5), Exponential(1.0), PointMass(0.0))
# A member of each family at drawn parameters, zero variance included (sd 0, p 0 or 1, a constant).
SIDES = st.one_of(
    st.builds(Normal, st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
    st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(-1e3, 1e3), st.floats(0.5, 1e3)),
    st.builds(Bernoulli, st.floats(0.0, 1.0)),
    st.builds(Exponential, st.floats(1e-3, 1e3)),
    st.builds(PointMass, st.floats(-1e3, 1e3)),
)


class TestDrawPlan:
    """A side joins the run before it when their draws overlap or adjoin and the run still fits a chunk.

    Within a run, sides whose classes share a ``_kernel`` join that kernel's stretches by the same rule, unbounded.
    """

    @pytest.mark.parametrize(
        "suite,chunk_draws,runs",
        [
            # Rows 0 .. 3 are draws 0 .. 14, 15 .. 39, 0 .. 29 and 30 .. 39.
            (OVERLAP_SUITE, 65_536, [(0, 40, [0, 2, 1, 3])]),
            (SHARED_SUITE[:1], 65_536, [(0, 24, [0, 1])]),
            (GAP_SUITE, 65_536, [(0, 5, [0]), (60, 5, [1])]),
            # Two copies of draws 0 .. 10 and 11 .. 23: 24 draws, more than a 16-draw chunk.
            (SHARED_SUITE[:1] * 2, 16, [(0, 11, [0, 2]), (11, 13, [1, 3])]),
            # Row 0 is draws 0 .. 19, longer than the chunk: row 2's draws 0 ..
            # 2 cannot join it, and row 1's 20 .. 22 start after row 2's run.
            (
                (
                    SampledScenario(Exponential(1.0), 20, Normal(0.0, 1.0), 3),
                    SampledScenario(Uniform(0.0, 1.0), 3, PointMass(0.0), 1),
                ),
                16,
                [(0, 20, [0]), (0, 3, [2]), (20, 3, [1])],
            ),
        ],
        ids=["overlapping", "adjoining", "gap", "union_beyond_a_chunk", "side_beyond_a_chunk"],
    )
    def test_runs_and_their_rows(self, monkeypatch, suite, chunk_draws, runs):
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        plan, _ = mc._draw_plan(suite)
        rows = [(first, end - first, {side[0] for *_, sides in ks for side in sides}) for first, end, ks in plan]
        assert rows == [(first, count, set(members)) for first, count, members in runs]

    @pytest.mark.parametrize(
        "suite,kernels",
        [
            # Uniform draws 0 .. 19 and Bernoulli draw 20 adjoin: one identity kernel.
            (SHARED_SUITE[1:2], [(distributions.Distribution._kernel, 0, 21, [0, 1])]),
            # The normal sides' draws 0 .. 14 and 30 .. 39 neither overlap nor adjoin.
            (
                OVERLAP_SUITE,
                [
                    (Normal._kernel, 0, 15, [0]),
                    (Normal._kernel, 30, 40, [3]),
                    (Exponential._kernel, 0, 30, [2]),
                    (distributions.Distribution._kernel, 15, 40, [1]),
                ],
            ),
        ],
        ids=["uniform_and_bernoulli", "overlapping"],
    )
    def test_kernels_and_their_rows(self, suite, kernels):
        ((_, _, planned),), _ = mc._draw_plan(suite)
        assert [(kernel, first, end, [side[0] for side in sides]) for kernel, first, end, sides in planned] == kernels

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(
            st.tuples(*[st.sampled_from(FAMILY_MEMBERS), st.integers(1, 40)] * 2),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([16, 64, 65_536]),
    )
    def test_every_side_is_drawn_once_by_its_kernel(self, pairs, chunk_draws):
        assert {type(dist) for dist in FAMILY_MEMBERS} == set(distributions.FAMILIES.values())
        suite = [SampledScenario(*pair) for pair in pairs]
        with mock.patch.object(mc, "_CHUNK_DRAWS", chunk_draws):
            runs, sources = mc._draw_plan(suite)
        expected = []  # each random side, as the plan should hold it
        for x, n_x, y, n_y in pairs:
            for dist, d_lo, d_hi in ((x, 0, n_x), (y, n_x, n_x + n_y)):
                if dist.variance() > 0:
                    expected.append((len(expected), dist, d_lo, d_hi))
        assert [row for pair in sources for row in pair if isinstance(row, int)] == list(range(len(expected)))
        planned = []
        for first, end, kernels in runs:
            sides = [side for *_, members in kernels for side in members]
            planned += sides
            assert set(range(first, end)) == {d for *_, d_lo, d_hi in sides for d in range(d_lo, d_hi)}
            assert end - first <= chunk_draws or len(sides) == 1
            for kernel, k_lo, k_hi, members in kernels:
                assert set(range(k_lo, k_hi)) == {d for *_, d_lo, d_hi in members for d in range(d_lo, d_hi)}
                assert {type(dist)._kernel for _, dist, _, _ in members} == {kernel}
        assert sorted(planned, key=lambda side: side[0]) == expected

    @settings(deadline=None, max_examples=100)
    @given(x=SIDES, n_x=st.integers(1, 50), y=SIDES, n_y=st.one_of(st.integers(1, 50), st.just(math.inf)))
    def test_an_infinite_helper_is_its_exact_mean(self, x, n_x, y, n_y):
        # Every two-agent scenario can be planned; at n_y = inf the helper is
        # its mean exactly, so its curve is the constant's at that mean.
        mc._draw_plan([SampledScenario(x, n_x, y, n_y)])
        if n_y == math.inf:
            args = mc.VALIDATION_ALPHAS, 100, SeedSpec(11)
            exact = estimate_error_curve(x, n_x, PointMass(y.mean()), 1, *args)
            assert estimate_error_curve(x, n_x, y, n_y, *args) == exact


# Peak RSS in MiB of a fresh interpreter on 2 CPUs that estimates the
# benchmark's many-trials scenario (4 draws per trial) at argv[1] trials.
ONE_SCENARIO_PEAK = FORKED + """
import resource, sys
os.sched_getaffinity = lambda pid: {0, 1}
from collab_avg import montecarlo as mc
from collab_avg.distributions import Normal, SeedSpec, Uniform
mc.estimate_error_curve(Normal(0.0, 1.0), 2, Uniform(0.0, 1.0), 2, mc.VALIDATION_ALPHAS, int(sys.argv[1]), SeedSpec(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


# A fresh interpreter on 2 CPUs that loads what sampling the benchmark's
# many-trials scenario uses, as a command's set-up does, then estimates its
# 21-weight curve at 600,000 trials, where both passes fork (12.6M trials x
# weights). It prints how many KiB its own VmHWM grew over the call, its
# draws and its forks, and whether the curve is the serial one.
CALLER_PEAK = FORKED + """
import sys
os.sched_getaffinity = lambda pid: {0, 1}
from collab_avg import montecarlo as mc
from collab_avg.distributions import Normal, SeedSpec, Uniform


def hwm():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


me, draws, forks = os.getpid(), [], []
draw, fork = mc.uniform_matrix, os.fork


def spied_draw(*args):
    if os.getpid() == me:
        draws.append(1)
    return draw(*args)


def counted_fork():
    forks.append(1)
    return fork()


mc.uniform_matrix, os.fork = spied_draw, counted_fork
suite = [mc.SampledScenario(Normal(0.0, 1.0), 2, Uniform(0.0, 1.0), 2)]
mc._load_sampling(mc._draw_plan(suite)[0])
before = hwm()
curve = mc.estimate_suite_curves(suite, mc.VALIDATION_ALPHAS, 600_000, SeedSpec(0))
print([hwm() - before, len(draws), len(forks)])
os.sched_getaffinity = lambda pid: {0}
print(curve == mc.estimate_suite_curves(suite, mc.VALIDATION_ALPHAS, 600_000, SeedSpec(0)))
"""


class TestOneScenario:
    """A scenario whose trial fits a chunk is estimated leaf by leaf, as a suite of one."""

    SCENARIO = SampledScenario(Normal(0.3, 1.2), 3, Exponential(2.0), 2)

    def curve(self, trials, seed, alphas=CURVE_ALPHAS):
        s = self.SCENARIO
        return estimate_error_curve(s.x, s.n_x, s.y, s.n_y, alphas, trials, seed)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_any_worker_count_gives_numpy_statistics(self, monkeypatch, cpus):
        # 20,001 trials are four leaves of at most 8,192 trials; the seed's
        # stream ids wrap at 2**64 within the first leaf.
        trials, seed = 20_001, SeedSpec(3, 2**64 - 7)
        expected = _alone([self.SCENARIO], CURVE_ALPHAS, trials, seed)[0]
        monkeypatch.setattr(mc, "_SUITE_LEAF", 8_192)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, cpus)
        assert self.curve(trials, seed) == expected
        assert len(forks) == 2 * round_forks(cpus)  # a round per pass
        assert no_child_left()

    def test_draws_each_trial_once(self, monkeypatch):
        # Pass 2 reads pass 1's means back: 5 draws per trial, drawn once, in
        # calls of at most a chunk's rows.
        trials, seed = 40_001, SeedSpec(4)
        expected = _alone([self.SCENARIO], CURVE_ALPHAS, trials, seed)[0]
        force_cpus(monkeypatch, 1)
        spy = _DrawSpy(monkeypatch)
        assert self.curve(trials, seed) == expected
        assert spy.draws == trials * 5
        assert {call[1:] for call in spy.calls} == {(5, 0)}
        assert max(n_streams for n_streams, _, _ in spy.calls) == mc._CHUNK_DRAWS // 5

    @pytest.mark.parametrize("reached", [False, True], ids=["below", "at"])
    def test_pass_one_forks_from_the_draws_threshold(self, monkeypatch, reached):
        # 20 draws per trial, a Bernoulli side among them, so "at" draws
        # exactly the threshold; pass 2 stays in this process.
        per_trial = 7 + 13
        assert mc._PARALLEL_MIN_DRAWS % per_trial == 0
        trials = mc._PARALLEL_MIN_DRAWS // per_trial - (0 if reached else 1)
        args = (Normal(0, 1), 7, Bernoulli(0.3), 13, CURVE_ALPHAS, trials, SeedSpec(9))
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 10**18)
        force_cpus(monkeypatch, 1)
        serial = estimate_error_curve(*args)
        forks = force_cpus(monkeypatch, 2)
        assert estimate_error_curve(*args) == serial
        assert len(forks) == (round_forks(2) if reached else 0)
        assert no_child_left()

    def test_pass_two_forks_from_the_curve_threshold(self, monkeypatch):
        # Pass 1 draws 5 x 20,001 uniforms, below the draws threshold; pass
        # 2 sums 20,001 trials x 6 weights, at the curve threshold.
        trials, seed = 20_001, SeedSpec(5)
        expected = _alone([self.SCENARIO], CURVE_ALPHAS, trials, seed)[0]
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", trials * len(CURVE_ALPHAS))
        forks = force_cpus(monkeypatch, 2)
        assert self.curve(trials, seed) == expected
        assert len(forks) == round_forks(2)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", trials * len(CURVE_ALPHAS) + 1)
        assert self.curve(trials, seed) == expected
        assert len(forks) == round_forks(2)
        assert no_child_left()

    def test_constant_scenario_draws_nothing_and_makes_no_file(self, monkeypatch):
        spy = _DrawSpy(monkeypatch)
        files = []
        make = tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            files.append(1)
            return make(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        curve = estimate_error_curve(PointMass(2.0), 4, PointMass(2.5), 3, [0.0, 0.5, 1.0], 1_000, SeedSpec(5))
        assert [(p.mean_sq_error, p.std_error) for p in curve] == [(0.0, 0.0), (0.0625, 0.0), (0.25, 0.0)]
        assert spy.calls == []
        assert files == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="workers need sched_getaffinity")
    def test_memory_does_not_grow_with_trials(self):
        # 1M trials' means are 16 MB; a leaf holds at most 65,536 trials'.
        def peak(trials: int) -> float:
            result = subprocess.run(
                [sys.executable, "-c", ONE_SCENARIO_PEAK, str(trials)], capture_output=True, timeout=300
            )
            assert result.returncode == 0, result.stderr
            return float(result.stdout)

        assert peak(1_000_000) < peak(100_000) + 1.0

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc/self/status")
    def test_workers_draw_and_this_process_holds_none_of_it(self):
        # On 2 CPUs both passes fork, and this process only adds tables up:
        # it drew half the trials, and grew 3.9 MiB, when it was worker 0.
        result = subprocess.run([sys.executable, "-c", CALLER_PEAK], capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        counts, serial_bytes = result.stdout.decode().splitlines()
        grown_kib, drawn_here, forks = ast.literal_eval(counts)
        assert grown_kib < 1024
        assert drawn_here == 0
        assert forks == 2 * round_forks(2)
        assert serial_bytes == "True"


def validated(scenario, trials, seed, expected=None):
    """``validate_scenario`` on the scenario's curve simulated at ``trials`` and ``seed``."""
    curve = mc.estimate_suite_curves([scenario], mc.VALIDATION_ALPHAS, trials, seed)[0]
    return validate_scenario(scenario, curve, expected)


class TestValidateScenario:
    def test_point_mass_scenario_passes_with_zero_error(self):
        scenario = SampledScenario(PointMass(1.0), 5, PointMass(1.0), 5)
        report = validated(scenario, 200, SeedSpec(31))
        assert report.verdict is Verdict.PASS
        assert all(p.deviation == 0.0 for p in report.points)
        assert len(report.points) == 21

    def test_bernoulli_with_exact_anchor(self):
        scenario = SampledScenario(Bernoulli(0.5), 20, PointMass(0.5), 1)
        profile = error_profile(reduce_to_two_agent(scenario))
        assert profile.e0 == 0.0125
        report = validated(scenario, TRIALS, SeedSpec(37))
        assert report.verdict is Verdict.PASS

    def test_corrupted_reference_fails(self):
        scenario = SampledScenario(Bernoulli(0.5), 20, PointMass(0.5), 1)
        honest = error_profile(reduce_to_two_agent(scenario))
        corrupted = ErrorProfile(e0=2 * honest.e0, e1=honest.e1)
        report = validated(scenario, TRIALS, SeedSpec(37), expected=corrupted)
        assert report.verdict is Verdict.FAIL

    def test_report_reproducible(self):
        scenario = SampledScenario(Normal(0, 1), 5, Normal(0.5, 2.0), 7)
        first = validated(scenario, 400, SeedSpec(41))
        second = validated(scenario, 400, SeedSpec(41))
        assert first == second

    def test_infinite_helper_validates_as_its_mean(self):
        report = validated(SampledScenario(Normal(0, 1), 5, Normal(0.5, 2.0), math.inf), 200, SeedSpec(1))
        assert report == validated(SampledScenario(Normal(0, 1), 5, PointMass(0.5), 1), 200, SeedSpec(1))
        assert report.verdict is Verdict.PASS

    def test_closed_form_reference_values(self):
        scenario = SampledScenario(Normal(0, 1), 4, Normal(1, 1), 16)
        report = validated(scenario, 200, SeedSpec(43))
        assert (report.trials, report.seed) == (200, SeedSpec(43))
        profile = error_profile(reduce_to_two_agent(scenario))
        for point in report.points:
            assert point.closed_form == ese_of_alpha(profile, point.alpha)

    def test_an_empty_curve_is_refused(self):
        scenario = SampledScenario(Normal(0, 1), 4, Normal(1, 1), 16)
        with pytest.raises(ValueError, match="VALIDATION_ALPHAS"):
            validate_scenario(scenario, [])

    @pytest.mark.parametrize("wrong", ["reversed", "other grid", "first point", "last point dropped"])
    def test_a_curve_off_the_grid_is_refused(self, wrong):
        # Each weight's closed form comes from its estimate's own weight, and
        # only on validate's grid in order: a one-point curve was once paired
        # with alpha = 0 whatever its weight.
        scenario = SampledScenario(Normal(0, 1), 4, Normal(1, 1), 16)
        curve = mc.estimate_suite_curves([scenario], mc.VALIDATION_ALPHAS, 200, SeedSpec(43))[0]
        curves = {
            "reversed": curve[::-1],
            "other grid": mc.estimate_suite_curves([scenario], np.linspace(0.0, 1.0, 11), 200, SeedSpec(43))[0],
            "first point": curve[:1],
            "last point dropped": curve[:-1],
        }
        with pytest.raises(ValueError, match="VALIDATION_ALPHAS"):
            validate_scenario(scenario, curves[wrong])

    @pytest.mark.parametrize("trials,seed", [(400, SeedSpec(43)), (200, SeedSpec(44)), (200, SeedSpec(43, 1))])
    def test_a_curve_from_two_runs_is_refused(self, trials, seed):
        # A report's trials and seed are its points': they cannot disagree.
        scenario = SampledScenario(Normal(0, 1), 4, Normal(1, 1), 16)
        first = mc.estimate_suite_curves([scenario], mc.VALIDATION_ALPHAS, 200, SeedSpec(43))[0]
        other = mc.estimate_suite_curves([scenario], mc.VALIDATION_ALPHAS, trials, seed)[0]
        with pytest.raises(ValueError, match="one trial count and one seed"):
            validate_scenario(scenario, first[:10] + other[10:])

    def test_no_argument_widens_the_band(self):
        # e0 doubled: at 1,000 trials it reads FAIL, and the band stays BAND
        # standard errors whatever is passed; k = 1e6 once read PASS.
        scenario = SampledScenario(Normal(0.0, 1.0), 10, Normal(0.5, 1.0), 60)
        profile = error_profile(reduce_to_two_agent(scenario))
        doubled = dataclasses.replace(profile, e0=2 * profile.e0)
        curve = mc.estimate_suite_curves([scenario], mc.VALIDATION_ALPHAS, 1_000, SeedSpec(0))[0]
        assert list(inspect.signature(validate_scenario).parameters) == ["scenario", "curve", "expected"]
        assert validate_scenario(scenario, curve, doubled).verdict is Verdict.FAIL
        for wider in ({"k": 1e6}, {"trials": 100}, {"seed": SeedSpec(5)}, {"estimates": curve}):
            with pytest.raises(TypeError):
                validate_scenario(scenario, curve, doubled, **wider)


def _shifted_suite(c: float) -> list[SampledScenario]:
    """Three scenarios whose means all move with ``c``; each ``mu_y - mu_x`` stays exact up to 2**50."""
    return [
        SampledScenario(Normal(c, 1.0), 10, Normal(c + 0.5, 1.0), 60),
        SampledScenario(PointMass(c), 4, Normal(c - 2.0, 3.0), 7),
        SampledScenario(Normal(c + 1.0, 0.5), 5, PointMass(c), 3),
    ]


class TestLargeMeans:
    """The sampled arithmetic sees each side's deviations and ``mu_y - mu_x``, never a mean."""

    @pytest.mark.parametrize("mu", [1e13, 1e14, 1e15])
    def test_a_wrong_closed_form_fails_at_any_mean(self, mu):
        # No band grows with the means: a 20% error in e0 fails at 1e15 too.
        scenario = SampledScenario(Normal(mu, 1.0), 10, Normal(mu + 0.5, 1.0), 60)
        curve = mc.estimate_suite_curves([scenario], mc.VALIDATION_ALPHAS, 10_000, SeedSpec(0))[0]
        profile = error_profile(reduce_to_two_agent(scenario))
        assert validate_scenario(scenario, curve).verdict is Verdict.PASS
        for wrong in ({"e0": 1.2 * profile.e0}, {"e0": 2 * profile.e0}, {"e1": 2 * profile.e1}):
            assert validate_scenario(scenario, curve, dataclasses.replace(profile, **wrong)).verdict is Verdict.FAIL

    def test_curves_do_not_move_with_the_means(self):
        curves = [
            mc.estimate_suite_curves(_shifted_suite(c), mc.VALIDATION_ALPHAS, 1_000, SeedSpec(3))
            for c in (0.0, 1.0, 2.0**20, 2.0**40, 2.0**50)
        ]
        assert all(curve == curves[0] for curve in curves[1:])


class TestValidationPoint:
    """A point stores its inputs; its weight, deviation, limit and verdict are derived."""

    @staticmethod
    def point(mean_sq_error, std_error, closed_form=1.0):
        estimate = mc.MonteCarloEstimate(0.5, mean_sq_error, std_error, trials=100, seed=SeedSpec(0))
        return mc.ValidationPoint(closed_form=closed_form, estimate=estimate)

    def test_limit_is_k_standard_errors(self):
        # BAND = 4 standard errors, plus a rounding floor: at 100 trials 24 +
        # 1 + 1 + 1 + 3 + 7 = 37 eps of the estimate.
        assert mc.BAND == 4.0
        floor = 37 * np.finfo(float).eps
        point = self.point(1.5, 0.125)
        assert point.alpha == 0.5
        assert point.deviation == 0.5
        assert point.limit == 0.5 + floor * 1.5
        scenario = SampledScenario(Normal(0, 1), 4, Normal(1, 1), 16)
        report = validated(scenario, 200, SeedSpec(43))
        # 200 trials halve once more above the blocks of 128.
        floor = 38 * np.finfo(float).eps
        for p in report.points:
            assert p.limit == 4.0 * p.estimate.std_error + floor * p.estimate.mean_sq_error

    @pytest.mark.parametrize("trials", [1_000, 100_000])
    @pytest.mark.parametrize("constant", [0.05, 0.1, 0.2, 0.3, 0.7, 1.1, 2.5, -0.4])
    def test_constant_helper_passes_its_closed_form(self, trials, constant):
        # At alpha = 1 every trial's squared error is the same float, so the
        # standard error is only rounding; without the floor 10 of these 16
        # runs failed there. A closed form off by 1e-12 still fails.
        scenario = SampledScenario(Normal(0.0, 1.0), 10, PointMass(constant), 1)
        report = validated(scenario, trials, SeedSpec(0))
        assert report.verdict is Verdict.PASS
        profile = error_profile(reduce_to_two_agent(scenario))
        wrong = dataclasses.replace(profile, e1=profile.e1 * (1 + 1e-12))
        checked = validate_scenario(scenario, [point.estimate for point in report.points], wrong)
        assert [point.alpha for point in checked.points if point.verdict is Verdict.FAIL] == [1.0]

    @pytest.mark.parametrize("trials", [1_000, 100_000])
    @pytest.mark.parametrize(
        "mu_x,mu_y", [(1.1, 0.7), (0.3, 0.1), (0.1, 0.2), (2.5, -0.4), (1000.0, 999.9), (-7.3, 4.1), (0.05, 0.051)]
    )
    def test_two_constant_sides_pass_their_closed_form(self, trials, mu_x, mu_y):
        # Both deviations are 0.0, so every trial's error is the same float,
        # alpha * (mu_y - mu_x). A closed form off by 1e-9 still fails
        # wherever it differs.
        for n_x, n_y in [(3, 5), (1, 1), (10, 60)]:
            scenario = SampledScenario(PointMass(mu_x), n_x, PointMass(mu_y), n_y)
            report = validated(scenario, trials, SeedSpec(0))
            assert report.verdict is Verdict.PASS
            profile = error_profile(reduce_to_two_agent(scenario))
            wrong = dataclasses.replace(profile, e1=profile.e1 * (1 + 1e-9))
            checked = validate_scenario(scenario, [point.estimate for point in report.points], wrong)
            differs = [p.alpha for p, q in zip(report.points, checked.points) if p.closed_form != q.closed_form]
            assert len(differs) == 20
            assert [point.alpha for point in checked.points if point.verdict is Verdict.FAIL] == differs

    def test_band_edge_passes(self):
        assert self.point(1.5, 0.125).verdict is Verdict.PASS
        assert self.point(0.5, 0.125).verdict is Verdict.PASS

    @pytest.mark.parametrize(
        "mean_sq_error,std_error",
        [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan), (math.inf, math.inf)],
    )
    def test_non_finite_estimate_never_passes(self, mean_sq_error, std_error):
        assert self.point(mean_sq_error, std_error).verdict is Verdict.FAIL

    def test_report_passes_only_when_every_point_does(self):
        good, bad = self.point(1.0, 0.1), self.point(1.0, math.inf)
        report = mc.ValidationReport(points=(good, good))
        assert (report.trials, report.seed) == (100, SeedSpec(0))
        assert report.verdict is Verdict.PASS
        assert dataclasses.replace(report, points=(good, bad)).verdict is Verdict.FAIL
        assert dataclasses.replace(report, points=(bad, good)).verdict is Verdict.FAIL
        with pytest.raises(ValueError, match="one or more points"):
            mc.ValidationReport(points=())

    def test_a_group_reads_its_worst_verdict(self):
        assert list(Verdict) == sorted(Verdict) and Verdict.PASS < Verdict.FAIL
        assert Verdict.worst([]) is Verdict.PASS
        assert Verdict.worst(iter([Verdict.PASS, Verdict.FAIL, Verdict.PASS])) is Verdict.FAIL
        assert Verdict.worst([Verdict.PASS] * 3) is Verdict.PASS


# sha256 digests of seeded output, which is part of the reproducibility
# contract: any change to chunking, to the draw layout or to which columns
# are generated must leave every byte as it was. The uniforms are the
# original 4M-draw sampler's; each side's mean is its distribution's mean
# plus the centred mean of its kernel values.
GOLDEN_TRIAL_MEANS = {
    "normal_exponential_total2": (
        (Normal(0.3, 1.2), 1, Exponential(1.5), 1, 20_000, SeedSpec(101)),
        "59b05bbf7fafd085a27b6870dca003dc4c3f33d44f998867753bb7875552b736",
    ),
    "uniform_bernoulli_total7_wrapping_streams": (
        (Uniform(-1.0, 2.0), 3, Bernoulli(0.35), 4, 20_000, SeedSpec(102, 2**64 - 5)),
        "becb2b94a0455e7303172ee33007050582b6cbd742c320dd71aa83219bb2cc82",
    ),
    "x_constant": (
        (PointMass(2.0), 3, Normal(1.0, 1.0), 4, 20_000, SeedSpec(103)),
        "55c6ca51327ec45f6f1aa5aa6330f83e2839b251676f8060d80d21f57ee76c37",
    ),
    "y_constant": (
        (Exponential(0.5), 5, PointMass(-1.5), 2, 20_000, SeedSpec(104)),
        "3c0e8f3f61187388f020cc4d209da27c8c6443fb9066df60959905d5f2a354ff",
    ),
    "both_constant": (
        (PointMass(1.0), 4, PointMass(2.0), 3, 1_000, SeedSpec(105)),
        "ceed1a1c7dc57c1cdf9a42b9486de7d0ee7375e542d8363ffe1953a3f28fabb0",
    ),
    "stream_longer_than_chunk": (
        (Normal(0.0, 1.0), 50_000, Uniform(0.0, 1.0), 30_001, 3, SeedSpec(106)),
        "699515e3411c5d024ca3adbe66cc74351b137cb7ed72ccbe34a312ca195ea432",
    ),
}

# The benchmark's validate workloads (perfbench/workloads.py) at seed 0; the
# first is c06's suite.
MC_LONG = (SampledScenario(Normal(0.0, 1.0), 1000, Exponential(1.0), 6000),)
MC_MANY_TRIALS = (SampledScenario(Normal(0.0, 1.0), 2, Uniform(0.0, 1.0), 2),)
GOLDEN_VALIDATE = {
    "mc_suite": (
        MC_SUITE, 100_000, 0,
        "ac8423e90a2c5751aedba15efe6e2caa25dd371524b8c3d60c3408e13025d564",
    ),
    "mc_long": (
        MC_LONG, 2_000, 0,
        "ccc643044ece2e823ffd3aaa7fc554363fb71ab871b412ea319d12808d4ee93a",
    ),
    "mc_many_trials": (
        MC_MANY_TRIALS, 2_000_000, 0,
        "d1857c0c13253ce10cb12c50c1c75a8952c76e6b502567b1397a121b8fc95117",
    ),
    "c06_suite_at_base_seed": (
        MC_SUITE, 10_000, MC_BASE_SEED,
        "5fcf9883d9d1a25e187ac605514f09228fe35c2ea50c3aabb36dc70b873b7c16",
    ),
    # The 5-draw scenario's sides lie within the 300-draw one's: one run.
    "suite_overlapping_scenarios": (
        (
            SampledScenario(Exponential(1.0), 200, Exponential(1.0), 100),
            SampledScenario(Normal(0.0, 1.0), 3, Exponential(1.0), 2),
        ),
        20_000, 0,
        "5eff89b8288b95831ef3ab6cb3bef5a9b8c53501ecb92f1dff8ca03557a9b15e",
    ),
    # y's 70,000 draws are drawn a trial at a time, x's 5 chunk by chunk.
    "side_longer_than_a_chunk": (
        (SampledScenario(Normal(0.0, 1.0), 5, Exponential(1.0), 70_000),),
        200, 0,
        "4dc0623b919563ece48cca11a02eb1a4f2cc323a219dc4d42dd63f9b68b29f2e",
    ),
}


def _side_yaml(dist) -> str:
    params = ", ".join(f"{key}: {value!r}" for key, value in dataclasses.asdict(dist).items())
    return f"{{family: {type(dist).__name__.lower()}, params: {{{params}}}}}"


def _suite_yaml(suite, trials: int, seed: int) -> str:
    lines = [f"trials: {trials}", f"seed: {seed}", "scenarios:"]
    for s in suite:
        lines.append(
            f"  - {{x: {_side_yaml(s.x)}, n_x: {s.n_x}, y: {_side_yaml(s.y)}, n_y: {s.n_y}}}"
        )
    return "\n".join(lines) + "\n"


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRIAL_MEANS))
    def test_trial_means_bytes(self, name):
        args, digest = GOLDEN_TRIAL_MEANS[name]
        xbar, ybar = trial_means(*args)
        assert hashlib.sha256(xbar.tobytes() + ybar.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_VALIDATE))
    def test_validate_out_bytes(self, name, tmp_path):
        suite, trials, seed, digest = GOLDEN_VALIDATE[name]
        scenario = tmp_path / "suite.yaml"
        scenario.write_text(_suite_yaml(suite, trials, seed))
        out = tmp_path / "out.txt"
        main(["validate", "--scenario", str(scenario), "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
