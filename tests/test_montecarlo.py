"""The simulation oracle against closed forms, and its determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collab_avg.montecarlo as mc
from collab_avg.cli import main
from collab_avg.distributions import Bernoulli, Exponential, Normal, PointMass, SeedSpec, Uniform
from collab_avg.montecarlo import (
    SampledScenario,
    estimate_error_curve,
    trial_means,
    validate_scenario,
)
from collab_avg.theory import ErrorProfile, error_profile, ese_of_alpha

from conftest import force_cpus, no_child_left, variance_std_error
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
            one_weight(Normal(0, 1), 5, Normal(0, 1), math.inf, 0.5, 200, SeedSpec(1))
        with pytest.raises(ValueError):
            one_weight(Normal(0, 1), 0, Normal(0, 1), 5, 0.5, 200, SeedSpec(1))

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

    # 200,003 trials span seven slices of ``_SUM_LEAF``.
    @pytest.mark.parametrize("trials", [100, 1001, 40_000, 200_003])
    def test_statistics_bitwise_equal_numpy_mean_and_std(self, trials):
        """The sliced sums reproduce ``mean`` and ``std(ddof=1)`` bit for bit."""
        x, y, seed = Exponential(0.7), Normal(1.5, 2.0), SeedSpec(8, 123)
        alphas = [0.0, 0.1, 1 / 3, 0.9, 1.0]
        xbar, ybar = trial_means(x, 3, y, 2, trials, seed)
        curve = estimate_error_curve(x, 3, y, 2, alphas, trials, seed)
        for alpha, point in zip(alphas, curve):
            sq = ((1.0 - alpha) * xbar + alpha * ybar - x.mean()) ** 2
            assert point.mean_sq_error == float(sq.mean())
            assert point.std_error == float(sq.std(ddof=1)) / math.sqrt(trials)

    def test_point_mass_endpoints_exact(self):
        curve = estimate_error_curve(
            PointMass(2.0), 4, PointMass(2.5), 4, [0.0, 1.0], 200, SeedSpec(5)
        )
        assert curve[0].mean_sq_error == 0.0
        assert curve[1].mean_sq_error == 0.25

    def test_empirical_argmin_near_optimum(self):
        scenario = SampledScenario(Normal(0.0, 1.0), 10, Normal(0.2, 1.0), 40)
        profile = error_profile(scenario.to_scenario())
        alphas = np.linspace(0.0, 1.0, 11)
        curve = estimate_error_curve(
            scenario.x, scenario.n_x, scenario.y, scenario.n_y, alphas, TRIALS, SeedSpec(17)
        )
        empirical = float(alphas[int(np.argmin([p.mean_sq_error for p in curve]))])
        assert abs(empirical - profile.alpha_star) <= 0.1


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


def _means_bytes(means) -> bytes:
    xbar, ybar = means
    return xbar.tobytes() + ybar.tobytes()


class TestWorkers:
    """Trial means do not depend on how many forked workers compute them."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "args,chunks",
        [
            # 24 draws per trial: chunks of 2,730 trials, the last one short.
            ((Normal(0, 1), 11, Exponential(2.0), 13, 10_001, SeedSpec(7)), 4),
            ((PointMass(0.5), 11, Exponential(2.0), 13, 10_001, SeedSpec(7)), 2),
            ((Normal(0, 1), 11, PointMass(0.5), 13, 10_001, SeedSpec(7)), 2),
            # 300-draw streams go through numpy's C Philox.
            ((Normal(0, 1), 200, Uniform(0, 1), 100, 1_000, SeedSpec(8, 2**64 - 3)), 5),
        ],
        ids=["both_random", "pointmass_x", "pointmass_y", "c_philox_stream"],
    )
    def test_any_worker_count_gives_serial_bytes(self, monkeypatch, cpus, args, chunks):
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 10**18)
        # Kept alive, so the next result cannot reuse (and so inherit) its memory.
        serial = trial_means(*args)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        forks = force_cpus(monkeypatch, cpus)
        assert _means_bytes(trial_means(*args)) == _means_bytes(serial)
        assert len(forks) == min(cpus, chunks) - 1
        assert no_child_left()

    @pytest.mark.parametrize("reached", [False, True], ids=["below", "at"])
    def test_draws_threshold(self, monkeypatch, reached):
        per_trial = 11 + 13
        trials = -(-mc._PARALLEL_MIN_DRAWS // per_trial) - (0 if reached else 1)
        args = (Normal(0, 1), 11, Bernoulli(0.3), 13, trials, SeedSpec(9))
        force_cpus(monkeypatch, 1)
        serial = trial_means(*args)
        forks = force_cpus(monkeypatch, 2)
        assert _means_bytes(trial_means(*args)) == _means_bytes(serial)
        assert len(forks) == (1 if reached else 0)

    def test_failed_worker_range_is_recomputed(self, monkeypatch):
        args = (Normal(0, 1), 11, Exponential(2.0), 13, 10_001, SeedSpec(7))
        serial = trial_means(*args)
        parent = os.getpid()
        transform = Exponential._from_uniforms

        def fails_in_child(self, u):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return transform(self, u)

        monkeypatch.setattr(Exponential, "_from_uniforms", fails_in_child)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        forks = force_cpus(monkeypatch, 2)
        assert _means_bytes(trial_means(*args)) == _means_bytes(serial)
        assert len(forks) == 1
        assert no_child_left()

    def test_range_that_cannot_be_forked_is_computed_here(self, monkeypatch):
        args = (Normal(0, 1), 11, Exponential(2.0), 13, 10_001, SeedSpec(7))
        serial = trial_means(*args)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        force_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert _means_bytes(trial_means(*args)) == _means_bytes(serial)

    def test_failing_parent_range_leaves_no_worker(self, monkeypatch):
        parent = os.getpid()

        def fails_in_parent(self, u):
            if os.getpid() == parent:
                raise RuntimeError("parent failure")
            time.sleep(60)  # a child still running when the parent fails

        monkeypatch.setattr(Exponential, "_from_uniforms", fails_in_parent)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_DRAWS", 0)
        forks = force_cpus(monkeypatch, 3)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failure"):
            trial_means(Normal(0, 1), 11, Exponential(2.0), 13, 10_001, SeedSpec(7))
        assert time.monotonic() - began < 30
        assert len(forks) == 2
        assert no_child_left()

    def test_unallocatable_shared_buffer_reports_numpy_error(self, monkeypatch):
        forks = force_cpus(monkeypatch, 2)
        with pytest.raises(MemoryError, match="^Unable to allocate"):
            trial_means(Normal(0, 1), 5, PointMass(0.0), 1, 2**58, SeedSpec(1))
        assert forks == []


def _curve_inputs(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial means on very different scales, so any change in summation order shows."""
    rng = np.random.default_rng(seed)
    xbar = rng.normal(0.0, 1.0, trials) * 10.0 ** rng.integers(-3, 4, trials)
    return xbar, rng.exponential(2.0, trials)


def _numpy_statistics(xbar, ybar, alphas, mu_x):
    """numpy's own ``mean`` and ``std(ddof=1)`` of the squared errors, weight by weight."""
    trials = xbar.size
    pairs = []
    for alpha in alphas:
        sq = ((1.0 - alpha) * xbar + alpha * ybar - mu_x) ** 2
        pairs.append((float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(trials)))
    return pairs


def _statistics(xbar, ybar, alphas, mu_x=0.25):
    estimates = mc._estimates_from_means(xbar, ybar, alphas, mu_x, SeedSpec(1))
    return [(e.mean_sq_error, e.std_error) for e in estimates]


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
        xbar, ybar = _curve_inputs(trials, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_SUM_LEAF", leaf)
            result = _statistics(xbar, ybar, CURVE_ALPHAS)
        assert result == _numpy_statistics(xbar, ybar, CURVE_ALPHAS, 0.25)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("weights", [2, 21])
    def test_any_worker_count_gives_numpy_statistics(self, monkeypatch, cpus, weights):
        # Inputs differ per case and the reference is numpy's own, so a result
        # the workers never wrote cannot pass by reusing an earlier result's
        # freed memory.
        xbar, ybar = _curve_inputs(70_001, 10 * cpus + weights)
        alphas = list(np.linspace(0.0, 1.0, weights))
        expected = _numpy_statistics(xbar, ybar, alphas, 0.25)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, cpus)
        assert _statistics(xbar, ybar, alphas) == expected
        assert len(forks) == min(cpus, weights) - 1
        assert no_child_left()

    @pytest.mark.parametrize("reached", [False, True], ids=["below", "at"])
    def test_trials_times_weights_threshold(self, monkeypatch, reached):
        alphas = CURVE_ALPHAS
        trials = -(-mc._PARALLEL_MIN_CURVE // len(alphas)) - (0 if reached else 1)
        xbar, ybar = _curve_inputs(trials, 10)
        force_cpus(monkeypatch, 1)
        serial = _statistics(xbar, ybar, alphas)
        forks = force_cpus(monkeypatch, 2)
        assert _statistics(xbar, ybar, alphas) == serial
        assert len(forks) == (1 if reached else 0)
        assert no_child_left()

    def test_failed_worker_weights_are_redone_here(self, monkeypatch):
        xbar, ybar = _curve_inputs(70_001, 11)
        serial = _statistics(xbar, ybar, CURVE_ALPHAS)
        parent = os.getpid()
        pairwise_sum = mc._pairwise_sum

        def fails_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return pairwise_sum(*args)

        monkeypatch.setattr(mc, "_pairwise_sum", fails_in_child)
        monkeypatch.setattr(mc, "_PARALLEL_MIN_CURVE", 0)
        forks = force_cpus(monkeypatch, 2)
        assert _statistics(xbar, ybar, CURVE_ALPHAS) == serial
        assert len(forks) == 1
        assert no_child_left()

    def test_memory_is_bounded_by_the_leaf(self, monkeypatch):
        # One trial-length buffer at 1M trials is 8 MB. Two whole reused
        # buffers peaked at 15.3 MiB here; leaf-sized scratch peaks at 0.51
        # MiB. Serial, so every allocation is this process's own.
        xbar, ybar = _curve_inputs(1_000_000, 12)
        alphas = list(np.linspace(0.0, 1.0, 21))
        force_cpus(monkeypatch, 1)
        tracemalloc.start()
        try:
            _statistics(xbar, ybar, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


# A fresh interpreter on 2 CPUs that records, at each fork, how many ndtri
# functions are loaded and whether numpy.random is: a long-stream call with
# no normal side first, then a short-stream call with one.
SCIPY_AT_FORK = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from collab_avg import _workers, montecarlo as mc
from collab_avg.distributions import Exponential, Normal, SeedSpec, _load_ndtri

fork = _workers._fork
loaded = []


def recording(work):
    loaded.append((_load_ndtri.cache_info().currsize, "numpy.random" in sys.modules))
    return fork(work)


_workers._fork = recording
mc.trial_means(Exponential(1.0), 1000, Exponential(1.0), 6000, 2000, SeedSpec(0))
mc._PARALLEL_MIN_DRAWS = 0
mc.trial_means(Normal(0.0, 1.0), 3, Exponential(1.0), 2, 30_000, SeedSpec(0))
print(loaded)
"""


def test_trial_means_loads_scipy_once_before_forking():
    result = subprocess.run([sys.executable, "-c", SCIPY_AT_FORK], capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[(0, True), (1, True)]\n"


class TestValidateScenario:
    def test_point_mass_scenario_passes_with_zero_error(self):
        scenario = SampledScenario(PointMass(1.0), 5, PointMass(1.0), 5)
        report = validate_scenario(scenario, 200, SeedSpec(31))
        assert report.passed
        assert all(p.deviation == 0.0 for p in report.points)
        assert len(report.points) == 21

    def test_bernoulli_with_exact_anchor(self):
        scenario = SampledScenario(Bernoulli(0.5), 20, PointMass(0.5), 1)
        profile = error_profile(scenario.to_scenario())
        assert profile.e0 == 0.0125
        report = validate_scenario(scenario, TRIALS, SeedSpec(37), k=4.0)
        assert report.passed

    def test_corrupted_reference_fails(self):
        scenario = SampledScenario(Bernoulli(0.5), 20, PointMass(0.5), 1)
        honest = error_profile(scenario.to_scenario())
        corrupted = ErrorProfile(e0=2 * honest.e0, e1=honest.e1)
        report = validate_scenario(scenario, TRIALS, SeedSpec(37), k=4.0, expected=corrupted)
        assert not report.passed

    def test_report_reproducible(self):
        scenario = SampledScenario(Normal(0, 1), 5, Normal(0.5, 2.0), 7)
        first = validate_scenario(scenario, 400, SeedSpec(41))
        second = validate_scenario(scenario, 400, SeedSpec(41))
        assert first == second

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_band_must_be_finite_and_positive(self, k):
        scenario = SampledScenario(Normal(0, 1), 5, Normal(0, 1), 5)
        with pytest.raises(ValueError, match="k must be finite"):
            validate_scenario(scenario, 200, SeedSpec(1), k=k)

    def test_infinite_helper_rejected(self):
        scenario = SampledScenario(Normal(0, 1), 5, Normal(0, 1), math.inf)
        with pytest.raises(ValueError):
            validate_scenario(scenario, 200, SeedSpec(1))

    def test_closed_form_reference_values(self):
        scenario = SampledScenario(Normal(0, 1), 4, Normal(1, 1), 16)
        report = validate_scenario(scenario, 200, SeedSpec(43))
        profile = error_profile(scenario.to_scenario())
        for point in report.points:
            assert point.closed_form == ese_of_alpha(profile, point.alpha)


# sha256 digests recorded from the original 4M-draw sampler. Seeded output is
# part of the reproducibility contract: any change to chunking, to the draw
# layout or to which columns are generated must leave every byte as it was.
GOLDEN_TRIAL_MEANS = {
    "normal_exponential_total2": (
        (Normal(0.3, 1.2), 1, Exponential(1.5), 1, 20_000, SeedSpec(101)),
        "ac909f2f15ad25f5218eda1617c0a0582c810f3d3e8e785c0e7a8f2a4a618f7b",
    ),
    "uniform_bernoulli_total7_wrapping_streams": (
        (Uniform(-1.0, 2.0), 3, Bernoulli(0.35), 4, 20_000, SeedSpec(102, 2**64 - 5)),
        "953be3e3f8af23713ba224cb44b31273491543b017fa819c5d623571c09bdb7c",
    ),
    "x_constant": (
        (PointMass(2.0), 3, Normal(1.0, 1.0), 4, 20_000, SeedSpec(103)),
        "66b5cdf9c14d54bae31114fbcee4bbd32ec54c3d7f24212a6cd253f42226422a",
    ),
    "y_constant": (
        (Exponential(0.5), 5, PointMass(-1.5), 2, 20_000, SeedSpec(104)),
        "f38b20c9fff305c6c4e687a9dd50ee01d5f281a969a4c284122b5b8c1b6dfb4e",
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
        "9dc418639181f9e79720b659e5abf5eef3b796e44e55b1981db74f80f2abac14",
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
        "997ac5b44e42009540debeaf3efa4351457fb07fee0eaf4163477e0e397414d6",
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
