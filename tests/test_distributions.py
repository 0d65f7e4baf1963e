"""Exact moments and reproducible sampling for every family."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from collab_avg.distributions import (
    Bernoulli,
    Exponential,
    Normal,
    PointMass,
    SeedSpec,
    Uniform,
    make_distribution,
    sample,
)

from conftest import variance_std_error

ALL_FAMILIES = [
    Normal(0.0, 1.0),
    Normal(-2.0, 0.5),
    Uniform(0.0, 1.0),
    Uniform(-3.0, 5.0),
    Bernoulli(0.5),
    Bernoulli(0.1),
    Exponential(1.0),
    Exponential(2.5),
    PointMass(3.0),
    PointMass(-0.25),
]


class TestMoments:
    def test_normal_standard(self):
        assert Normal(0.0, 1.0).moments() == (0.0, 1.0)

    def test_point_mass(self):
        assert PointMass(3.0).moments() == (3.0, 0.0)

    def test_bernoulli_against_enumeration(self):
        # Brute-force expectation over the support {0, 1}.
        p = 0.5
        mean = sum(prob * x for x, prob in ((0.0, 1 - p), (1.0, p)))
        var = sum(prob * (x - mean) ** 2 for x, prob in ((0.0, 1 - p), (1.0, p)))
        assert Bernoulli(p).moments() == (mean, var)
        assert Bernoulli(0.5).moments() == (0.5, 0.25)

    @pytest.mark.parametrize(
        "spec,pdf,support",
        [
            (Uniform(-3.0, 5.0), lambda x: 1.0 / 8.0, (-3.0, 5.0)),
            (Exponential(2.5), lambda x: 2.5 * math.exp(-2.5 * x), (0.0, np.inf)),
            (Normal(1.0, 2.0), scipy.stats.norm(1.0, 2.0).pdf, (-np.inf, np.inf)),
        ],
    )
    def test_continuous_families_against_quadrature(self, spec, pdf, support):
        mean_quad, _ = scipy.integrate.quad(lambda x: x * pdf(x), *support)
        mean, var = spec.moments()
        var_quad, _ = scipy.integrate.quad(lambda x: (x - mean_quad) ** 2 * pdf(x), *support)
        assert mean == pytest.approx(mean_quad, abs=1e-9)
        assert var == pytest.approx(var_quad, abs=1e-9)


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Bernoulli(-0.1),
            lambda: Bernoulli(1.5),
            lambda: Uniform(1.0, 1.0),
            lambda: Uniform(2.0, -1.0),
            lambda: Exponential(0.0),
            lambda: Exponential(-1.0),
            lambda: Normal(0.0, -0.5),
            lambda: Normal(math.nan, 1.0),
            lambda: PointMass(math.inf),
        ],
    )
    def test_invalid_parameters_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_seed_spec_range(self):
        SeedSpec(0, 0)
        SeedSpec(2**64 - 1, 2**64 - 1)
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -3)

    def test_make_distribution(self):
        assert make_distribution("normal", mu=1.0, sd=2.0) == Normal(1.0, 2.0)
        assert make_distribution("point_mass", value=1.0) == PointMass(1.0)
        with pytest.raises(ValueError):
            make_distribution("cauchy", scale=1.0)
        with pytest.raises(ValueError):
            make_distribution("normal", location=0.0)


class TestSampling:
    def test_point_mass_draws_are_exact(self):
        draws = sample(PointMass(2.5), 4, SeedSpec(123))
        assert draws.tolist() == [2.5, 2.5, 2.5, 2.5]

    def test_identical_seed_identical_sequence(self):
        spec = Normal(0.0, 1.0)
        a = sample(spec, 1000, SeedSpec(42, 9))
        b = sample(spec, 1000, SeedSpec(42, 9))
        assert np.array_equal(a, b)

    def test_bernoulli_large_sample_mean(self):
        # 4 sigma band around 0.5 at n = 1e6 is 0.002.
        draws = sample(Bernoulli(0.5), 10**6, SeedSpec(7))
        assert abs(draws.mean() - 0.5) < 0.002
        assert set(np.unique(draws)) <= {0.0, 1.0}

    def test_integer_seed_accepted(self):
        spec = Uniform(0.0, 1.0)
        assert np.array_equal(sample(spec, 10, 5), sample(spec, 10, SeedSpec(5)))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample(Normal(0, 1), 0, SeedSpec(1))
        with pytest.raises(ValueError):
            sample(Normal(0, 1), -5, SeedSpec(1))

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=repr)
    def test_law_of_large_numbers(self, spec):
        """Empirical mean within 5 sigma/sqrt(n); variance within 5 SEs."""
        n = 10**6
        draws = sample(spec, n, SeedSpec(2024))
        mean, var = spec.moments()
        mean_band = 5.0 * math.sqrt(var / n) + 1e-12
        assert abs(draws.mean() - mean) <= mean_band
        var_band = 5.0 * variance_std_error(draws) + 1e-12
        assert abs(draws.var(ddof=1) - var) <= var_band

    @pytest.mark.parametrize(
        "spec,frozen",
        [
            (Normal(1.0, 2.0), scipy.stats.norm(1.0, 2.0)),
            (Uniform(-3.0, 5.0), scipy.stats.uniform(-3.0, 8.0)),
            (Exponential(2.5), scipy.stats.expon(scale=1 / 2.5)),
        ],
    )
    def test_distribution_shape_kolmogorov_smirnov(self, spec, frozen):
        draws = sample(spec, 20_000, SeedSpec(77))
        result = scipy.stats.kstest(draws, frozen.cdf)
        assert result.pvalue > 1e-6


@settings(deadline=None, max_examples=20)
@given(
    master=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    n=st.integers(1, 500),
)
def test_determinism_property(master, stream, n):
    spec = Exponential(1.5)
    seed = SeedSpec(master, stream)
    assert np.array_equal(sample(spec, n, seed), sample(spec, n, seed))
