"""Exact moments and reproducible sampling for every family."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from collab_avg import distributions
from collab_avg.distributions import (
    Bernoulli,
    Exponential,
    Normal,
    PointMass,
    SeedSpec,
    Uniform,
    make_distribution,
)

from conftest import draws, variance_std_error

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
        with pytest.raises(ValueError, match="bad parameters"):  # a parameter named like the family argument
            make_distribution("normal", family=0.0, mu=0.0, sd=1.0)


class TestSampling:
    def test_point_mass_draws_are_exact(self):
        assert draws(PointMass(2.5), 4, SeedSpec(123)).tolist() == [2.5, 2.5, 2.5, 2.5]

    def test_identical_seed_identical_sequence(self):
        spec = Normal(0.0, 1.0)
        a = draws(spec, 1000, SeedSpec(42, 9))
        b = draws(spec, 1000, SeedSpec(42, 9))
        assert np.array_equal(a, b)

    def test_bernoulli_large_sample_mean(self):
        # 4 sigma band around 0.5 at n = 1e6 is 0.002.
        values = draws(Bernoulli(0.5), 10**6, SeedSpec(7))
        assert abs(values.mean() - 0.5) < 0.002
        assert set(np.unique(values)) <= {0.0, 1.0}

    def test_bernoulli_is_one_strictly_below_p(self):
        p = 0.3
        u = np.array([np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)])
        assert Bernoulli(p)._from_uniforms(u).tolist() == [1.0, 0.0, 0.0]
        u = draws(Uniform(0.0, 1.0), 1000, SeedSpec(5))  # uniforms in (0, 1)
        assert not Bernoulli(0.0)._from_uniforms(u).any()
        assert Bernoulli(1.0)._from_uniforms(u).all()

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=repr)
    def test_law_of_large_numbers(self, spec):
        """Empirical mean within 5 sigma/sqrt(n); variance within 5 SEs."""
        n = 10**6
        values = draws(spec, n, SeedSpec(2024))
        mean, var = spec.moments()
        mean_band = 5.0 * math.sqrt(var / n) + 1e-12
        assert abs(values.mean() - mean) <= mean_band
        var_band = 5.0 * variance_std_error(values) + 1e-12
        assert abs(values.var(ddof=1) - var) <= var_band

    @pytest.mark.parametrize(
        "spec,frozen",
        [
            (Normal(1.0, 2.0), scipy.stats.norm(1.0, 2.0)),
            (Uniform(-3.0, 5.0), scipy.stats.uniform(-3.0, 8.0)),
            (Exponential(2.5), scipy.stats.expon(scale=1 / 2.5)),
        ],
    )
    def test_distribution_shape_kolmogorov_smirnov(self, spec, frozen):
        result = scipy.stats.kstest(draws(spec, 20_000, SeedSpec(77)), frozen.cdf)
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
    assert np.array_equal(draws(spec, n, seed), draws(spec, n, seed))


def run_python(script: str, stdin: bytes = b"") -> tuple[bytes, list[str]]:
    """Stdout and stderr lines of ``script`` run in a new interpreter; it must exit 0."""
    result = subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout, result.stderr.decode().splitlines()


# Loads ndtri in a fresh interpreter and writes its values at the float64
# array read from stdin to stdout. The stderr line gives the scipy modules
# left after the load, and whether a later import of scipy.special has the
# very same function.
LOAD_NDTRI = """
import sys
import numpy as np
from collab_avg.distributions import _load_ndtri

ndtri = _load_ndtri()
left = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
sys.stdout.buffer.write(ndtri(np.frombuffer(sys.stdin.buffer.read())).tobytes())
import scipy.special
print(f"left: {left}, same: {ndtri is scipy.special.ndtri}", file=sys.stderr)
"""

# The same with ExtensionFileLoader refusing, so no scipy file is loaded
# that way: the stand-in packages must be gone for the public import.
LOAD_NDTRI_REFUSED = """
import sys
from collab_avg import distributions

refused = []


def refuse(*args):
    refused.append(args[0])
    raise OSError("refused")


distributions.ExtensionFileLoader = refuse
ndtri = distributions._load_ndtri()
public = "scipy.special" in sys.modules
import scipy.special
print(f"refused: {refused}, public import: {public}, same: {ndtri is scipy.special.ndtri}", file=sys.stderr)
"""

# The same with scipy not installed.
LOAD_NDTRI_MISSING = """
import sys
from collab_avg.distributions import _load_ndtri


class Missing:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, Missing())
try:
    _load_ndtri()
except ImportError as exc:
    print(f"ImportError: {exc}", file=sys.stderr)
"""


class TestLoadNdtri:
    """ndtri comes from scipy's ``_ufuncs`` extension alone, or else the public import."""

    def test_extension_gives_the_public_function(self):
        # Both tails down to the smallest u the sampler can draw and beyond.
        u = np.concatenate(
            [np.logspace(-300, -1, 600), np.linspace(0.1, 0.9, 801), 1.0 - np.logspace(-1, -16, 600)]
        )
        out, err = run_python(LOAD_NDTRI, u.tobytes())
        assert err == ["left: [], same: True"]
        assert out == scipy.special.ndtri(u).tobytes()

    def test_public_import_when_scipy_special_is_loaded(self, monkeypatch):
        # This process imported scipy.special above.
        calls = []
        monkeypatch.setattr(distributions, "ExtensionFileLoader", lambda *args: calls.append(args))
        assert distributions._load_ndtri.__wrapped__() is scipy.special.ndtri
        assert calls == []

    def test_public_import_when_the_extension_load_raises(self):
        _, err = run_python(LOAD_NDTRI_REFUSED)
        assert err == ["refused: ['scipy.special._ufuncs'], public import: True, same: True"]

    def test_import_error_without_scipy(self):
        _, err = run_python(LOAD_NDTRI_MISSING)
        assert err == ["ImportError: No module named 'scipy'"]
