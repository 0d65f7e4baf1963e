"""Closed-form results and their invariants.

Monte Carlo cross-checks here use the sampling engine as an independent
oracle: closed-form claims must sit inside the simulation's standard-error
band. Identities between two closed forms are held to 1e-12 relative to
the larger of the two endpoint errors.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collab_avg.distributions import Normal, SeedSpec
from collab_avg.theory import (
    INFINITE,
    ErrorProfile,
    Scenario,
    alpha_star_upper_bounds,
    donahue_mse,
    error_profile,
    ese_of_alpha,
    ese_of_alpha_reduced,
    max_ese,
)

from conftest import draws, random_scenarios

IDENTITY_RTOL = 1e-12
GRID = np.linspace(0.0, 1.0, 1001)
ERRORS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def _scale(profile: ErrorProfile) -> float:
    return max(profile.e0, profile.e1, 1e-300)


class TestScenarioValidation:
    def test_infinite_helper_count(self):
        scenario = Scenario(0.0, 1.0, 10, 0.0, 1.0, INFINITE)
        assert scenario.infinite_helper
        assert scenario.var_helper_mean == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu_x=math.nan),
            dict(mu_y=math.inf),
            dict(var_x=-1.0),
            dict(var_y=math.inf),
            dict(n_x=0),
            dict(n_x=2.0),
            dict(n_y=0),
            dict(n_y=1.5),
            dict(n_y=-math.inf),
        ],
    )
    def test_invalid_fields(self, kwargs):
        base = dict(mu_x=0.0, var_x=1.0, n_x=10, mu_y=0.0, var_y=1.0, n_y=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            Scenario(**base)


class TestPointErrors:
    @pytest.mark.parametrize(
        "var_x,n_x,expected", [(4.0, 16, 0.25), (0.0, 7, 0.0), (1.0, 10, 0.1)]
    )
    def test_local_error(self, var_x, n_x, expected):
        scenario = Scenario(0.0, var_x, n_x, 0.0, 0.0, 1)
        assert error_profile(scenario).e0 == expected

    def test_helper_error_simple_cases(self):
        assert error_profile(Scenario(0.0, 1.0, 1, 0.0, 1.0, INFINITE)).e1 == 0.0
        assert error_profile(Scenario(0.0, 1.0, 1, 1.0, 0.0, 1)).e1 == 1.0

    def test_helper_error_against_simulation(self):
        """bias^2 + var_y/n_y checked by simulating the helper mean."""
        scenario = Scenario(0.0, 1.0, 1, 0.5, 1.0, 4)
        closed = error_profile(scenario).e1
        assert closed == 0.5
        trials = 10**6
        helper = draws(Normal(0.5, 1.0), 4 * trials, SeedSpec(555)).reshape(trials, 4)
        sq = (helper.mean(axis=1) - scenario.mu_x) ** 2
        band = 4.0 * sq.std(ddof=1) / math.sqrt(trials)
        assert abs(sq.mean() - closed) <= band


class TestErrorProfile:
    def test_equal_quality_unbiased_helper_with_six_times_data(self):
        scenario = Scenario(0.0, 1.0, 10, 0.0, 1.0, 60)
        profile = error_profile(scenario)
        assert profile.alpha_star == pytest.approx(6.0 / 7.0, rel=1e-15)
        assert round(profile.alpha_star, 2) == 0.86

    def test_deterministic_local_data(self):
        profile = error_profile(Scenario(0.0, 0.0, 5, 1.0, 1.0, 5))
        assert profile.alpha_star == 0.0
        assert not profile.degenerate

    def test_accurate_local_vs_biased_constant_helper(self):
        # bias^2 = var_x, 50 local samples, exact helper: weight ~ 1/51.
        scenario = Scenario(0.0, 1.0, 50, 1.0, 0.0, INFINITE)
        profile = error_profile(scenario)
        assert profile.alpha_star == pytest.approx(0.02 / 1.02, rel=1e-15)
        assert round(profile.alpha_star, 2) == 0.02

    def test_degenerate_sets_flag_and_zero_weight(self):
        profile = error_profile(Scenario(1.0, 0.0, 3, 1.0, 0.0, 9))
        assert profile.degenerate
        assert profile.alpha_star == 0.0
        assert profile.ese_opt == 0.0

    def test_overflowing_error_sum(self):
        # var_x = bias^2 = 1e308: e0 + e1 overflows, yet alpha* = 1/2.
        profile = error_profile(Scenario(0.0, 1e308, 1, 1e154, 0.0, 1))
        assert (profile.e0, profile.e1) == (1e308, 1e308)
        assert profile.alpha_star == 0.5
        assert profile.break_even == 1.0
        assert profile.ese_opt == 5e307

    def test_zero_weight_iff_zero_local_error(self, scenario_batch):
        for scenario in scenario_batch(200, seed=91):
            profile = error_profile(scenario)
            assert not profile.degenerate
            assert (profile.alpha_star == 0.0) == (profile.e0 == 0.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ErrorProfile(e0=-1.0, e1=0.0)
        with pytest.raises(ValueError):
            ErrorProfile(e0=1.0, e1=math.inf)

    @settings(deadline=None, max_examples=200)
    @given(e0=ERRORS, e1=ERRORS)
    @example(e0=0.0, e1=0.0)
    @example(e0=sys.float_info.max, e1=sys.float_info.max)
    @example(e0=5e-324, e1=0.0)
    def test_derived_fields_are_consistent(self, e0, e1):
        profile = ErrorProfile(e0, e1)
        assert 0.0 <= profile.alpha_star <= 1.0
        assert profile.degenerate == (e0 == 0.0 and e1 == 0.0)
        if profile.degenerate:
            assert profile.alpha_star == 0.0
        assert profile.break_even == 2.0 * profile.alpha_star


class TestEseOfAlpha:
    def test_endpoints(self):
        profile = ErrorProfile(e0=0.3, e1=0.8)
        assert ese_of_alpha(profile, 0.0) == profile.e0
        assert ese_of_alpha(profile, 1.0) == profile.e1

    def test_domain_error(self):
        profile = ErrorProfile(e0=1.0, e1=1.0)
        for alpha in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError):
                ese_of_alpha(profile, alpha)

    def test_midpoint_against_simulation(self):
        """e0=1, e1=3 realized by unit-variance single draws; alpha=1/2."""
        scenario = Scenario(0.0, 1.0, 1, math.sqrt(2.0), 1.0, 1)
        profile = error_profile(scenario)
        assert ese_of_alpha(profile, 0.5) == pytest.approx(1.0, rel=1e-12)
        trials = 4 * 10**5
        x = draws(Normal(0.0, 1.0), trials, SeedSpec(808, 0))
        y = draws(Normal(math.sqrt(2.0), 1.0), trials, SeedSpec(808, 1))
        sq = (0.5 * x + 0.5 * y) ** 2
        band = 4.0 * sq.std(ddof=1) / math.sqrt(trials)
        assert abs(sq.mean() - 1.0) <= band


class TestReducedForm:
    def test_requires_positive_optimum(self):
        with pytest.raises(ValueError):
            ese_of_alpha_reduced(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            ese_of_alpha_reduced(0.5, -0.2, 1.0)

    def test_optimal_weight_value(self):
        assert ese_of_alpha_reduced(0.25, 0.25, 2.0) == pytest.approx(
            (1 - 0.25) * 2.0, rel=IDENTITY_RTOL
        )

    def test_break_even_value(self):
        assert ese_of_alpha_reduced(0.5, 0.25, 2.0) == pytest.approx(2.0, rel=IDENTITY_RTOL)

    def test_reference_half_weight_cell(self):
        # alpha* = 1/26 (bias^2 = var_x/4 at 100 local samples, exact helper).
        assert ese_of_alpha_reduced(0.5, 1.0 / 26.0, 1.0) == pytest.approx(6.50, abs=1e-12)

    def test_agrees_with_quadratic_form_on_grid(self, scenario_batch):
        for scenario in scenario_batch(100, seed=17):
            profile = error_profile(scenario)
            if profile.alpha_star <= 0.0:
                continue
            tolerance = IDENTITY_RTOL * _scale(profile)
            for alpha in GRID[::10]:
                full = ese_of_alpha(profile, float(alpha))
                reduced = ese_of_alpha_reduced(float(alpha), profile.alpha_star, profile.e0)
                assert abs(full - reduced) <= tolerance


class TestCurveShape:
    def test_convexity_on_grid(self, scenario_batch):
        for scenario in scenario_batch(50, seed=23):
            profile = error_profile(scenario)
            values = (1.0 - GRID) ** 2 * profile.e0 + GRID**2 * profile.e1
            second_diff = values[:-2] - 2 * values[1:-1] + values[2:]
            assert second_diff.min() >= -1e-12

    def test_optimum_is_grid_minimum(self, scenario_batch):
        for scenario in scenario_batch(50, seed=29):
            profile = error_profile(scenario)
            best = ese_of_alpha(profile, profile.alpha_star)
            values = (1.0 - GRID) ** 2 * profile.e0 + GRID**2 * profile.e1
            assert values.min() >= best - IDENTITY_RTOL * _scale(profile)
            away = np.abs(GRID - profile.alpha_star) > 1e-6
            if profile.e0 + profile.e1 > 0:
                assert (values[away] > best).all()

    def test_dominance_when_local_variance_positive(self, scenario_batch):
        for scenario in scenario_batch(100, seed=31):
            profile = error_profile(scenario)
            assert profile.alpha_star > 0.0
            assert ese_of_alpha(profile, profile.alpha_star) < profile.e0

    def test_break_even_split(self, scenario_batch):
        for scenario in scenario_batch(100, seed=37):
            profile = error_profile(scenario)
            tolerance = IDENTITY_RTOL * _scale(profile)
            if profile.break_even <= 1.0:
                assert abs(ese_of_alpha(profile, profile.break_even) - profile.e0) <= tolerance
            below = GRID[(GRID > 0) & (GRID < profile.break_even - 1e-9)]
            above = GRID[GRID > profile.break_even + 1e-9]
            for alpha in below[:: max(1, below.size // 20)]:
                assert ese_of_alpha(profile, float(alpha)) < profile.e0 + tolerance
            for alpha in above[:: max(1, above.size // 20)]:
                assert ese_of_alpha(profile, float(alpha)) > profile.e0 - tolerance

    def test_linear_bounds_and_symmetry(self, scenario_batch):
        for scenario in scenario_batch(60, seed=41):
            profile = error_profile(scenario)
            tolerance = IDENTITY_RTOL * _scale(profile)
            ratios = ((1.0 - GRID) ** 2 * profile.e0 + GRID**2 * profile.e1) / profile.e0
            assert (ratios >= 1.0 - 2.0 * GRID - 1e-12).all()
            head = GRID <= profile.alpha_star
            assert (ratios[head] <= 1.0 - GRID[head] + 1e-12).all()
            mirrored = 2.0 * profile.alpha_star - GRID
            valid = (mirrored >= 0.0) & (mirrored <= 1.0)
            for alpha, twin in zip(GRID[valid][::25], mirrored[valid][::25]):
                direct = ese_of_alpha(profile, float(alpha))
                reflected = ese_of_alpha(profile, float(twin))
                assert abs(direct - reflected) <= tolerance


class TestUpperBounds:
    def test_requires_local_variance(self):
        with pytest.raises(ValueError):
            alpha_star_upper_bounds(Scenario(0.0, 0.0, 5, 0.0, 1.0, 5))

    def test_exact_helper_with_bias(self):
        # Var[xbar] = 0.1, bias^2 = 0.25, Var[ybar] = 0.
        scenario = Scenario(0.0, 1.0, 10, 0.5, 0.0, INFINITE)
        bound_bias, bound_var = alpha_star_upper_bounds(scenario)
        assert bound_bias == pytest.approx(0.4, rel=1e-15)
        assert bound_var == INFINITE
        assert error_profile(scenario).alpha_star == pytest.approx(0.1 / 0.35, rel=1e-15)
        assert error_profile(scenario).alpha_star < 0.4

    def test_unbiased_helper(self):
        scenario = Scenario(0.0, 1.0, 10, 0.0, 1.0, 10)
        bound_bias, _ = alpha_star_upper_bounds(scenario)
        assert bound_bias == INFINITE

    def test_equal_contributions(self):
        # Var[xbar] = bias^2 = Var[ybar] = 1.
        scenario = Scenario(0.0, 1.0, 1, 1.0, 1.0, 1)
        assert alpha_star_upper_bounds(scenario) == (1.0, 1.0)
        assert error_profile(scenario).alpha_star == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_strictly_above_optimum(self, scenario_batch):
        for scenario in scenario_batch(1000, seed=43):
            profile = error_profile(scenario)
            assert profile.alpha_star < min(alpha_star_upper_bounds(scenario))


class TestMaxEse:
    def test_balanced_boundary(self):
        assert max_ese(ErrorProfile(e0=1.0, e1=1.0)) == 1.0

    def test_small_optimum_picks_helper_error(self):
        # e1 = (1/alpha* - 1) e0 = 4 when alpha* = 0.2 and e0 = 1.
        profile = ErrorProfile(e0=1.0, e1=4.0)
        assert max_ese(profile) == 4.0

    def test_deterministic_local(self):
        profile = ErrorProfile(e0=0.0, e1=2.0)
        assert max_ese(profile) == 2.0

    def test_matches_grid_maximum(self, scenario_batch):
        for scenario in scenario_batch(100, seed=47):
            profile = error_profile(scenario)
            values = (1.0 - GRID) ** 2 * profile.e0 + GRID**2 * profile.e1
            assert max_ese(profile) == pytest.approx(values.max(), rel=1e-12, abs=1e-300)


class TestHelperErrorIdentity:
    def test_identity(self, scenario_batch):
        for scenario in scenario_batch(200, seed=53):
            profile = error_profile(scenario)
            if profile.e0 == 0.0:
                continue
            implied = (1.0 / profile.alpha_star - 1.0) * profile.e0
            assert abs(implied - profile.e1) <= 1e-12 * _scale(profile)


class TestSharedPopulationModel:
    def _substitution_oracle(self, n_x: int, n_y: int, sigma2: float, mu_e: float) -> float:
        """Optimal ESE of the scenario with bias^2 = 2 sigma2, var = mu_e."""
        e0 = mu_e / n_x
        e1 = 2.0 * sigma2 + mu_e / n_y
        alpha_star = e0 / (e0 + e1)
        return (1.0 - alpha_star) * e0

    def test_single_sample_agents(self):
        assert donahue_mse(1, 1, 1.0, 1.0) == pytest.approx(0.75, rel=1e-12)
        assert self._substitution_oracle(1, 1, 1.0, 1.0) == pytest.approx(0.75, rel=1e-12)

    def test_identical_populations_reduce_to_pooled_mean(self):
        assert donahue_mse(3, 5, 0.0, 1.0) == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_small_mixed_case(self):
        assert donahue_mse(4, 2, 0.5, 1.0) == pytest.approx(6.0 / 28.0, rel=1e-12)
        assert self._substitution_oracle(4, 2, 0.5, 1.0) == pytest.approx(6.0 / 28.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            donahue_mse(0, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            donahue_mse(1, 1, -1.0, 1.0)
        with pytest.raises(ValueError):
            donahue_mse(1, 1, 1.0, 0.0)

    def test_equivalence_on_random_tuples(self):
        rng = np.random.default_rng(59)
        for _ in range(1000):
            n_x = int(rng.integers(1, 500))
            n_y = int(rng.integers(1, 500))
            sigma2 = float(rng.uniform(0.0, 5.0))
            mu_e = float(rng.uniform(0.01, 5.0))
            direct = donahue_mse(n_x, n_y, sigma2, mu_e)
            oracle = self._substitution_oracle(n_x, n_y, sigma2, mu_e)
            assert abs(direct - oracle) <= 1e-9 * max(abs(direct), abs(oracle))
