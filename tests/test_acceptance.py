"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints exactly one pass/fail line. Run with ``pytest -s`` (or
``-rA``) to see the lines for passing criteria. Monte Carlo criteria use
fixed seeds, so the whole suite is deterministic: green stays green.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from collab_avg._philox import uniform_matrix
from collab_avg.distributions import (
    Bernoulli,
    Exponential,
    Normal,
    PointMass,
    SeedSpec,
    Uniform,
)
from collab_avg.federation import Agent, FederationScenario, personalized_weight, reduce_to_two_agent
import collab_avg.montecarlo as mc
from collab_avg.montecarlo import SampledScenario, trial_means, validate_scenario
from collab_avg.table1 import MISMATCH_ROWS, reproduce_table
from collab_avg.theory import (
    alpha_star_upper_bounds,
    donahue_mse,
    error_profile,
    ese_of_alpha,
)

from conftest import random_scenarios, variance_std_error

IDENTITY_RTOL = 1e-12
GRID = np.linspace(0.0, 1.0, 1001)
SCENARIO_SUITE_SEED = 20260811
MC_TRIALS = 10**5
MC_BASE_SEED = 90210

#: Fixed simulation suite: every family appears, counts drawn from {5, 20, 100}.
MC_SUITE = (
    SampledScenario(Normal(0.0, 1.0), 5, Normal(0.5, 1.0), 20),
    SampledScenario(Normal(1.0, 2.0), 20, PointMass(1.0), 5),
    SampledScenario(Uniform(0.0, 1.0), 20, Uniform(0.2, 1.2), 100),
    SampledScenario(Bernoulli(0.5), 20, Bernoulli(0.6), 100),
    SampledScenario(Exponential(1.0), 5, Exponential(0.5), 20),
    SampledScenario(PointMass(2.0), 5, Normal(2.0, 1.0), 20),
    SampledScenario(Normal(0.0, 1.0), 100, Bernoulli(0.5), 100),
    SampledScenario(Uniform(-1.0, 1.0), 5, PointMass(0.0), 5),
    SampledScenario(Exponential(2.0), 100, Uniform(0.0, 1.0), 20),
    SampledScenario(Bernoulli(0.3), 5, Exponential(1.0), 5),
    SampledScenario(Normal(-1.0, 0.5), 20, Normal(1.0, 3.0), 5),
    SampledScenario(PointMass(1.0), 5, PointMass(1.0), 5),
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    print(f"criterion {number:2d} [{name}]: PASS")


@pytest.fixture(scope="module")
def scenario_suite():
    return random_scenarios(1000, seed=SCENARIO_SUITE_SEED, allow_infinite_ny=True)


def _scale(profile) -> float:
    return max(profile.e0, profile.e1, 1e-300)


def test_c01_table1_reproduction():
    with criterion(1, "table1 reproduction"):
        start = time.perf_counter()
        rows = reproduce_table()
        elapsed = time.perf_counter() - start
        assert len(rows) == 17
        for row in rows:
            if row.index in MISMATCH_ROWS:
                assert row.status == "Mismatch"
                assert not row.cell_matches["alpha_star"]
            else:
                assert row.status == "Match", f"row {row.index}: {row.cell_matches}"
        assert elapsed < 1.0


def test_c02_optimal_weight_reduction(scenario_suite):
    with criterion(2, "optimal-weight reduction"):
        start = time.perf_counter()
        for scenario in scenario_suite:
            profile = error_profile(scenario)
            best = ese_of_alpha(profile, profile.alpha_star)
            reduced = (1.0 - profile.alpha_star) * profile.e0
            assert abs(best - reduced) <= IDENTITY_RTOL * _scale(profile)
            grid_values = (1.0 - GRID) ** 2 * profile.e0 + GRID**2 * profile.e1
            assert grid_values.min() >= best - IDENTITY_RTOL * _scale(profile)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_c03_break_even(scenario_suite):
    with criterion(3, "break-even weight"):
        for scenario in scenario_suite:
            profile = error_profile(scenario)
            if profile.break_even <= 1.0:
                value = ese_of_alpha(profile, profile.break_even)
                assert abs(value - profile.e0) <= IDENTITY_RTOL * _scale(profile)


def test_c04_linear_bounds_and_symmetry(scenario_suite):
    with criterion(4, "error-curve linear bounds"):
        for scenario in scenario_suite:
            profile = error_profile(scenario)
            tolerance = IDENTITY_RTOL * _scale(profile)
            ratios = ((1.0 - GRID) ** 2 * profile.e0 + GRID**2 * profile.e1) / profile.e0
            assert (ratios >= 1.0 - 2.0 * GRID - IDENTITY_RTOL).all()
            head = GRID <= profile.alpha_star
            assert (ratios[head] <= 1.0 - GRID[head] + IDENTITY_RTOL).all()
            mirrored = 2.0 * profile.alpha_star - GRID
            valid = (mirrored >= 0.0) & (mirrored <= 1.0)
            direct = ratios[valid] * profile.e0
            reflected = (1.0 - mirrored[valid]) ** 2 * profile.e0 + mirrored[
                valid
            ] ** 2 * profile.e1
            assert (np.abs(direct - reflected) <= tolerance).all()


def test_c05_upper_bounds_strict(scenario_suite):
    with criterion(5, "optimal-weight upper bounds"):
        for scenario in scenario_suite:
            profile = error_profile(scenario)
            bound_bias, bound_var = alpha_star_upper_bounds(scenario)
            assert profile.alpha_star < min(bound_bias, bound_var)


@pytest.fixture(scope="module")
def mc_suite_means():
    """Per-trial means (xbar, ybar) of each MC_SUITE scenario, sampled once for c06 and c07."""
    return [
        trial_means(s.x, s.n_x, s.y, s.n_y, MC_TRIALS, SeedSpec(MC_BASE_SEED + index))
        for index, s in enumerate(MC_SUITE)
    ]


def test_c06_monte_carlo_oracle_agreement(monkeypatch, request):
    with criterion(6, "Monte Carlo oracle agreement"):
        start = time.perf_counter()
        # Requested here, so the time bound also covers the sampling.
        mc_suite_means = request.getfixturevalue("mc_suite_means")
        for index, (scenario, means) in enumerate(zip(MC_SUITE, mc_suite_means)):
            seed = SeedSpec(MC_BASE_SEED + index)
            sampled = (scenario.x, scenario.n_x, scenario.y, scenario.n_y, MC_TRIALS, seed)

            def cached_means(*args, sampled=sampled, means=means):
                assert args == sampled
                return means

            monkeypatch.setattr(mc, "trial_means", cached_means)
            report = validate_scenario(scenario, MC_TRIALS, seed, k=4.0)
            assert report.passed, (
                f"scenario {index}: "
                + ", ".join(
                    f"alpha={p.alpha:.2f} dev={p.deviation:.3g} limit={p.limit:.3g}"
                    for p in report.points
                    if not p.passed
                )
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_c07_estimator_moment_checks(mc_suite_means):
    with criterion(7, "estimator moment checks"):
        alphas = np.linspace(0.0, 1.0, 21)
        for scenario, (xbar, ybar) in zip(MC_SUITE, mc_suite_means):
            mu_x, var_x = scenario.x.moments()
            mu_y, var_y = scenario.y.moments()
            for alpha in alphas:
                alpha = float(alpha)
                est = (1.0 - alpha) * xbar + alpha * ybar
                closed_mean = (1.0 - alpha) * mu_x + alpha * mu_y
                mean_band = 4.0 * float(est.std(ddof=1)) / math.sqrt(MC_TRIALS)
                assert abs(float(est.mean()) - closed_mean) <= mean_band
                closed_var = (
                    (1.0 - alpha) ** 2 * var_x / scenario.n_x
                    + alpha**2 * var_y / scenario.n_y
                )
                var_band = 5.0 * variance_std_error(est)
                assert abs(float(est.var(ddof=1)) - closed_var) <= var_band


def test_c08_shared_population_equivalence():
    with criterion(8, "shared-population equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(SCENARIO_SUITE_SEED + 8)
        for _ in range(1000):
            n_x = int(rng.integers(1, 500))
            n_y = int(rng.integers(1, 500))
            sigma2 = float(rng.uniform(0.0, 5.0))
            mu_e = float(rng.uniform(0.01, 5.0))
            e0 = mu_e / n_x
            e1 = 2.0 * sigma2 + mu_e / n_y
            alpha_star = e0 / (e0 + e1)
            oracle = (1.0 - alpha_star) * e0
            direct = donahue_mse(n_x, n_y, sigma2, mu_e)
            assert abs(direct - oracle) <= 1e-9 * max(direct, oracle)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def _random_federation(rng: np.random.Generator) -> FederationScenario:
    def random_agent() -> Agent:
        family = rng.integers(0, 5)
        n = int(rng.integers(1, 30))
        if family == 0:
            spec = Normal(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2.0)))
        elif family == 1:
            lo = float(rng.uniform(-2, 1))
            spec = Uniform(lo, lo + float(rng.uniform(0.5, 3.0)))
        elif family == 2:
            spec = Bernoulli(float(rng.uniform(0.05, 0.95)))
        elif family == 3:
            spec = Exponential(float(rng.uniform(0.2, 3.0)))
        else:
            spec = PointMass(float(rng.uniform(-2, 2)))
        return Agent(spec, n)

    helpers = tuple(random_agent() for _ in range(int(rng.integers(1, 9))))
    return FederationScenario(Agent(Normal(0.0, 1.0), 10), helpers)


def _pooled_mean_trials(helpers, trials: int, master_seed: int) -> np.ndarray:
    total = sum(agent.n for agent in helpers)
    u = uniform_matrix(master_seed, 0, trials, total)
    pooled = np.zeros(trials)
    offset = 0
    for agent in helpers:
        pooled += agent.spec._from_uniforms(u[:, offset : offset + agent.n]).sum(axis=1)
        offset += agent.n
    return pooled / total


def test_c09_federation_reduction():
    with criterion(9, "federation reduction"):
        rng = np.random.default_rng(SCENARIO_SUITE_SEED + 9)
        trials = 4000
        for index in range(50):
            federation = _random_federation(rng)
            scenario = reduce_to_two_agent(federation)
            pooled = _pooled_mean_trials(
                federation.helpers, trials, master_seed=MC_BASE_SEED + 1000 + index
            )
            # All-constant federations make the SE band collapse to rounding
            # noise while the identity holds exactly; allow machine epsilon.
            float_noise = 1e-12 * (1.0 + abs(scenario.mu_y))
            mean_band = 4.0 * float(pooled.std(ddof=1)) / math.sqrt(trials)
            assert abs(float(pooled.mean()) - scenario.mu_y) <= mean_band + float_noise
            var_band = 5.0 * variance_std_error(pooled)
            assert (
                abs(float(pooled.var(ddof=1)) - scenario.var_helper_mean)
                <= var_band + float_noise
            )

        # Identical-spec federation: the optimal weight equals the pooled
        # sample share exactly (power-of-two totals, dyadic variance).
        spec = Normal(0.7, 0.5)
        helpers = (Agent(spec, 5), Agent(spec, 9), Agent(spec, 3), Agent(spec, 15))
        alpha, _ = personalized_weight(FederationScenario(Agent(spec, 32), helpers))
        assert alpha == 0.5
        alpha8, _ = personalized_weight(FederationScenario(Agent(spec, 8), helpers))
        assert alpha8 == 32.0 / 40.0


def test_c10_validate_determinism(tmp_path):
    with criterion(10, "validate determinism"):
        scenario_file = tmp_path / "scenario.yaml"
        scenario_file.write_text(
            "x: {family: exponential, params: {rate: 1.5}}\n"
            "n_x: 12\n"
            "y: {family: normal, params: {mu: 0.6, sd: 0.4}}\n"
            "n_y: 8\n"
            "trials: 2000\n"
        )
        outputs = []
        for name in ("first.txt", "second.txt"):
            out_path = tmp_path / name
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "collab_avg",
                    "validate",
                    "--scenario",
                    str(scenario_file),
                    "--seed",
                    "31337",
                    "--out",
                    str(out_path),
                ],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
