"""Multi-helper reduction to the two-agent model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collab_avg._philox import uniform_matrix
from collab_avg.distributions import Bernoulli, Normal, PointMass, Uniform
from collab_avg.federation import (
    Agent,
    SampledScenario,
    personalized_weight,
    reduce_to_two_agent,
)
from collab_avg.theory import alpha_star_upper_bounds

from conftest import variance_std_error


def _pooled_mean_trials(helpers, trials: int, master_seed: int) -> np.ndarray:
    """Independent oracle: pooled mean over the union of helper samples.

    Trial t draws n_i fresh samples per helper from stream (master_seed, t),
    helper segments laid out consecutively, and averages all of them.
    """
    total = sum(agent.n for agent in helpers)
    u = uniform_matrix(master_seed, 0, trials, total)
    pooled = np.zeros(trials)
    offset = 0
    for agent in helpers:
        block = u[:, offset : offset + agent.n]
        pooled += agent.spec._from_uniforms(block).sum(axis=1)
        offset += agent.n
    return pooled / total


class TestReduction:
    def test_single_helper_is_identity(self):
        # At (mu 0.1, n 3), fsum([n * mu]) / n is one bit above mu, so a
        # single helper's moments must be taken as they are, not pooled.
        for helper in (Agent(Uniform(0.0, 2.0), 12), Agent(Normal(0.1, 1.0), 3)):
            federation = SampledScenario(Normal(0, 1), 5, helper.spec, helper.n)
            scenario = reduce_to_two_agent(federation)
            assert scenario.mu_y == helper.spec.mean()
            assert scenario.var_y == helper.spec.variance()
            assert scenario.n_y == helper.n
            assert scenario.mu_x == 0.0 and scenario.var_x == 1.0 and scenario.n_x == 5
            assert federation.helpers == (helper,)

    def test_two_heterogeneous_helpers(self):
        federation = SampledScenario(Normal(0, 1), 10, Normal(0.0, 1.0), 10, (Agent(Normal(1.0, 1.0), 30),))
        scenario = reduce_to_two_agent(federation)
        assert scenario.mu_y == 0.75
        assert scenario.n_y == 40
        assert scenario.var_helper_mean == pytest.approx(40.0 / 1600.0, rel=1e-15)

    def test_two_helpers_against_pooled_simulation(self):
        helpers = (Agent(Normal(0.0, 1.0), 10), Agent(Normal(1.0, 1.0), 30))
        federation = SampledScenario(Normal(0, 1), 10, helpers[0].spec, helpers[0].n, helpers[1:])
        scenario = reduce_to_two_agent(federation)
        trials = 10**5
        pooled = _pooled_mean_trials(helpers, trials, master_seed=6101)
        mean_band = 4.0 * pooled.std(ddof=1) / math.sqrt(trials)
        assert abs(pooled.mean() - scenario.mu_y) <= mean_band
        var_band = 5.0 * variance_std_error(pooled)
        assert abs(pooled.var(ddof=1) - scenario.var_helper_mean) <= var_band

    def test_agent_validation(self):
        with pytest.raises(ValueError):
            Agent(Normal(0, 1), 0)
        with pytest.raises(ValueError):
            Agent("normal", 5)


class TestPersonalizedWeight:
    def test_identical_specs_give_pooled_weight_exactly(self):
        """Same data everywhere: the optimal weight is the global-model weight.

        Power-of-two counts and a dyadic variance make the identity exact
        in floating point, not just to rounding.
        """
        spec = Normal(1.0, 0.5)  # variance 0.25
        helpers = tuple(Agent(spec, 8) for _ in range(4))  # pooled n = 32
        alpha, profile = personalized_weight(SampledScenario(spec, 32, spec, 8, helpers[1:]))
        assert alpha == 0.5
        assert profile.ese_opt == 0.5 * profile.e0

        alpha16, _ = personalized_weight(SampledScenario(spec, 16, spec, 8, helpers[1:]))
        assert alpha16 == 32.0 / 48.0

    def test_identical_specs_arbitrary_counts_close(self):
        spec = Uniform(0.0, 1.0)
        helpers = (Agent(spec, 3), Agent(spec, 7), Agent(spec, 11))
        alpha, _ = personalized_weight(SampledScenario(spec, 13, spec, 3, helpers[1:]))
        assert alpha == pytest.approx(21.0 / 34.0, rel=1e-14)

    def test_deterministic_focal_keeps_local_model(self):
        federation = SampledScenario(PointMass(2.0), 5, Normal(2, 1), 50)
        alpha, profile = personalized_weight(federation)
        assert alpha == 0.0
        assert not profile.degenerate

    def test_enormous_bias_forces_tiny_weight(self):
        # bias^2 / Var[xbar] = 100 / 0.01 = 1e4, so alpha* < 1e-4.
        federation = SampledScenario(Normal(0.0, 1.0), 100, PointMass(10.0), 7)
        alpha, _ = personalized_weight(federation)
        scenario = reduce_to_two_agent(federation)
        bound_bias, _ = alpha_star_upper_bounds(scenario)
        assert bound_bias == pytest.approx(1e-4, rel=1e-12)
        assert alpha < 1e-4


@settings(deadline=None, max_examples=40)
@given(permutation=st.permutations(range(5)))
def test_helper_order_is_irrelevant(permutation):
    helpers = (
        Agent(Normal(0.0, 1.0), 3),
        Agent(Uniform(-1.0, 2.0), 17),
        Agent(Bernoulli(0.25), 9),
        Agent(PointMass(0.7), 21),
        Agent(Normal(3.0, 0.1), 2),
    )
    first, *rest = (helpers[i] for i in permutation)
    base = reduce_to_two_agent(SampledScenario(Normal(0, 1), 10, helpers[0].spec, helpers[0].n, helpers[1:]))
    shuffled = reduce_to_two_agent(SampledScenario(Normal(0, 1), 10, first.spec, first.n, tuple(rest)))
    assert base == shuffled
