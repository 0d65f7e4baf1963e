"""Sampled scenarios: a focal agent and its helpers, and their reduction to two agents.

A two-agent scenario is a federation with one helper. Any number of helpers
may stand for one: their effective model is the sample-count-weighted mean
of the helpers' models, equivalently the pooled empirical mean over the
union of all helper samples. Pooling N = sum(n_i) samples gives

    mu_y      = sum(n_i * mu_i) / N
    Var[ybar] = sum(n_i * var_i) / N**2

which is encoded as a scenario with var_y = sum(n_i * var_i) / N and
n_y = N, so var_y / n_y reproduces Var[ybar] exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Distribution
from .theory import ErrorProfile, Scenario, _check_count, error_profile


@dataclass(frozen=True)
class Agent:
    """One participant: a data distribution and its sample count."""

    spec: Distribution
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.spec, Distribution):
            raise ValueError("spec must be a Distribution instance")
        _check_count("n", self.n)


@dataclass(frozen=True)
class SampledScenario:
    """A focal agent ``x`` with ``n_x`` samples and its helpers, by concrete distributions.

    ``y`` with ``n_y`` samples is the first helper and ``more`` holds any
    further ones; a two-agent scenario has none. Only a scenario without
    ``more`` may have ``n_y = math.inf``, a helper mean with zero variance.
    """

    x: Distribution
    n_x: int
    y: Distribution
    n_y: int | float
    more: tuple[Agent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.x, Distribution) or not isinstance(self.y, Distribution):
            raise ValueError("x and y must be Distribution instances")
        object.__setattr__(self, "more", tuple(self.more))
        if not all(isinstance(helper, Agent) for helper in self.more):
            raise ValueError("helpers must be Agent instances")
        reduce_to_two_agent(self)  # Scenario validates the counts and moments

    @property
    def helpers(self) -> tuple[Agent, ...]:
        return (Agent(self.y, self.n_y), *self.more)


def reduce_to_two_agent(scenario: SampledScenario) -> Scenario:
    """The moment-level two-agent scenario: the focal agent beside its helpers pooled.

    One helper's moments are taken as they are. Several helpers' weighted
    sums are accumulated with ``math.fsum`` (exactly rounded), so the
    reduced scenario is bit-identical under any helper permutation.
    """
    if scenario.more:
        helpers = scenario.helpers
        n_y = sum(helper.n for helper in helpers)
        mu_y = math.fsum(h.n * h.spec.mean() for h in helpers) / n_y
        var_y = math.fsum(h.n * h.spec.variance() for h in helpers) / n_y
    else:
        mu_y, var_y, n_y = scenario.y.mean(), scenario.y.variance(), scenario.n_y
    return Scenario(
        mu_x=scenario.x.mean(),
        var_x=scenario.x.variance(),
        n_x=scenario.n_x,
        mu_y=mu_y,
        var_y=var_y,
        n_y=n_y,
    )


def personalized_weight(scenario: SampledScenario) -> tuple[float, ErrorProfile]:
    """Optimal federation weight for the focal agent, with its error profile."""
    profile = error_profile(reduce_to_two_agent(scenario))
    return profile.alpha_star, profile
