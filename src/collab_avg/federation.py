"""Reduction of a multi-helper federation to the two-agent model.

The helper side of the two-agent problem may stand for a whole federation:
its effective model is the sample-count-weighted mean of the helpers'
models, equivalently the pooled empirical mean over the union of all helper
samples. Pooling N = sum(n_i) samples gives

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
class FederationScenario:
    """A focal agent plus at least one helper agent."""

    focal: Agent
    helpers: tuple[Agent, ...]

    def __post_init__(self) -> None:
        helpers = tuple(self.helpers)
        if not helpers:
            raise ValueError("a federation needs at least one helper")
        if not all(isinstance(h, Agent) for h in helpers):
            raise ValueError("helpers must be Agent instances")
        object.__setattr__(self, "helpers", helpers)


def reduce_to_two_agent(federation: FederationScenario) -> Scenario:
    """Collapse all helpers into one effective helper agent.

    The weighted sums are accumulated with ``math.fsum`` (exactly rounded),
    so the reduced scenario is bit-identical under any helper permutation.
    """
    total = sum(helper.n for helper in federation.helpers)
    weighted_mean = math.fsum(h.n * h.spec.mean() for h in federation.helpers)
    weighted_var = math.fsum(h.n * h.spec.variance() for h in federation.helpers)
    return Scenario(
        mu_x=federation.focal.spec.mean(),
        var_x=federation.focal.spec.variance(),
        n_x=federation.focal.n,
        mu_y=weighted_mean / total,
        var_y=weighted_var / total,
        n_y=total,
    )


def personalized_weight(federation: FederationScenario) -> tuple[float, ErrorProfile]:
    """Optimal federation weight for the focal agent, with its error profile."""
    profile = error_profile(reduce_to_two_agent(federation))
    return profile.alpha_star, profile
