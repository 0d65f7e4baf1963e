"""Shared test helpers."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from collab_avg._philox import uniforms
from collab_avg.distributions import Distribution, SeedSpec
from collab_avg.theory import Scenario


def draws(spec: Distribution, n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` draws from ``spec``: draw ``i`` is uniform ``i`` of the seed's stream."""
    return spec._from_uniforms(uniforms(seed.master_seed, seed.stream_id, n))


def random_scenarios(
    count: int,
    seed: int,
    allow_infinite_ny: bool = True,
) -> list[Scenario]:
    """Randomized finite-moment scenarios with var_x > 0, reproducible by seed."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for _ in range(count):
        n_y: int | float
        if allow_infinite_ny and rng.random() < 0.1:
            n_y = math.inf
        else:
            n_y = int(rng.integers(1, 1000))
        scenarios.append(
            Scenario(
                mu_x=float(rng.uniform(-5.0, 5.0)),
                var_x=float(rng.uniform(0.01, 10.0)),
                n_x=int(rng.integers(1, 1000)),
                mu_y=float(rng.uniform(-5.0, 5.0)),
                var_y=0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 10.0)),
                n_y=n_y,
            )
        )
    return scenarios


@pytest.fixture
def scenario_batch():
    return random_scenarios


def variance_std_error(values: np.ndarray) -> float:
    """Standard error of the sample variance, from empirical moments.

    Var(s^2) = (m4 - s^4 * (n-3)/(n-1)) / n with m4 the fourth central
    sample moment; clipped at zero for degenerate (constant) samples.
    """
    n = values.size
    centered = values - values.mean()
    m4 = float((centered**4).mean())
    s2 = float(values.var(ddof=1))
    var_of_var = (m4 - s2**2 * (n - 3) / (n - 1)) / n
    return math.sqrt(max(var_of_var, 0.0))


def force_cpus(monkeypatch, n: int) -> list[int]:
    """Give the process ``n`` CPUs; the returned list grows by one per fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
