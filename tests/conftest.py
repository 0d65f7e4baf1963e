"""Shared test helpers."""

from __future__ import annotations

import argparse
import math
import os

# As collab_avg/__init__.py does when it loads first: OpenBLAS then starts
# no thread, so every fork in a test forks a single-threaded process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from collab_avg import cli  # noqa: E402
from collab_avg._philox import uniform_matrix, uniforms  # noqa: E402
from collab_avg.distributions import Distribution, SeedSpec  # noqa: E402
from collab_avg.theory import Scenario  # noqa: E402


def draws(spec: Distribution, n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` draws from ``spec``: draw ``i`` is uniform ``i`` of the seed's stream."""
    return spec._from_uniforms(uniforms(seed.master_seed, seed.stream_id, n))


def command_flags() -> dict[str, set[str]]:
    """The long options each command's parser takes, ``--help`` aside."""
    parser = cli._build_parser()
    (commands,) = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        name: {option for action in command._actions for option in action.option_strings} - {"-h", "--help"}
        for name, command in commands.items()
    }


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


def whole_row_deviations(x, n_x, y, n_y, trials: int, seed: SeedSpec, block: int = 4_096):
    """Each side's per-trial mean deviation from its distribution's mean, naively.

    numpy's own ``mean`` of the side's ``_standard`` kernel values over the
    whole row of its draws, then the family's ``_centred``: the reference
    for the sampling core (a constant side's is 0.0). Trials are taken
    ``block`` at a time only to bound the memory.
    """
    rows = ([], [])
    for t in range(0, trials, block):
        u = uniform_matrix(seed.master_seed, seed.stream_id + t, min(block, trials - t), n_x + n_y)
        for row, dist, cols in zip(rows, (x, y), (u[:, :n_x], u[:, n_x:])):
            row.append(dist._centred(dist._standard(dist._kernel(cols)).mean(axis=1)))
    return tuple(np.concatenate(row) for row in rows)


def numpy_statistics(dx, dy, alphas, b) -> list[tuple[float, float]]:
    """numpy's own ``mean`` and ``std(ddof=1) / sqrt(trials)`` of the squared errors, weight by weight.

    ``dx`` and ``dy`` are the sides' per-trial mean deviations and ``b = mu_y
    - mu_x``, so each trial's error is ``(1 - alpha) * dx + alpha * (dy + b)``.
    """
    trials = dx.size
    pairs = []
    for alpha in alphas:
        sq = ((1.0 - alpha) * dx + alpha * (dy + b)) ** 2
        pairs.append((float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(trials)))
    return pairs


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


def round_forks(n: int) -> int:
    """Forks one ``ordered_map`` round makes on ``n`` CPUs: one per worker from two on, none on one."""
    return n if n > 1 else 0


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
