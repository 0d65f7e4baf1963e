"""Optimally weighted averaging of a local and a helper mean estimate.

Closed-form theory of how much a local mean estimator gains (or loses) by
averaging with a helper's estimate, plus a seeded Monte Carlo harness that
validates every formula by simulation, and a CLI for batch reports.
"""

import os
import sys

if "numpy" not in sys.modules:
    # OpenBLAS starts a thread per CPU when numpy loads; one thread keeps
    # the process single-threaded at each fork of a worker.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributions import (
    Bernoulli,
    Distribution,
    Exponential,
    Normal,
    PointMass,
    SeedSpec,
    Uniform,
    make_distribution,
)
from .federation import Agent, SampledScenario, personalized_weight, reduce_to_two_agent
from .montecarlo import (
    MonteCarloEstimate,
    ValidationPoint,
    ValidationReport,
    Verdict,
    estimate_error_curve,
    validate_scenario,
)
from .theory import (
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

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Bernoulli",
    "Distribution",
    "ErrorProfile",
    "Exponential",
    "INFINITE",
    "MonteCarloEstimate",
    "Normal",
    "PointMass",
    "SampledScenario",
    "Scenario",
    "SeedSpec",
    "Uniform",
    "ValidationPoint",
    "ValidationReport",
    "Verdict",
    "alpha_star_upper_bounds",
    "donahue_mse",
    "error_profile",
    "ese_of_alpha",
    "ese_of_alpha_reduced",
    "estimate_error_curve",
    "make_distribution",
    "max_ese",
    "personalized_weight",
    "reduce_to_two_agent",
    "validate_scenario",
]
