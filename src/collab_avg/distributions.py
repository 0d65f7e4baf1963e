"""Scalar random variables with exact moments and reproducible sampling.

The family list is closed: every family carries analytic ``mean()`` and
``variance()`` so that simulation output can always be checked against an
exact value. Sampling is driven by the counter-based engine in
:mod:`collab_avg._philox` through inverse-CDF transforms, so draw ``i`` of a
stream consumes exactly uniform ``i`` and sequences are reproducible
independent of chunking or thread count.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._philox import uniforms

_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    Identical ``(master_seed, stream_id, draw index)`` always yields the
    identical draw, across runs, platforms, and worker counts.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= _U64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class Distribution(ABC):
    """A scalar random variable with known exact mean and variance."""

    @abstractmethod
    def mean(self) -> float:
        """Exact expectation."""

    @abstractmethod
    def variance(self) -> float:
        """Exact variance (non-negative, finite)."""

    @abstractmethod
    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in (0, 1) to draws; elementwise, shape-preserving."""

    def moments(self) -> tuple[float, float]:
        return self.mean(), self.variance()

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        return sample(self, n, seed)


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float
    sd: float

    def __post_init__(self) -> None:
        _require(_finite(self.mu), "Normal mu must be finite")
        _require(_finite(self.sd) and self.sd >= 0, "Normal sd must be finite and >= 0")

    def mean(self) -> float:
        return float(self.mu)

    def variance(self) -> float:
        return float(self.sd) ** 2

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        if self.sd == 0:
            return np.full_like(u, float(self.mu))
        return self.mu + self.sd * ndtri(u)


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require(_finite(self.lo) and _finite(self.hi), "Uniform bounds must be finite")
        _require(self.lo < self.hi, "Uniform requires lo < hi")

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * u


@dataclass(frozen=True)
class Bernoulli(Distribution):
    p: float

    def __post_init__(self) -> None:
        _require(_finite(self.p) and 0.0 <= self.p <= 1.0, "Bernoulli p must be in [0, 1]")

    def mean(self) -> float:
        return float(self.p)

    def variance(self) -> float:
        return self.p * (1.0 - self.p)

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return (u < self.p).astype(np.float64)


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float

    def __post_init__(self) -> None:
        _require(_finite(self.rate) and self.rate > 0, "Exponential rate must be > 0")

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate**2

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        # Inverse CDF; u is never exactly 0 or 1, so the result is finite.
        return -np.log(u) / self.rate


@dataclass(frozen=True)
class PointMass(Distribution):
    value: float

    def __post_init__(self) -> None:
        _require(_finite(self.value), "PointMass value must be finite")

    def mean(self) -> float:
        return float(self.value)

    def variance(self) -> float:
        return 0.0

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(u, float(self.value))


FAMILIES: dict[str, type[Distribution]] = {
    "normal": Normal,
    "uniform": Uniform,
    "bernoulli": Bernoulli,
    "exponential": Exponential,
    "pointmass": PointMass,
}


def make_distribution(family: str, **params: float) -> Distribution:
    """Construct a distribution from its family name and parameters."""
    key = family.strip().lower().replace("_", "").replace("-", "")
    if key not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})")
    try:
        return FAMILIES[key](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from exc


def moments(spec: Distribution) -> tuple[float, float]:
    """Exact (mean, variance) of a distribution spec."""
    return spec.moments()


def sample(spec: Distribution, n: int, seed: SeedSpec | int) -> np.ndarray:
    """``n`` i.i.d. draws from ``spec``, fully determined by ``seed``.

    Draw ``i`` occupies index ``i`` of the seed's stream; a point mass
    consumes no randomness but the result is the same either way.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if isinstance(seed, int):
        seed = SeedSpec(seed)
    if isinstance(spec, PointMass):
        return np.full(n, float(spec.value))
    u = uniforms(seed.master_seed, seed.stream_id, n)
    return spec._from_uniforms(u)
