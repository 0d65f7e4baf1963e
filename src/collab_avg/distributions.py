"""Scalar random variables with exact moments and reproducible sampling.

The family list is closed: every family carries analytic ``mean()`` and
``variance()`` so that simulation output can always be checked against an
exact value. Sampling is driven by the counter-based engine in
:mod:`collab_avg._philox` through inverse-CDF transforms, so draw ``i`` of a
stream consumes exactly uniform ``i`` and sequences are reproducible
independent of chunking or thread count.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
import types
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from ._philox import uniforms
from .theory import _check_count

_U64_MAX = (1 << 64) - 1


@functools.cache
def _load_ndtri():
    """scipy's Normal inverse CDF, loaded on first use: only sampling needs scipy.

    ``import scipy.special`` takes about 0.3 s, nearly all of it in modules
    that ndtri does not use, so only the extension that defines it is
    loaded. A later ``import scipy.special`` returns this very object. When
    a scipy module is already loaded, or that load fails in any way, this
    is the public import, which raises ImportError without scipy.
    """
    if "scipy" not in sys.modules:
        try:
            return _ufuncs_extension().ndtri
        except Exception:
            pass
    from scipy.special import ndtri

    return ndtri


def _ufuncs_extension() -> types.ModuleType:
    """``scipy.special._ufuncs``, loaded under bare ``scipy`` and ``scipy.special`` packages.

    Every ``scipy`` module the load adds, the two stand-ins included, is
    dropped again, so the real packages can still be imported; the other
    modules the extension imports (``subprocess``, ``locale``, ...) stay.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    special = os.path.join(root, "special")
    before = set(sys.modules)
    try:
        for name, location in (("scipy", root), ("scipy.special", special)):
            package = types.ModuleType(name)
            package.__path__ = [location]
            sys.modules[name] = package
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(special, "_ufuncs" + suffix)
            if os.path.isfile(path):
                break
        loader = ExtensionFileLoader("scipy.special._ufuncs", path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module
    finally:
        for name in set(sys.modules) - before:
            if name.split(".")[0] == "scipy":
                del sys.modules[name]


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


def _require_finite_moments(dist: Distribution) -> None:
    # Finite parameters can still overflow ``** 2`` or, squared, underflow a
    # divisor to zero.
    try:
        finite = all(math.isfinite(m) for m in dist.moments())
    except ArithmeticError:
        finite = False
    _require(finite, f"{type(dist).__name__} moments overflow a float")


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


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float
    sd: float

    def __post_init__(self) -> None:
        _require(_finite(self.mu), "Normal mu must be finite")
        _require(_finite(self.sd) and self.sd >= 0, "Normal sd must be finite and >= 0")
        _require_finite_moments(self)

    def mean(self) -> float:
        return float(self.mu)

    def variance(self) -> float:
        return float(self.sd) ** 2

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        if self.sd == 0:
            return np.full_like(u, float(self.mu))
        return self.mu + self.sd * _load_ndtri()(u)


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require(_finite(self.lo) and _finite(self.hi), "Uniform bounds must be finite")
        _require(self.lo < self.hi, "Uniform requires lo < hi")
        _require_finite_moments(self)

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
        _require_finite_moments(self)

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


def sample(spec: Distribution, n: int, seed: SeedSpec | int) -> np.ndarray:
    """``n`` i.i.d. draws from ``spec``, fully determined by ``seed``.

    Draw ``i`` occupies index ``i`` of the seed's stream; a point mass
    consumes no randomness but the result is the same either way.
    """
    _check_count("n", n)
    if isinstance(seed, int):
        seed = SeedSpec(seed)
    if isinstance(spec, PointMass):
        return np.full(n, float(spec.value))
    u = uniforms(seed.master_seed, seed.stream_id, n)
    return spec._from_uniforms(u)
