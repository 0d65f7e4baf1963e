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

_U64_MAX = (1 << 64) - 1


@functools.cache
def _load_ndtri():
    """scipy's Normal inverse CDF, loaded on first use: only sampling needs scipy.

    ``import scipy.special`` takes about 0.3 s, nearly all of it in modules
    that ndtri does not use, so only the extension that defines it,
    ``_ufuncs``, is loaded (:func:`_load_from_extension`). Without scipy
    this raises ImportError.
    """
    return _load_from_extension("scipy", "scipy.special._ufuncs", "ndtri")


def _load_from_extension(root: str, extension: str, name: str, **stand_ins: types.ModuleType):
    """``name`` from the extension module ``extension``, loaded without its packages' code.

    ``root`` and each package between it and ``extension`` are bare
    modules with only a ``__path__``, so no package ``__init__`` runs.
    ``stand_ins`` are modules put in place, by name, for the load alone,
    each only where no module of that name is imported yet. Every module
    the load adds under ``root``, and every stand-in, is dropped again, so
    the real packages can still be imported; the extension stays cached,
    so they then hold this very object. The other modules the extension
    imports stay. When ``root`` is already imported, or the load fails in
    any way, this is the public ``from <extension's package> import name``.
    """
    if root not in sys.modules:
        before = set(sys.modules)
        try:
            path = importlib.util.find_spec(root).submodule_search_locations[0]
            package = root
            for part in extension[len(root) + 1 :].split("."):
                bare = types.ModuleType(package)
                bare.__path__ = [path]
                sys.modules[package] = bare
                package, path = f"{package}.{part}", os.path.join(path, part)
            for item in stand_ins.items():
                sys.modules.setdefault(*item)
            for suffix in EXTENSION_SUFFIXES:
                if os.path.isfile(path + suffix):
                    break
            loader = ExtensionFileLoader(extension, path + suffix)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(extension, loader))
            loader.exec_module(module)
            return getattr(module, name)
        except Exception:
            pass
        finally:
            for added in set(sys.modules) - before:
                if added in stand_ins or added == root or added.startswith(root + "."):
                    del sys.modules[added]
    return getattr(importlib.import_module(extension.rpartition(".")[0]), name)


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    Identical ``(master_seed, stream_id, draw index)`` always yields the
    identical uniform, across runs, platforms, chunk sizes and worker
    counts. A family's transform of that uniform keeps its bits across
    runs, chunk sizes and worker counts, but not always across hosts:
    numpy's ``log``, which Exponential uses, takes an AVX-512 path whose
    last bit can differ from libm's.
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

    def _kernel(self, u: np.ndarray) -> np.ndarray:
        """The costly first step of ``_from_uniforms``, ``u`` itself when there is none.

        Elementwise and the same for every member of the family, so one
        kernel array can serve all of a family's sides.
        """
        return u

    def _standard(self, k: np.ndarray) -> np.ndarray:
        """This member's standard values from the family's ``_kernel`` values, ``k`` itself for most."""
        return k

    @abstractmethod
    def _centred(self, m: np.ndarray) -> np.ndarray:
        """The deviation from ``mean()`` of draws whose ``_standard`` values average ``m``; affine."""

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

    def _kernel(self, u: np.ndarray) -> np.ndarray:
        return _load_ndtri()(u)

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        if self.sd == 0:
            return np.full_like(u, float(self.mu))
        return self.mu + self.sd * self._kernel(u)

    def _centred(self, m: np.ndarray) -> np.ndarray:
        return self.sd * m


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

    def _centred(self, m: np.ndarray) -> np.ndarray:
        return (self.hi - self.lo) * (m - 0.5)


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
        return self._standard(u)

    def _standard(self, k: np.ndarray) -> np.ndarray:
        return (k < self.p).astype(np.float64)

    def _centred(self, m: np.ndarray) -> np.ndarray:
        return m - self.p


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

    def _kernel(self, u: np.ndarray) -> np.ndarray:
        # Inverse CDF; u is never exactly 0 or 1, so the result is finite.
        # Negated in place: numpy reuses a temporary only from 256 KiB on,
        # and a suite's kernel chunk is just below that.
        k = np.log(u)
        return np.negative(k, out=k)

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self._kernel(u) / self.rate

    def _centred(self, m: np.ndarray) -> np.ndarray:
        return (m - 1.0) / self.rate


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

    def _centred(self, m: np.ndarray) -> np.ndarray:
        return 0.0 * m


FAMILIES: dict[str, type[Distribution]] = {
    "normal": Normal,
    "uniform": Uniform,
    "bernoulli": Bernoulli,
    "exponential": Exponential,
    "pointmass": PointMass,
}


def make_distribution(family: str, /, **params: float) -> Distribution:
    """Construct a distribution from its family name and parameters."""
    key = family.strip().lower().replace("_", "").replace("-", "")
    if key not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})")
    try:
        return FAMILIES[key](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from exc

