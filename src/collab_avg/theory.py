"""Closed-form error analysis of weighted two-agent mean averaging.

Setting: a local agent holds ``n_x`` i.i.d. samples of a scalar variable X
and wants to estimate X's true mean. A helper supplies the empirical mean of
``n_y`` samples of some other variable Y. The estimator under study is

    (1 - alpha) * (local mean) + alpha * (helper mean),   alpha in [0, 1],

and all quality statements are in terms of its expected squared error (ESE)
against the true local mean. With

    e0 = var_x / n_x                       (ESE of the pure local mean)
    e1 = (mu_y - mu_x)**2 + var_y / n_y    (ESE of the pure helper mean)

the ESE at weight ``alpha`` is the convex parabola

    e(alpha) = (1 - alpha)**2 * e0 + alpha**2 * e1,

minimized at ``alpha_star = e0 / (e0 + e1)``. Everything else here
(reduced form, break-even weight, bounds, the shared-population special
case) is a consequence of those three formulas.

Infinite helper sample counts are first-class: ``n_y = math.inf`` means the
helper mean has zero variance. Infinity is confined to explicit branches so
it never enters arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Distinguished helper sample count meaning Var[helper mean] = 0.
INFINITE = math.inf


def _check_count(name: str, n: object, allow_infinite: bool = False) -> None:
    """Raise ValueError unless ``n`` is a positive int (or, if allowed, +inf).

    The int must also convert to a float, since every error divides by it.
    """
    if isinstance(n, int) and not isinstance(n, bool) and n >= 1:
        try:
            float(n)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
        return
    if allow_infinite and isinstance(n, float) and n == INFINITE:
        return
    kind = "a positive integer or math.inf" if allow_infinite else "a positive integer"
    raise ValueError(f"{name} must be {kind}, got {n!r}")


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless the weight ``alpha`` lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")


@dataclass(frozen=True)
class Scenario:
    """Moments and sample counts of the two-agent problem instance."""

    mu_x: float
    var_x: float
    n_x: int
    mu_y: float
    var_y: float
    n_y: int | float

    def __post_init__(self) -> None:
        for name in ("mu_x", "mu_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("var_x", "var_y"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        _check_count("n_x", self.n_x)
        _check_count("n_y", self.n_y, allow_infinite=True)
        try:
            self.bias_sq
        except OverflowError:
            raise ValueError("(mu_y - mu_x)**2 overflows a float") from None

    @property
    def infinite_helper(self) -> bool:
        return self.n_y == INFINITE

    @property
    def var_local_mean(self) -> float:
        """Variance of the local empirical mean, var_x / n_x."""
        return self.var_x / self.n_x

    @property
    def var_helper_mean(self) -> float:
        """Variance of the helper empirical mean; zero for infinite n_y."""
        if self.infinite_helper:
            return 0.0
        return self.var_y / self.n_y

    @property
    def bias_sq(self) -> float:
        """Squared difference of the two true means."""
        return (self.mu_y - self.mu_x) ** 2


@dataclass(frozen=True)
class ErrorProfile:
    """The two closed-form errors of a scenario and the optimum they imply.

    ``e0`` and ``e1`` are the only state; every other quantity is derived
    from them here, so a profile cannot disagree with its own errors.
    """

    e0: float
    e1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e0) and self.e0 >= 0):
            raise ValueError("e0 must be finite and >= 0")
        if not (math.isfinite(self.e1) and self.e1 >= 0):
            raise ValueError("e1 must be finite and >= 0")

    @property
    def degenerate(self) -> bool:
        """e0 = e1 = 0: every weight is optimal."""
        return self.e0 == 0.0 and self.e1 == 0.0

    @property
    def alpha_star(self) -> float:
        """The optimal weight ``e0 / (e0 + e1)``.

        A degenerate profile reports 0, so the local model is preserved and
        downstream formulas stay well-defined.
        """
        if self.degenerate:
            return 0.0
        total = self.e0 + self.e1
        if math.isinf(total):
            # Both errors are finite but their sum overflows; halving both
            # keeps the ratio and brings the sum back into range.
            return (self.e0 / 2.0) / (self.e0 / 2.0 + self.e1 / 2.0)
        return self.e0 / total

    @property
    def ese_opt(self) -> float:
        """Minimum achievable ESE, (1 - alpha_star) * e0."""
        return (1.0 - self.alpha_star) * self.e0

    @property
    def break_even(self) -> float:
        """2 * alpha_star: the largest weight whose ESE does not exceed e0."""
        return 2.0 * self.alpha_star


def error_profile(scenario: Scenario) -> ErrorProfile:
    """The error profile of a scenario; see :class:`ErrorProfile`.

    e0 = var_x / n_x is the ESE of the pure local mean, and
    e1 = bias**2 + var_y / n_y that of the pure helper mean.
    """
    return ErrorProfile(scenario.var_local_mean, scenario.bias_sq + scenario.var_helper_mean)


def ese_of_alpha(profile: ErrorProfile, alpha: float) -> float:
    """ESE at weight ``alpha``: (1 - alpha)**2 * e0 + alpha**2 * e1."""
    _check_alpha(alpha)
    return (1.0 - alpha) ** 2 * profile.e0 + alpha**2 * profile.e1


def ese_of_alpha_reduced(alpha: float, alpha_star: float, e0: float) -> float:
    """ESE at weight ``alpha`` written in terms of the optimum alone.

    Equals ``(1 + alpha * (alpha / alpha_star - 2)) * e0`` and agrees with
    :func:`ese_of_alpha` whenever ``alpha_star`` comes from the same
    profile. Requires ``alpha_star > 0`` (i.e. var_x > 0).
    """
    if not alpha_star > 0.0:
        raise ValueError("reduced form requires alpha_star > 0 (var_x > 0)")
    return (1.0 + alpha * (alpha / alpha_star - 2.0)) * e0


def alpha_star_upper_bounds(scenario: Scenario) -> tuple[float, float]:
    """Two simple strict upper bounds on the optimal weight.

    Returns ``(var_local_mean / bias_sq, var_local_mean / var_helper_mean)``
    with division by zero read as ``math.inf``. The smaller of the pair
    strictly exceeds alpha_star. Requires var_x > 0.
    """
    if scenario.var_x == 0.0:
        raise ValueError("upper bounds require var_x > 0")
    v = scenario.var_local_mean
    bias_sq = scenario.bias_sq
    var_helper = scenario.var_helper_mean
    bound_bias = INFINITE if bias_sq == 0.0 else v / bias_sq
    bound_var = INFINITE if var_helper == 0.0 else v / var_helper
    return bound_bias, bound_var


def max_ese(profile: ErrorProfile) -> float:
    """The worst ESE over all weights in [0, 1].

    By convexity the maximum sits at an endpoint: e0 when the local error
    is positive and alpha_star >= 1/2, else e1.
    """
    if profile.e0 > 0.0 and profile.alpha_star >= 0.5:
        return profile.e0
    return profile.e1


def donahue_mse(n_x: int, n_y: int, sigma2: float, mu_e: float) -> float:
    """Optimal two-agent error in the shared-population model.

    Specialization for agents whose true means are
    independent draws from a common population with variance ``sigma2``
    and whose data share the variance ``mu_e``:

        (2 * n_y**2 * sigma2 + mu_e * n_y)
        / (n_y * (n_y + n_x) + 2 * n_x * n_y**2 * sigma2 / mu_e)

    This equals the optimally weighted ESE of the scenario obtained by
    substituting bias_sq = 2 * sigma2 and var_x = var_y = mu_e.
    """
    _check_count("n_x", n_x)
    _check_count("n_y", n_y)
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError("sigma2 must be finite and >= 0")
    if not (math.isfinite(mu_e) and mu_e > 0):
        raise ValueError("mu_e must be finite and > 0")
    numerator = 2.0 * n_y**2 * sigma2 + mu_e * n_y
    denominator = n_y * (n_y + n_x) + 2.0 * n_x * n_y**2 * sigma2 / mu_e
    return numerator / denominator
