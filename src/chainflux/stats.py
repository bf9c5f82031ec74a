"""One-sample, paired and Welch t-tests, the percentile of a value in a
sample, and simple OLS with standard errors.

p-values come from a local Student-t CDF built on the regularized incomplete
beta function (modified Lentz continued fraction, Numerical Recipes 6.4),
converged to machine precision -- no lookup tables, no interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateXError,
    InsufficientDataError,
    LengthMismatchError,
    ZeroVarianceError,
)

__all__ = [
    "TestResult",
    "OlsFit",
    "student_t_cdf",
    "one_sample_t",
    "paired_t",
    "welch_t",
    "percentile_of",
    "ols_fit",
]

_DIRECTIONS = ("two_sided", "greater", "less")


@dataclass(frozen=True)
class TestResult:
    """A t-statistic with its p-value, degrees of freedom, sample count,
    and the alternative direction the p-value was computed for."""

    statistic: float
    p_value: float
    dof: float
    n: int
    direction: str


@dataclass(frozen=True)
class OlsFit:
    """Simple linear regression y = slope*x + intercept with classical
    standard errors from the residual variance and R^2 = 1 - SSR/SST."""

    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float
    r_squared: float
    n: int


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def student_t_cdf(t: float, dof: float) -> float:
    """P(T <= t) for Student's t with `dof` degrees of freedom (dof > 0)."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    x = dof / (dof + t * t)
    tail = 0.5 * _betainc(dof / 2.0, 0.5, x)
    return tail if t < 0 else 1.0 - tail


def _p_value(t: float, dof: float, direction: str) -> float:
    if direction == "two_sided":
        return 2.0 * student_t_cdf(-abs(t), dof)
    if direction == "greater":
        return 1.0 - student_t_cdf(t, dof)
    if direction == "less":
        return student_t_cdf(t, dof)
    raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


def one_sample_t(
    samples, reference: float, direction: str = "two_sided"
) -> TestResult:
    """Classical one-sample t-test of mean(samples) against `reference`.

    If every sample equals the reference the statistic is 0 (p = 1 two-sided);
    if the samples are identical but differ from the reference the t-statistic
    is undefined and ZeroVarianceError is raised rather than silently
    reporting p = 0.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    x = np.asarray(samples, dtype=float)
    n = int(x.size)
    if n < 2:
        raise InsufficientDataError(f"one_sample_t needs n >= 2, got {n}")
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    dof = n - 1
    if sd == 0.0:
        if mean == reference:
            return TestResult(0.0, _p_value(0.0, dof, direction), dof, n, direction)
        raise ZeroVarianceError(
            f"all {n} samples equal {mean!r} but reference is {reference!r}"
        )
    t = (mean - reference) / (sd / math.sqrt(n))
    return TestResult(float(t), _p_value(t, dof, direction), dof, n, direction)


def paired_t(x, y, direction: str = "two_sided") -> TestResult:
    """Paired t-test: one-sample t on the element-wise differences x - y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatchError(f"paired lengths differ: {x.size} vs {y.size}")
    return one_sample_t(x - y, 0.0, direction)


def welch_t(x, y, direction: str = "two_sided") -> TestResult:
    """Two-sample Welch t-test (unequal variances), Welch-Satterthwaite dof.
    Sensitivity companion to paired_t."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = int(x.size), int(y.size)
    if m < 2 or n < 2:
        raise InsufficientDataError(f"welch_t needs n >= 2 per sample, got {m} and {n}")
    vx = float(x.var(ddof=1))
    vy = float(y.var(ddof=1))
    se2 = vx / m + vy / n
    if se2 == 0.0:
        if float(x.mean()) == float(y.mean()):
            return TestResult(0.0, _p_value(0.0, m + n - 2, direction),
                              float(m + n - 2), m + n, direction)
        raise ZeroVarianceError("both samples are constant but their means differ")
    dof = se2 * se2 / ((vx / m) ** 2 / (m - 1) + (vy / n) ** 2 / (n - 1))
    t = (float(x.mean()) - float(y.mean())) / math.sqrt(se2)
    return TestResult(float(t), _p_value(t, dof, direction), float(dof), m + n,
                      direction)


def percentile_of(samples, value: float) -> float:
    """Fraction of samples strictly below `value` plus half the ties, in [0, 1].
    Monotone nondecreasing in `value`."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise InsufficientDataError("percentile_of needs a nonempty sample")
    below = int(np.count_nonzero(x < value))
    ties = int(np.count_nonzero(x == value))
    return (below + 0.5 * ties) / x.size


def ols_fit(x, y) -> OlsFit:
    """Least-squares line of y on x with standard errors and R^2.

    R^2 is defined as 0 when y is constant (SST = 0). Needs n >= 3 so the
    residual variance has at least one degree of freedom.

    Raises:
        DegenerateXError: x has zero variance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatchError(f"x and y lengths differ: {x.size} vs {y.size}")
    n = int(x.size)
    if n < 3:
        raise InsufficientDataError(f"ols_fit needs n >= 3, got {n}")
    xm = float(x.mean())
    ym = float(y.mean())
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateXError("x has zero variance; slope undefined")
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ssr = float((resid * resid).sum())
    sst = float(((y - ym) ** 2).sum())
    r_squared = 0.0 if sst == 0.0 else min(max(1.0 - ssr / sst, 0.0), 1.0)
    s2 = ssr / (n - 2)
    slope_stderr = math.sqrt(s2 / sxx)
    intercept_stderr = math.sqrt(s2 * (1.0 / n + xm * xm / sxx))
    return OlsFit(
        slope=slope,
        intercept=intercept,
        slope_stderr=slope_stderr,
        intercept_stderr=intercept_stderr,
        r_squared=r_squared,
        n=n,
    )
