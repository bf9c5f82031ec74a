"""The add-one Monte-Carlo p-value of a value against a null's samples, the
percentile of a value in a sample, and simple OLS with standard errors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateXError, InsufficientDataError, LengthMismatchError

__all__ = [
    "OlsFit",
    "mc_p_value",
    "percentile_of",
    "ols_fit",
]


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


def mc_p_value(samples, value: float, direction: str) -> float:
    """Add-one Monte-Carlo p-value of `value` against a null's `samples`.

    "greater": (1 + #{samples >= value}) / (reps + 1), for a value above the
    null. "two_sided": twice the smaller of that tail and the lower one,
    (1 + #{samples <= value}) / (reps + 1), capped at 1.

    Raises:
        ValueError: direction is neither "greater" nor "two_sided".
    """
    if direction not in ("greater", "two_sided"):
        raise ValueError(
            f"direction must be 'greater' or 'two_sided', got {direction!r}"
        )
    x = np.asarray(samples, dtype=float)
    upper = (1 + int(np.count_nonzero(x >= value))) / (x.size + 1)
    if direction == "greater":
        return upper
    lower = (1 + int(np.count_nonzero(x <= value))) / (x.size + 1)
    return min(1.0, 2 * upper, 2 * lower)


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
