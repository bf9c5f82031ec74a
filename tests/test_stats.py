"""Statistical procedures against independent oracles (scipy, lstsq)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from chainflux import mc_p_value, ols_fit, percentile_of
from chainflux.errors import (
    DegenerateXError,
    InsufficientDataError,
    LengthMismatchError,
)

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestMcPValue:
    def test_every_sample_at_or_above_gives_one(self):
        assert mc_p_value([2.0, 3.0, 2.0], 2.0, "greater") == 1.0

    def test_no_sample_at_or_above_gives_the_floor(self):
        assert mc_p_value([1.0, 2.0, 3.0, 4.0], 9.0, "greater") == 1 / 5

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=30),
        st.integers(-6, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_two_sided_doubles_the_smaller_tail(self, samples, value):
        x = np.asarray(samples, dtype=float)
        upper = (1 + int(np.count_nonzero(x >= value))) / (x.size + 1)
        lower = (1 + int(np.count_nonzero(x <= value))) / (x.size + 1)
        assert mc_p_value(x, value, "two_sided") == min(1.0, 2 * min(upper, lower))
        assert mc_p_value(x, value, "greater") == upper

    @pytest.mark.parametrize("direction", ["less", "two-sided", ""])
    def test_unknown_direction(self, direction):
        with pytest.raises(ValueError):
            mc_p_value([1.0, 2.0], 0.0, direction)


class TestPercentileOf:
    def test_below_min(self):
        assert percentile_of([1, 2, 3], 0.0) == 0.0

    def test_above_max(self):
        assert percentile_of([1, 2, 3], 9.0) == 1.0

    def test_midpoint(self):
        assert percentile_of([1, 2, 3, 4], 2.5) == 0.5

    def test_ties_count_half(self):
        assert percentile_of([1, 2, 2, 3], 2.0) == 0.5

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            percentile_of([], 1.0)

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        finite_floats,
        finite_floats,
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone(self, samples, a, b):
        lo, hi = min(a, b), max(a, b)
        assert percentile_of(samples, lo) <= percentile_of(samples, hi)


class TestOlsFit:
    def test_perfect_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        fit = ols_fit(x, [2 * v + 1 for v in x])
        assert fit.slope == 2.0
        assert fit.intercept == 1.0
        assert fit.r_squared == 1.0
        assert fit.slope_stderr == 0.0
        assert fit.intercept_stderr == 0.0

    def test_constant_y(self):
        fit = ols_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0

    def test_three_point_example_oracle_values(self):
        # independent oracle: lstsq on the design matrix gives
        # slope 1.5, intercept 0.0, R^2 0.75 for this input
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([2.0, 2.0, 5.0])
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        fit = ols_fit(x, y)
        assert abs(fit.slope - coef[0]) < 1e-12
        assert abs(fit.intercept - coef[1]) < 1e-12
        assert fit.slope == 1.5
        assert abs(fit.intercept - 0.0) < 1e-12
        assert abs(fit.r_squared - 0.75) < 1e-12

    def test_stderr_matches_scipy(self):
        rng = np.random.default_rng(11)
        x = rng.random(25)
        y = 0.7 * x + rng.normal(0, 0.1, 25)
        fit = ols_fit(x, y)
        ref = sps.linregress(x, y)
        assert abs(fit.slope - float(ref.slope)) < 1e-12
        assert abs(fit.intercept - float(ref.intercept)) < 1e-12
        assert abs(fit.slope_stderr - float(ref.stderr)) < 1e-12
        assert abs(fit.intercept_stderr - float(ref.intercept_stderr)) < 1e-12
        assert abs(fit.r_squared - float(ref.rvalue) ** 2) < 1e-12

    def test_degenerate_x(self):
        with pytest.raises(DegenerateXError):
            ols_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            ols_fit([1.0, 2.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ols_fit([1.0, 2.0, 3.0], [1.0, 2.0])

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(min_value=0.1, max_value=50, allow_nan=False),
        st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_equivariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.random(10) * 5
        y = rng.random(10)
        base = ols_fit(x, y)
        scaled = ols_fit(a * x + b, y)
        assert math.isclose(scaled.slope, base.slope / a, rel_tol=1e-6, abs_tol=1e-9)
        assert math.isclose(
            scaled.intercept, base.intercept - base.slope * b / a,
            rel_tol=1e-6, abs_tol=1e-6,
        )
        assert math.isclose(
            scaled.r_squared, base.r_squared, rel_tol=1e-8, abs_tol=1e-8
        )
