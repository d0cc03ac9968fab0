import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditcurve.ratecurve import RiskfreeCurve


def test_flat_zero_rate_gives_unit_discount():
    curve = RiskfreeCurve.flat(0.0)
    assert curve.discount_factor(10.0) == 1.0


def test_flat_continuous_rate_closed_form():
    curve = RiskfreeCurve.flat(0.02)
    assert curve.discount_factor(5.0) == pytest.approx(math.exp(-0.10), abs=1e-15)


def test_discount_at_zero_is_one():
    curve = RiskfreeCurve(pillars=((1.0, 0.03), (5.0, 0.04)))
    assert curve.discount_factor(0.0) == 1.0


def test_negative_tenor_rejected():
    curve = RiskfreeCurve.flat(0.02)
    with pytest.raises(ValueError):
        curve.discount_factor(-0.1)
    with pytest.raises(ValueError):
        curve.instantaneous_forward(-1.0)


def test_discrete_compounding_quote_honoured():
    curve = RiskfreeCurve.flat(0.04, compounding=2)
    assert curve.discount_factor(7.0) == pytest.approx(1.02 ** -14, rel=1e-14)


def test_forward_flat_curve():
    curve = RiskfreeCurve.flat(0.02)
    for t in (0.0, 0.5, 3.0, 40.0):
        assert curve.instantaneous_forward(t) == pytest.approx(0.02, abs=1e-15)
    zero = RiskfreeCurve.flat(0.0)
    assert zero.instantaneous_forward(2.0) == 0.0


def test_forward_matches_log_discount_finite_difference():
    curve = RiskfreeCurve(pillars=((2.0, 0.02), (10.0, 0.04)))
    for t in (1.0, 5.0, 8.0, 15.0):
        eps = 1e-7
        fd = (curve.log_discount(t + eps) - curve.log_discount(t - eps)) / (2 * eps)
        assert curve.instantaneous_forward(t) == pytest.approx(fd, rel=1e-6)


def test_zero_rate_inverts_defining_identity():
    # B(10) = e^{-0.3}; z at m=2 solves (1+z/2)^{-20} = e^{-0.3}
    curve = RiskfreeCurve.flat(0.03)
    z = curve.zero_rate(10.0, m=2)
    assert z == pytest.approx(2.0 * (math.exp(0.015) - 1.0), rel=1e-12)
    assert (1 + z / 2) ** -20 == pytest.approx(curve.discount_factor(10.0), rel=1e-14)


def test_zero_rate_zero_curve():
    assert RiskfreeCurve.flat(0.0).zero_rate(5.0, m=2) == pytest.approx(0.0, abs=1e-15)


def test_zero_rate_round_trip_many_points():
    curve = RiskfreeCurve(pillars=((0.5, 0.01), (2.0, 0.02), (7.0, 0.035), (30.0, 0.04)))
    for t in (0.25, 0.5, 1.3, 2.0, 6.9, 7.0, 18.0, 30.0, 45.0):
        for m in (0, 1, 2, 4, 12):
            z = curve.zero_rate(t, m)
            if m == 0:
                df = math.exp(-z * t)
            else:
                df = (1 + z / m) ** (-m * t)
            assert df == pytest.approx(curve.discount_factor(t), abs=1e-12)


def test_zero_rate_needs_positive_tenor():
    with pytest.raises(ValueError):
        RiskfreeCurve.flat(0.02).zero_rate(0.0)


def test_forward_integral_reproduces_discount():
    from scipy.integrate import quad

    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 6)
        tenors = np.sort(rng.uniform(0.25, 30.0, n))
        rates = rng.uniform(0.0, 0.08, n)
        curve = RiskfreeCurve(tuple(zip(tenors.tolist(), rates.tolist())))
        T = float(rng.uniform(0.1, 35.0))
        knots = [t for t in tenors if t < T]
        integral, _ = quad(curve.instantaneous_forward, 0.0, T,
                           points=knots, limit=200)
        assert math.exp(-integral) == pytest.approx(curve.discount_factor(T), rel=1e-9)


@given(st.lists(st.floats(min_value=0.0, max_value=0.15), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_discount_non_increasing_when_forwards_nonnegative(rates):
    # positive pillar rates do not by themselves force positive forwards
    # (a sharp enough inversion lowers T*z(T)); the monotonicity guarantee
    # is conditional on the forwards, so assert exactly that
    pillars = tuple((float(i + 1), r) for i, r in enumerate(rates))
    curve = RiskfreeCurve(pillars)
    ts = np.linspace(0.0, len(rates) + 3.0, 80)
    dfs = [curve.discount_factor(float(t)) for t in ts]
    assert all(d > 0 for d in dfs)
    forwards_nonneg = all(
        curve.instantaneous_forward(float(t)) >= 0.0 for t in np.linspace(0, len(rates) + 3, 200))
    if forwards_nonneg:
        assert all(d1 >= d2 - 1e-15 for d1, d2 in zip(dfs, dfs[1:]))


def test_realistic_upward_curve_monotone_discounts():
    curve = RiskfreeCurve(pillars=((0.5, 0.005), (2.0, 0.012), (10.0, 0.025), (30.0, 0.03)))
    ts = np.linspace(0.0, 40.0, 400)
    dfs = np.array([curve.discount_factor(float(t)) for t in ts])
    assert np.all(np.diff(dfs) < 0)


def test_validation_errors():
    with pytest.raises(ValueError):
        RiskfreeCurve(pillars=())
    with pytest.raises(ValueError):
        RiskfreeCurve(pillars=((1.0, 0.02), (1.0, 0.03)))
    with pytest.raises(ValueError):
        RiskfreeCurve(pillars=((0.0, 0.02),))
    with pytest.raises(ValueError):
        RiskfreeCurve(pillars=((1.0, 0.02),), compounding=-1)
    # True would otherwise convert the pillar rates as annually compounded
    for flag in (True, False):
        with pytest.raises(ValueError, match="compounding must be a non-negative integer"):
            RiskfreeCurve(pillars=((1.0, 0.02),), compounding=flag)
    # zero_rate's m follows the constructor's rule: m = -2 read a flat 3% at 5y as 2.978%
    for m in (-2, 2.5, True, False):
        with pytest.raises(ValueError, match="compounding must be a non-negative integer"):
            RiskfreeCurve.flat(0.03).zero_rate(5.0, m)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            RiskfreeCurve.flat(x)
        with pytest.raises(ValueError, match="finite"):
            RiskfreeCurve(pillars=((1.0, 0.02), (x, 0.03)))
