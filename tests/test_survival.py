import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from creditcurve.survival import (
    RatingGrid,
    RecoverySchedule,
    SurvivalParams,
    anchor_log_weights,
    anchor_segment,
    log_interp,
    validate_rating,
)

hazard_params = st.tuples(
    st.floats(min_value=1e-4, max_value=0.3),
    st.floats(min_value=1e-4, max_value=0.3),
    st.floats(min_value=0.05, max_value=0.2),
)


def test_equal_hazards_collapse_to_exponential():
    p = SurvivalParams(a=0.05, b=0.05, c=0.17)
    assert p.survival_probability(2.0) == pytest.approx(math.exp(-0.1), rel=1e-14)


def test_survival_at_zero_is_one():
    assert SurvivalParams(0.02, 0.07, 0.1).survival_probability(0.0) == 1.0


def test_survival_matches_hazard_quadrature():
    p = SurvivalParams(a=0.01, b=0.03, c=0.1)
    integral, err = quad(p.forward_hazard, 0.0, 5.0, epsabs=1e-13, epsrel=1e-13)
    assert p.survival_probability(5.0) == pytest.approx(math.exp(-integral), rel=1e-10)


@given(st.floats(min_value=1e-3, max_value=0.5), st.floats(min_value=1e-3, max_value=0.5),
       st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.0, max_value=40.0))
@settings(max_examples=200, deadline=None)
def test_jet_matches_finite_differences(a, b, c, t):
    p = SurvivalParams(a, b, c)
    ts = np.array([0.0, t, 2.0 * t + 0.5])
    jet = p.jet(ts)
    assert jet.shape == (4, 3)
    assert np.array_equal(jet[0], p.survival_probability(ts))
    # a scalar tenor gives that tenor's column
    assert np.array_equal(p.jet(t), jet[:, 1])
    h = 1e-6
    for row, name in enumerate("abc", start=1):
        up = dataclasses.replace(p, **{name: getattr(p, name) + h})
        down = dataclasses.replace(p, **{name: getattr(p, name) - h})
        fd = (up.survival_probability(ts) - down.survival_probability(ts)) / (2.0 * h)
        np.testing.assert_allclose(jet[row], fd, rtol=1e-6, atol=1e-9, err_msg=name)


def test_jet_rows_vanish_where_they_should():
    p = SurvivalParams(0.03, 0.03, 0.1)
    jet = p.jet(np.array([0.0, 4.0]))
    # Q(0) = 1 whatever the parameters; with a = b the shape c does not matter
    assert np.array_equal(jet[:, 0], [1.0, 0.0, 0.0, 0.0])
    assert jet[3, 1] == 0.0


def test_anchor_log_weights_reproduce_the_interpolation():
    grid = RatingGrid(anchors_a=(0.002, 0.006, 0.03), anchors_b=(0.01, 0.02, 0.07), c=0.1)
    for r in range(1, 19):
        w = anchor_log_weights(r)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        got = grid.params_for_rating(r)
        assert math.log(got.a) == pytest.approx(w @ np.log(grid.anchors_a), rel=1e-13)
        assert math.log(got.b) == pytest.approx(w @ np.log(grid.anchors_b), rel=1e-13)
    # outside AA..B the weights extrapolate
    assert anchor_log_weights(1)[0] > 1.0 and anchor_log_weights(18)[1] < 0.0


@settings(max_examples=25, deadline=None)
@given(logs=st.lists(st.floats(-20.0, 0.0), min_size=6, max_size=6))
def test_log_interp_of_an_array_is_each_ratings_own(logs):
    logs = np.reshape(logs, (2, 3))
    ratings = np.arange(1, 19)
    together = log_interp(anchor_segment(ratings), logs)
    assert together.shape == (2, 18)
    for i, r in enumerate(ratings):
        alone = anchor_segment(int(r))
        assert np.array_equal(together[:, i], log_interp(alone, logs))
        assert np.array_equal(together[:, i], [log_interp(alone, row) for row in logs])


def test_negative_tenor_rejected():
    with pytest.raises(ValueError):
        SurvivalParams(0.01, 0.02, 0.1).survival_probability(-1.0)


def test_forward_hazard_limits_and_value():
    p = SurvivalParams(a=0.01, b=0.03, c=0.1)
    assert p.forward_hazard(0.0) == pytest.approx(0.01, abs=1e-16)
    assert p.forward_hazard(10.0) == pytest.approx(0.02, rel=1e-14)
    # finite-difference cross-check of -d ln Q / dT
    eps = 1e-6
    fd = -(math.log(p.survival_probability(10.0 + eps))
           - math.log(p.survival_probability(10.0 - eps))) / (2 * eps)
    assert p.forward_hazard(10.0) == pytest.approx(fd, rel=1e-7)
    flat = SurvivalParams(0.04, 0.04, 0.1)
    for t in (0.0, 1.0, 25.0):
        assert flat.forward_hazard(t) == pytest.approx(0.04, abs=1e-16)


@given(hazard_params, st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=150, deadline=None)
def test_forward_hazard_bounded_by_endpoints(params, t):
    a, b, c = params
    h = SurvivalParams(a, b, c).forward_hazard(t)
    assert min(a, b) - 1e-12 <= h <= max(a, b) + 1e-12


@given(hazard_params)
@settings(max_examples=80, deadline=None)
def test_survival_strictly_decreasing(params):
    p = SurvivalParams(*params)
    ts = np.linspace(0.0, 40.0, 60)
    qs = p.survival_probability(ts)
    assert np.all(np.diff(qs) < 0)
    assert np.all(qs > 0) and np.all(qs <= 1.0)


def test_log_survival_consistent_with_hazard_integral():
    p = SurvivalParams(a=0.02, b=0.12, c=0.08)
    for t0, t1 in ((0.0, 3.0), (2.0, 9.5), (10.0, 30.0)):
        integral, _ = quad(p.forward_hazard, t0, t1, epsabs=1e-12, epsrel=1e-12)
        lhs = math.log(p.survival_probability(t0)) - math.log(p.survival_probability(t1))
        assert lhs == pytest.approx(integral, rel=1e-9)


def test_params_validation():
    with pytest.raises(ValueError):
        SurvivalParams(-0.01, 0.02, 0.1)
    with pytest.raises(ValueError):
        SurvivalParams(0.01, 0.02, 0.0)
    # zero hazard is the riskless limit and must be constructible
    assert SurvivalParams(0.0, 0.0, 0.1).survival_probability(10.0) == 1.0


GRID = RatingGrid(anchors_a=(0.001, 0.008, 0.032), anchors_b=(0.01, 0.04, 0.12), c=0.1)


def test_anchor_rating_returns_anchor_exactly():
    p = GRID.params_for_rating(9)
    assert p.a == pytest.approx(0.008, rel=1e-15)
    assert p.b == pytest.approx(0.04, rel=1e-15)
    assert p.c == 0.1


def test_log_interpolation_geometric_midpoint():
    p = GRID.params_for_rating(6)
    assert p.a == pytest.approx(math.sqrt(0.001 * 0.008), rel=1e-12)


def test_log_extrapolation_beyond_last_anchor():
    p = GRID.params_for_rating(18)
    assert p.a == pytest.approx(0.032 * (0.032 / 0.008) ** ((18 - 15) / 6), rel=1e-12)
    assert p.a == pytest.approx(0.064, rel=1e-12)


def test_log_linear_in_rating_between_anchors():
    logs = [math.log(GRID.params_for_rating(r).a) for r in range(3, 10)]
    diffs = np.diff(logs)
    assert np.allclose(diffs, diffs[0], rtol=1e-12)


def test_no_crossing_across_ratings_and_tenors():
    ts = np.linspace(0.0, 30.0, 50)
    for r1 in range(1, 18):
        h1 = GRID.params_for_rating(r1).forward_hazard(ts)
        h2 = GRID.params_for_rating(r1 + 1).forward_hazard(ts)
        assert np.all(h1 <= h2 + 1e-15)
        q1 = GRID.params_for_rating(r1).survival_probability(ts)
        q2 = GRID.params_for_rating(r1 + 1).survival_probability(ts)
        assert np.all(q1 >= q2 - 1e-15)


def test_grid_rejects_crossing_anchors():
    with pytest.raises(ValueError):
        RatingGrid(anchors_a=(0.01, 0.005, 0.02), anchors_b=(0.01, 0.04, 0.12), c=0.1)
    with pytest.raises(ValueError):
        RatingGrid(anchors_a=(0.001, 0.008, 0.032), anchors_b=(0.2, 0.04, 0.5), c=0.1)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(x):
    for args in ((x, 0.02, 0.1), (0.01, x, 0.1), (0.01, 0.02, x)):
        with pytest.raises(ValueError, match="finite"):
            SurvivalParams(*args)
    a, b = (0.001, 0.008, 0.032), (0.01, 0.04, 0.12)
    for kwargs in (dict(anchors_a=(0.001, 0.008, x), anchors_b=b, c=0.1),
                   dict(anchors_a=a, anchors_b=(x, 0.04, 0.12), c=0.1),
                   dict(anchors_a=a, anchors_b=b, c=x)):
        with pytest.raises(ValueError, match="finite"):
            RatingGrid(**kwargs)


def test_recovery_schedule_paper_scale_points():
    sched = RecoverySchedule()
    assert sched.recovery_for_rating(10) == pytest.approx(0.40)   # BBB-
    assert sched.recovery_for_rating(3) == pytest.approx(0.61)    # AA
    assert sched.recovery_for_rating(15) == pytest.approx(0.25)   # B
    assert sched.recovery_for_rating(12) == pytest.approx(0.34)   # BB


def test_recovery_schedule_is_linear_and_monotone():
    sched = RecoverySchedule()
    recs = [sched.recovery_for_rating(r) for r in range(1, 19)]
    assert recs == [0.70 - 0.03 * r for r in range(1, 19)]
    # the lowest, at CCC, is 0.16 up to rounding: no floor is needed on this scale
    assert min(recs) == recs[-1] == pytest.approx(0.16)
    assert all(x1 >= x2 for x1, x2 in zip(recs, recs[1:]))


def test_rating_validation():
    for bad in (0, 19, 2.5, "BBB", True):
        with pytest.raises(ValueError):
            validate_rating(bad)
    assert validate_rating(9) == 9
