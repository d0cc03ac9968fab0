import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import creditcurve as cc
from creditcurve import valuation
from creditcurve.cli import Settings
from creditcurve.ratecurve import RiskfreeCurve
from creditcurve.survival import SurvivalParams
from creditcurve.valuation import (
    DEFAULT_GRID_STEP,
    MAX_TENOR,
    AssetSwapInputs,
    BondSpec,
    CdsSpec,
    KernelGrid,
    KernelReadout,
    RiskyKernels,
    _brentq,
    _dp,
    _quotes,
    asset_swap_spread,
    bond_model_price,
    cds_traded_spread_to_upfront,
    cds_upfront,
    exact_fit_to_instrument,
    kernels,
    kernels_at,
    par_adjusted_spread,
    par_adjusted_spread_bond,
    par_adjusted_spread_cds,
    par_cds_spread,
    price_from_yield,
    riskfree_schedule_price,
    yield_from_price,
    z_spread,
)
from kernel_reference import (
    assert_kernels_close,
    linear_map_kernels,
    long_double_kernels,
    parent_jet_kernels,
)

FLAT2 = RiskfreeCurve.flat(0.02)
FLAT0 = RiskfreeCurve.flat(0.0)


def closed_form_kernels(r, lam, T):
    pi = (1 - math.exp(-(r + lam) * T)) / (r + lam) if r + lam else T
    return pi, lam * pi


# -- kernels -----------------------------------------------------------


def test_kernels_zero_rate_zero_hazard():
    k = kernels(FLAT0, SurvivalParams(0.0, 0.0, 0.1), 10.0)
    assert k.pi == pytest.approx(10.0, rel=1e-12)
    assert k.xi == 0.0
    assert k.rhat == 0.0
    assert k.bq_T == 1.0


def test_kernels_flat_closed_form():
    k = kernels(FLAT2, SurvivalParams.flat(0.03), 5.0)
    pi_cf, xi_cf = closed_form_kernels(0.02, 0.03, 5.0)
    assert k.pi == pytest.approx(pi_cf, rel=1e-5)
    assert k.pi == pytest.approx(4.423984, abs=1e-4)
    assert k.xi == pytest.approx(xi_cf, rel=1e-5)
    assert k.xi == pytest.approx(0.132720, abs=1e-5)
    assert k.rhat == pytest.approx(0.02, abs=1e-6)
    assert abs(k.parity_gap) < 1e-14


def test_rhat_equals_flat_forward_for_any_survival():
    for params in (SurvivalParams(0.01, 0.2, 0.05), SurvivalParams(0.3, 0.02, 0.2),
                   SurvivalParams.flat(1e-4)):
        for r in (0.001, 0.03, 0.1):
            k = kernels(RiskfreeCurve.flat(r), params, 12.0)
            assert k.rhat == pytest.approx(r, abs=1e-5)


def test_kernels_parity_random_cases():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ts = np.sort(rng.uniform(0.5, 30.0, n))
        zs = rng.uniform(0.0, 0.08, n)
        curve = RiskfreeCurve(tuple(zip(ts.tolist(), zs.tolist())))
        params = SurvivalParams(rng.uniform(0, 0.2), rng.uniform(0, 0.2),
                                rng.uniform(0.05, 0.2))
        k = kernels(curve, params, float(rng.uniform(0.1, 30.0)),
                    float(rng.choice([1 / 12, 1 / 4, 1 / 52])))
        assert abs(k.parity_gap) <= 1e-12


def test_kernels_rejects_bad_args():
    # a non-finite, non-positive or too long tenor, or a bad grid step, named
    params = SurvivalParams.flat(0.01)
    for bad in (math.inf, -math.inf, math.nan, 0.0, -1.0):
        for call in (lambda: kernels(FLAT2, params, bad),
                     lambda: kernels_at(FLAT2, params, [5.0, bad])):
            with pytest.raises(ValueError, match=r"tenors must be finite and > 0"):
                call()
        for call in (lambda: kernels(FLAT2, params, 5.0, grid_step=bad),
                     lambda: kernels_at(FLAT2, params, [5.0, 2.0], grid_step=bad)):
            with pytest.raises(ValueError, match=r"grid_step must be finite and > 0"):
                call()
    # the grid has about tenor / h nodes: a tenor past the ceiling is named
    assert kernels(FLAT2, params, MAX_TENOR).tenor == MAX_TENOR
    for bad in (MAX_TENOR * (1.0 + 1e-12), 1e9, 1e300):
        for call in (lambda: kernels(FLAT2, params, bad),
                     lambda: kernels_at(FLAT2, params, [5.0, bad])):
            with pytest.raises(ValueError, match=r"tenors must be at most 100 years") as exc:
                call()
            assert repr(bad) in str(exc.value)


def test_kernel_grid_matches_one_shot():
    params = SurvivalParams(0.01, 0.06, 0.12)
    kg = KernelGrid(FLAT2, params, 20.0)
    for T in (0.3, 1.0, 7.25, 19.99, 20.0):
        one = kernels(FLAT2, params, T)
        many = kg.at(T)
        assert many.pi == pytest.approx(one.pi, rel=1e-12)
        assert many.xi == pytest.approx(one.xi, rel=1e-9, abs=1e-15)
        assert many.rhat == pytest.approx(one.rhat, rel=1e-9)
    for T in (0.0, 20.01, math.nan):
        with pytest.raises(ValueError):
            kg.at(T)


def test_kernels_at_is_one_shot_kernels_bit_for_bit():
    # one grid to the longest tenor reads every tenor as the linear map of its
    # read-out does, bit for bit: on a node (7.25), on a short last step
    # (12.3), inside the first step (0.05), repeated, and unsorted.  A row's
    # sum order follows its length, so a tenor's kernels depend on the
    # read-out they share at rounding level only: each one-shot grid reads
    # its own tenor bit for bit, and the shared read-out stays within the
    # accuracy oracle's bounds of it, with the same B(T)Q(T)
    curve = RiskfreeCurve(pillars=((0.5, 0.012), (2.0, 0.018), (7.0, 0.026), (20.0, 0.031)))
    params = SurvivalParams(0.01, 0.06, 0.12)
    tenors = [12.3, 0.05, 7.25, 30.0, 7.25, 2.0]
    shared = kernels_at(curve, params, tenors)
    one_shot = [kernels(curve, params, T) for T in tenors]

    def columns(ks):
        return [np.array([getattr(k, name) for k in ks]) for name in ("pi", "xi", "rhat", "bq_T")]

    for got, want in zip(columns(shared), linear_map_kernels(curve, params, tenors, H)):
        assert np.array_equal(got, want)
    for k, T in zip(one_shot, tenors):
        for got, want in zip(columns([k]), linear_map_kernels(curve, params, [T], H)):
            assert np.array_equal(got, want)
    assert_kernels_close(columns(shared)[:3], columns(one_shot)[:3])
    assert np.array_equal(columns(shared)[3], columns(one_shot)[3])
    assert [k.tenor for k in shared] == tenors
    assert kernels_at(curve, params, []) == []


def test_at_many_matches_at():
    params = SurvivalParams(0.02, 0.08, 0.1)
    tenors = np.array([0.5, 2.0, 7.3, 12.0, 15.0])
    kg = KernelReadout.of(FLAT2, tenors).kernel_grid(params)
    pi, xi, rhat, bq = kg.at_many()
    for i, T in enumerate(tenors):
        k = kg.at(float(T))
        assert pi[i] == pytest.approx(k.pi, rel=1e-12)
        assert xi[i] == pytest.approx(k.xi, rel=1e-12)
        assert rhat[i] == pytest.approx(k.rhat, rel=1e-12)
        assert bq[i] == pytest.approx(k.bq_T, rel=1e-12)


H = DEFAULT_GRID_STEP


@st.composite
def tenor_sets(draw, t_max=20.0):
    """Tenors on grid nodes, on short last steps and at the grid end, with duplicates."""
    node = st.integers(1, int(round(t_max / H))).map(lambda k: k * H)
    off = st.floats(0.01, t_max)
    tenors = draw(st.lists(st.one_of(node, off, st.just(t_max)), min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(tenors), max_size=3))
    return np.array(draw(st.permutations(tenors + repeats)))


@given(tenors=tenor_sets(), a=st.floats(1e-4, 0.2), b=st.floats(1e-4, 0.2),
       c=st.floats(0.02, 0.5))
@settings(max_examples=40, deadline=None)
def test_folded_readout_is_the_parent_jet_kernels(tenors, a, b, c):
    # the read-out's W is the product form M @ S bit for bit, on a jet grid
    # and a plain one, and within the accuracy oracle's bounds of the parent
    # form's three running sums, which stop at 20y, not at the longest tenor
    params = SurvivalParams(a, b, c)
    ro = KernelReadout.of(GOLDEN_CURVE, tenors)
    jet = ro.kernel_grid(params, jet=True).at_many()
    plain = ro.kernel_grid(params).at_many()
    for got, want in ((jet, linear_map_kernels(GOLDEN_CURVE, params, tenors, H, jet=True)),
                      (plain, linear_map_kernels(GOLDEN_CURVE, params, tenors, H))):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert_kernels_close(jet[:3], parent_jet_kernels(GOLDEN_CURVE, params, 20.0, tenors, H))


def test_jet_grid_value_rows_are_the_plain_kernels():
    params = SurvivalParams(0.02, 0.08, 0.1)
    ro = KernelReadout.of(FLAT2, np.array([0.5, 2.0, 7.3, 12.0, 15.0]))
    plain = ro.kernel_grid(params).at_many()
    jet = ro.kernel_grid(params, jet=True).at_many()
    for p, j in zip(plain, jet):
        assert j.shape == (4, 5)
        assert np.array_equal(j[0], p)


def test_jet_grid_rows_are_kernel_derivatives():
    # each kernel's rows 1-3 against central differences in (a, b, c)
    params = SurvivalParams(0.015, 0.07, 0.12)
    ro = KernelReadout.of(RiskfreeCurve(pillars=((1.0, 0.01), (10.0, 0.03))),
                          np.array([0.7, 3.0, 9.5, 20.0]))
    jet = ro.kernel_grid(params, jet=True).at_many()
    h = 1e-6
    for row, name in enumerate("abc", start=1):
        up = dataclasses.replace(params, **{name: getattr(params, name) + h})
        down = dataclasses.replace(params, **{name: getattr(params, name) - h})
        for j, k_up, k_down in zip(jet, ro.kernel_grid(up).at_many(),
                                   ro.kernel_grid(down).at_many()):
            fd = (k_up - k_down) / (2.0 * h)
            # the differences lose about eps / h of the kernel's own size
            np.testing.assert_allclose(j[row], fd, rtol=1e-6, atol=1e-8 * np.abs(j[0]).max())


def test_kernels_match_quadrature_on_sloped_curves():
    # independent oracle: adaptive quadrature of the defining integrals
    # on a multi-pillar curve and a sloped hazard curve
    from scipy.integrate import quad

    curve = RiskfreeCurve(pillars=((1.0, 0.01), (4.0, 0.02), (12.0, 0.03)))
    params = SurvivalParams(0.015, 0.09, 0.12)
    T = 9.6
    knots = [1.0, 4.0]

    def bq(t):
        return curve.discount_factor(t) * params.survival_probability(t)

    pi_ref, _ = quad(bq, 0.0, T, points=knots, limit=200)
    xi_ref, _ = quad(lambda t: bq(t) * params.forward_hazard(t), 0.0, T,
                     points=knots, limit=200)
    rp_ref, _ = quad(lambda t: bq(t) * curve.instantaneous_forward(t), 0.0, T,
                     points=knots, limit=200)
    k = kernels(curve, params, T)
    assert k.pi == pytest.approx(pi_ref, rel=2e-5)
    assert k.xi == pytest.approx(xi_ref, rel=2e-5)
    assert k.rhat == pytest.approx(rp_ref / pi_ref, rel=2e-4)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than float64 here")
def test_kernels_are_as_accurate_as_the_parent_form():
    # against trapezium sums in long double, over hazards from 1e-6 to 0.5 at
    # either end of the curve, three shapes and tenors from 0.05y to 30y on
    # and off the grid: each kernel's worst error (Pi and Xi absolute, as Q's
    # rounding near 1 alone costs a tiny Xi 9 digits, rhat relative) is at most
    # twice the parent form's on the same grid
    tenors = np.array([0.05, 0.3, 1.0, 5.0, 7.25, 12.3, 30.0])
    hazards = (1e-6, 1e-4, 1e-2, 0.1, 0.5)
    worst = np.zeros((2, 3))
    for a in hazards:
        for b in hazards:
            for c in (0.02, 0.2, 0.5):
                params = SurvivalParams(a, b, c)
                truth = long_double_kernels(GOLDEN_CURVE, params, tenors, H)
                got = KernelReadout.of(GOLDEN_CURVE, tenors).kernel_grid(params).at_many()
                parent = [x[0] for x in parent_jet_kernels(GOLDEN_CURVE, params, 30.0,
                                                           tenors, H)]
                for row, form in enumerate((got, parent)):
                    errors = (form[0] - truth[0], form[1] - truth[1],
                              (form[2] - truth[2]) / truth[2])
                    worst[row] = np.maximum(worst[row], [np.abs(e).max() for e in errors])
    assert (worst[0] <= 2.0 * worst[1]).all(), worst


def test_grid_refinement_is_second_order():
    r, lam, T = 0.05, 0.15, 30.0
    pi_cf, xi_cf = closed_form_kernels(r, lam, T)
    curve = RiskfreeCurve.flat(r)
    params = SurvivalParams.flat(lam)
    e1 = kernels(curve, params, T, 1 / 12).pi / pi_cf - 1
    e2 = kernels(curve, params, T, 1 / 24).pi / pi_cf - 1
    e4 = kernels(curve, params, T, 1 / 48).pi / pi_cf - 1
    assert e1 / e2 == pytest.approx(4.0, abs=0.4)   # halving: O(h^2)
    assert e1 / e4 == pytest.approx(16.0, abs=1.5)  # quartering
    x1 = kernels(curve, params, T, 1 / 12).xi / xi_cf - 1
    x2 = kernels(curve, params, T, 1 / 24).xi / xi_cf - 1
    assert x1 / x2 == pytest.approx(4.0, abs=0.4)


# -- bond pricing ------------------------------------------------------


def test_model_price_riskless():
    k = kernels(FLAT0, SurvivalParams(0.0, 0.0, 0.1), 10.0)
    spec = BondSpec(coupon=0.05, tenor=10.0, price=100.0, recovery=0.0)
    assert bond_model_price(spec, k) == pytest.approx(150.0, rel=1e-12)


def test_model_price_flat_case():
    k = kernels(FLAT2, SurvivalParams.flat(0.03), 5.0)
    spec = BondSpec(coupon=0.05, tenor=5.0, price=100.0, recovery=0.4)
    assert bond_model_price(spec, k) == pytest.approx(105.309, abs=2e-3)
    pi_cf, xi_cf = closed_form_kernels(0.02, 0.03, 5.0)
    exact = 100 * (0.05 * pi_cf + math.exp(-0.25) + 0.4 * xi_cf)
    assert bond_model_price(spec, k) == pytest.approx(exact, abs=1e-4)


def test_model_price_linear_in_recovery():
    k = kernels(FLAT2, SurvivalParams(0.02, 0.09, 0.1), 8.0)
    prices = [bond_model_price(
        BondSpec(coupon=0.06, tenor=8.0, price=100.0, recovery=rec), k)
        for rec in (0.0, 0.5, 0.99)]
    mid = prices[0] + (prices[2] - prices[0]) * (0.5 / 0.99)
    assert prices[1] == pytest.approx(mid, abs=1e-12)


def test_full_recovery_approaches_riskfree_price():
    spec = BondSpec(coupon=0.04, tenor=6.0, price=100.0, recovery=0.99999)
    riskfree = bond_model_price(
        BondSpec(coupon=0.04, tenor=6.0, price=100.0, recovery=0.0),
        kernels(FLAT2, SurvivalParams(0.0, 0.0, 0.1), 6.0))
    near = bond_model_price(spec, kernels(FLAT2, SurvivalParams.flat(1e-7), 6.0))
    assert near == pytest.approx(riskfree, abs=1e-4)
    # with real hazard, coupons stay risky: price below riskfree even at full recovery
    risky = bond_model_price(
        BondSpec(coupon=0.04, tenor=6.0, price=100.0, recovery=1.0 - 1e-12),
        kernels(FLAT2, SurvivalParams.flat(0.1), 6.0))
    assert risky < riskfree - 1.0


# -- yield / z-spread --------------------------------------------------


def test_par_identity():
    for coupon in (0.01, 0.04, 0.08):
        for m in (1, 2, 4):
            for T in (2.0, 7.88, 30.0):
                assert price_from_yield(coupon, T, coupon, m) == pytest.approx(100.0, rel=1e-12)


def test_premium_bond_yields_less_than_coupon():
    y = yield_from_price(0.04, 7.88, 101.10)
    assert y < 0.04
    assert price_from_yield(0.04, 7.88, y) == pytest.approx(101.10, abs=1e-10)


def test_zero_yield_limit():
    assert price_from_yield(0.05, 7.0, 0.0) == pytest.approx(100 * (1 + 0.05 * 7), rel=1e-10)


def test_yield_round_trip():
    for price in (60.0, 95.0, 100.0, 132.0):
        y = yield_from_price(0.06, 11.3, price)
        assert price_from_yield(0.06, 11.3, y) == pytest.approx(price, abs=1e-10)


def test_yield_monotone_in_price():
    ys = [yield_from_price(0.05, 10.0, p) for p in (90.0, 100.0, 110.0)]
    assert ys[0] > ys[1] > ys[2]


def test_price_from_yield_domain():
    with pytest.raises(ValueError):
        price_from_yield(0.05, 5.0, -2.0, m=2)


@pytest.mark.parametrize("m", [0, -1, 1.5, True])
def test_compounding_m_must_be_a_positive_integer(m):
    # m is also the coupon frequency, so it is checked before any arithmetic;
    # True priced at m = 1, annual coupons
    bond = BondSpec(coupon=0.05, tenor=5.0, price=99.0)
    calls = (lambda: price_from_yield(0.05, 5.0, 0.03, m),
             lambda: yield_from_price(0.05, 5.0, 99.0, m),
             lambda: riskfree_schedule_price(0.05, 5.0, FLAT2, m),
             lambda: z_spread(bond, FLAT2, m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="compounding m must be a positive integer"):
                call()


def test_z_spread_zero_for_riskfree_priced_bond():
    curve = RiskfreeCurve(pillars=((1.0, 0.01), (5.0, 0.02), (20.0, 0.03)))
    price = riskfree_schedule_price(0.05, 7.0, curve)
    spec = BondSpec(coupon=0.05, tenor=7.0, price=price)
    assert z_spread(spec, curve) == pytest.approx(0.0, abs=1e-12)


def test_z_spread_decreasing_in_price():
    curve = RiskfreeCurve.flat(0.02)
    zs = [z_spread(BondSpec(coupon=0.05, tenor=8.0, price=p), curve)
          for p in (90.0, 100.0, 115.0)]
    assert zs[0] > zs[1] > zs[2]


def test_z_spread_premium_discount_bias():
    # two bonds priced off one survival curve with recovery: the high-coupon
    # (premium) bond carries the higher z-spread
    params = SurvivalParams.flat(0.04)
    T = 8.0
    k = kernels(FLAT2, params, T)
    lo = BondSpec(coupon=0.04, tenor=T, price=100.0, recovery=0.4)
    hi = BondSpec(coupon=0.09, tenor=T, price=100.0, recovery=0.4)
    lo = BondSpec(coupon=0.04, tenor=T, price=bond_model_price(lo, k), recovery=0.4)
    hi = BondSpec(coupon=0.09, tenor=T, price=bond_model_price(hi, k), recovery=0.4)
    assert z_spread(hi, FLAT2) > z_spread(lo, FLAT2)


# -- spread measures ---------------------------------------------------


def test_asset_swap_spread_cases():
    inp = AssetSwapInputs(par_swap_rate=0.03, fixed_pv01=4.2, float_pv01=4.0)
    par = BondSpec(coupon=0.03, tenor=5.0, price=100.0)
    assert asset_swap_spread(par, inp) == pytest.approx(0.0, abs=1e-15)
    below = BondSpec(coupon=0.03, tenor=5.0, price=98.0)
    assert asset_swap_spread(below, inp) == pytest.approx(0.005, rel=1e-12)
    # linearity: slope in price is -1/(100 * float_pv01)
    p1 = asset_swap_spread(BondSpec(coupon=0.05, tenor=5.0, price=101.0), inp)
    p2 = asset_swap_spread(BondSpec(coupon=0.05, tenor=5.0, price=103.0), inp)
    assert (p2 - p1) / 2.0 == pytest.approx(-1.0 / (100.0 * 4.0), rel=1e-12)


def test_par_cds_spread_flat_hazard():
    k = kernels(FLAT2, SurvivalParams.flat(0.03), 5.0)
    assert par_cds_spread(k, 0.4) == pytest.approx(0.018, abs=1e-6)
    k0 = kernels(FLAT2, SurvivalParams(0.0, 0.0, 0.1), 5.0)
    assert par_cds_spread(k0, 0.4) == 0.0


def test_par_adjusted_spread_on_model_price_equals_par_spread():
    # on the curve sbar is the par CDS spread; on it or off it, for either
    # kind, the price residual is dP = 100 * Pi * (sbar - s_model)
    for params in (SurvivalParams(0.01, 0.05, 0.1), SurvivalParams.flat(0.02)):
        for rec in (0.0, 0.4, 0.7):
            k = kernels(FLAT2, params, 7.0)
            spec = BondSpec(coupon=0.055, tenor=7.0, price=100.0, recovery=rec)
            spec = BondSpec(coupon=0.055, tenor=7.0,
                            price=bond_model_price(spec, k), recovery=rec)
            s_model = par_cds_spread(k, rec)
            assert par_adjusted_spread_bond(spec, k) == pytest.approx(s_model, abs=1e-12)
            off_curve = [dataclasses.replace(spec, price=spec.price + shift)
                         for shift in (-3.0, 2.5)]
            off_curve += [CdsSpec(coupon=0.01, tenor=7.0, quote_type="spread", quote=q,
                                  model_recovery=rec) for q in (0.004, 0.03)]
            for inst in off_curve:
                sbar, _ = par_adjusted_spread(inst, k, FLAT2)
                assert cc.price_residual(inst, params, FLAT2, rec) == pytest.approx(
                    100.0 * k.pi * (sbar - s_model), abs=1e-10)


@given(a=st.floats(1e-4, 0.2), b=st.floats(1e-4, 0.2), c=st.floats(0.05, 0.2),
       rec=st.floats(0.0, 0.9), coupon=st.floats(0.0, 0.12),
       tenor=st.floats(0.5, 30.0), rate=st.floats(0.0, 0.08))
@settings(max_examples=40, deadline=None)
def test_par_adjusted_spread_consistency_property(a, b, c, rec, coupon, tenor, rate):
    # a bond priced by the model always shows sbar equal to the curve's
    # par CDS spread, in every parameter direction
    curve = RiskfreeCurve.flat(rate)
    k = kernels(curve, SurvivalParams(a, b, c), tenor)
    spec = BondSpec(coupon=coupon, tenor=tenor, price=100.0, recovery=rec)
    spec = BondSpec(coupon=coupon, tenor=tenor,
                    price=bond_model_price(spec, k), recovery=rec)
    assert par_adjusted_spread_bond(spec, k) == pytest.approx(
        par_cds_spread(k, rec), abs=1e-11)


def test_par_adjusted_spread_at_par():
    k = kernels(FLAT2, SurvivalParams.flat(0.03), 5.0)
    spec = BondSpec(coupon=0.05, tenor=5.0, price=100.0, recovery=0.4)
    assert par_adjusted_spread_bond(spec, k) == pytest.approx(0.05 - k.rhat, abs=1e-15)


def test_par_adjusted_spread_flat_case_value():
    k = kernels(FLAT2, SurvivalParams.flat(0.03), 5.0)
    spec = BondSpec(coupon=0.05, tenor=5.0, price=100.0, recovery=0.4)
    spec = BondSpec(coupon=0.05, tenor=5.0, price=bond_model_price(spec, k), recovery=0.4)
    assert par_adjusted_spread_bond(spec, k) == pytest.approx(0.018, abs=1e-6)


# -- CDS quotes --------------------------------------------------------


def test_snac_upfront_at_par():
    q = CdsSpec(coupon=0.05, tenor=5.0, quote_type="spread", quote=0.05)
    assert cds_traded_spread_to_upfront(q, FLAT2) == pytest.approx(0.0, abs=1e-15)


def test_snac_upfront_closed_form():
    q = CdsSpec(coupon=0.05, tenor=5.0, quote_type="spread", quote=0.03,
                quoting_recovery=0.4)
    u = cds_traded_spread_to_upfront(q, FLAT0)
    pi_cf, _ = closed_form_kernels(0.0, 0.05, 5.0)
    assert u == pytest.approx((0.03 - 0.05) * pi_cf, abs=2e-5)
    assert u == pytest.approx(-0.088480, abs=2e-5)


def test_snac_negative_spread_rejected():
    with pytest.raises(ValueError):
        CdsSpec(coupon=0.05, tenor=5.0, quote_type="spread", quote=-0.01)


def test_par_adjusted_spread_cds_round_trip():
    k = kernels(FLAT2, SurvivalParams(0.01, 0.07, 0.12), 5.0)
    q = CdsSpec(coupon=0.01, tenor=5.0, quote_type="upfront", quote=0.04)
    sbar = par_adjusted_spread_cds(q, k, FLAT2)
    assert (sbar - q.coupon) * k.pi == pytest.approx(0.04, abs=1e-15)
    # u = 0 means the CDS is at par
    q0 = CdsSpec(coupon=0.01, tenor=5.0, quote_type="upfront", quote=0.0)
    assert par_adjusted_spread_cds(q0, k, FLAT2) == pytest.approx(0.01, abs=1e-15)


def test_par_adjusted_spread_cds_direct_substitution():
    k = RiskyKernels(pi=4.0, xi=0.1, rhat=0.02, bq_T=0.84, tenor=5.0)
    q = CdsSpec(coupon=0.01, tenor=5.0, quote_type="upfront", quote=0.04)
    assert par_adjusted_spread_cds(q, k, FLAT2) == pytest.approx(0.02, abs=1e-15)


def test_cds_spread_quote_at_par_is_exact():
    q = CdsSpec(coupon=0.05, tenor=5.0, quote_type="spread", quote=0.05)
    k = kernels(FLAT2, SurvivalParams.flat(0.0833), 5.0)
    assert par_adjusted_spread_cds(q, k, FLAT2) == pytest.approx(0.05, abs=1e-15)


def test_nonstandard_cds_coupon_warns():
    with pytest.warns(UserWarning):
        CdsSpec(coupon=0.02, tenor=5.0, quote_type="spread", quote=0.02)


def test_bond_cds_spec_validation():
    with pytest.raises(ValueError):
        BondSpec(coupon=-0.01, tenor=5.0, price=100.0)
    with pytest.raises(ValueError):
        BondSpec(coupon=0.05, tenor=0.0, price=100.0)
    with pytest.raises(ValueError):
        BondSpec(coupon=0.05, tenor=5.0, price=100.0, recovery=1.0)
    with pytest.raises(ValueError):
        CdsSpec(coupon=0.05, tenor=5.0, quote_type="bogus", quote=0.0)
    with pytest.raises(ValueError, match="coupon must be >= 0"):
        CdsSpec(coupon=-0.05, tenor=5.0, quote_type="upfront", quote=0.02)
    with pytest.raises(ValueError, match="traded spread must be >= 0"):
        CdsSpec(coupon=0.01, tenor=5.0, quote_type="spread", quote=-0.001)
    # the checks that both kinds share, on each kind
    bond = dict(coupon=0.05, tenor=5.0, price=100.0)
    cds = dict(coupon=0.01, tenor=5.0, quote_type="upfront", quote=0.02)
    for fault, message in ((dict(coupon=-0.01), "coupon must be >= 0"),
                           (dict(tenor=0.0), "tenor must be > 0"),
                           (dict(tenor=-1.0), "tenor must be > 0"),
                           (dict(issue_size=0.0), "issue_size must be > 0"),
                           (dict(issue_size=-100.0), "issue_size must be > 0")):
        for kind, valid in ((BondSpec, bond), (CdsSpec, cds)):
            with pytest.raises(ValueError, match=message):
                kind(**dict(valid, **fault))
    # the shared issuer facts are keyword-only
    with pytest.raises(TypeError):
        BondSpec(0.05, 5.0, 100.0, 0.4, 500.0)
    with pytest.raises(TypeError):
        CdsSpec(0.01, 5.0, "upfront", 0.02, 0.4, 0.4, 500.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_bond_cds_spec_reject_non_finite_numbers(x):
    bond = dict(coupon=0.05, tenor=5.0, price=100.0)
    for name in ("coupon", "tenor", "price", "issue_size", "sovereign_spread"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BondSpec(**dict(bond, **{name: x}))
    cds = dict(coupon=0.01, tenor=5.0, quote_type="spread", quote=0.02)
    for name in ("coupon", "tenor", "quote", "issue_size", "sovereign_spread"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CdsSpec(**dict(cds, **{name: x}))


# -- exact fit ---------------------------------------------------------


def test_exact_fit_on_curve_is_identity():
    base = SurvivalParams(0.01, 0.05, 0.1)
    k = kernels(FLAT2, base, 6.0)
    spec = BondSpec(coupon=0.05, tenor=6.0, price=100.0, recovery=0.4)
    spec = BondSpec(coupon=0.05, tenor=6.0, price=bond_model_price(spec, k), recovery=0.4)
    fitted, _ = exact_fit_to_instrument(spec, base, FLAT2)
    assert fitted.a == pytest.approx(base.a, rel=1e-9)
    assert fitted.b == pytest.approx(base.b, rel=1e-9)


def test_exact_fit_cheapening_raises_hazards():
    base = SurvivalParams(0.01, 0.05, 0.1)
    k = kernels(FLAT2, base, 6.0)
    spec = BondSpec(coupon=0.05, tenor=6.0, price=100.0, recovery=0.4)
    on_curve = bond_model_price(spec, k)
    cheap = BondSpec(coupon=0.05, tenor=6.0, price=on_curve - 3.0, recovery=0.4)
    fitted, _ = exact_fit_to_instrument(cheap, base, FLAT2)
    assert fitted.a > base.a and fitted.b > base.b
    assert fitted.b / fitted.a == pytest.approx(base.b / base.a, rel=1e-12)
    k_f = kernels(FLAT2, fitted, 6.0)
    assert bond_model_price(cheap, k_f) == pytest.approx(cheap.price, abs=1e-8)


def test_exact_fit_cds():
    q = CdsSpec(coupon=0.01, tenor=5.0, quote_type="spread", quote=0.025,
                quoting_recovery=0.4)
    fitted, _ = exact_fit_to_instrument(q, SurvivalParams.flat(0.01), FLAT2, recovery=0.4)
    k = kernels(FLAT2, fitted, 5.0)
    u_model = (par_cds_spread(k, 0.4) - q.coupon) * k.pi
    assert u_model == pytest.approx(cds_upfront(q, FLAT2), abs=1e-10)


@pytest.mark.parametrize("rec", [0.1, 0.7])
def test_exact_fit_honours_bond_recovery(rec):
    bond = BondSpec(coupon=0.05, tenor=5.0, price=98.0, recovery=0.4)
    fitted, _ = exact_fit_to_instrument(bond, SurvivalParams.flat(0.02), FLAT2, recovery=rec)
    assert cc.price_residual(bond, fitted, FLAT2, rec) == pytest.approx(0.0, abs=1e-8)


def test_exact_fit_unattainable_price():
    base = SurvivalParams(0.01, 0.05, 0.1)
    rich = BondSpec(coupon=0.05, tenor=6.0, price=200.0, recovery=0.4)
    with pytest.raises(ArithmeticError):
        exact_fit_to_instrument(rich, base, FLAT2)
    below_floor = BondSpec(coupon=0.05, tenor=6.0, price=20.0, recovery=0.4)
    with pytest.raises(ArithmeticError):
        exact_fit_to_instrument(below_floor, base, FLAT2)


# -- the root finder -----------------------------------------------------


def outcome(solve, *args, **kwargs):
    """A root, or the type and message of the error raised."""
    try:
        return solve(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


MONOTONE = {
    "power": lambda x, c, s: s * (x - c) ** 3,
    "expm1": lambda x, c, s: math.expm1(s * (x - c)),
    "atan": lambda x, c, s: -(math.atan(s * (x - c)) + 1e-3 * (x - c)),
    "log1p": lambda x, c, s: math.log1p(s * abs(x - c)) * math.copysign(1.0, x - c),
}


@given(kind=st.sampled_from(sorted(MONOTONE)), root=st.floats(-2.0, 2.0),
       slope=st.floats(0.05, 50.0), below=st.floats(1e-3, 5.0),
       above=st.floats(1e-3, 5.0), xtol=st.sampled_from([1e-13, 1e-14]),
       rtol=st.sampled_from([4 * np.finfo(float).eps, 8.9e-16]))
@settings(max_examples=300, deadline=None)
def test_brent_port_matches_scipy_brentq(kind, root, slope, below, above, xtol, rtol):
    def f(x):
        return MONOTONE[kind](x, root, slope)

    for lo, hi in ((root - below, root + above), (root + above, root - below)):
        got = outcome(_brentq, f, lo, hi, xtol=xtol, rtol=rtol)
        assert got == outcome(brentq, f, lo, hi, xtol=xtol, rtol=rtol)
    # a bracket without a sign change
    lo, hi = root + above, root + above + below
    got = outcome(_brentq, f, lo, hi, xtol=xtol, rtol=rtol)
    assert got == outcome(brentq, f, lo, hi, xtol=xtol, rtol=rtol)
    assert got[0] is ValueError


def test_brent_port_errors_match_scipy():
    cube = lambda x: x ** 3 - 2.0
    for kwargs in (dict(xtol=1e-14, maxiter=3), dict(xtol=0.0), dict(xtol=1e-14, rtol=1e-17)):
        got = outcome(_brentq, cube, 0.0, 2.0, **kwargs)
        assert got == outcome(brentq, cube, 0.0, 2.0, **kwargs)
        assert got[0] in (ValueError, RuntimeError)
    nan = lambda x: math.nan
    assert outcome(_brentq, nan, 0.0, 1.0, xtol=1e-14) == outcome(brentq, nan, 0.0, 1.0)


# The parent formulation of the root solves: scipy's brentq with the
# curve-only work (zero rates, discount grid) redone at every trial point.


def parent_schedule_price(coupon, tenor, curve, m, spread=0.0):
    # the curve's zero rate read one cashflow time at a time
    n = max(1, int(math.ceil(m * tenor - 1e-9)))
    times = tenor - (n - 1 - np.arange(n)) / m
    flows = np.full(n, 100.0 * coupon / m)
    flows[-1] += 100.0
    pv = 0.0
    for t, cf in zip(times, flows):
        z = curve.zero_rate(float(t), m)
        pv += cf * math.exp(-m * t * math.log1p((z + spread) / m))
    return pv


def parent_z_spread(spec, curve, m=2):
    def f(s):
        return parent_schedule_price(spec.coupon, spec.tenor, curve, m, s) - spec.price

    lo, hi = -0.25, 0.5
    for _ in range(60):
        if f(lo) > 0 > f(hi):
            break
        if f(hi) >= 0:
            hi *= 2.0
        if f(lo) <= 0:
            lo -= 0.25
    return brentq(f, lo, hi, xtol=1e-14)


def parent_exact_fit(spec, base, curve):
    quotes = [q.item() for q in _quotes([spec], curve, None)]

    def gap(factor):
        k = kernels(curve, base.scaled(factor), spec.tenor)
        return float(_dp(k.pi, k.xi, k.rhat, 0.0, *quotes))

    lo, hi = 0.5, 2.0
    for _ in range(80):
        g_lo, g_hi = gap(lo), gap(hi)
        if g_lo > 0 > g_hi:
            break
        if g_lo <= 0:
            lo /= 4.0
        if g_hi >= 0:
            hi *= 4.0
    return base.scaled(brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16))


GOLDEN_CURVE = RiskfreeCurve(pillars=((0.5, 0.012), (2.0, 0.018), (7.0, 0.026), (20.0, 0.031)))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_z_spread_equals_parent_formulation(m):
    # tenors inside the pillars, on the last one and past it (flat extrapolation)
    for coupon, tenor, price in ((0.0, 3.0, 91.0), (0.05, 0.8, 101.2), (0.0725, 7.3, 96.4),
                                 (0.04, 12.25, 108.0), (0.05, 20.0, 99.0), (0.09, 28.0, 71.5),
                                 (0.06, 40.5, 83.0)):
        spec = BondSpec(coupon=coupon, tenor=tenor, price=price)
        assert (z_spread(spec, GOLDEN_CURVE, m).hex()
                == parent_z_spread(spec, GOLDEN_CURVE, m).hex())
        for spread in (0.0, 0.013):
            assert (riskfree_schedule_price(coupon, tenor, GOLDEN_CURVE, m, spread).hex()
                    == parent_schedule_price(coupon, tenor, GOLDEN_CURVE, m, spread).hex())


def test_exact_fit_equals_parent_formulation():
    base = SurvivalParams(0.01, 0.04, 0.12)
    specs = [BondSpec(coupon=c, tenor=t, price=p, recovery=r)
             for c, t, p, r in ((0.03, 1.7, 99.2, 0.4), (0.06, 6.5, 104.0, 0.25),
                                (0.08, 15.0, 88.0, 0.0), (0.05, 30.0, 77.0, 0.6))]
    specs += [CdsSpec(coupon=c, tenor=t, quote_type=kind, quote=q, model_recovery=r)
              for c, t, kind, q, r in ((0.01, 5.0, "spread", 0.018, None),
                                       (0.05, 3.0, "upfront", -0.04, 0.35),
                                       (0.01, 10.0, "upfront", 0.07, 0.2))]
    for spec in specs:
        fitted, _ = exact_fit_to_instrument(spec, base, GOLDEN_CURVE)
        assert fitted == parent_exact_fit(spec, base, GOLDEN_CURVE)


def test_root_solves_evaluate_no_point_twice(tmp_path, gen, monkeypatch):
    # the bracket evaluates only an end that moved, Brent starts from the end
    # values the bracket has, and the exact fit returns the kernels it priced
    # at the root: no trial point is priced twice
    points = []
    scaled, price, pv = SurvivalParams.scaled, valuation.price_from_yield, valuation._schedule_pv
    monkeypatch.setattr(SurvivalParams, "scaled",
                        lambda self, factor: points.append(factor) or scaled(self, factor))
    monkeypatch.setattr(valuation, "price_from_yield",
                        lambda coupon, tenor, y, m: points.append(y) or price(coupon, tenor, y, m))
    monkeypatch.setattr(valuation, "_schedule_pv",
                        lambda *args: points.append(args[-1]) or pv(*args))

    def distinct(solve):
        points.clear()
        solve()
        assert len(points) == len(set(points)), sorted(points)

    instruments = [(BondSpec(coupon=c, tenor=t, price=p), FLAT2)
                   for c, t, p in ((0.05, 5.0, 99.0), (0.0, 30.0, 20.0), (0.12, 1.0, 130.0),
                                   (0.03, 0.4, 90.0), (0.08, 40.0, 150.0))]
    for meta in gen.generate("desk_cold", 1, tmp_path)["snapshots"]:
        d = tmp_path / meta["name"]
        snap = Settings(None, {"as_of": meta["as_of"], "recovery": meta["recovery"]}).load(
            d / "riskfree.csv", d / "bonds.csv", d / "cds.csv")
        instruments += [(inst, snap.riskfree) for inst in snap.instruments]
    for inst, curve in instruments:
        if isinstance(inst, BondSpec):
            for m in (1, 2):
                distinct(lambda: yield_from_price(inst.coupon, inst.tenor, inst.price, m))
                distinct(lambda: z_spread(inst, curve, m))
        try:
            distinct(lambda: exact_fit_to_instrument(inst, SurvivalParams.flat(0.02), curve))
        except ArithmeticError:
            pass


def test_bracket_failures_name_the_root():
    with pytest.raises(ArithmeticError, match="^could not bracket the yield$"):
        yield_from_price(0.05, 1.0, 1e12)
    with pytest.raises(ArithmeticError, match="^z-spread root-finding failed to bracket$"):
        z_spread(BondSpec(coupon=0.05, tenor=5.0, price=1e6), FLAT2)
