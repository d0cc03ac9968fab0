import dataclasses
import datetime as dt
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import creditcurve as cc
from creditcurve import cli
from creditcurve import fitting as ft
from creditcurve.fitting import (
    FitConfig,
    fit_rating_grid,
    fit_single_name,
    price_residual,
    price_residual_em,
    robust_loss,
)
from creditcurve.survival import RatingGrid, RecoverySchedule, SurvivalParams
from creditcurve.universe import load_universe
from creditcurve.valuation import BondSpec, CdsSpec, _dp, bond_model_price, kernels
from kernel_reference import parent_dp, parent_jet_kernels

CURVE = cc.RiskfreeCurve.flat(0.02)
TRUE = SurvivalParams(0.01, 0.05, 0.1)


def make_bonds(params=TRUE, recovery=0.4, curve=CURVE,
               tenors=(1, 2, 3, 5, 7, 10, 15, 20), coupon0=0.03):
    bonds = []
    for i, T in enumerate(tenors):
        cpn = coupon0 + 0.003 * i
        k = kernels(curve, params, T)
        p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=recovery), k)
        bonds.append(BondSpec(coupon=cpn, tenor=T, price=p, recovery=recovery,
                              identifier=f"bond{i}"))
    return bonds


# -- loss --------------------------------------------------------------


@given(st.floats(min_value=-50, max_value=50))
@settings(max_examples=200, deadline=None)
def test_robust_loss_below_half_square(x):
    assert robust_loss(x) <= x * x / 2 + 1e-12


def test_robust_loss_linear_tails():
    for x in (1e3, 1e5, -1e4):
        assert robust_loss(x) / abs(x) == pytest.approx(1.0, rel=1e-3)
    assert robust_loss(0.0) == 0.0


# -- residuals ---------------------------------------------------------


def test_residual_zero_on_curve():
    for inst in make_bonds():
        assert price_residual(inst, TRUE, CURVE, 0.4) == pytest.approx(0.0, abs=1e-10)


def test_residual_two_routes_agree():
    # Eq-form residual equals model price minus market price
    params = SurvivalParams(0.015, 0.07, 0.15)
    for inst in make_bonds():
        dp = price_residual(inst, params, CURVE, 0.4)
        k = kernels(CURVE, params, inst.tenor)
        assert dp == pytest.approx(bond_model_price(inst, k) - inst.price, abs=1e-10)


def test_residual_sign_means_cheap():
    inst = make_bonds()[3]
    cheap = BondSpec(coupon=inst.coupon, tenor=inst.tenor, price=inst.price - 2.0,
                     recovery=0.4)
    assert price_residual(cheap, TRUE, CURVE, 0.4) > 0


def test_residual_cds_on_curve():
    k = kernels(CURVE, TRUE, 5.0)
    s_par = cc.par_cds_spread(k, 0.4)
    u = (s_par - 0.01) * k.pi
    q = CdsSpec(coupon=0.01, tenor=5.0, quote_type="upfront", quote=u)
    assert price_residual(q, TRUE, CURVE, 0.4) == pytest.approx(0.0, abs=1e-10)


def test_residual_em_linearity_and_limits():
    inst = make_bonds()[4]
    base = price_residual(inst, TRUE, CURVE, 0.4)
    r0 = price_residual_em(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=0.0)
    r1 = price_residual_em(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=1.0)
    r_half = price_residual_em(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=0.5)
    assert r0 == pytest.approx(base, abs=1e-14)
    assert r_half == pytest.approx((r0 + r1) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        price_residual_em(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=1.5)


def test_residual_em_alpha_one_absorbs_gap():
    # a bond trading wide of the curve by exactly the sovereign spread
    # has zero residual at alpha = 1
    inst = make_bonds()[5]
    k = kernels(CURVE, TRUE, inst.tenor)
    s_sov = 0.013
    wide = BondSpec(coupon=inst.coupon, tenor=inst.tenor,
                    price=inst.price - 100 * s_sov * k.pi, recovery=0.4)
    assert price_residual_em(wide, TRUE, CURVE, 0.4, s_sov, 1.0) == pytest.approx(0.0, abs=1e-9)


# -- single-name fit ---------------------------------------------------


def test_single_name_round_trip():
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(fix_c=0.1))
    assert abs(res.params.a - TRUE.a) < 1e-4
    assert abs(res.params.b - TRUE.b) < 1e-4
    assert res.objective < 1e-16
    assert res.diagnostics["converged"]


def test_single_name_free_c_round_trip():
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig())
    assert res.params.a == pytest.approx(TRUE.a, rel=2e-3)
    assert res.params.b == pytest.approx(TRUE.b, rel=2e-3)
    assert res.params.c == pytest.approx(TRUE.c, rel=2e-2)


def test_fit_rejects_empty():
    with pytest.raises(ValueError, match="no instruments"):
        fit_single_name([], CURVE, 0.4, FitConfig())


def test_fit_single_tenor_underdetermined():
    bonds = make_bonds(tenors=(5, 5, 5))
    res = fit_single_name(bonds, CURVE, 0.4, FitConfig())
    assert res.diagnostics["underdetermined"]
    assert res.diagnostics["tie_ab"]
    assert res.params.a == pytest.approx(res.params.b, rel=1e-14)
    # one flat hazard cannot exactly reprice three coupons at one tenor
    # (the premium/discount effect), but the compromise stays small
    assert max(abs(r) for r in res.residuals) < 0.2


def test_fit_descent_log_monotone():
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig())
    descent = [f for _, f in res.diagnostics["descent"]]
    assert descent, "descent log must record improvements"
    assert all(f1 > f2 for f1, f2 in zip(descent, descent[1:]))


def test_fit_deterministic():
    r1 = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(seed=11))
    r2 = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(seed=11))
    assert r1.params == r2.params
    assert r1.objective == r2.objective
    assert r1.residuals == r2.residuals


def test_fit_recovery_schedule_needs_rating():
    bonds = make_bonds()
    with pytest.raises(ValueError, match="rating"):
        fit_single_name(bonds, CURVE, RecoverySchedule(), FitConfig())


def test_fit_with_noise_robust_vs_squared_differ():
    rng = np.random.default_rng(5)
    bonds = []
    for inst in make_bonds():
        noise = float(rng.normal(0, 0.3))
        bonds.append(BondSpec(coupon=inst.coupon, tenor=inst.tenor,
                              price=inst.price + noise, recovery=0.4))
    # one gross outlier
    out = bonds[3]
    bonds[3] = BondSpec(coupon=out.coupon, tenor=out.tenor, price=out.price - 12.0,
                        recovery=0.4)
    robust = fit_single_name(bonds, CURVE, 0.4, FitConfig(fix_c=0.1))
    squared = fit_single_name(bonds, CURVE, 0.4, FitConfig(fix_c=0.1, loss="squared"))
    # the squared loss chases the outlier much harder
    assert abs(squared.residuals[3]) < abs(robust.residuals[3])


# -- trust-region least-squares solver ------------------------------------


COLOM = Path(__file__).resolve().parent.parent / "sample_data" / "colom_2016-04-08"
# the colom snapshot's fit at recovery 0.5 under the former Nelder-Mead solver
COLOM_NM_OBJECTIVE = 0.6552070017456335


def colom_fit():
    snap = load_universe(COLOM / "riskfree.csv", COLOM / "bonds.csv",
                         as_of=dt.date(2016, 4, 8))
    return fit_single_name(snap.bonds, snap.riskfree, 0.5, FitConfig())


@pytest.fixture(scope="module")
def colom_half():
    return colom_fit()


def test_colom_objective_matches_nelder_mead(colom_half):
    assert colom_half.diagnostics["converged"]
    assert colom_half.objective == pytest.approx(COLOM_NM_OBJECTIVE, abs=1e-8)


def test_colom_objective_and_starts_agree_with_nelder_mead(colom_half):
    assert colom_half.objective == pytest.approx(COLOM_NM_OBJECTIVE, abs=1e-10)
    per_start = colom_half.diagnostics["objective_per_start"]
    assert max(per_start) - min(per_start) <= 1e-10


def test_colom_reports_c_at_its_lower_bound(colom_half):
    assert colom_half.params.c - FitConfig().c_bounds[0] <= ft.AT_BOUND
    assert colom_half.diagnostics["at_bound"] == ("c",)


def test_at_bound_names_free_parameters_at_an_edge():
    both = ft._ShapeAlpha(i_c=2, i_alpha=3, c_bounds=(0.05, 0.2), fixed_c=None,
                          fixed_alpha=0.0)
    assert both.at_bound(0.2 - 1e-12, 1e-10) == ("c", "alpha")
    assert both.at_bound(0.1, 1.0) == ("alpha",)
    assert both.at_bound(0.05 + 1e-6, 0.5) == ()
    held = ft._ShapeAlpha(i_c=None, i_alpha=None, c_bounds=(0.05, 0.2), fixed_c=0.05,
                          fixed_alpha=1.0)
    assert held.at_bound(0.05, 1.0) == ()


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(14)))
def test_colom_fit_invariant_to_bond_order(colom_half, order):
    snap = load_universe(COLOM / "riskfree.csv", COLOM / "bonds.csv",
                         as_of=dt.date(2016, 4, 8))
    assert len(snap.bonds) == len(order)
    permuted = fit_single_name([snap.bonds[i] for i in order], snap.riskfree, 0.5,
                               FitConfig())
    assert permuted.objective == pytest.approx(colom_half.objective, abs=1e-8)
    for name in ("a", "b", "c"):
        assert getattr(permuted.params, name) == pytest.approx(
            getattr(colom_half.params, name), rel=1e-6)
    restored = np.empty(len(order))
    restored[list(order)] = permuted.residuals
    np.testing.assert_allclose(restored, colom_half.residuals, rtol=0, atol=1e-6)


def test_objective_per_start(colom_half):
    per_start = colom_half.diagnostics["objective_per_start"]
    assert len(per_start) == FitConfig().multistart_count
    assert min(per_start) == colom_half.objective


def test_fit_bit_identical_diagnostics(colom_half):
    again = colom_fit()
    assert again.params == colom_half.params
    assert again.diagnostics == colom_half.diagnostics


def test_no_fallback_evaluations_on_colom_and_grid(colom_half):
    assert colom_half.diagnostics["fallback_evals"] == 0
    grid = fit_rating_grid(make_grid_universe(), CURVE, SCHED, FitConfig())
    assert grid.diagnostics["fallback_evals"] == 0


def test_evaluations_count_every_residual_call(monkeypatch):
    calls = []
    residuals = ft._MarketSide.residuals

    def counted(self, *args):
        calls.append(1)
        return residuals(self, *args)

    monkeypatch.setattr(ft._MarketSide, "residuals", counted)
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(fix_c=0.1))
    assert res.diagnostics["evaluations"] == len(calls)


def test_fallback_evaluations_are_counted():
    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())

    def chart(u):
        if u[0] > 0:
            raise OverflowError
        return TRUE, 0.0, {None: (TRUE, np.zeros((4, 1)))}

    residuals = ft._CountedResiduals(side, chart)
    assert np.all(residuals(np.array([1.0]))[0] == ft.FALLBACK_DP)
    assert np.all(np.abs(residuals(np.array([-1.0]))[0]) < 1e-10)
    assert (residuals.evals, residuals.fallback_evals) == (2, 1)


def test_fit_at_a_fallback_point_is_not_converged(tmp_path, monkeypatch):
    # every evaluation falls back: the residuals are constant, so the
    # gradient is exactly 0 and the solver stops at once
    def overflow(self, groups, alpha):
        raise OverflowError("math range error")

    monkeypatch.setattr(ft._MarketSide, "residuals", overflow)
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(multistart_count=2))
    assert res.diagnostics["fallback_evals"] == res.diagnostics["evaluations"] > 0
    assert res.diagnostics["grad_norm"] == 0.0
    assert res.diagnostics["converged"] is False

    result = CliRunner().invoke(cli.main, [
        "fit", "--riskfree", str(COLOM / "riskfree.csv"), "--bonds", str(COLOM / "bonds.csv"),
        "--config", str(COLOM / "config.txt"), "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "did not converge" in result.output


def test_max_iter_too_small_is_not_converged(tmp_path, monkeypatch):
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(max_iter=3))
    assert not res.diagnostics["converged"]
    assert res.diagnostics["status"] == 0

    fit_config = cli.Settings.fit_config
    monkeypatch.setattr(cli.Settings, "fit_config",
                        lambda self: dataclasses.replace(fit_config(self), max_iter=3))
    result = CliRunner().invoke(cli.main, [
        "fit", "--riskfree", str(COLOM / "riskfree.csv"), "--bonds", str(COLOM / "bonds.csv"),
        "--config", str(COLOM / "config.txt"), "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "did not converge" in result.output


def test_fitconfig_validation():
    with pytest.raises(ValueError):
        FitConfig(loss="cubic")
    with pytest.raises(ValueError):
        FitConfig(weight_mode="by_vibes")
    with pytest.raises(ValueError):
        FitConfig(c_bounds=(0.2, 0.1))
    with pytest.raises(ValueError):
        FitConfig(em_mode="maybe")
    for x in (math.nan, math.inf, -math.inf):
        for name in ("fix_c", "grid_step", "xtol", "ftol"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                FitConfig(**{name: x})
        with pytest.raises(ValueError, match="c_bounds"):
            FitConfig(c_bounds=(0.05, x))
        for name in ("multistart_count", "max_iter"):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 1"):
                FitConfig(**{name: x})
    for x in (2.5, 3.0):
        for name in ("multistart_count", "max_iter"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                FitConfig(**{name: x})
    assert FitConfig(multistart_count=np.int64(2)).multistart_count == 2
    for seed in (-1, 1.5, 2.0, "3"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            FitConfig(seed=seed)
    assert FitConfig(seed=np.int64(7)).seed == 7


# -- rating-grid fit -----------------------------------------------------


GRID_TRUE = RatingGrid(anchors_a=(0.002, 0.005, 0.02),
                       anchors_b=(0.008, 0.03, 0.09), c=0.12)
SCHED = RecoverySchedule()


def make_grid_universe(alpha=None, sov=None):
    bonds = []
    for rating in (3, 6, 9, 12, 15):
        for T in (2.0, 5.0, 10.0, 20.0):
            cpn = 0.03 + 0.002 * rating
            params = GRID_TRUE.params_for_rating(rating)
            rec = SCHED.recovery_for_rating(rating)
            k = kernels(CURVE, params, T)
            p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=rec), k)
            s_sov = None
            if alpha is not None:
                s_sov = sov(T)
                p -= 100.0 * alpha * s_sov * k.pi
            bonds.append(BondSpec(coupon=cpn, tenor=T, price=p, recovery=rec,
                                  rating=rating, sovereign_spread=s_sov,
                                  identifier=f"r{rating}t{T:g}"))
    return bonds


@pytest.fixture(scope="module")
def grid_fit():
    return fit_rating_grid(make_grid_universe(), CURVE, SCHED,
                           FitConfig(multistart_count=3, seed=4))


def test_grid_round_trip(grid_fit):
    grid = grid_fit.params
    assert grid_fit.diagnostics["converged"]
    for got, want in zip(grid.anchors_a + grid.anchors_b,
                         GRID_TRUE.anchors_a + GRID_TRUE.anchors_b):
        assert got == pytest.approx(want, rel=1e-3)
    assert grid.c == pytest.approx(0.12, rel=1e-3)


def test_grid_fit_never_crosses(grid_fit):
    grid = grid_fit.params
    ts = np.linspace(0.0, 30.0, 50)
    for r in range(1, 18):
        h1 = grid.params_for_rating(r).forward_hazard(ts)
        h2 = grid.params_for_rating(r + 1).forward_hazard(ts)
        assert np.all(h1 <= h2 + 1e-15)


def test_grid_single_rating_degenerates_to_single_name():
    bonds = [b for b in make_grid_universe() if b.rating == 9]
    res = fit_rating_grid(bonds, CURVE, SCHED, FitConfig())
    assert res.diagnostics["underdetermined"]
    assert res.diagnostics["degenerate_single_rating"] == 9
    single = fit_single_name(bonds, CURVE, SCHED, FitConfig())
    bbb = res.params.params_for_rating(9)
    assert bbb.a == pytest.approx(single.params.a, rel=1e-9)
    assert bbb.b == pytest.approx(single.params.b, rel=1e-9)


def test_grid_requires_ratings():
    bonds = make_bonds()
    with pytest.raises(ValueError, match="rating"):
        fit_rating_grid(bonds, CURVE, SCHED, FitConfig())


def test_grid_em_alpha_recovery():
    sov = lambda T: 0.015 + 0.001 * min(T, 10.0)
    bonds = make_grid_universe(alpha=0.45, sov=sov)
    res = fit_rating_grid(bonds, CURVE, SCHED,
                          FitConfig(em_mode="fit", multistart_count=2))
    assert res.alpha == pytest.approx(0.45, abs=0.05)
    assert res.diagnostics["converged"]


def test_grid_em_needs_sovereign_spreads():
    bonds = make_grid_universe()
    with pytest.raises(ValueError, match="sovereign"):
        fit_rating_grid(bonds, CURVE, SCHED, FitConfig(em_mode="fit"))


def test_grid_deterministic(grid_fit):
    again = fit_rating_grid(make_grid_universe(), CURVE, SCHED,
                            FitConfig(multistart_count=3, seed=4))
    assert grid_fit.params == again.params
    assert grid_fit.residuals == again.residuals


# -- analytic Jacobian ------------------------------------------------------


class _Captured(Exception):
    pass


def solver_problem(monkeypatch, fit):
    """The residual function, start and Jacobian a fit hands the solver."""
    seen = []

    def spy(fun, x0, *args, **kwargs):
        seen.append((lambda u: fun(u)[0], np.asarray(x0, dtype=float), lambda u: fun(u)[1]))
        raise _Captured

    monkeypatch.setattr(ft, "_trust_region", spy)
    with pytest.raises(_Captured):
        fit()
    return seen[0]


def assert_jacobian_matches_central_differences(fun, jac, u, h=1e-6):
    analytic = jac(u)
    assert analytic.shape == (len(fun(u)), len(u))
    steps = h * np.eye(len(u))
    fd = np.column_stack([(fun(u + e) - fun(u - e)) / (2.0 * h) for e in steps])
    scale = np.abs(analytic).max(axis=0)
    assert np.all(scale > 0.0), "every coordinate moves some residual"
    np.testing.assert_allclose(analytic, fd, rtol=0.0, atol=1e-6 * scale.max())
    assert np.all(np.abs(analytic - fd) <= 1e-6 * scale)


def with_sovereign(instruments, spread=0.012):
    return [dataclasses.replace(i, sovereign_spread=spread + 0.0005 * i.tenor)
            for i in instruments]


def mixed_bonds_and_cds():
    cds = []
    for T, u in ((3.0, -0.01), (7.0, 0.02)):
        cds.append(CdsSpec(coupon=0.01, tenor=T, quote_type="upfront", quote=u,
                           identifier=f"cds{T:g}"))
    return make_bonds() + cds


SINGLE_NAME_CASES = {
    "free-c": (mixed_bonds_and_cds, FitConfig()),
    "fix-c": (make_bonds, FitConfig(fix_c=0.12)),
    "tie-ab": (lambda: make_bonds(tenors=(5, 5, 5)), FitConfig()),
    "em-fit": (lambda: with_sovereign(make_bonds()), FitConfig(em_mode="fit")),
}


@pytest.mark.parametrize("case", sorted(SINGLE_NAME_CASES))
def test_single_name_jacobian_matches_central_differences(monkeypatch, case):
    instruments, config = SINGLE_NAME_CASES[case]
    fun, x0, jac = solver_problem(
        monkeypatch, lambda: fit_single_name(instruments(), CURVE, 0.4, config))
    assert len(x0) == {"free-c": 3, "fix-c": 2, "tie-ab": 1, "em-fit": 4}[case]
    u = x0 + np.random.default_rng(7).normal(0.0, 0.3, len(x0))
    assert_jacobian_matches_central_differences(fun, jac, u)


def extrapolated_grid_universe():
    # AAA and CCC lie outside the AA..B anchors, where the weights extrapolate
    bonds = []
    for rating in (1, 9, 18):
        params = GRID_TRUE.params_for_rating(rating)
        for T in (3.0, 10.0):
            k = kernels(CURVE, params, T)
            p = bond_model_price(BondSpec(coupon=0.04, tenor=T, price=100, recovery=0.4), k)
            bonds.append(BondSpec(coupon=0.04, tenor=T, price=p - 0.5, recovery=0.4,
                                  rating=rating))
    return bonds


GRID_CASES = {
    "free-c": (make_grid_universe, FitConfig()),
    "fix-c": (make_grid_universe, FitConfig(fix_c=0.1)),
    "em-fit": (lambda: with_sovereign(make_grid_universe()), FitConfig(em_mode="fit")),
    "extrapolated": (extrapolated_grid_universe, FitConfig()),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_jacobian_matches_central_differences(monkeypatch, case):
    instruments, config = GRID_CASES[case]
    fun, x0, jac = solver_problem(
        monkeypatch, lambda: fit_rating_grid(instruments(), CURVE, SCHED, config))
    assert len(x0) == {"free-c": 7, "fix-c": 6, "em-fit": 8, "extrapolated": 7}[case]
    u = x0 + np.random.default_rng(3).normal(0.0, 0.3, len(x0))
    assert_jacobian_matches_central_differences(fun, jac, u)


def test_fallback_point_has_zero_jacobian(monkeypatch):
    fun, x0, jac = solver_problem(
        monkeypatch, lambda: fit_single_name(make_bonds(), CURVE, 0.4, FitConfig()))
    far = np.array([1e3, 0.0, 0.0])          # a = e^1000 overflows
    assert np.all(fun(far) == ft.FALLBACK_DP)
    assert np.array_equal(jac(far), np.zeros((len(make_bonds()), 3)))

    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())
    # finite parameters whose residuals are not: (b - a)/c overflows
    huge = SurvivalParams(1e308, 0.05, 0.1)
    nan_dp = ft._CountedResiduals(side, lambda u: (huge, 0.0, {None: (huge, np.ones((4, 1)))}))
    with np.errstate(invalid="ignore"):
        dp, jac = nan_dp(np.zeros(1))
    assert np.all(dp == ft.FALLBACK_DP)
    assert np.array_equal(jac, np.zeros((len(make_bonds()), 1)))
    assert (nan_dp.evals, nan_dp.fallback_evals) == (1, 1)

    # finite residuals whose chain into u overflows
    steep_chain = np.full((4, 1), 1e308)
    steep = ft._CountedResiduals(side, lambda u: (TRUE, 0.0, {None: (TRUE, steep_chain)}))
    with np.errstate(over="ignore", invalid="ignore"):
        dp, jac = steep(np.zeros(1))
    assert np.all(dp == ft.FALLBACK_DP)
    assert np.array_equal(jac, np.zeros((len(make_bonds()), 1)))
    assert (steep.evals, steep.fallback_evals) == (1, 1)


def scaled_true_chart(u):
    # one coordinate, ln of a factor on both hazard levels of TRUE
    params = TRUE.scaled(math.exp(u[0]))
    chain = np.array([[params.a], [params.b], [0.0], [0.0]])
    return params, 0.0, {None: (params, chain)}


def test_jacobian_requests_get_their_own_arrays():
    # the solver rescales a Jacobian in place under a robust loss
    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())
    residuals = ft._CountedResiduals(side, scaled_true_chart)
    u = np.array([0.1])
    _, first = residuals(u)
    _, second = residuals(u)
    assert first is not second and np.array_equal(first, second)
    first *= 2.0
    assert np.array_equal(residuals(u)[1], second)
    assert residuals.evals == 3


def test_grid_fit_builds_each_rating_once_per_evaluation(monkeypatch):
    bonds = make_grid_universe()
    calls = []
    params_for_rating = RatingGrid.params_for_rating

    def counted(self, r):
        calls.append(r)
        return params_for_rating(self, r)

    monkeypatch.setattr(RatingGrid, "params_for_rating", counted)
    res = fit_rating_grid(bonds, CURVE, SCHED, FitConfig(multistart_count=2))
    groups = len({b.rating for b in bonds})
    # one chart per evaluation plus one at the fitted point; Jacobians reuse them
    assert len(calls) == groups * (res.diagnostics["evaluations"] + 1)


@pytest.mark.parametrize("grouped", [False, True])
def test_jet_residuals_are_bit_identical_to_the_plain_path(grouped):
    instruments = with_sovereign(make_grid_universe() + [
        CdsSpec(coupon=0.01, tenor=4.0, quote_type="upfront", quote=0.01, rating=9)])
    if not grouped:
        instruments = [i for i in instruments if i.rating == 9]
    side = ft._MarketSide(instruments, CURVE, SCHED, FitConfig(em_mode="fixed"),
                          group_by_rating=grouped)
    by_group = {key: GRID_TRUE.params_for_rating(key or 9).scaled(1.3) for key in side.groups}
    dp, _ = side.residuals({key: (p, np.eye(4)) for key, p in by_group.items()}, 0.4)
    expected = np.empty(len(instruments))
    for key, idx in side.groups.items():
        kg = side._readouts[key].kernel_grid(by_group[key])
        pi, xi, rhat, _ = kg.at_many()
        expected[idx] = _dp(pi, xi, rhat, 0.4 * side.sov[idx], *(q[idx] for q in side._quotes))
    assert np.array_equal(dp, expected)


def staggered_grid_universe():
    """Five ratings whose longest tenors differ (30y down to 5y), with a
    tenor on a grid node (7.25y), one on a short last step (4.3y) and a
    CDS, priced a little off the true grid."""
    tenors = {3: (2.0, 10.0, 30.0), 6: (1.5, 7.25, 15.0), 9: (3.0, 12.3),
              12: (0.5, 4.3, 8.0), 15: (1.0, 2.7, 5.0)}
    instruments = []
    for rating, ts in tenors.items():
        for i, T in enumerate(ts):
            cpn = 0.03 + 0.002 * rating
            k = kernels(CURVE, GRID_TRUE.params_for_rating(rating), T)
            rec = SCHED.recovery_for_rating(rating)
            p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=rec), k)
            instruments.append(BondSpec(coupon=cpn, tenor=T, price=p + 0.3 * (i - 1),
                                        recovery=rec, rating=rating))
    instruments.append(CdsSpec(coupon=0.01, tenor=4.0, quote_type="upfront", quote=0.01,
                               rating=9))
    return with_sovereign(instruments)


def test_grouped_price_gap_is_bit_identical_to_the_parent_formulation():
    instruments = staggered_grid_universe()
    config = FitConfig(em_mode="fixed")
    side = ft._MarketSide(instruments, CURVE, SCHED, config, group_by_rating=True)
    by_group = {r: GRID_TRUE.params_for_rating(r).scaled(1.3) for r in side.groups}
    dp, jac = side.residuals({r: (p, np.eye(4)) for r, p in by_group.items()}, 0.4)

    quotes = ft._quotes(instruments, CURVE, SCHED, config.grid_step)
    sov = np.array([i.sovereign_spread for i in instruments])
    expected, expected_jac = np.empty(len(instruments)), np.empty((len(instruments), 4))
    for r, idx in side.groups.items():
        pi, xi, rhat = parent_jet_kernels(CURVE, by_group[r], 30.0, side.tenors[idx],
                                          config.grid_step)
        rows = _dp(pi, xi, rhat, 0.4 * sov[idx], *(q[idx] for q in quotes))
        expected[idx] = rows[0]
        expected_jac[idx, :3] = rows[1:].T
        expected_jac[idx, 3] = -100.0 * sov[idx] * pi[0]
    assert np.array_equal(dp, expected)
    assert np.array_equal(jac, expected_jac)


STAGGERED = staggered_grid_universe()


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(len(STAGGERED))), alpha=st.floats(0.0, 1.0))
def test_price_gap_of_interleaved_ratings_is_the_per_group_parent_formulation(order, alpha):
    # ratings arrive interleaved, so the grouped layout is put back in instrument order
    instruments = [STAGGERED[i] for i in order]
    config = FitConfig(em_mode="fixed")
    side = ft._MarketSide(instruments, CURVE, SCHED, config, group_by_rating=True)
    by_group = {r: GRID_TRUE.params_for_rating(r).scaled(0.7 + 0.05 * r) for r in side.groups}
    dp, jac = side.residuals({r: (p, np.eye(4)) for r, p in by_group.items()}, alpha)

    quotes = ft._quotes(instruments, CURVE, SCHED, config.grid_step)
    sov = np.array([i.sovereign_spread for i in instruments])
    expected, expected_jac = np.empty(len(instruments)), np.empty((len(instruments), 4))
    groups = {r: np.array([j for j, inst in enumerate(instruments) if inst.rating == r])
              for r in sorted({inst.rating for inst in instruments})}
    for r, idx in groups.items():
        pi, xi, rhat = parent_jet_kernels(CURVE, by_group[r], 30.0, side.tenors[idx],
                                          config.grid_step)
        rows = parent_dp(pi, xi, rhat, alpha * sov[idx], *(q[idx] for q in quotes))
        expected[idx] = rows[0]
        expected_jac[idx, :3] = rows[1:].T
        expected_jac[idx, 3] = -100.0 * sov[idx] * pi[0]
    assert np.array_equal(dp, expected)
    assert np.array_equal(jac, expected_jac)

    # and the chain into the solver's coordinates, one group at a time
    chains = {r: np.random.default_rng(r).normal(size=(4, 7)) for r in groups}
    expected_du = np.empty((len(instruments), 7))
    for r, idx in groups.items():
        expected_du[idx] = jac[idx] @ chains[r]
    _, du = side.residuals({r: (by_group[r], chains[r]) for r in groups}, alpha)
    assert np.array_equal(du, expected_du)


def test_each_group_grid_ends_at_its_longest_tenor():
    side = ft._MarketSide(staggered_grid_universe(), CURVE, SCHED, FitConfig(),
                          group_by_rating=True)
    h = side.cache.h
    lengths = []
    for r, idx in side.groups.items():
        ro = side._readouts[r]
        longest = side.tenors[idx].max()
        # the last node at or before the longest tenor; the short step is read out
        assert ro.t[-1] <= longest + 1e-9 and longest - ro.t[-1] < h
        # a prefix of the shared grid, not a copy of it
        assert np.shares_memory(ro.B, side.cache.B)
        assert np.array_equal(ro.t, side.cache.t[:len(ro.t)])
        kg = ro.kernel_grid(GRID_TRUE.params_for_rating(r), jet=True)
        assert kg._Q.shape == (4, len(ro.t))
        lengths.append(len(ro.t))
    assert lengths == [361, 181, 148, 97, 61]


def test_jacobian_evals_count_every_solver_request(monkeypatch):
    nfev, njev = [], []
    solve = ft._trust_region

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        nfev.append(res.nfev)
        njev.append(res.njev)
        return res

    monkeypatch.setattr(ft, "_trust_region", counted)
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig())
    assert res.diagnostics["jacobian_evals"] == sum(njev) > 0
    # one residual call per solver point
    assert res.diagnostics["evaluations"] == sum(nfev)
    # each request came at the point just evaluated, so none cost an extra evaluation
    assert res.diagnostics["evaluations"] < 2 * res.diagnostics["jacobian_evals"]


# -- the trust-region solver ----------------------------------------------


def scipy_trust_region(fun, x0, loss, ftol, xtol, gtol, max_nfev):
    """The reference: scipy's trust-region reflective solver on the same problem."""
    from scipy.optimize import least_squares

    return least_squares(lambda x: fun(x)[0], x0, jac=lambda x: fun(x)[1], method="trf",
                         loss=lambda z: np.array(loss(z)),
                         ftol=ftol, xtol=xtol, gtol=gtol, max_nfev=max_nfev)


def grid_case_fit(case):
    instruments, config = GRID_CASES[case]
    return lambda: fit_rating_grid(instruments(), CURVE, SCHED, config)


SCIPY_CASES = {"colom": colom_fit, **{f"grid-{case}": grid_case_fit(case) for case in GRID_CASES}}


@pytest.mark.parametrize("case", sorted(SCIPY_CASES))
def test_trust_region_matches_scipy_least_squares(monkeypatch, case):
    ours = SCIPY_CASES[case]()
    monkeypatch.setattr(ft, "_trust_region", scipy_trust_region)
    theirs = SCIPY_CASES[case]()
    # free-c and em-fit are priced exactly off their grid: both objectives are
    # rounding noise (below 1e-19), where only an absolute floor means anything
    assert ours.objective == pytest.approx(theirs.objective, rel=1e-10, abs=1e-16)
    assert ours.diagnostics["status"] > 0 and theirs.diagnostics["status"] > 0
    assert ours.diagnostics["converged"] == theirs.diagnostics["converged"]


def lm_problem(rank_deficient=False):
    rng = np.random.default_rng(5)
    J, f = rng.normal(size=(6, 3)), rng.normal(size=6)
    if rank_deficient:
        J[:, 2] = J[:, 0]
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    return J, f, (*J.shape, U.T @ f, s, Vt.T)


def test_lm_step_takes_the_gauss_newton_step_inside_the_region():
    J, f, svd = lm_problem()
    gauss_newton = np.linalg.lstsq(J, -f, rcond=None)[0]
    p, alpha, n_iter = ft._lm_step(*svd, 2.0 * np.linalg.norm(gauss_newton), 0.0)
    assert (alpha, n_iter) == (0.0, 0)
    np.testing.assert_allclose(p, gauss_newton, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_lm_step_lands_on_the_boundary_outside_the_region(rank_deficient):
    J, f, svd = lm_problem(rank_deficient)
    Delta = 0.1 * np.linalg.norm(np.linalg.lstsq(J, -f, rcond=None)[0])
    p, alpha, n_iter = ft._lm_step(*svd, Delta, 0.0)
    assert n_iter > 0 and alpha > 0.0
    assert abs(np.linalg.norm(p) - Delta) <= 1e-12 * Delta
    # along the damped least-squares step (J^T J + alpha I) p = -J^T f
    damped = np.linalg.solve(J.T @ J + alpha * np.eye(3), -J.T @ f)
    np.testing.assert_allclose(p, damped * Delta / np.linalg.norm(damped), rtol=1e-10)


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def squared_loss(z):
    return z, np.ones_like(z), np.zeros_like(z)


def test_trust_region_stops_at_max_nfev_with_status_0():
    x0 = np.array([-1.2, 1.0])
    def fun(x):
        return rosenbrock(x), rosenbrock_jacobian(x)

    solved = ft._trust_region(fun, x0, squared_loss,
                              ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=1000)
    assert solved.status > 0 and np.allclose(solved.x, 1.0)
    stopped = ft._trust_region(fun, x0, squared_loss,
                               ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=4)
    assert (stopped.status, stopped.nfev) == (0, 4)
    assert solved.nfev > 4


def test_fallback_only_run_stops_with_zero_gradient():
    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())
    n = len(side.instruments)
    res = ft._trust_region(lambda u: (np.full(n, ft.FALLBACK_DP), np.zeros((n, 2))),
                           np.array([0.3, -0.2]), side.solver_loss,
                           ftol=ft.EPS, xtol=1e-10, gtol=ft.GTOL, max_nfev=100)
    assert (res.status, res.nfev, res.njev) == (1, 1, 1)
    assert np.max(np.abs(res.grad)) == 0.0
    assert np.array_equal(res.x, [0.3, -0.2])
