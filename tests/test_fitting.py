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
from creditcurve.valuation import BondSpec, CdsSpec, bond_model_price, kernels

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
    dp = ft._MarketSide.dp

    def counted(self, *args):
        calls.append(1)
        return dp(self, *args)

    monkeypatch.setattr(ft._MarketSide, "dp", counted)
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(fix_c=0.1))
    # finite-difference Jacobian columns included
    assert res.diagnostics["evaluations"] == len(calls)


def test_fallback_evaluations_are_counted():
    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())

    def unpack(u):
        if u[0] > 0:
            raise OverflowError
        return TRUE, 0.0

    residuals = ft._CountedResiduals(side, unpack, lambda params: {None: params})
    assert np.all(residuals(np.array([1.0])) == ft.FALLBACK_DP)
    assert np.all(np.abs(residuals(np.array([-1.0]))) < 1e-10)
    assert (residuals.evals, residuals.fallback_evals) == (2, 1)


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
