import dataclasses
import datetime as dt
from collections import Counter
import functools
import math
import pickle
import sys
import tempfile
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
    robust_loss,
)
from creditcurve.survival import C_BOUNDS, RatingGrid, RecoverySchedule, SurvivalParams
from creditcurve.universe import load_universe
from creditcurve.valuation import (
    DEFAULT_GRID_STEP,
    BondSpec,
    CdsSpec,
    KernelGrid,
    _dp,
    bond_model_price,
    kernels,
)
from kernel_reference import (
    assert_kernels_close,
    linear_map_kernels,
    parent_dp,
    parent_jet_kernels,
)

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
    r0 = price_residual(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=0.0)
    r1 = price_residual(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=1.0)
    r_half = price_residual(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=0.5)
    assert r0 == pytest.approx(base, abs=1e-14)
    assert r_half == pytest.approx((r0 + r1) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        price_residual(inst, TRUE, CURVE, 0.4, sov_spread=0.02, alpha=1.5)


def test_residual_em_alpha_one_absorbs_gap():
    # a bond trading wide of the curve by exactly the sovereign spread
    # has zero residual at alpha = 1
    inst = make_bonds()[5]
    k = kernels(CURVE, TRUE, inst.tenor)
    s_sov = 0.013
    wide = BondSpec(coupon=inst.coupon, tenor=inst.tenor,
                    price=inst.price - 100 * s_sov * k.pi, recovery=0.4)
    assert price_residual(wide, TRUE, CURVE, 0.4, sov_spread=s_sov, alpha=1.0) == \
        pytest.approx(0.0, abs=1e-9)


# -- weights -----------------------------------------------------------


@pytest.mark.parametrize("mode", ["issue_size", "equal", "issue_size_duration"])
def test_weights_by_mode_have_mean_one(mode):
    bonds = [dataclasses.replace(b, issue_size=size)
             for b, size in zip(make_bonds(), (500, 1000, 250, 2000, 750, 1500, 100, 900))]
    sizes = np.array([b.issue_size for b in bonds], dtype=float)
    raw = {"issue_size": sizes, "equal": np.ones(len(bonds)),
           "issue_size_duration": sizes * np.array([b.tenor for b in bonds])}[mode]
    w = ft._weights(bonds, mode)
    np.testing.assert_allclose(w, raw / raw.mean(), rtol=1e-14)
    assert w.mean() == pytest.approx(1.0, rel=1e-14)


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


def solved(monkeypatch, fit):
    """A fit and the solver's result at its winning start."""
    runs = []
    solve = ft._trust_region

    def kept(*args, **kwargs):
        runs.append(solve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ft, "_trust_region", kept)
    res = fit()
    return res, next(run for run in runs if tuple(float(r) for r in run.fun) == res.residuals)


def assert_kkt_at_the_active_bounds(res, best):
    """at_bound is the solver's active set, and at each active bound the
    objective's derivative points out of the box: >= 0 at a lower bound,
    <= 0 at an upper one."""
    assert len(res.diagnostics["at_bound"]) == np.count_nonzero(best.active)
    assert np.all(best.grad[best.active == -1] >= 0.0)
    assert np.all(best.grad[best.active == 1] <= 0.0)
    assert res.diagnostics["converged"]
    assert res.diagnostics["grad_norm"] <= ft.STATIONARY_GRAD * (1.0 + res.objective)


def test_colom_reports_c_at_its_lower_bound(monkeypatch):
    res, best = solved(monkeypatch, colom_fit)
    assert res.diagnostics["at_bound"] == ("c",)
    assert best.active.tolist() == [0, 0, -1]
    # strictly inside the box, within the active set's tolerance of the edge
    assert 0.0 < res.params.c - C_BOUNDS[0] <= ft.XTOL
    assert_kkt_at_the_active_bounds(res, best)


def test_at_bound_names_free_parameters_at_an_edge(monkeypatch):
    # (a free coordinate, an increment >= 0, c, alpha)
    lb = np.array([-np.inf, 0.0, C_BOUNDS[0], 0.0])
    ub = np.array([np.inf, np.inf, C_BOUNDS[1], 1.0])
    on_edges = np.array([-40.0, 1e-12, np.nextafter(C_BOUNDS[1], 0.0), 1e-11])
    assert ft._active(on_edges, lb, ub, ft.XTOL).tolist() == [0, -1, 1, -1]
    inside = np.array([40.0, 1e-9, C_BOUNDS[0] + 1e-6, 0.5])
    assert ft._active(inside, lb, ub, ft.XTOL).tolist() == [0, 0, 0, 0]
    # the fits name the active coordinates: alpha is 0 on an EM grid priced without it
    res, best = solved(monkeypatch, grid_case_fit("em-fit"))
    assert best.active.tolist() == [0, 0, 0, 0, 0, 0, 0, -1]
    assert res.diagnostics["at_bound"] == ("alpha",)
    assert_kkt_at_the_active_bounds(res, best)


def test_converged_reads_the_projected_gradient():
    # a component that pushes an active bound outward does not count
    res = ft._TrustRegionResult(x=np.zeros(4), fun=np.zeros(1),
                                grad=np.array([1e-3, 2.0, -3.0, 0.5]),
                                active=np.array([0, -1, 1, 1]), status=1, nfev=1, njev=1)
    assert ft._projected_grad_norm(res) == 0.5
    assert ft._projected_grad_norm(res._replace(active=np.zeros(4, dtype=int))) == 3.0
    # pointing into the box, the component counts
    assert ft._projected_grad_norm(res._replace(grad=np.array([0.0, -2.0, 3.0, 0.5]))) == 3.0


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
    assert 1 <= len(per_start) <= FitConfig().multistart_count
    assert colom_half.diagnostics["n_starts"] == len(per_start)
    assert min(per_start) == colom_half.objective


# -- early stop of the multistart -----------------------------------------


def test_colom_stops_once_two_stationary_starts_agree(colom_half):
    per_start = colom_half.diagnostics["objective_per_start"]
    assert len(per_start) == 2
    assert abs(per_start[1] - per_start[0]) <= ft.START_AGREEMENT_RTOL * min(per_start)


def test_starts_that_are_not_stationary_never_agree(monkeypatch):
    # every start stops at MAX_NFEV (status 0), so all of them run
    with monkeypatch.context() as patch:
        patch.setattr(ft, "MAX_NFEV", 3)
        res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig())
    assert res.diagnostics["n_starts"] == FitConfig().multistart_count
    assert res.diagnostics["status"] == 0 and res.diagnostics["converged"] is False
    # colom's starts agree to 1e-9; reported as stopped at the evaluation
    # limit, they never count as agreement however close their objectives are
    solve = ft._trust_region
    monkeypatch.setattr(ft, "_trust_region",
                        lambda *args, **kw: solve(*args, **kw)._replace(status=0))
    per_start = colom_fit().diagnostics["objective_per_start"]
    assert len(per_start) == FitConfig().multistart_count
    assert max(per_start) - min(per_start) <= ft.START_AGREEMENT_RTOL * min(per_start)


@pytest.mark.parametrize("fit", ["colom", "grid-fix-c"])
def test_early_stop_runs_the_same_starts(monkeypatch, fit):
    # the jitters are drawn up front: the starts that ran are the first
    # starts of a run without the early stop, bit for bit
    run = colom_fit if fit == "colom" else grid_case_fit("fix-c")
    stopped = run().diagnostics
    monkeypatch.setattr(ft, "START_AGREEMENT_RTOL", -1.0)
    every = run().diagnostics
    n = stopped["n_starts"]
    assert n < every["n_starts"] == FitConfig().multistart_count
    assert stopped["objective_per_start"] == every["objective_per_start"][:n]
    assert stopped["evaluations"] < every["evaluations"]


def perfbench_gen():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root))
    try:
        from perfbench import gen
    finally:
        sys.path.remove(str(root))
    return gen


def load_snapshot(root: Path, meta: dict, recovery: str | None = None):
    """A generated snapshot, at its manifest's recovery unless ``recovery``
    (``schedule`` or ``fixed:R``) is given."""
    mode, _, fixed = (recovery or meta["recovery"]).partition(":")
    d = root / meta["name"]
    return load_universe(d / "riskfree.csv", d / "bonds.csv",
                         d / "cds.csv" if (d / "cds.csv").exists() else None,
                         as_of=dt.date.fromisoformat(meta["as_of"]), recovery_mode=mode,
                         recovery_fixed=float(fixed or 0.4))


def test_early_stop_keeps_the_lower_local_minimum(tmp_path):
    # a perfbench issuer snapshot where two of the five starts end at a
    # local minimum (8.08958); the early stop still finds the lower one
    pool = perfbench_gen()._issuer_pool(np.random.default_rng([1003, 7]), tmp_path)
    meta = next(snap for snap in pool if snap["name"] == "issuer_02")
    snap = load_snapshot(tmp_path, meta)
    res = fit_single_name(snap.instruments, snap.riskfree, None, FitConfig())
    assert res.diagnostics["converged"]
    assert res.objective == pytest.approx(8.07864, abs=1e-5)


@pytest.mark.parametrize("fit", ["single-name", "grid"])
def test_rounding_level_objectives_stop_after_two_starts(monkeypatch, fit):
    # priced exactly off the curve, every start ends at an objective of
    # 1e-28 .. 1e-25, whose relative gaps are rounding noise; the floor
    # lets two such starts agree
    def run():
        if fit == "single-name":
            return fit_single_name(make_bonds(), CURVE, 0.4, FitConfig())
        return fit_rating_grid(make_grid_universe(), CURVE, None, FitConfig())

    stopped = run().diagnostics
    assert stopped["n_starts"] == 2 and stopped["converged"]
    assert max(stopped["objective_per_start"]) < ft.START_AGREEMENT_FLOOR
    assert stopped["evaluations"] == {"single-name": 28, "grid": 35}[fit]
    monkeypatch.setattr(ft, "START_AGREEMENT_FLOOR", 0.0)
    every = run().diagnostics
    assert every["n_starts"] == FitConfig().multistart_count
    assert every["objective_per_start"][:2] == stopped["objective_per_start"]


def test_fit_bit_identical_diagnostics(colom_half):
    again = colom_fit()
    assert again.params == colom_half.params
    assert again.diagnostics == colom_half.diagnostics


def test_no_fallback_evaluations_on_colom_and_grid(colom_half):
    assert colom_half.diagnostics["fallback_evals"] == 0
    grid = fit_rating_grid(make_grid_universe(), CURVE, None, FitConfig())
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


def levels(params):
    """The chart's hazard levels a and b, one per group, and the shared c,
    from one SurvivalParams per group in group order."""
    params = list(params)
    (c,) = {p.c for p in params}
    return np.array([p.a for p in params]), np.array([p.b for p in params]), c


def test_fallback_evaluations_are_counted():
    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())

    def chart(u):
        if u[0] > 0:
            raise OverflowError
        return *levels([TRUE]), 0.0, np.zeros((1, 4, 1))

    residuals = ft._CountedResiduals(side, chart)
    assert np.all(residuals(np.array([1.0]))[0] == ft.FALLBACK_DP)
    assert np.all(np.abs(residuals(np.array([-1.0]))[0]) < 1e-10)
    assert (residuals.evals, residuals.fallback_evals) == (2, 1)


def test_fit_at_a_fallback_point_is_not_converged(tmp_path, monkeypatch):
    # every evaluation falls back: the residuals are constant, so the
    # gradient is exactly 0 and the solver stops at once
    def overflow(self, *chart):
        raise OverflowError("math range error")

    monkeypatch.setattr(ft._MarketSide, "residuals", overflow)
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig(multistart_count=3))
    assert res.diagnostics["fallback_evals"] == res.diagnostics["evaluations"] > 0
    assert res.diagnostics["grad_norm"] == 0.0
    assert res.diagnostics["converged"] is False
    # the starts end at the same objective, but fallback points never agree
    assert res.diagnostics["objective_per_start"] == (res.objective,) * 3

    result = CliRunner().invoke(cli.main, [
        "fit", "--riskfree", str(COLOM / "riskfree.csv"), "--bonds", str(COLOM / "bonds.csv"),
        "--config", str(COLOM / "config.txt"), "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "did not converge" in result.output


def test_max_iter_too_small_is_not_converged(tmp_path, monkeypatch):
    monkeypatch.setattr(ft, "MAX_NFEV", 3)
    res = fit_single_name(make_bonds(), CURVE, 0.4, FitConfig())
    assert not res.diagnostics["converged"]
    assert res.diagnostics["status"] == 0

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
        FitConfig(em_mode="maybe")
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="fix_c must be finite"):
            FitConfig(fix_c=x)
        with pytest.raises(ValueError, match="multistart_count must be finite and >= 1"):
            FitConfig(multistart_count=x)
    for x in (2.5, 3.0):
        with pytest.raises(ValueError, match="multistart_count must be an integer"):
            FitConfig(multistart_count=x)
    assert FitConfig(multistart_count=np.int64(2)).multistart_count == 2
    for seed in (-1, 1.5, 2.0, "3"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            FitConfig(seed=seed)
    assert FitConfig(seed=np.int64(7)).seed == 7


@pytest.mark.parametrize("name", ["multistart_count", "seed"])
def test_integer_settings_reject_bool(name):
    # multistart_count=True ran one start, and seed=True went into the diagnostics
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"{name} must be"):
            FitConfig(**{name: flag})


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
    return fit_rating_grid(make_grid_universe(), CURVE, None,
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
    res = fit_rating_grid(bonds, CURVE, None, FitConfig())
    assert res.diagnostics["underdetermined"]
    assert res.diagnostics["degenerate_single_rating"] == 9
    single = fit_single_name(bonds, CURVE, None, FitConfig())
    bbb = res.params.params_for_rating(9)
    assert bbb.a == pytest.approx(single.params.a, rel=1e-9)
    assert bbb.b == pytest.approx(single.params.b, rel=1e-9)


def test_grid_requires_ratings():
    bonds = make_bonds()
    with pytest.raises(ValueError, match="rating"):
        fit_rating_grid(bonds, CURVE, None, FitConfig())


def test_grid_em_alpha_recovery():
    sov = lambda T: 0.015 + 0.001 * min(T, 10.0)
    bonds = make_grid_universe(alpha=0.45, sov=sov)
    res = fit_rating_grid(bonds, CURVE, None,
                          FitConfig(em_mode="fit", multistart_count=2))
    assert res.alpha == pytest.approx(0.45, abs=0.05)
    assert res.diagnostics["converged"]


def test_grid_em_needs_sovereign_spreads():
    bonds = make_grid_universe()
    with pytest.raises(ValueError, match="sovereign"):
        fit_rating_grid(bonds, CURVE, None, FitConfig(em_mode="fit"))


def test_grid_deterministic(grid_fit):
    again = fit_rating_grid(make_grid_universe(), CURVE, None,
                            FitConfig(multistart_count=3, seed=4))
    assert grid_fit.params == again.params
    assert grid_fit.residuals == again.residuals


# -- model constraints as solver bounds -------------------------------------


def generated(workload, name, recovery=None):
    """A snapshot of a perfbench workload's seed-1 pool, loaded."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = perfbench_gen().generate(workload, 1, Path(tmp))
        meta = next(snap for snap in manifest["snapshots"] if snap["name"] == name)
        return load_snapshot(Path(tmp), meta, recovery)


def desk_02_fit():
    # 36 bonds and 12 CDS over ratings 3..12, at a fixed recovery of 0.4
    snap = generated("desk_cold", "desk_02", "fixed:0.4")
    return fit_rating_grid(snap.instruments, snap.riskfree, None, FitConfig())


def sector_key_fit(key):
    """The sector-pool snapshot drawn from a fresh generator key, fitted as a grid."""
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            pool = perfbench_gen()._sector_pool(np.random.default_rng([1000 + key, 7]),
                                                Path(tmp))
            snap = load_snapshot(Path(tmp), pool[0])
        return fit_rating_grid(snap.instruments, snap.riskfree, None, FitConfig())
    return run


def coinciding_anchors_fit():
    """A grid priced exactly off GRID_TRUE, except that AA and A are
    priced off BBB's curve with both hazard levels 10% higher."""
    bonds = []
    for rating in (3, 6, 9, 12, 15):
        params = GRID_TRUE.params_for_rating(max(rating, 9))
        if rating < 9:
            params = params.scaled(1.1)
        for T in (2.0, 5.0, 10.0, 20.0):
            cpn = 0.03 + 0.002 * rating
            rec = SCHED.recovery_for_rating(rating)
            k = kernels(CURVE, params, T)
            p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=rec), k)
            bonds.append(BondSpec(coupon=cpn, tenor=T, price=p, recovery=rec, rating=rating))
    return fit_rating_grid(bonds, CURVE, None, FitConfig())


@pytest.mark.parametrize("key, edge", [(16, 0), (23, 1)])
def test_c_pinned_at_an_edge_converges(monkeypatch, key, edge):
    # fresh sector keys whose c pins at the lower (16) and upper (23) edge of
    # C_BOUNDS; the logistic chart spent every start's 20000 evaluations there
    res, best = solved(monkeypatch, sector_key_fit(key))
    assert res.diagnostics["at_bound"] == ("c",)
    assert res.diagnostics["status"] > 0 and res.diagnostics["n_starts"] == 2
    assert abs(res.params.c - C_BOUNDS[edge]) <= ft.XTOL
    assert_kkt_at_the_active_bounds(res, best)


def test_coinciding_anchors_leave_their_increments_at_zero(monkeypatch):
    # priced riskier than BBB, AA's anchors coincide with BBB's
    res, best = solved(monkeypatch, coinciding_anchors_fit)
    assert res.diagnostics["at_bound"] == ("d_a1", "d_b1")
    grid = res.params
    assert grid.anchors_a[0] == pytest.approx(grid.anchors_a[1], rel=ft.XTOL)
    assert grid.anchors_b[0] == pytest.approx(grid.anchors_b[1], rel=ft.XTOL)
    assert_kkt_at_the_active_bounds(res, best)


def test_desk_02_grid_converges_with_coinciding_anchors(monkeypatch):
    # a_AA = a_BBB and b_AA = b_BBB = b_B: the softplus chart ran every start
    # to MAX_NFEV along the increments' flat direction
    res, best = solved(monkeypatch, desk_02_fit)
    assert res.diagnostics["at_bound"] == ("d_a1", "d_b1", "d_b2")
    assert res.diagnostics["n_starts"] == 2 and res.diagnostics["status"] > 0
    assert res.objective == pytest.approx(30.3803103, abs=1e-6)
    assert_kkt_at_the_active_bounds(res, best)


def test_fit_grid_exits_0_on_desk_02(tmp_path):
    manifest = perfbench_gen().generate("desk_cold", 1, tmp_path)
    meta = next(snap for snap in manifest["snapshots"] if snap["name"] == "desk_02")
    d = tmp_path / "desk_02"
    result = CliRunner().invoke(cli.main, [
        "fit-grid", "--riskfree", str(d / "riskfree.csv"), "--bonds", str(d / "bonds.csv"),
        "--cds", str(d / "cds.csv"), "--as-of", meta["as_of"], "--recovery", "fixed:0.4",
        "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert "converged,true" in (tmp_path / "out" / "fit_params.csv").read_text()


def test_duration_weighted_squared_loss_sector_fit_stops_after_two_starts():
    # c pins at its lower edge; the logistic chart's five starts ended up to
    # 2e-8 apart and ran 11373 evaluations
    snap = generated("sector_grid", "sector_00")
    res = fit_rating_grid(snap.instruments, snap.riskfree, None,
                          FitConfig(weight_mode="issue_size_duration", loss="squared"))
    assert res.diagnostics["n_starts"] == 2 and res.diagnostics["converged"]
    assert res.diagnostics["at_bound"] == ("c",)
    assert res.diagnostics["evaluations"] < 200


def test_rating_interleaved_rows_fit_as_the_sorted_grid():
    # perfbench lists a sector's bonds rating by rating, so there the grouped
    # layout's put-back (_MarketSide._back) is the identity; here it is not.
    # Row order moves the weights' sum and the groups' row order at rounding
    # level, and that can move a hazard level heading to 0 by orders of
    # magnitude at an equal objective (ROADMAP item 18c), so parameters are
    # not compared.
    snap = generated("sector_grid", "sector_00")
    rows = list(snap.instruments)
    ratings = [i.effective_rating for i in rows]
    assert ratings == sorted(ratings)
    base = fit_rating_grid(rows, snap.riskfree, None, FitConfig())
    for seed in (1, 2, 3):
        order = np.random.default_rng(seed).permutation(len(rows))
        shuffled = [rows[i] for i in order]
        assert [i.effective_rating for i in shuffled] != sorted(ratings)
        fit = fit_rating_grid(shuffled, snap.riskfree, None, FitConfig())
        assert fit.objective == pytest.approx(base.objective, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(fit.residuals, np.take(base.residuals, order),
                                   rtol=0.0, atol=1e-6)


def test_every_start_lies_strictly_inside_the_box(monkeypatch):
    starts = []
    solve = ft._trust_region

    def kept(fun, x0, lb, ub, *args, **kwargs):
        starts.append((x0, lb, ub))
        return solve(fun, x0, lb, ub, *args, **kwargs)

    # every seeded start of an EM grid fit, with the early stop off
    monkeypatch.setattr(ft, "_trust_region", kept)
    monkeypatch.setattr(ft, "START_AGREEMENT_RTOL", -1.0)
    grid_case_fit("em-fit")()
    assert len(starts) == FitConfig().multistart_count
    for x0, lb, ub in starts:
        assert np.all((lb < x0) & (x0 < ub))
    # the logistic chart's first start, mapped once: increments ln(1 + e^-1),
    # c mid-box and alpha 1/2
    lo, hi = C_BOUNDS
    assert starts[0][0][[1, 2, 4, 5, 6, 7]].tolist() == (
        [math.log1p(math.exp(-1.0))] * 4 + [lo + (hi - lo) * 0.5, 0.5])

    # draws far wider than the fits' jitters, and ones the maps round onto an edge
    _, lb, ub = starts[0]
    draws = np.random.default_rng(11).normal(0.0, 8.0, (2000, len(lb)))
    draws[0] = [0.0, 40.0, -800.0, 0.0, 1e3, 50.0, 40.0, -40.0]
    for u in draws:
        x = ft._start(u, lb, ub)
        assert np.all((lb < x) & (x < ub))


@pytest.fixture(scope="module")
def fits():
    """One fit of each kind."""
    sov = lambda T: 0.015 + 0.001 * min(T, 10.0)
    return {
        "single-name": fit_single_name(make_bonds(), CURVE, 0.4, FitConfig()),
        "grid": fit_rating_grid(make_grid_universe(), CURVE, None, FitConfig()),
        "degenerate-grid": fit_rating_grid([b for b in make_grid_universe() if b.rating == 9],
                                           CURVE, None, FitConfig()),
        "em": fit_rating_grid(make_grid_universe(alpha=0.45, sov=sov), CURVE, None,
                              FitConfig(em_mode="fit", multistart_count=2)),
    }


def test_pickles_hold_fields_only(fits):
    grid = fits["grid"].params
    before = pickle.dumps(grid)
    grid.params_for_rating(9)
    assert pickle.dumps(grid) == before
    for res in fits.values():
        assert pickle.loads(pickle.dumps(res)) == res


def test_diagnostics_have_one_schema(fits):
    keys = [list(res.diagnostics) for res in fits.values()]
    assert all(k == keys[0] for k in keys)
    assert keys[0] == ["evaluations", "jacobian_evals", "fallback_evals", "converged", "status",
                       "grad_norm", "objective_per_start", "n_starts", "descent",
                       "underdetermined", "tie_ab", "fix_c", "degenerate_single_rating",
                       "seed", "at_bound"]
    assert fits["grid"].diagnostics["tie_ab"] is None
    assert fits["single-name"].diagnostics["tie_ab"] is False
    assert fits["grid"].diagnostics["degenerate_single_rating"] is None
    assert fits["degenerate-grid"].diagnostics["degenerate_single_rating"] == 9


# -- analytic Jacobian ------------------------------------------------------


class _Captured(Exception):
    pass


def solver_problem(monkeypatch, fit):
    """The residual function, start, Jacobian and box a fit hands the solver."""
    seen = []

    def spy(fun, x0, lb, ub, *args, **kwargs):
        seen.append((lambda u: fun(u)[0], np.asarray(x0, dtype=float), lambda u: fun(u)[1],
                     lb, ub))
        raise _Captured

    monkeypatch.setattr(ft, "_trust_region", spy)
    with pytest.raises(_Captured):
        fit()
    return seen[0]


def jittered(x0, lb, ub, seed):
    """x0 moved by a seeded jitter: a normal step of size 0.3 where the
    coordinate is free, else up to half the way to the nearer bound."""
    rng = np.random.default_rng(seed)
    room = np.minimum(x0 - lb, ub - x0)
    step = rng.normal(0.0, 0.3, len(x0))
    return x0 + np.where(np.isfinite(room), 0.5 * room * np.tanh(step), step)


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
    fun, x0, jac, lb, ub = solver_problem(
        monkeypatch, lambda: fit_single_name(instruments(), CURVE, 0.4, config))
    assert len(x0) == {"free-c": 3, "fix-c": 2, "tie-ab": 1, "em-fit": 4}[case]
    u = jittered(x0, lb, ub, 7)
    assert_jacobian_matches_central_differences(fun, jac, u)


def extrapolated_grid_universe():
    # AAA and CCC lie outside the AA..B anchors, where the weights extrapolate
    bonds = []
    for rating in (1, 9, 18):
        params = GRID_TRUE.params_for_rating(rating)
        for T in (3.0, 10.0):
            k = kernels(CURVE, params, T)
            p = bond_model_price(BondSpec(coupon=0.04, tenor=T, price=100, recovery=0.4), k)
            bonds.append(BondSpec(coupon=0.04, tenor=T, price=p - 0.5,
                                  recovery=SCHED.recovery_for_rating(rating), rating=rating))
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
    fun, x0, jac, lb, ub = solver_problem(
        monkeypatch, lambda: fit_rating_grid(instruments(), CURVE, None, config))
    assert len(x0) == {"free-c": 7, "fix-c": 6, "em-fit": 8, "extrapolated": 7}[case]
    u = jittered(x0, lb, ub, 3)
    assert_jacobian_matches_central_differences(fun, jac, u)


def test_fallback_point_has_zero_jacobian(monkeypatch):
    fun, x0, jac, _, _ = solver_problem(
        monkeypatch, lambda: fit_single_name(make_bonds(), CURVE, 0.4, FitConfig()))
    far = np.array([1e3, 0.0, 0.1])          # a = e^1000 overflows
    assert np.all(fun(far) == ft.FALLBACK_DP)
    assert np.array_equal(jac(far), np.zeros((len(make_bonds()), 3)))

    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())
    # finite parameters whose residuals are not: (b - a)/c overflows
    huge = SurvivalParams(1e308, 0.05, 0.1)
    nan_dp = ft._CountedResiduals(side, lambda u: (*levels([huge]), 0.0, np.ones((1, 4, 1))))
    with np.errstate(invalid="ignore"):
        dp, jac = nan_dp(np.zeros(1))
    assert np.all(dp == ft.FALLBACK_DP)
    assert np.array_equal(jac, np.zeros((len(make_bonds()), 1)))
    assert (nan_dp.evals, nan_dp.fallback_evals) == (1, 1)

    # finite residuals whose chain into u overflows
    steep_chain = np.full((1, 4, 1), 1e308)
    steep = ft._CountedResiduals(side, lambda u: (*levels([TRUE]), 0.0, steep_chain))
    with np.errstate(over="ignore", invalid="ignore"):
        dp, jac = steep(np.zeros(1))
    assert np.all(dp == ft.FALLBACK_DP)
    assert np.array_equal(jac, np.zeros((len(make_bonds()), 1)))
    assert (steep.evals, steep.fallback_evals) == (1, 1)


def scaled_true_chart(u):
    # one coordinate, ln of a factor on both hazard levels of TRUE
    params = TRUE.scaled(math.exp(u[0]))
    chain = np.array([[[params.a], [params.b], [0.0], [0.0]]])
    return *levels([params]), 0.0, chain


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


def counted_calls(monkeypatch, cls, name):
    """The calls of ``cls.name`` from here on, one entry each."""
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("grid", [False, True])
def test_a_fit_builds_its_curve_objects_once(monkeypatch, grid):
    # the chart gives arrays; the fitted curve is built once, for the result
    instruments = make_grid_universe() if grid else make_bonds()
    by_rating = counted_calls(monkeypatch, RatingGrid, "params_for_rating")
    grids = counted_calls(monkeypatch, RatingGrid, "__post_init__")
    survival_params = counted_calls(monkeypatch, SurvivalParams, "__post_init__")
    fit = fit_rating_grid if grid else fit_single_name
    res = fit(instruments, CURVE, 0.4, FitConfig(multistart_count=2))
    assert res.diagnostics["evaluations"] > 2
    assert len(by_rating) == 0
    assert (len(grids), len(survival_params)) == ((1, 0) if grid else (0, 1))


@functools.cache
def extrapolating_grid_chart():
    """The chart and params_of a grid fit hands _solve, and its group
    ratings, on ratings where the interpolation extrapolates (1, 2, 16, 17,
    18) and one inside the anchors (9)."""
    seen = []

    def spy(side, chart, params_of, *args, **kwargs):
        seen.append((chart, params_of, list(side.groups)))
        raise _Captured

    bonds = [BondSpec(coupon=0.04, tenor=T, price=100.0, recovery=0.4, rating=r)
             for r in (1, 2, 9, 16, 17, 18) for T in (3.0, 10.0)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ft, "_solve", spy)
        with pytest.raises(_Captured):
            fit_rating_grid(bonds, CURVE, None, FitConfig())
    return seen[0]


INCREMENT = st.floats(0.0, 3.0)


@settings(max_examples=30, deadline=None)
@given(x=st.tuples(st.floats(-12.0, -1.0), INCREMENT, INCREMENT,
                   st.floats(-10.0, -1.0), INCREMENT, INCREMENT, st.floats(*C_BOUNDS)))
def test_chart_levels_are_the_fitted_curves(x):
    # the levels a fit prices with are those fit_report.csv writes through
    # params_for_rating, bit for bit
    chart, params_of, ratings = extrapolating_grid_chart()
    x = np.array(x)
    a, b, c, _, _ = chart(x)
    grid = params_of(x)
    assert ratings == [1, 2, 9, 16, 17, 18]
    for g, r in enumerate(ratings):
        p = grid.params_for_rating(r)
        assert (a[g], b[g], c) == (p.a, p.b, p.c)


@pytest.mark.parametrize("grouped", [False, True])
def test_jet_residuals_are_bit_identical_to_the_plain_path(grouped):
    instruments = with_sovereign(make_grid_universe() + [
        CdsSpec(coupon=0.01, tenor=4.0, quote_type="upfront", quote=0.01, rating=9,
                model_recovery=SCHED.recovery_for_rating(9))])
    if not grouped:
        instruments = [i for i in instruments if i.rating == 9]
    side = ft._MarketSide(instruments, CURVE, None, FitConfig(em_mode="fixed"),
                          group_by_rating=grouped)
    by_group = {key: GRID_TRUE.params_for_rating(key or 9).scaled(1.3) for key in side.groups}
    dp, _ = side.residuals(*levels(by_group.values()), 0.4,
                           np.stack([np.eye(4)] * len(by_group)))
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
                               rating=9, model_recovery=SCHED.recovery_for_rating(9)))
    return with_sovereign(instruments)


def test_grouped_price_gap_is_bit_identical_to_the_parent_formulation():
    instruments = staggered_grid_universe()
    config = FitConfig(em_mode="fixed")
    side = ft._MarketSide(instruments, CURVE, None, config, group_by_rating=True)
    by_group = {r: GRID_TRUE.params_for_rating(r).scaled(1.3) for r in side.groups}
    dp, jac = side.residuals(*levels(by_group.values()), 0.4,
                             np.stack([np.eye(4)] * len(by_group)))

    quotes = ft._quotes(instruments, CURVE, None)
    sov = np.array([i.sovereign_spread for i in instruments])
    expected, expected_jac = np.empty(len(instruments)), np.empty((len(instruments), 4))
    for r, idx in side.groups.items():
        # each group's read-out stops at its own longest tenor, the parent's grid at 30y
        pi, xi, rhat, _ = linear_map_kernels(CURVE, by_group[r], side.tenors[idx],
                                             DEFAULT_GRID_STEP, jet=True)
        assert_kernels_close((pi, xi, rhat), parent_jet_kernels(
            CURVE, by_group[r], 30.0, side.tenors[idx], DEFAULT_GRID_STEP))
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
    side = ft._MarketSide(instruments, CURVE, None, config, group_by_rating=True)
    by_group = {r: GRID_TRUE.params_for_rating(r).scaled(0.7 + 0.05 * r) for r in side.groups}
    dp, jac = side.residuals(*levels(by_group.values()), alpha,
                             np.stack([np.eye(4)] * len(by_group)))

    quotes = ft._quotes(instruments, CURVE, None)
    sov = np.array([i.sovereign_spread for i in instruments])
    expected, expected_jac = np.empty(len(instruments)), np.empty((len(instruments), 4))
    groups = {r: np.array([j for j, inst in enumerate(instruments) if inst.rating == r])
              for r in sorted({inst.rating for inst in instruments})}
    for r, idx in groups.items():
        pi, xi, rhat, _ = linear_map_kernels(CURVE, by_group[r], side.tenors[idx],
                                             DEFAULT_GRID_STEP, jet=True)
        assert_kernels_close((pi, xi, rhat), parent_jet_kernels(
            CURVE, by_group[r], 30.0, side.tenors[idx], DEFAULT_GRID_STEP))
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
    _, du = side.residuals(*levels(by_group.values()), alpha,
                           np.stack([chains[r] for r in groups]))
    assert np.array_equal(du, expected_du)


HAZARD_LEVEL = st.floats(1e-4, 0.3)


@settings(max_examples=25, deadline=None)
@given(ab=st.lists(st.tuples(HAZARD_LEVEL, HAZARD_LEVEL), min_size=5, max_size=5),
       c=st.floats(*C_BOUNDS))
def test_one_jet_call_is_each_groups_own_jet(ab, c):
    # the fit's one jet call over every group's points is each group's own
    # jet, bit for bit, and a grid built from its slice is one that
    # evaluates its own
    side = ft._MarketSide(STAGGERED, CURVE, None, FitConfig(), group_by_rating=True)
    params = {r: SurvivalParams(a, b, c) for r, (a, b) in zip(side.groups, ab)}
    jet = side.jet(*levels(params.values()))
    assert jet.shape == (4, sum(len(ro.points) for ro in side._readouts.values()))
    for r, p in params.items():
        ro = side._readouts[r]
        own = jet[:, side._point_slices[r]]
        assert np.array_equal(own, p.jet(ro.points))
        supplied, evaluated = ro.kernel_grid(p, jet=True, q=own), ro.kernel_grid(p, jet=True)
        assert np.array_equal(supplied.wq, evaluated.wq)
        for x, y in zip(supplied.at_many(), evaluated.at_many()):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("grid", [False, True])
def test_a_fit_builds_one_kernel_grid_per_group_per_evaluation(monkeypatch, grid):
    instruments = make_grid_universe() if grid else make_bonds()
    # the read-out of every KernelGrid the fit builds, which perfbench reads
    # from _cache by keyword
    builds = []
    init = KernelGrid.__init__

    def counted(self, *args, **kwargs):
        builds.append(kwargs["_cache"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(KernelGrid, "__init__", counted)
    fit = fit_rating_grid if grid else fit_single_name
    res = fit(instruments, CURVE, 0.4, FitConfig(multistart_count=2))
    evaluations = res.diagnostics["evaluations"]
    groups = len({i.rating for i in instruments})
    assert groups == (5 if grid else 1)
    assert len(builds) == groups * evaluations
    # each group's read-out, once per evaluation
    assert sorted(Counter(map(id, builds)).values()) == [evaluations] * groups


def test_each_group_grid_ends_at_its_longest_tenor():
    side = ft._MarketSide(staggered_grid_universe(), CURVE, None, FitConfig(),
                          group_by_rating=True)
    h = DEFAULT_GRID_STEP
    lengths = []
    for r, idx in side.groups.items():
        ro = side._readouts[r]
        longest = side.tenors[idx].max()
        # the last node at or before the longest tenor; the short step is read out
        assert ro.t[-1] <= longest + 1e-9 and longest - ro.t[-1] < h
        # the grid {0, h, 2h, ...}, then the group's tenors
        assert np.array_equal(ro.t, np.arange(len(ro.t)) * h)
        assert ro.points.shape == (len(ro.t) + len(idx),)
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


def scipy_trust_region(fun, x0, lb, ub, loss, ftol, xtol, gtol, max_nfev):
    """The reference: scipy's bounded trust-region reflective solver on the same problem."""
    from scipy.optimize import least_squares

    res = least_squares(lambda x: fun(x)[0], x0, jac=lambda x: fun(x)[1], bounds=(lb, ub),
                        method="trf", loss=lambda z: np.array(loss(z)),
                        ftol=ftol, xtol=xtol, gtol=gtol, max_nfev=max_nfev)
    return ft._TrustRegionResult(x=res.x, fun=res.fun, grad=res.grad, active=res.active_mask,
                                 status=res.status, nfev=res.nfev, njev=res.njev)


def grid_case_fit(case):
    instruments, config = GRID_CASES[case]
    return lambda: fit_rating_grid(instruments(), CURVE, None, config)


SCIPY_CASES = {"colom": colom_fit, **{f"grid-{case}": grid_case_fit(case) for case in GRID_CASES},
               "desk-02": desk_02_fit, "c-lower-edge": sector_key_fit(16),
               "c-upper-edge": sector_key_fit(23)}


@pytest.mark.parametrize("case", sorted(SCIPY_CASES))
def test_trust_region_matches_scipy_least_squares(monkeypatch, case):
    from scipy.linalg import svd

    # both solvers take scipy's SVD: in the extrapolated grid, whose objective
    # falls towards b_AA = 0 along a flat direction, the last-bit differences of
    # another LAPACK build steer a start to a stop up to 3e-9 relative higher
    monkeypatch.setattr(np.linalg, "svd", svd)
    ours = SCIPY_CASES[case]()
    monkeypatch.setattr(ft, "_trust_region", scipy_trust_region)
    theirs = SCIPY_CASES[case]()
    # free-c and em-fit are priced exactly off their grid: both objectives are
    # rounding noise (below 1e-19), where only an absolute floor means anything
    assert ours.objective == pytest.approx(theirs.objective, rel=1e-10, abs=1e-16)
    assert ours.diagnostics["status"] > 0 and theirs.diagnostics["status"] > 0
    assert ours.diagnostics["converged"] == theirs.diagnostics["converged"]
    assert ours.diagnostics["at_bound"] == theirs.diagnostics["at_bound"]


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

    free = np.full(2, np.inf)
    solved = ft._trust_region(fun, x0, -free, free, squared_loss,
                              ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=1000)
    assert solved.status > 0 and np.allclose(solved.x, 1.0)
    stopped = ft._trust_region(fun, x0, -free, free, squared_loss,
                               ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=4)
    assert (stopped.status, stopped.nfev) == (0, 4)
    assert solved.nfev > 4


def test_fallback_only_run_stops_with_zero_gradient():
    side = ft._MarketSide(make_bonds(), CURVE, 0.4, FitConfig())
    n = len(side.instruments)
    free = np.full(2, np.inf)
    res = ft._trust_region(lambda u: (np.full(n, ft.FALLBACK_DP), np.zeros((n, 2))),
                           np.array([0.3, -0.2]), -free, free, side.solver_loss,
                           ftol=ft.EPS, xtol=1e-10, gtol=ft.GTOL, max_nfev=100)
    assert (res.status, res.nfev, res.njev) == (1, 1, 1)
    assert np.max(np.abs(res.grad)) == 0.0
    assert np.array_equal(res.x, [0.3, -0.2])
