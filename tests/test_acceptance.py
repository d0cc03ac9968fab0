"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import brentq, minimize_scalar

import creditcurve as cc
from creditcurve.analytics import (
    VARIANT_MODEL_CARRY,
    VARIANT_STANDARD,
    decompose_return,
    total_return,
)
from creditcurve.cli import main as cli_main
from creditcurve.fitting import FitConfig, fit_rating_grid, fit_single_name
from creditcurve.ratecurve import RiskfreeCurve
from creditcurve.survival import RatingGrid, RecoverySchedule, SurvivalParams
from creditcurve.universe import load_universe
from creditcurve.valuation import (
    BondSpec,
    KernelGrid,
    bond_model_price,
    kernels,
    par_adjusted_spread_bond,
    par_cds_spread,
    yield_from_price,
    z_spread,
)

from conftest import SAMPLE_DIR


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -- 1: parity identity -------------------------------------------------


def test_criterion_1_parity_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(1000):
        if i % 3 == 0:
            curve = RiskfreeCurve.flat(float(rng.uniform(0.0, 0.1)))
        else:
            n = int(rng.integers(1, 5))
            ts = np.sort(rng.uniform(0.5, 30.0, n))
            zs = rng.uniform(0.0, 0.08, n)
            curve = RiskfreeCurve(tuple(zip(ts.tolist(), zs.tolist())))
        if i % 2 == 0:
            params = SurvivalParams.flat(float(rng.uniform(0.0, 0.25)))
        else:
            params = SurvivalParams(float(rng.uniform(1e-4, 0.25)),
                                    float(rng.uniform(1e-4, 0.25)),
                                    float(rng.uniform(0.05, 0.2)))
        T = float(rng.uniform(0.05, 30.0))
        h = float(rng.choice([1 / 12, 1 / 4, 1 / 52]))
        k = kernels(curve, params, T, h)
        worst = max(worst, abs(k.parity_gap))
    assert worst <= 1e-12
    report(1, f"parity holds over 1000 random curve pairs (worst gap {worst:.2e})")


# -- 2: flat-curve closed forms -----------------------------------------


def test_criterion_2_flat_closed_forms():
    worst = 0.0
    for r in (0.0, 0.005, 0.02, 0.05, 0.1, 0.15):
        for lam in (0.001, 0.01, 0.05, 0.1, 0.2):
            if r + lam > 0.2:
                continue
            for T in (1.0, 5.0, 10.0, 30.0):
                pi_cf = (1 - math.exp(-(r + lam) * T)) / (r + lam)
                xi_cf = lam * pi_cf
                k = kernels(RiskfreeCurve.flat(r), SurvivalParams.flat(lam), T, 1 / 12)
                worst = max(worst, abs(k.pi / pi_cf - 1), abs(k.xi / xi_cf - 1))
    assert worst <= 5e-4

    # trapezium order: quartering the step shrinks the error ~16x
    r, lam, T = 0.05, 0.15, 30.0
    pi_cf = (1 - math.exp(-(r + lam) * T)) / (r + lam)
    xi_cf = lam * pi_cf
    curve, params = RiskfreeCurve.flat(r), SurvivalParams.flat(lam)
    k1 = kernels(curve, params, T, 1 / 12)
    k4 = kernels(curve, params, T, 1 / 48)
    ratio_pi = (k1.pi / pi_cf - 1) / (k4.pi / pi_cf - 1)
    ratio_xi = (k1.xi / xi_cf - 1) / (k4.xi / xi_cf - 1)
    assert ratio_pi == pytest.approx(16.0, abs=2.0)
    assert ratio_xi == pytest.approx(16.0, abs=2.0)
    report(2, f"flat closed forms within {worst:.2e} rel; refinement ratios "
              f"{ratio_pi:.2f}/{ratio_xi:.2f}")


# -- 3 & 4: the two-bond premium/discount experiment ---------------------

# Quoted inputs for the experiment: coupon, tenor (years), full price.
# The published table quotes the 4% bond at 101.10 with a 3.98 yield, but
# those two numbers are mutually inconsistent under the price-yield
# equation this experiment itself uses (101.10 implies 3.84; 100.10
# implies 3.985).  The 8.125 row is self-consistent to 2bp.  We take the
# yield as authoritative and use the implied full price; see the ledger
# note and test_quoted_price_yield_consistency below.
BOND_LOW = (0.04, 7.88, 100.10)
BOND_HIGH = (0.08125, 8.11, 125.50)
RECOVERY_LADDER = (0.0, 0.2, 0.4, 0.535, 0.6, 0.8)


def _flat_model_price(cpn, T, r, lam, recovery):
    k = kernels(RiskfreeCurve.flat(r), SurvivalParams.flat(lam), T)
    return bond_model_price(
        BondSpec(coupon=cpn, tenor=T, price=100.0, recovery=recovery), k)


def _balancing_hazard(r, recovery, bonds):
    def total_gap(lam):
        return sum(_flat_model_price(c, T, r, lam, recovery) - P for c, T, P in bonds)
    return brentq(total_gap, 1e-9, 1.5, xtol=1e-14)


def _low_bond_gap(r, recovery, bonds):
    lam = _balancing_hazard(r, recovery, bonds)
    c, T, P = bonds[0]
    return _flat_model_price(c, T, r, lam, recovery) - P, lam


def _crossover_recovery(r, bonds):
    return brentq(lambda rec: _low_bond_gap(r, rec, bonds)[0], 0.0, 0.97, xtol=1e-12)


@pytest.fixture(scope="module")
def colom_experiment():
    bonds = (BOND_LOW, BOND_HIGH)
    res = minimize_scalar(
        lambda r: (_crossover_recovery(r, bonds) - 0.535) ** 2,
        bounds=(0.015, 0.025), method="bounded",
        options=dict(xatol=1e-6))
    r_star = float(res.x)
    crossover = _crossover_recovery(r_star, bonds)
    lam_star = _balancing_hazard(r_star, crossover, bonds)
    return dict(r=r_star, crossover=crossover, lam_star=lam_star, bonds=bonds)


def test_quoted_price_yield_consistency():
    # evidence for the corrected input: the quoted yield pair (3.98, 4.36)
    # reprices to (100.10, 125.48), not (101.10, 125.50)
    assert yield_from_price(*BOND_LOW) == pytest.approx(0.0398, abs=1e-4)
    assert yield_from_price(0.04, 7.88, 101.10) == pytest.approx(0.0384, abs=1e-4)
    assert yield_from_price(*BOND_HIGH) == pytest.approx(0.0436, abs=1e-4)


def test_criterion_3_two_bond_experiment(colom_experiment):
    exp = colom_experiment
    bonds = exp["bonds"]
    r = exp["r"]
    assert 0.015 <= r <= 0.025

    # balancing hazard increases with assumed recovery
    lams = [_balancing_hazard(r, rec, bonds) for rec in RECOVERY_LADDER]
    assert all(l1 < l2 for l1, l2 in zip(lams, lams[1:]))

    # sign pattern: low-coupon bond rich below the crossover, cheap above
    for rec in RECOVERY_LADDER:
        gap, _ = _low_bond_gap(r, rec, bonds)
        if rec < exp["crossover"] - 1e-6:
            assert gap < 0.0
        elif rec > exp["crossover"] + 1e-6:
            assert gap > 0.0

    # zero-recovery row of the reference table: +/-1.45pts at lambda 0.0277
    gap0, lam0 = _low_bond_gap(r, 0.0, bonds)
    assert abs(gap0) == pytest.approx(1.45, abs=0.15)
    assert lam0 == pytest.approx(0.0277, rel=0.10)

    assert abs(exp["crossover"] - 0.535) <= 0.04
    assert abs(exp["lam_star"] / 0.0551 - 1.0) <= 0.10
    report(3, f"flat proxy r={r:.4%}: crossover {exp['crossover']:.1%} "
              f"(target 53.5% +/- 4pts), hazard {exp['lam_star']:.4f} "
              f"(target 0.0551 +/- 10%); zero-recovery row "
              f"{gap0:+.2f}pts @ {lam0:.4f} (target -1.45 @ 0.0277)")


def test_criterion_3_sign_pattern_robust_to_quoted_price(colom_experiment):
    # the structural assertions also hold with the as-published 101.10
    bonds = ((0.04, 7.88, 101.10), BOND_HIGH)
    r = colom_experiment["r"]
    lams = [_balancing_hazard(r, rec, bonds) for rec in RECOVERY_LADDER]
    assert all(l1 < l2 for l1, l2 in zip(lams, lams[1:]))
    crossover = _crossover_recovery(r, bonds)
    for rec in RECOVERY_LADDER:
        gap, _ = _low_bond_gap(r, rec, bonds)
        assert (gap < 0) == (rec < crossover)


def test_criterion_4_par_adjusted_spreads(colom_experiment):
    exp = colom_experiment
    r, bonds = exp["r"], exp["bonds"]
    curve = RiskfreeCurve.flat(r)

    # at the crossover both bonds are exactly repriced; their par-adjusted
    # spreads agree and sit near the common par spread
    sbars = []
    for cpn, T, P in bonds:
        k = kernels(curve, SurvivalParams.flat(exp["lam_star"]), T)
        spec = BondSpec(coupon=cpn, tenor=T, price=P, recovery=exp["crossover"])
        sbars.append(par_adjusted_spread_bond(spec, k))
    assert abs(sbars[0] - sbars[1]) <= 2e-4
    assert 0.0245 <= sbars[0] <= 0.0275

    # at zero recovery, each bond carries its own exactly-fitting hazard
    # and the par-adjusted spread gap is ~40bp
    sbars0 = []
    for cpn, T, P in bonds:
        lam = brentq(lambda x: _flat_model_price(cpn, T, r, x, 0.0) - P,
                     1e-9, 1.5, xtol=1e-14)
        k = kernels(curve, SurvivalParams.flat(lam), T)
        spec = BondSpec(coupon=cpn, tenor=T, price=P, recovery=0.0)
        sbars0.append(par_adjusted_spread_bond(spec, k))
    gap = sbars0[1] - sbars0[0]
    assert 0.0035 <= gap <= 0.0045
    report(4, f"crossover par-adjusted spreads {sbars[0] * 1e4:.1f}/"
              f"{sbars[1] * 1e4:.1f}bp (260 +/- 15, within 2bp); "
              f"zero-recovery gap {gap * 1e4:.1f}bp (40 +/- 5)")


# -- 5: premium/discount property ----------------------------------------


def test_criterion_5_premium_discount_property():
    rng = np.random.default_rng(11)
    worst_sbar = 0.0
    for _ in range(30):
        r = float(rng.uniform(0.005, 0.04))
        curve = RiskfreeCurve.flat(r)
        params = SurvivalParams(float(rng.uniform(0.005, 0.05)),
                                float(rng.uniform(0.005, 0.08)),
                                float(rng.uniform(0.05, 0.2)))
        T = float(rng.uniform(3.0, 20.0))
        c_lo = float(rng.uniform(0.0, 0.04))
        c_hi = c_lo + float(rng.uniform(0.02, 0.06))
        k = kernels(curve, params, T)
        pair = []
        for cpn in (c_lo, c_hi):
            spec = BondSpec(coupon=cpn, tenor=T, price=100.0, recovery=0.4)
            pair.append(BondSpec(coupon=cpn, tenor=T,
                                 price=bond_model_price(spec, k), recovery=0.4))
        lo, hi = pair
        assert yield_from_price(hi.coupon, T, hi.price) > \
            yield_from_price(lo.coupon, T, lo.price)
        assert z_spread(hi, curve) > z_spread(lo, curve)
        sbar_gap = abs(par_adjusted_spread_bond(hi, k) - par_adjusted_spread_bond(lo, k))
        worst_sbar = max(worst_sbar, sbar_gap)
        assert sbar_gap <= 1e-10
    report(5, "high-coupon twin always shows higher yield and z-spread while "
              f"par-adjusted spreads agree (worst gap {worst_sbar:.2e})")


# -- 6: single-name fits --------------------------------------------------


def test_criterion_6_single_name_round_trip():
    curve = RiskfreeCurve.flat(0.02)
    true = SurvivalParams(0.01, 0.05, 0.1)
    bonds = []
    for i, T in enumerate((1, 2, 3, 5, 7, 10, 15, 20)):
        cpn = 0.03 + 0.003 * i
        k = kernels(curve, true, T)
        p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=0.4), k)
        bonds.append(BondSpec(coupon=cpn, tenor=T, price=p, recovery=0.4))
    res = fit_single_name(bonds, curve, 0.4, FitConfig(fix_c=0.1))
    assert abs(res.params.a - true.a) < 1e-4
    assert abs(res.params.b - true.b) < 1e-4
    assert res.objective < 1e-16
    report("6a", f"noiseless round trip: |da|={abs(res.params.a - true.a):.1e}, "
                 f"|db|={abs(res.params.b - true.b):.1e}, "
                 f"objective {res.objective:.1e}")


def test_criterion_6_full_universe_fits():
    sample = SAMPLE_DIR / "colom_2016-04-08"
    snap = load_universe(sample / "riskfree.csv", sample / "bonds.csv",
                         as_of=__import__("datetime").date(2016, 4, 8))
    targets = {0.0: (0.0099, 0.0621, 0.2), 0.5: (0.0168, 0.2727, 0.05)}
    fitted = {}
    for recovery, target in targets.items():
        res = fit_single_name(snap.bonds, snap.riskfree, recovery, FitConfig())
        got = (res.params.a, res.params.b, res.params.c)
        fitted[recovery] = got
        for g, t in zip(got, target):
            assert abs(g / t - 1.0) <= 0.15
    report("6b", "snapshot fits reproduce the reference parameter sets "
                 f"within 15%: R=0 -> {tuple(round(x, 4) for x in fitted[0.0])}, "
                 f"R=0.5 -> {tuple(round(x, 4) for x in fitted[0.5])}")


# -- 7: rating-grid fits ---------------------------------------------------


GRID_TRUE = RatingGrid(anchors_a=(0.002, 0.005, 0.02),
                       anchors_b=(0.008, 0.03, 0.09), c=0.12)
SCHED = RecoverySchedule()


def _grid_universe(alpha=None, sov=None):
    curve = RiskfreeCurve.flat(0.02)
    bonds = []
    for rating in (3, 6, 9, 12, 15):
        for T in (2.0, 5.0, 10.0, 20.0):
            cpn = 0.03 + 0.002 * rating
            params = GRID_TRUE.params_for_rating(rating)
            rec = SCHED.recovery_for_rating(rating)
            k = kernels(curve, params, T)
            p = bond_model_price(
                BondSpec(coupon=cpn, tenor=T, price=100, recovery=rec), k)
            s_sov = None
            if alpha is not None:
                s_sov = sov(T)
                p -= 100.0 * alpha * s_sov * k.pi
            bonds.append(BondSpec(coupon=cpn, tenor=T, price=p, recovery=rec,
                                  rating=rating, sovereign_spread=s_sov))
    return curve, bonds


def test_criterion_7_rating_grid():
    curve, bonds = _grid_universe()
    res = fit_rating_grid(bonds, curve, None, FitConfig())
    grid = res.params
    worst = 0.0
    for got, want in zip(grid.anchors_a + grid.anchors_b + (grid.c,),
                         GRID_TRUE.anchors_a + GRID_TRUE.anchors_b + (GRID_TRUE.c,)):
        worst = max(worst, abs(got / want - 1.0))
        assert abs(got / want - 1.0) <= 1e-3

    ts = np.linspace(0.0, 30.0, 50)
    for r in range(1, 18):
        h1 = grid.params_for_rating(r).forward_hazard(ts)
        h2 = grid.params_for_rating(r + 1).forward_hazard(ts)
        assert np.all(h1 <= h2 + 1e-15)

    sov = lambda T: 0.015 + 0.001 * min(T, 10.0)
    curve, em_bonds = _grid_universe(alpha=0.45, sov=sov)
    em = fit_rating_grid(em_bonds, curve, None, FitConfig(em_mode="fit"))
    assert em.alpha == pytest.approx(0.45, abs=0.05)
    report(7, f"grid anchors round-trip within {worst:.1e}; no crossings on a "
              f"50-point tenor grid; EM alpha recovered {em.alpha:.3f} (target 0.45)")


# -- 8: return decompositions ----------------------------------------------


def test_criterion_8_return_decompositions():
    rng = np.random.default_rng(8)
    curve = RiskfreeCurve.flat(0.02)
    worst_split = 0.0
    for _ in range(1000):
        params = SurvivalParams(float(rng.uniform(1e-3, 0.15)),
                                float(rng.uniform(1e-3, 0.25)),
                                float(rng.uniform(0.05, 0.2)))
        T = float(rng.uniform(1.0, 25.0))
        dt = float(rng.uniform(0.05, min(2.0, 0.8 * T)))
        c_prime = float(rng.uniform(-0.01, 0.09))
        sbar = float(rng.uniform(0.0, 0.12))
        rec = float(rng.uniform(0.0, 0.8))
        kg = KernelGrid(curve, params, T)
        k_T, k_m = kg.at(T), kg.at(T - dt)
        tot = total_return(c_prime, sbar, par_cds_spread(k_m, rec),
                           k_T.pi, k_m.pi, dt)
        for variant in (VARIANT_STANDARD, VARIANT_MODEL_CARRY):
            dec = decompose_return(c_prime, sbar, T, dt, curve, params, rec, variant)
            worst_split = max(worst_split, abs(dec.total - tot))
    assert worst_split <= 1e-12

    # CDS route: model-space total equals the SNAC unwind PL
    worst_cds = 0.0
    for _ in range(1000):
        r = float(rng.uniform(0.0, 0.05))
        cds_curve = RiskfreeCurve.flat(r)
        params = SurvivalParams(float(rng.uniform(1e-3, 0.1)),
                                float(rng.uniform(1e-3, 0.15)),
                                float(rng.uniform(0.05, 0.2)))
        T = float(rng.uniform(2.0, 10.0))
        dt = float(rng.uniform(0.1, 1.0))
        coupon = float(rng.choice([0.01, 0.05]))
        s0 = float(rng.uniform(0.002, 0.08))
        s1 = float(rng.uniform(0.002, 0.08))
        rq = 0.4
        pi_t_T = kernels(cds_curve, SurvivalParams.flat(s0 / (1 - rq)), T).pi
        pi_t_m = kernels(cds_curve, SurvivalParams.flat(s1 / (1 - rq)), T - dt).pi
        direct = coupon * dt + (s0 - coupon) * pi_t_T - (s1 - coupon) * pi_t_m
        kg = KernelGrid(cds_curve, params, T)
        k_T, k_m = kg.at(T), kg.at(T - dt)
        sbar0 = coupon + (s0 - coupon) * pi_t_T / k_T.pi
        sbar1 = coupon + (s1 - coupon) * pi_t_m / k_m.pi
        tot = total_return(coupon, sbar0, sbar1, k_T.pi, k_m.pi, dt)
        worst_cds = max(worst_cds, abs(tot - direct))
    assert worst_cds <= 1e-10
    report(8, f"1000-case split identity (worst {worst_split:.1e}) and SNAC "
              f"unwind equivalence (worst {worst_cds:.1e})")


# -- 9: determinism ---------------------------------------------------------


def test_criterion_9_fit_grid_determinism(tmp_path):
    curve = RiskfreeCurve.flat(0.015)
    lines = ["id,coupon,tenor_years,price,issue_size,rating"]
    i = 0
    for rating, sym in ((3, "AA"), (9, "BBB"), (15, "B")):
        for T in (2.0, 5.0, 10.0, 20.0):
            cpn = 0.02 + 0.003 * rating
            params = GRID_TRUE.params_for_rating(rating)
            rec = SCHED.recovery_for_rating(rating)
            k = kernels(curve, params, T)
            p = bond_model_price(
                BondSpec(coupon=cpn, tenor=T, price=100, recovery=rec), k)
            lines.append(f"g{i},{cpn},{T},{p:.8f},1000,{sym}")
            i += 1
    bonds = tmp_path / "bonds.csv"
    bonds.write_text("\n".join(lines) + "\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text("tenor_years,zero_rate\n1,0.015\n30,0.015\n")

    runner = CliRunner()
    outputs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        result = runner.invoke(cli_main, [
            "fit-grid", "--riskfree", str(riskfree), "--bonds", str(bonds),
            "--out", str(out), "--multistart", "2", "--seed", "3"])
        assert result.exit_code == 0, result.output
        outputs.append(((out / "fit_params.csv").read_bytes(),
                        (out / "fit_report.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    report(9, "repeated fit-grid runs on identical inputs are byte-identical")
