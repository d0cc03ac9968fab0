import math

import numpy as np
import pytest

import creditcurve as cc
from creditcurve.analytics import (
    TransitionInputs,
    VARIANT_MODEL_CARRY,
    VARIANT_STANDARD,
    carry,
    decompose_return,
    expected_return_with_transitions,
    relative_value,
    rolldown,
    total_return,
)
from creditcurve.survival import RatingGrid, RecoverySchedule, SurvivalParams
from creditcurve.valuation import KernelGrid, kernels, par_cds_spread

CURVE = cc.RiskfreeCurve.flat(0.02)


def test_carry_par_instrument_is_coupon_accrual():
    assert carry(0.05, 0.05, 4.4, 4.2, 0.25) == pytest.approx(0.0125, abs=1e-15)


def test_carry_flat_zero_rate_closed_form():
    # flat r=0, lambda=3%, R=0: Pi(t) = (1 - e^{-0.03 t}) / 0.03
    pi = lambda t: (1 - math.exp(-0.03 * t)) / 0.03
    expected = 0.05 * 0.25 + (0.03 - 0.05) * (pi(5.0) - pi(4.75))
    curve0 = cc.RiskfreeCurve.flat(0.0)
    kg = KernelGrid(curve0, SurvivalParams.flat(0.03), 5.0)
    got = carry(0.05, 0.03, kg.at(5.0).pi, kg.at(4.75).pi, 0.25)
    assert got == pytest.approx(expected, abs=1e-7)


def test_carry_small_horizon_rate():
    # carry/dt -> c' + (sbar - c') B(T)Q(T) as dt -> 0
    params = SurvivalParams(0.02, 0.08, 0.1)
    kg = KernelGrid(CURVE, params, 5.0, grid_step=1 / 1200)
    dt = 1 / 1200
    k_T = kg.at(5.0)
    cy = carry(0.05, 0.03, k_T.pi, kg.at(5.0 - dt).pi, dt)
    assert cy / dt == pytest.approx(0.05 + (0.03 - 0.05) * k_T.bq_T, abs=1e-4)


def test_carry_rejects_bad_horizon():
    with pytest.raises(ValueError):
        carry(0.05, 0.03, 4.4, 4.2, 0.0)
    with pytest.raises(ValueError):
        carry(0.05, 0.03, 4.4, 4.2, horizon=6.0, tenor=5.0)


def test_rolldown_signs():
    flat = decompose_return(0.05, 0.03, 5.0, 0.25, CURVE, SurvivalParams.flat(0.03), 0.4)
    assert flat.rolldown == pytest.approx(0.0, abs=1e-9)
    up = decompose_return(0.05, 0.03, 5.0, 0.25, CURVE, SurvivalParams(0.01, 0.08, 0.1), 0.4)
    assert up.rolldown > 0
    inverted = decompose_return(0.05, 0.03, 5.0, 0.25, CURVE,
                                SurvivalParams(0.08, 0.01, 0.1), 0.4)
    assert inverted.rolldown < 0


def test_relative_value_cases():
    assert relative_value(0.035, 0.03, 4.4, 4.2) == pytest.approx(0.005 * 4.2, rel=1e-14)
    assert relative_value(0.035, 0.03, 4.4, 4.2, VARIANT_MODEL_CARRY) == pytest.approx(
        0.005 * 4.4, rel=1e-14)
    # variants differ by exactly the RPV01 gap times the spread gap
    diff = (relative_value(0.035, 0.03, 4.4, 4.2, VARIANT_MODEL_CARRY)
            - relative_value(0.035, 0.03, 4.4, 4.2))
    assert diff == pytest.approx(0.005 * 0.2, rel=1e-12)
    assert relative_value(0.03, 0.03, 4.4, 4.2) == 0.0


def test_decompositions_sum_to_total_both_variants():
    rng = np.random.default_rng(17)
    for _ in range(60):
        params = SurvivalParams(rng.uniform(1e-3, 0.15), rng.uniform(1e-3, 0.25),
                                rng.uniform(0.05, 0.2))
        T = rng.uniform(1.0, 25.0)
        dt = rng.uniform(0.05, min(2.0, T * 0.8))
        c_prime = rng.uniform(-0.01, 0.09)
        sbar = rng.uniform(0.0, 0.12)
        rec = rng.uniform(0.0, 0.8)
        kg = KernelGrid(CURVE, params, T)
        k_T, k_m = kg.at(T), kg.at(T - dt)
        s_hat_m = par_cds_spread(k_m, rec)
        tot = total_return(c_prime, sbar, s_hat_m, k_T.pi, k_m.pi, dt)
        for variant in (VARIANT_STANDARD, VARIANT_MODEL_CARRY):
            dec = decompose_return(c_prime, sbar, T, dt, CURVE, params, rec, variant)
            assert dec.carry + dec.rolldown + dec.rv == pytest.approx(dec.total, abs=1e-15)
            assert dec.total == pytest.approx(tot, abs=1e-12)


def test_on_curve_flat_total_is_carry():
    params = SurvivalParams.flat(0.03)
    k = kernels(CURVE, params, 5.0)
    sbar = par_cds_spread(k, 0.4)
    dec = decompose_return(0.05, sbar, 5.0, 0.25, CURVE, params, 0.4)
    assert dec.rolldown == pytest.approx(0.0, abs=1e-9)
    assert dec.rv == pytest.approx(0.0, abs=1e-9)
    assert dec.total == pytest.approx(dec.carry, abs=1e-9)


def test_total_return_small_horizon_rate():
    # on-curve: total/dt -> c' + (sbar - c')B(T)Q(T) + shat'(T)Pi(T) as
    # dt -> 0; the last term is the rolldown rate and vanishes only for a
    # flat model curve
    params = SurvivalParams(0.02, 0.08, 0.1)
    dt = 1 / 1200
    kg = KernelGrid(CURVE, params, 5.0, grid_step=dt)
    k_T = kg.at(5.0)
    sbar = par_cds_spread(k_T, 0.4)
    eps = 0.01
    s_hat_slope = (par_cds_spread(kg.at(5.0), 0.4)
                   - par_cds_spread(kg.at(5.0 - eps), 0.4)) / eps
    # decompose_return's total is this formula (test_decompositions_sum_to_total_both_variants)
    k_m = kg.at(5.0 - dt)
    total = total_return(0.05, sbar, par_cds_spread(k_m, 0.4), k_T.pi, k_m.pi, dt)
    limit = 0.05 + (sbar - 0.05) * k_T.bq_T + s_hat_slope * k_T.pi
    assert total / dt == pytest.approx(limit, abs=5e-4)
    # flat model curve: the rolldown rate vanishes and the plain limit holds
    flat = SurvivalParams.flat(0.03)
    kgf = KernelGrid(CURVE, flat, 5.0, grid_step=dt)
    sbar_f = par_cds_spread(kgf.at(5.0), 0.4)
    k_fm = kgf.at(5.0 - dt)
    total_f = total_return(0.05, sbar_f, par_cds_spread(k_fm, 0.4), kgf.at(5.0).pi, k_fm.pi, dt)
    assert total_f / dt == pytest.approx(
        0.05 + (sbar_f - 0.05) * kgf.at(5.0).bq_T, abs=5e-4)


def test_cds_route_equivalence():
    # unwind PL booked off SNAC flat-hazard RPV01s equals the model-space
    # total return once traded spreads are converted to par-adjusted form
    rng = np.random.default_rng(23)
    params = SurvivalParams(0.02, 0.06, 0.1)
    for _ in range(40):
        T = rng.uniform(2.0, 10.0)
        dt = rng.uniform(0.1, 1.0)
        coupon = float(rng.choice([0.01, 0.05]))
        s0 = rng.uniform(0.002, 0.08)
        s1 = rng.uniform(0.002, 0.08)
        rq = 0.4
        pi_tilde_T = kernels(CURVE, SurvivalParams.flat(s0 / (1 - rq)), T).pi
        pi_tilde_m = kernels(CURVE, SurvivalParams.flat(s1 / (1 - rq)), T - dt).pi
        direct = coupon * dt + (s0 - coupon) * pi_tilde_T - (s1 - coupon) * pi_tilde_m
        kg = KernelGrid(CURVE, params, T)
        k_T, k_m = kg.at(T), kg.at(T - dt)
        sbar0 = coupon + (s0 - coupon) * pi_tilde_T / k_T.pi
        sbar1 = coupon + (s1 - coupon) * pi_tilde_m / k_m.pi
        tot = total_return(coupon, sbar0, sbar1, k_T.pi, k_m.pi, dt)
        assert tot == pytest.approx(direct, abs=1e-10)


GRID = RatingGrid(anchors_a=(0.002, 0.005, 0.02), anchors_b=(0.008, 0.03, 0.09), c=0.12)


def test_transitions_identity_row_matches_total():
    sched = RecoverySchedule()
    params = GRID.params_for_rating(9)
    rec = sched.recovery_for_rating(9)
    dec = decompose_return(0.04, 0.025, 7.0, 0.5, CURVE, params, rec)
    got = expected_return_with_transitions(
        0.04, 0.025, 101.0, rec, 7.0, 0.5, CURVE, GRID, TransitionInputs.stay(9))
    assert got == pytest.approx(dec.total, abs=1e-14)


def test_transitions_certain_default():
    p = [0.0] * 19
    p[-1] = 1.0
    got = expected_return_with_transitions(
        0.04, 0.025, 80.0, 0.40, 7.0, 0.5, CURVE, GRID, TransitionInputs(tuple(p)))
    assert got == pytest.approx((40.0 - 80.0) / 100.0 + 0.04 * 0.25, abs=1e-14)


def test_transitions_mixture_linearity():
    stay = TransitionInputs.stay(9)
    down = TransitionInputs.stay(12)
    p = [0.0] * 19
    p[8], p[11] = 0.7, 0.3
    mix = TransitionInputs(tuple(p))
    args = (0.04, 0.025, 101.0, 0.43, 7.0, 0.5, CURVE, GRID)
    v = expected_return_with_transitions(*args, mix)
    v_stay = expected_return_with_transitions(*args, stay)
    v_down = expected_return_with_transitions(*args, down)
    assert v == pytest.approx(0.7 * v_stay + 0.3 * v_down, abs=1e-14)


def test_transitions_downgrade_hurts():
    args = (0.04, 0.025, 101.0, 0.43, 7.0, 0.5, CURVE, GRID)
    v_stay = expected_return_with_transitions(*args, TransitionInputs.stay(9))
    v_down = expected_return_with_transitions(*args, TransitionInputs.stay(15))
    assert v_down < v_stay


def test_partial_convergence_scales_rv_and_splits_variants():
    params = GRID.params_for_rating(9)
    full = decompose_return(0.04, 0.05, 7.0, 0.5, CURVE, params, 0.43)
    half = decompose_return(0.04, 0.05, 7.0, 0.5, CURVE, params, 0.43,
                            convergence_fraction=0.5)
    assert half.rv == pytest.approx(full.rv / 2, rel=1e-12)
    assert half.carry == full.carry and half.rolldown == full.rolldown
    # with partial convergence the two splits no longer share a total
    half_model = decompose_return(0.04, 0.05, 7.0, 0.5, CURVE, params, 0.43,
                                  variant=VARIANT_MODEL_CARRY, convergence_fraction=0.5)
    assert half.total != pytest.approx(half_model.total, abs=1e-9)


def test_transition_inputs_validation():
    with pytest.raises(ValueError):
        TransitionInputs(tuple([1.0] + [0.0] * 17))       # wrong length
    bad = [0.0] * 19
    bad[0] = 0.5
    with pytest.raises(ValueError):
        TransitionInputs(tuple(bad))                      # does not sum to 1
    bad[0], bad[1] = 1.5, -0.5
    with pytest.raises(ValueError):
        TransitionInputs(tuple(bad))                      # negative entry


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["all", "one"])
def test_transition_inputs_reject_non_finite(entry, where):
    # NaN passed both the sign and the sum test, and the expected return was NaN
    p = [entry] * 19 if where == "all" else list(TransitionInputs.stay(9).probabilities)
    p[3] = entry
    with pytest.raises(ValueError, match="finite"):
        TransitionInputs(tuple(p))


def test_decompose_validates_horizon():
    with pytest.raises(ValueError):
        decompose_return(0.04, 0.03, 5.0, 5.0, CURVE, SurvivalParams.flat(0.02), 0.4)
    with pytest.raises(ValueError):
        decompose_return(0.04, 0.03, 5.0, 0.5, CURVE, SurvivalParams.flat(0.02), 0.4,
                         convergence_fraction=1.5)
