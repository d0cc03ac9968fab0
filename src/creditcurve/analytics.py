"""Carry, rolldown, relative value and horizon returns.

All returns are per unit notional over the horizon.  ``c_prime`` is the
funding-adjusted coupon: coupon minus rhat for a bond, the running
coupon itself for a CDS; with that convention every formula below
applies to both instrument types.

Two decompositions of the same total are supported: the standard one
books carry off the instrument's own spread and converges to the model
curve at the end of the horizon, the model-carry variant books carry
off the model spread and converges at the start.  They share the total
exactly when the convergence fraction is 1 and intentionally disagree
otherwise, in which case only the standard split is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratecurve import RiskfreeCurve
from .survival import RatingGrid, RecoverySchedule, validate_rating
from .valuation import KernelReadout, RiskyKernels, par_cds_spread

__all__ = [
    "VARIANT_STANDARD",
    "VARIANT_MODEL_CARRY",
    "ReturnDecomposition",
    "TransitionInputs",
    "carry",
    "rolldown",
    "relative_value",
    "total_return",
    "decompose_return",
    "expected_return_with_transitions",
]

VARIANT_STANDARD = "standard"
VARIANT_MODEL_CARRY = "model_carry"


def carry(c_prime: float, s_bar: float, pi_T: float, pi_Tm: float,
          horizon: float, tenor: float | None = None) -> float:
    """Coupon accrual plus pull-to-par: c'dt + (sbar - c')(Pi(T) - Pi(T-dt)).

    Not simply sbar*dt; the pull-to-par term needs the model RPV01s.
    """
    if horizon <= 0.0 or (tenor is not None and horizon >= tenor):
        raise ValueError("horizon must lie strictly inside (0, tenor)")
    return c_prime * horizon + (s_bar - c_prime) * (pi_T - pi_Tm)


def rolldown(s_hat_T: float, s_hat_Tm: float, pi_Tm: float) -> float:
    """Spread change from tenor shortening on a fixed curve, monetised
    at the horizon-date RPV01; positive for upward-sloping curves."""
    return (s_hat_T - s_hat_Tm) * pi_Tm


def relative_value(s_bar: float, s_hat_T: float, pi_T: float, pi_Tm: float,
                   variant: str = VARIANT_STANDARD) -> float:
    """Rich/cheap gap monetised at the horizon.

    Uses shat(T), not shat(T - dt), which would double-count rolldown.
    The standard variant converges at the end of the period (RPV01 at
    T - dt); the model-carry variant at the start (RPV01 at T).
    """
    if variant == VARIANT_STANDARD:
        return (s_bar - s_hat_T) * pi_Tm
    if variant == VARIANT_MODEL_CARRY:
        return (s_bar - s_hat_T) * pi_T
    raise ValueError(f"unknown variant {variant!r}")


def total_return(c_prime: float, s_bar: float, s_hat_Tm: float,
                 pi_T: float, pi_Tm: float, horizon: float) -> float:
    """c'dt + (sbar - c')Pi(T) - (shat(T-dt) - c')Pi(T-dt)."""
    return (c_prime * horizon + (s_bar - c_prime) * pi_T
            - (s_hat_Tm - c_prime) * pi_Tm)


@dataclass(frozen=True)
class ReturnDecomposition:
    carry: float
    rolldown: float
    rv: float
    total: float
    horizon: float
    variant: str = VARIANT_STANDARD
    convergence_fraction: float = 1.0


def decompose_return(c_prime: float, s_bar: float, k_T: RiskyKernels, k_Tm: RiskyKernels,
                     recovery: float, variant: str = VARIANT_STANDARD,
                     convergence_fraction: float = 1.0) -> ReturnDecomposition:
    """Full decomposition on one curve's kernels at T (``k_T``) and at
    T - dt (``k_Tm``); the horizon dt is the gap between their tenors.

    Model par spreads shat are the par CDS spreads of the curve at the
    two tenor points.  total = carry + rolldown + rv; with convergence
    fraction 1 it equals the closed-form total in both variants.
    """
    tenor, horizon = k_T.tenor, k_T.tenor - k_Tm.tenor
    if not 0.0 < horizon < tenor:
        raise ValueError("horizon must lie strictly inside (0, tenor)")
    if not 0.0 <= convergence_fraction <= 1.0:
        raise ValueError("convergence_fraction must be in [0, 1]")
    s_hat_T = par_cds_spread(k_T, recovery)
    s_hat_Tm = par_cds_spread(k_Tm, recovery)
    carry_spread = s_bar if variant == VARIANT_STANDARD else s_hat_T
    cy = carry(c_prime, carry_spread, k_T.pi, k_Tm.pi, horizon, tenor)
    rd = rolldown(s_hat_T, s_hat_Tm, k_Tm.pi)
    rv = convergence_fraction * relative_value(s_bar, s_hat_T, k_T.pi, k_Tm.pi, variant)
    return ReturnDecomposition(carry=cy, rolldown=rd, rv=rv,
                               total=cy + rd + rv, horizon=horizon,
                               variant=variant,
                               convergence_fraction=convergence_fraction)


@dataclass(frozen=True)
class TransitionInputs:
    """One row of a rating transition matrix over the horizon:
    probabilities for destination ratings 1..18 followed by default."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if len(p) != 19:
            raise ValueError("need 19 probabilities: ratings 1..18 plus default")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("probabilities must be >= 0")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")

    @classmethod
    def stay(cls, rating: int) -> "TransitionInputs":
        p = [0.0] * 19
        p[validate_rating(rating) - 1] = 1.0
        return cls(probabilities=tuple(p))

    @property
    def default_probability(self) -> float:
        return self.probabilities[-1]


def expected_return_with_transitions(
        c_prime: float, s_bar: float, price: float, recovery: float,
        tenor: float, horizon: float,
        curve: RiskfreeCurve, grid: RatingGrid, trans: TransitionInputs,
        convergence_fraction: float = 1.0) -> float:
    """Probability-weighted horizon return over rating transitions.

    Each non-default destination reprices the instrument wholly on that
    rating's curve at T - dt, at the recovery :class:`RecoverySchedule`
    gives that rating (standard decomposition, RV scaled by the
    convergence fraction); every rating's kernels at T and T - dt are
    read off one read-out.  Default contributes the recovery-versus-price
    loss plus half a period of accrual, the unbiased convention for an
    unknown default time within the horizon.
    """
    if not 0.0 < horizon < tenor:
        raise ValueError("horizon must lie strictly inside (0, tenor)")
    if not 0.0 <= convergence_fraction <= 1.0:
        raise ValueError("convergence_fraction must be in [0, 1]")
    readout = KernelReadout.of(curve, [tenor, tenor - horizon])
    out = 0.0
    for rating, p in enumerate(trans.probabilities[:-1], start=1):
        if p == 0.0:
            continue
        dest = decompose_return(
            c_prime, s_bar, *readout.kernel_grid(grid.params_for_rating(rating)).kernels(),
            RecoverySchedule().recovery_for_rating(rating),
            variant=VARIANT_STANDARD,
            convergence_fraction=convergence_fraction)
        out += p * dest.total
    p_def = trans.default_probability
    if p_def > 0.0:
        out += p_def * ((recovery * 100.0 - price) / 100.0
                        + c_prime * horizon / 2.0)
    return out
