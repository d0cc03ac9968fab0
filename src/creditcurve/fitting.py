"""Robust weighted calibration of survival curves to bond/CDS prices.

Residuals are price deviations in points per 100 face,

    dP = 100 * [ 1 - P/100 + (coupon - rhat - s(T)) * Pi(T) ]

(rhat omitted for CDS, where the market side is the upfront).  Positive
dP means the instrument looks cheap against the candidate curve.  The
objective is a weighted sum of a robust penalty rho(dP) with
rho(x) = sqrt(1 + x^2) - 1, which grows like x^2/2 near zero and like
|x| for outliers; plain squared loss is available as an option.

The optimizer is trust-region robust least squares: the trust-region
reflective method of Branch, Coleman & Li (1999) as implemented by
``scipy.optimize.least_squares``, run on the residual vector dP with a
loss that folds in the weights, so that half its sum is the objective.
It works over transformed coordinates: logs for the positive hazard
parameters, a logistic map into the box for the shape parameter and the
sovereign coefficient, and positive increments between rating anchors so
that fitted grids can never cross.  Multistart with a seeded generator
keeps results reproducible bit for bit; the lowest objective wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .ratecurve import RiskfreeCurve
from .survival import ANCHOR_RATINGS, C_BOUNDS, RatingGrid, RecoverySchedule, SurvivalParams
from .valuation import (
    DEFAULT_GRID_STEP,
    BondSpec,
    CdsSpec,
    DiscountGridCache,
    cds_upfront,
    kernels,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "robust_loss",
    "price_residual",
    "price_residual_em",
    "fit_single_name",
    "fit_rating_grid",
]

Instrument = BondSpec | CdsSpec

# anchor-to-anchor hazard ratio assumed when a grid fit degenerates to a
# single rating and the other anchors must be pinned by a monotone prior
PRIOR_ANCHOR_RATIO = 4.0

EPS = float(np.finfo(float).eps)
# solver stopping rule on the sup-norm of the objective's gradient
GTOL = 1e-8
# converged fits have a gradient sup-norm below this, relative to 1 + objective
STATIONARY_GRAD = 1e-4
# residual (points) reported for a candidate whose curve cannot be evaluated
FALLBACK_DP = 1e6


@dataclass(frozen=True)
class FitConfig:
    weight_mode: str = "issue_size"       # issue_size | equal | issue_size_duration
    loss: str = "robust"                  # robust | squared
    c_bounds: tuple[float, float] = C_BOUNDS
    fix_c: float | None = None
    multistart_count: int = 5
    seed: int = 0
    grid_step: float = DEFAULT_GRID_STEP
    xtol: float = 1e-10                   # relative step size at which a start stops
    ftol: float = 1e-16                   # relative objective change (machine eps at least)
    max_iter: int = 20000                 # solver evaluations per start, Jacobian excluded
    em_mode: str = "off"                  # off | fit | fixed
    em_alpha_fixed: float = 0.5
    em_rating_scaling: bool = False       # alpha(r) = alpha * min(1, r/9)

    def __post_init__(self) -> None:
        lo, hi = self.c_bounds
        if not 0.0 < lo < hi:
            raise ValueError("c_bounds must satisfy 0 < lo < hi")
        if self.fix_c is not None and self.fix_c <= 0:
            raise ValueError("fix_c must be > 0")
        if self.weight_mode not in ("issue_size", "equal", "issue_size_duration"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")
        if self.loss not in ("robust", "squared"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.em_mode not in ("off", "fit", "fixed"):
            raise ValueError(f"unknown em_mode {self.em_mode!r}")
        if not 0.0 <= self.em_alpha_fixed <= 1.0:
            raise ValueError("em_alpha_fixed must be in [0, 1]")
        if self.multistart_count < 1 or self.max_iter < 1:
            raise ValueError("multistart_count and max_iter must be >= 1")
        if self.xtol <= 0 or self.ftol <= 0 or self.grid_step <= 0:
            raise ValueError("tolerances and grid_step must be > 0")


@dataclass(frozen=True)
class FitResult:
    params: SurvivalParams | RatingGrid
    alpha: float | None
    residuals: tuple[float, ...]
    objective: float
    diagnostics: dict = field(default_factory=dict)


def robust_loss(x: float) -> float:
    """sqrt(1 + x^2) - 1: quadratic near zero, linear in the tails."""
    return math.hypot(1.0, x) - 1.0


def _rho_vec(loss: str):
    if loss == "squared":
        return lambda x: x * x
    # sqrt(1 + x^2) - 1 without the cancellation near zero
    return lambda x: x * x / (1.0 + np.sqrt(1.0 + x * x))


# -- residuals --------------------------------------------------------


def _market_upfront(inst: Instrument, curve: RiskfreeCurve, grid_step: float) -> float | None:
    if isinstance(inst, CdsSpec):
        return cds_upfront(inst, curve, grid_step)
    return None


def _residual_points(inst: Instrument, k, market_upfront: float | None,
                     recovery: float, sov_spread: float, alpha: float) -> float:
    s_model = (1.0 - recovery) * k.xi / k.pi + alpha * sov_spread
    if isinstance(inst, BondSpec):
        return 100.0 - inst.price + 100.0 * (inst.coupon - k.rhat - s_model) * k.pi
    # CDS: rhat omitted; market side is the upfront
    return 100.0 * (market_upfront + (inst.coupon - s_model) * k.pi)


def price_residual(inst: Instrument, params: SurvivalParams, curve: RiskfreeCurve,
                   recovery: float, grid_step: float = DEFAULT_GRID_STEP) -> float:
    """Price deviation in points per 100; positive means the instrument
    appears cheap relative to the candidate curve."""
    k = kernels(curve, params, inst.tenor, grid_step)
    u = _market_upfront(inst, curve, grid_step)
    return _residual_points(inst, k, u, recovery, 0.0, 0.0)


def price_residual_em(inst: Instrument, params: SurvivalParams, curve: RiskfreeCurve,
                      recovery: float, sov_spread: float, alpha: float,
                      grid_step: float = DEFAULT_GRID_STEP) -> float:
    """Residual with the model spread widened by alpha times the
    sovereign par spread at the instrument's tenor; alpha in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    k = kernels(curve, params, inst.tenor, grid_step)
    u = _market_upfront(inst, curve, grid_step)
    return _residual_points(inst, k, u, recovery, sov_spread, alpha)


# -- weights and recovery resolution ------------------------------------


def _weights(instruments: Sequence[Instrument], mode: str) -> np.ndarray:
    if mode == "equal":
        w = np.ones(len(instruments))
    else:
        w = np.array([inst.issue_size for inst in instruments], dtype=float)
        if mode == "issue_size_duration":
            # tenor as a crude duration proxy; off by default
            w = w * np.array([inst.tenor for inst in instruments])
    if np.any(w <= 0):
        raise ValueError("instrument weights must be positive")
    return w / w.sum() * len(w)


def _recovery_for(inst: Instrument, recovery: float | RecoverySchedule | None) -> float:
    if recovery is None:
        # per-instrument recovery, as materialised by the universe loader
        if isinstance(inst, BondSpec):
            return inst.recovery
        return inst.model_recovery if inst.model_recovery is not None else inst.quoting_recovery
    if isinstance(recovery, RecoverySchedule):
        r = inst.effective_rating
        if r is None:
            raise ValueError(
                f"instrument {inst.identifier or inst} has no rating but a "
                "recovery schedule was requested")
        return recovery.recovery_for_rating(r)
    return float(recovery)


# -- market side of the objective --------------------------------------


class _MarketSide:
    """Precomputed instrument arrays and the vectorised loss core.

    Everything that does not depend on the candidate curve (market
    prices, SNAC upfronts, weights, recoveries, grid indices) is
    computed once; per candidate only the survival values move.
    """

    def __init__(self, instruments: Sequence[Instrument], curve: RiskfreeCurve,
                 recovery: float | RecoverySchedule | None, config: FitConfig,
                 group_by_rating: bool = False):
        self.instruments = list(instruments)
        self.config = config
        self.tenors = np.array([i.tenor for i in self.instruments])
        self.recs = np.array([_recovery_for(i, recovery) for i in self.instruments])
        self.weights = _weights(self.instruments, config.weight_mode)
        self.is_bond = np.array([isinstance(i, BondSpec) for i in self.instruments])
        self.coupons = np.array([i.coupon for i in self.instruments])
        self.prices = np.array(
            [i.price if isinstance(i, BondSpec) else 0.0 for i in self.instruments])
        self.upfronts = np.array(
            [cds_upfront(i, curve, config.grid_step) if isinstance(i, CdsSpec) else 0.0
             for i in self.instruments])
        self.em_on = config.em_mode != "off"
        if self.em_on and any(i.sovereign_spread is None for i in self.instruments):
            missing = [i.identifier for i in self.instruments if i.sovereign_spread is None]
            raise ValueError(f"EM mode needs a sovereign spread on every instrument; "
                             f"missing for {missing}")
        self.fit_alpha = config.em_mode == "fit"
        self.sov = np.array([i.sovereign_spread or 0.0 for i in self.instruments])
        if config.em_rating_scaling:
            self.sov = self.sov * np.minimum(
                1.0, np.array([(i.effective_rating or 9) / 9.0 for i in self.instruments]))
        self.cache = DiscountGridCache(curve, float(self.tenors.max()), config.grid_step)
        self._rho = _rho_vec(config.loss)
        if group_by_rating:
            ratings = np.array([i.effective_rating for i in self.instruments])
            keys = sorted(set(int(r) for r in ratings))
            self.groups = {r: np.flatnonzero(ratings == r) for r in keys}
        else:
            self.groups = {None: np.arange(len(self.instruments))}
        self._readouts = {key: self.cache.readout(self.tenors[idx])
                          for key, idx in self.groups.items()}

    def _dp(self, kg, key, alpha: float) -> np.ndarray:
        idx = self.groups[key]
        pi, xi, rhat, _ = kg.at_many(self._readouts[key])
        s_model = (1.0 - self.recs[idx]) * xi / pi + alpha * self.sov[idx]
        dp_bond = (100.0 - self.prices[idx]
                   + 100.0 * (self.coupons[idx] - rhat - s_model) * pi)
        dp_cds = 100.0 * (self.upfronts[idx] + (self.coupons[idx] - s_model) * pi)
        return np.where(self.is_bond[idx], dp_bond, dp_cds)

    def dp(self, params_by_group: dict, alpha: float) -> np.ndarray:
        """Price residuals in points, in instrument order."""
        out = np.empty(len(self.instruments))
        for key, idx in self.groups.items():
            kg = self.cache.kernel_grid(params_by_group[key])
            out[idx] = self._dp(kg, key, alpha)
        return out

    def objective(self, dp: np.ndarray) -> float:
        return float(self.weights @ self._rho(dp))

    def solver_loss(self, z: np.ndarray) -> np.ndarray:
        """rho(z) with its first two derivatives for ``least_squares``,
        where z = dP^2; half their sum is the weighted objective."""
        w = self.weights
        if self.config.loss == "squared":
            return np.stack([2.0 * w * z, 2.0 * w, np.zeros_like(z)])
        root = np.sqrt(1.0 + z)
        return np.stack([2.0 * w * z / (1.0 + root), w / root, -0.5 * w / root ** 3])


# -- trust-region least-squares solver ----------------------------------


def _logistic(u: float) -> float:
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _softplus(u: float) -> float:
    # ln(1 + e^u), stable for large |u|
    return math.log1p(math.exp(-abs(u))) + max(u, 0.0)


class _CountedResiduals:
    """Residual vector of transformed coordinates for the solver.

    Counts every call, finite-difference Jacobian columns included, and
    records each improvement of the objective as (eval#, f).  A point
    whose parameters overflow or whose residuals are not finite gets
    the constant FALLBACK_DP instead, and is counted as a fallback.
    """

    def __init__(self, side: _MarketSide, unpack, params_by_group):
        self.side = side
        self.unpack = unpack
        self.params_by_group = params_by_group
        self.evals = 0
        self.fallback_evals = 0
        self.best = math.inf
        self.improvements: list[tuple[int, float]] = []

    def __call__(self, u: np.ndarray) -> np.ndarray:
        self.evals += 1
        try:
            params, alpha = self.unpack(u)
            dp = self.side.dp(self.params_by_group(params), alpha)
        except (OverflowError, ValueError):
            dp = None
        if dp is None or not np.all(np.isfinite(dp)):
            self.fallback_evals += 1
            dp = np.full(len(self.side.instruments), FALLBACK_DP)
        f = self.side.objective(dp)
        if f < self.best:
            self.best = f
            self.improvements.append((self.evals, f))
        return dp


def _least_squares(residuals: _CountedResiduals, starts: list[np.ndarray],
                   config: FitConfig):
    """Multistart trust-region reflective least squares on the residual
    vector under the weighted loss; the lowest objective wins.
    Returns (x, objective, dp, info)."""
    runs = []
    for x0 in starts:
        res = least_squares(residuals, x0, method="trf", loss=residuals.side.solver_loss,
                            ftol=max(config.ftol, EPS), xtol=config.xtol, gtol=GTOL,
                            max_nfev=config.max_iter)
        runs.append((residuals.side.objective(res.fun), res))
    objectives = tuple(f for f, _ in runs)
    fun, best = runs[objectives.index(min(objectives))]

    # converged means stationary: the solver met a tolerance and the
    # objective's gradient in the fitted coordinates is flat
    grad_norm = float(np.linalg.norm(best.grad, ord=np.inf))
    converged = best.status > 0 and grad_norm <= STATIONARY_GRAD * (1.0 + fun)
    info = dict(evaluations=residuals.evals, fallback_evals=residuals.fallback_evals,
                converged=bool(converged), status=int(best.status),
                grad_norm=grad_norm, objective_per_start=objectives,
                n_starts=len(starts), descent=tuple(residuals.improvements))
    return best.x, fun, best.fun, info


def _jittered_starts(x0: np.ndarray, config: FitConfig, scale: float = 0.8) -> list[np.ndarray]:
    rng = np.random.default_rng(config.seed)
    starts = [x0]
    for _ in range(config.multistart_count - 1):
        starts.append(x0 + rng.normal(0.0, scale, len(x0)))
    return starts


# -- single-name fit ---------------------------------------------------


def fit_single_name(instruments: Sequence[Instrument], curve: RiskfreeCurve,
                    recovery: float | RecoverySchedule | None,
                    config: FitConfig = FitConfig()) -> FitResult:
    """Fit (a, b, c) to the instruments by weighted robust least squares.

    With a single distinct tenor and both hazard levels free the
    problem is underdetermined: the fit proceeds with a = b and c fixed,
    and the result is flagged.
    """
    if not instruments:
        raise ValueError("no instruments")
    side = _MarketSide(instruments, curve, recovery, config)
    lo_c, hi_c = config.c_bounds

    underdetermined = False
    tie_ab = False
    fix_c = config.fix_c
    if len(set(round(t, 12) for t in side.tenors)) == 1 and fix_c is None:
        underdetermined = True
        tie_ab = True
        fix_c = 0.5 * (lo_c + hi_c)

    def unpack(u: np.ndarray):
        if tie_ab:
            a = b = math.exp(u[0])
            i = 1
        else:
            a, b = math.exp(u[0]), math.exp(u[1])
            i = 2
        if fix_c is not None:
            c = fix_c
        else:
            c = lo_c + (hi_c - lo_c) * _logistic(u[i])
            i += 1
        alpha = _logistic(u[i]) if side.fit_alpha else (
            config.em_alpha_fixed if side.em_on else 0.0)
        return SurvivalParams(a, b, c), alpha

    x0 = [math.log(0.01)] if tie_ab else [math.log(0.01), math.log(0.05)]
    if fix_c is None:
        x0.append(0.0)
    if side.fit_alpha:
        x0.append(0.0)
    residuals = _CountedResiduals(side, unpack, lambda params: {None: params})
    x, fun, dp, info = _least_squares(residuals, _jittered_starts(np.array(x0), config),
                                      config)
    params, alpha = unpack(x)

    info.update(underdetermined=underdetermined, tie_ab=tie_ab,
                fix_c=fix_c, seed=config.seed)
    return FitResult(params=params, alpha=alpha if side.em_on else None,
                     residuals=tuple(float(r) for r in dp),
                     objective=fun, diagnostics=info)


# -- rating-grid fit ---------------------------------------------------


def _grid_from_single(params: SurvivalParams, rating: int) -> RatingGrid:
    # pin the missing anchors with the geometric monotone prior
    def anchors(x: float) -> tuple[float, float, float]:
        return tuple(
            x * PRIOR_ANCHOR_RATIO ** ((anchor - rating) / 6.0)
            for anchor in ANCHOR_RATINGS)

    return RatingGrid(anchors_a=anchors(params.a), anchors_b=anchors(params.b),
                      c=params.c)


def fit_rating_grid(instruments: Sequence[Instrument], curve: RiskfreeCurve,
                    recovery_schedule: RecoverySchedule | None,
                    config: FitConfig = FitConfig()) -> FitResult:
    """Fit the seven-parameter grid (a, b anchors at AA/BBB/B, shared c),
    optionally with the sovereign coefficient alpha.

    Anchor monotonicity is built into the parametrisation (positive
    log-increments), so any fitted grid satisfies the no-crossing
    invariant by construction.
    """
    if not instruments:
        raise ValueError("no instruments")
    ratings = []
    for inst in instruments:
        r = inst.effective_rating
        if r is None:
            raise ValueError(
                f"instrument {inst.identifier or inst} has no rating; "
                "rating-grid fitting needs one per instrument")
        ratings.append(r)
    ratings = np.array(ratings)

    if len(set(ratings.tolist())) == 1:
        single = fit_single_name(instruments, curve, recovery_schedule, config)
        grid = _grid_from_single(single.params, int(ratings[0]))
        diag = dict(single.diagnostics)
        diag.update(underdetermined=True, degenerate_single_rating=int(ratings[0]))
        return FitResult(params=grid, alpha=single.alpha,
                         residuals=single.residuals,
                         objective=single.objective, diagnostics=diag)

    side = _MarketSide(instruments, curve, recovery_schedule, config,
                       group_by_rating=True)
    lo_c, hi_c = config.c_bounds
    fix_c = config.fix_c

    def unpack(u: np.ndarray):
        a1 = math.exp(u[0])
        a2 = a1 * math.exp(_softplus(u[1]))
        a3 = a2 * math.exp(_softplus(u[2]))
        b1 = math.exp(u[3])
        b2 = b1 * math.exp(_softplus(u[4]))
        b3 = b2 * math.exp(_softplus(u[5]))
        i = 6
        if fix_c is not None:
            c = fix_c
        else:
            c = lo_c + (hi_c - lo_c) * _logistic(u[i])
            i += 1
        alpha = _logistic(u[i]) if side.fit_alpha else (
            config.em_alpha_fixed if side.em_on else 0.0)
        return RatingGrid(anchors_a=(a1, a2, a3), anchors_b=(b1, b2, b3), c=c), alpha

    def by_rating(grid: RatingGrid) -> dict:
        return {r: grid.params_for_rating(r) for r in side.groups}

    x0 = [math.log(0.003), -1.0, -1.0, math.log(0.02), -1.0, -1.0]
    if fix_c is None:
        x0.append(0.0)
    if side.fit_alpha:
        x0.append(0.0)
    residuals = _CountedResiduals(side, unpack, by_rating)
    x, fun, dp, info = _least_squares(
        residuals, _jittered_starts(np.array(x0), config, 0.6), config)
    grid, alpha = unpack(x)

    info.update(underdetermined=False, fix_c=fix_c, seed=config.seed)
    return FitResult(params=grid, alpha=alpha if side.em_on else None,
                     residuals=tuple(float(r) for r in dp),
                     objective=fun, diagnostics=info)
