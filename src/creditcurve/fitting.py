"""Robust weighted calibration of survival curves to bond/CDS prices.

Residuals are price deviations in points per 100 face,

    dP = 100 * [ 1 - P/100 + (coupon - rhat - s(T)) * Pi(T) ]

(rhat omitted for CDS, where the market side is the upfront).  Positive
dP means the instrument looks cheap against the candidate curve.  The
objective is a weighted sum of a robust penalty rho(dP) with
rho(x) = sqrt(1 + x^2) - 1, which grows like x^2/2 near zero and like
|x| for outliers; plain squared loss is available as an option.

The optimizer is trust-region robust least squares, run on the residual
vector dP with a loss that folds in the weights, so that half its sum is
the objective.  The solver (:func:`_trust_region`) is in this module and
needs numpy alone: Levenberg-Marquardt in its trust-region form (More
1978) with one SVD of the Jacobian per iteration, and the robust loss
entered through the rescaling of Triggs et al. (2000).  It is a
step-for-step port of the unbounded branch of the trust-region
reflective method (Branch, Coleman & Li 1999) in
``scipy.optimize.least_squares``, for the settings the fits use.  It
works over transformed coordinates: logs for the positive hazard
parameters, a logistic map into the box for the shape parameter and the
sovereign coefficient, and positive increments between rating anchors so
that fitted grids can never cross.  Multistart with a seeded generator
keeps results reproducible bit for bit; it stops once two stationary
starts agree, and the lowest objective among the starts that ran wins.

The solver's Jacobian is exact.  dP is affine in the kernels (Pi, Xi,
rhat*Pi) and the kernels are linear in Q, so each evaluation runs the
kernel sums once over the survival jet [Q, dQ/da, dQ/db, dQ/dc] and gets
the residuals together with their derivatives in (a, b, c); alpha enters
as -100 * sov * Pi.  Each rating group's kernel pass runs on its own
grid, ending at the group's longest tenor, with Q at the group's tenors
taken in the same jet call.  The instruments are laid out group by group
once per fit, so each group's kernel rows and its chain into u are one
slice; the groups' kernel rows go through one price-gap pass per
evaluation, and the residuals and their Jacobian are put back in
instrument order at the end.

Each fit has one chart: a map from the solver's coordinates u to the
curve, alpha and, for each rating group, the group's (a, b, c) together
with d(a, b, c, alpha)/du through the coordinate maps (exp, logistic,
softplus increments, log-linear rating interpolation).  One call per
solver point evaluates the chart once and returns the residuals together
with their derivatives chained into u, so a Jacobian costs no extra
evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .ratecurve import RiskfreeCurve
from .survival import (
    ANCHOR_RATINGS,
    C_BOUNDS,
    RatingGrid,
    SurvivalParams,
    anchor_log_weights,
)
from .valuation import (
    DEFAULT_GRID_STEP,
    BondSpec,
    CdsSpec,
    KernelReadout,
    _dp,
    _quotes,
    kernels,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "robust_loss",
    "price_residual",
    "fit_single_name",
    "fit_rating_grid",
]

Instrument = BondSpec | CdsSpec

# anchor-to-anchor hazard ratio assumed when a grid fit degenerates to a
# single rating and the other anchors must be pinned by a monotone prior
PRIOR_ANCHOR_RATIO = 4.0

EPS = float(np.finfo(float).eps)
# solver stopping rules: the sup-norm of the objective's gradient, the step
# size relative to |u|, and the evaluations per start
GTOL = 1e-8
XTOL = 1e-10
MAX_NFEV = 20000
# converged fits have a gradient sup-norm below this, relative to 1 + objective
STATIONARY_GRAD = 1e-4
# the multistart stops at a stationary start whose objective is within
# START_AGREEMENT_RTOL * lowest + START_AGREEMENT_FLOOR of the lowest objective
# of the stationary starts before it; the floor ends fits at rounding level
START_AGREEMENT_RTOL = 1e-9
START_AGREEMENT_FLOOR = 1e-20
# residual (points) reported for a candidate whose curve cannot be evaluated
FALLBACK_DP = 1e6
# a free parameter this close to an edge of its box is reported as at its bound
AT_BOUND = 1e-9


@dataclass(frozen=True)
class FitConfig:
    weight_mode: str = "issue_size"       # issue_size | equal | issue_size_duration
    loss: str = "robust"                  # robust | squared
    fix_c: float | None = None
    multistart_count: int = 5             # a cap: starts stop once two stationary ones agree
    seed: int = 0
    grid_step: float = DEFAULT_GRID_STEP
    em_mode: str = "off"                  # off | fit | fixed
    em_alpha_fixed: float = 0.5

    def __post_init__(self) -> None:
        if self.fix_c is not None and not (self.fix_c > 0 and math.isfinite(self.fix_c)):
            raise ValueError(f"fix_c must be finite and > 0, got {self.fix_c!r}")
        if self.weight_mode not in ("issue_size", "equal", "issue_size_duration"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")
        if self.loss not in ("robust", "squared"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.em_mode not in ("off", "fit", "fixed"):
            raise ValueError(f"unknown em_mode {self.em_mode!r}")
        if not 0.0 <= self.em_alpha_fixed <= 1.0:
            raise ValueError("em_alpha_fixed must be in [0, 1]")
        n = self.multistart_count
        if not (n >= 1 and math.isfinite(n)):
            raise ValueError(f"multistart_count must be finite and >= 1, got {n!r}")
        if not isinstance(n, numbers.Integral):
            raise ValueError(f"multistart_count must be an integer, got {n!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (self.grid_step > 0 and math.isfinite(self.grid_step)):
            raise ValueError(f"grid_step must be finite and > 0, got {self.grid_step!r}")


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


def price_residual(inst: Instrument, params: SurvivalParams, curve: RiskfreeCurve,
                   recovery: float | None, grid_step: float = DEFAULT_GRID_STEP,
                   sov_spread: float = 0.0, alpha: float = 0.0) -> float:
    """Price deviation in points per 100; positive means the instrument
    appears cheap relative to the candidate curve.  ``recovery=None``
    takes the instrument's own.  The model spread is widened by alpha
    (in [0, 1]) times the sovereign par spread ``sov_spread`` at the
    instrument's tenor."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    k = kernels(curve, params, inst.tenor, grid_step)
    quotes = _quotes([inst], curve, recovery, grid_step)
    return float(_dp(k.pi, k.xi, k.rhat, alpha * sov_spread, *quotes)[0])


# -- weights -----------------------------------------------------------


def _weights(instruments: Sequence[Instrument], mode: str) -> np.ndarray:
    if mode == "equal":
        w = np.ones(len(instruments))
    else:
        w = np.array([inst.issue_size for inst in instruments], dtype=float)
        if mode == "issue_size_duration":
            # tenor as a crude duration proxy; off by default
            w = w * np.array([inst.tenor for inst in instruments])
    return w / w.sum() * len(w)


# -- market side of the objective --------------------------------------


class _MarketSide:
    """Precomputed instrument arrays and the vectorised loss core.

    Everything that does not depend on the candidate curve (market
    prices, SNAC upfronts, weights, recoveries, grid indices) is
    computed once; per candidate only the survival values move.  Each
    rating group has its own read-out, on a grid that ends at the
    group's longest tenor.  Per candidate the work runs in the grouped
    layout, group after group (``slices``), and its results are put back
    in instrument order.
    """

    def __init__(self, instruments: Sequence[Instrument], curve: RiskfreeCurve,
                 recovery: float | None, config: FitConfig,
                 group_by_rating: bool = False):
        self.instruments = list(instruments)
        self.config = config
        self.tenors = np.array([i.tenor for i in self.instruments])
        self.weights = _weights(self.instruments, config.weight_mode)
        self._quotes = _quotes(self.instruments, curve, recovery, config.grid_step)
        self.em_on = config.em_mode != "off"
        if self.em_on and any(i.sovereign_spread is None for i in self.instruments):
            missing = [i.identifier for i in self.instruments if i.sovereign_spread is None]
            raise ValueError(f"EM mode needs a sovereign spread on every instrument; "
                             f"missing for {missing}")
        self.fit_alpha = config.em_mode == "fit"
        self.sov = np.array([i.sovereign_spread or 0.0 for i in self.instruments])
        self._rho = _rho_vec(config.loss)
        if group_by_rating:
            ratings = np.array([i.effective_rating for i in self.instruments])
            keys = sorted(set(int(r) for r in ratings))
            self.groups = {r: np.flatnonzero(ratings == r) for r in keys}
        else:
            self.groups = {None: np.arange(len(self.instruments))}
        self._readouts = {key: KernelReadout.of(curve, self.tenors[idx], config.grid_step)
                          for key, idx in self.groups.items()}
        # the grouped layout: group after group, each in instrument order,
        # so that every group's rows are one slice
        order = np.concatenate(list(self.groups.values()))
        bounds = np.cumsum([0] + [len(idx) for idx in self.groups.values()]).tolist()
        self.slices = {key: slice(lo, hi)
                       for key, lo, hi in zip(self.groups, bounds, bounds[1:])}
        self._back = np.argsort(order)
        self._grouped_quotes = tuple(q[order] for q in self._quotes)
        self._grouped_sov = self.sov[order]

    def residuals(self, groups: dict, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Price residuals in points and their derivatives in the solver's
        coordinates u, in instrument order, from the chart's {group:
        (params, d(a, b, c, alpha)/du)}; fresh arrays on every call."""
        # every group's kernel rows side by side, for one pass of the price gap
        pi, xi, rhat = (np.empty((4, len(self.instruments))) for _ in range(3))
        for key, rows in self.slices.items():
            kg = self._readouts[key].kernel_grid(groups[key][0], jet=True)
            pi[:, rows], xi[:, rows], rhat[:, rows], _ = kg.at_many()
        sov = self._grouped_sov
        gap = _dp(pi, xi, rhat, alpha * sov, *self._grouped_quotes)
        d_params = np.empty((len(self.instruments), 4))
        d_params[:, :3] = gap[1:].T
        # alpha widens the model spread by alpha * sov, which moves dP by -100 * Pi
        d_params[:, 3] = -100.0 * sov * pi[0]
        jac = np.concatenate([d_params[rows] @ groups[key][1]
                              for key, rows in self.slices.items()])
        return gap[0].take(self._back), jac.take(self._back, axis=0)

    def objective(self, dp: np.ndarray) -> float:
        return float(self.weights @ self._rho(dp))

    def solver_loss(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """rho(z) with its first two derivatives for the solver, where
        z = dP^2; half the sum of rho is the weighted objective."""
        w = self.weights
        if self.config.loss == "squared":
            return 2.0 * w * z, 2.0 * w, np.zeros_like(z)
        root = np.sqrt(1.0 + z)
        return 2.0 * w * z / (1.0 + root), w / root, -0.5 * w / root ** 3


# -- trust-region least-squares solver ----------------------------------


def _logistic(u: float) -> float:
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _logistic_slope(u: float) -> float:
    # d logistic / du, without cancellation in 1 - logistic(u)
    return _logistic(u) * _logistic(-u)


def _softplus(u: float) -> float:
    # ln(1 + e^u), stable for large |u|; its slope is the logistic
    return math.log1p(math.exp(-abs(u))) + max(u, 0.0)


@dataclass(frozen=True)
class _ShapeAlpha:
    """Where the shape c and the sovereign coefficient alpha sit in the
    fit coordinates, after the hazard slots (index None: held fixed),
    and their logistic maps into ``C_BOUNDS`` and [0, 1]."""

    i_c: int | None
    i_alpha: int | None
    fixed_c: float | None
    fixed_alpha: float

    @classmethod
    def after(cls, n_hazard: int, fix_c: float | None, side: _MarketSide) -> "_ShapeAlpha":
        i_c = n_hazard if fix_c is None else None
        i_alpha = n_hazard + (fix_c is None) if side.fit_alpha else None
        return cls(i_c, i_alpha, fix_c, side.config.em_alpha_fixed if side.em_on else 0.0)

    def x0(self) -> list[float]:
        return [0.0] * ((self.i_c is not None) + (self.i_alpha is not None))

    def chart(self, u: np.ndarray) -> tuple[float, float, np.ndarray]:
        """c, alpha and d(a, b, c, alpha)/du with rows c and alpha filled;
        rows a and b are zero, for the hazard part of the chart to fill."""
        lo, hi = C_BOUNDS
        chain = np.zeros((4, len(u)))
        c, alpha = self.fixed_c, self.fixed_alpha
        if self.i_c is not None:
            c = lo + (hi - lo) * _logistic(u[self.i_c])
            chain[2, self.i_c] = (hi - lo) * _logistic_slope(u[self.i_c])
        if self.i_alpha is not None:
            alpha = _logistic(u[self.i_alpha])
            chain[3, self.i_alpha] = _logistic_slope(u[self.i_alpha])
        return c, alpha, chain

    def at_bound(self, c: float, alpha: float) -> tuple[str, ...]:
        """The free ones within AT_BOUND of an edge of their box."""
        lo, hi = C_BOUNDS
        names = []
        if self.i_c is not None and min(c - lo, hi - c) <= AT_BOUND:
            names.append("c")
        if self.i_alpha is not None and min(alpha, 1.0 - alpha) <= AT_BOUND:
            names.append("alpha")
        return tuple(names)


class _CountedResiduals:
    """Residual vector of the solver's coordinates u, with its Jacobian.

    ``chart(u)`` gives (curve, alpha, {group: (SurvivalParams,
    d(a, b, c, alpha)/du)}).  Each call evaluates the chart once and
    returns the residuals dP together with d dP/du, as fresh arrays that
    the solver may rescale in place.  Counts every call and records each
    improvement of the objective as (eval#, f).  A point whose parameters
    overflow or are rejected, or whose residuals or their derivatives are
    not finite, gets the constant FALLBACK_DP and a zero Jacobian
    instead, and is counted as a fallback.
    """

    def __init__(self, side: _MarketSide, chart):
        self.side = side
        self.chart = chart
        self.evals = 0
        self.fallback_evals = 0
        self.best = math.inf
        self.improvements: list[tuple[int, float]] = []

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.evals += 1
        try:
            _, alpha, groups = self.chart(u)
            dp, jac = self.side.residuals(groups, alpha)
        except (OverflowError, ValueError):
            dp = jac = None
        if dp is None or not (np.all(np.isfinite(dp)) and np.all(np.isfinite(jac))):
            self.fallback_evals += 1
            n = len(self.side.instruments)
            dp, jac = np.full(n, FALLBACK_DP), np.zeros((n, len(u)))
        f = self.side.objective(dp)
        if f < self.best:
            self.best = f
            self.improvements.append((self.evals, f))
        return dp, jac


class _TrustRegionResult(NamedTuple):
    x: np.ndarray       # the last accepted point
    fun: np.ndarray     # the residuals there
    grad: np.ndarray    # the gradient of half the loss sum there
    status: int         # 0 max_nfev, 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol
    nfev: int
    njev: int


def _lm_step(m: int, n: int, uf: np.ndarray, s: np.ndarray, V: np.ndarray, Delta: float,
             alpha: float):
    """The step p minimising |J p + f| subject to |p| <= Delta (More 1978),
    from the thin SVD J = U diag(s) V^T of the (m, n) Jacobian and
    uf = U^T f, with ``alpha`` the last Levenberg-Marquardt parameter.

    The Gauss-Newton step when J has full column rank and the step lies
    in the region; otherwise p solves (J^T J + alpha I) p = -J^T f with
    alpha found by at most 10 safeguarded Newton iterations on
    |p(alpha)| = Delta (to 1% of Delta), and is then scaled onto the
    boundary.  Returns p, alpha and the number of Newton iterations (0:
    the Gauss-Newton step).
    """
    def phi_and_derivative(alpha):
        # |p(alpha)| - Delta and its derivative in alpha
        denom = s ** 2 + alpha
        p = suf / denom
        p_norm = math.sqrt(p.dot(p))
        return p_norm - Delta, -(suf ** 2 / denom ** 3).sum() / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if math.sqrt(p.dot(p)) <= Delta:
            return p, 0.0, 0

    alpha_upper = math.sqrt(suf.dot(suf)) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

    for it in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s ** 2 + alpha))
    # onto the boundary exactly; p moves only slightly
    p *= Delta / math.sqrt(p.dot(p))
    return p, alpha, it + 1


def _trust_region(fun, x0: np.ndarray, loss, ftol: float, xtol: float, gtol: float,
                  max_nfev: int) -> _TrustRegionResult:
    """Minimise half the sum of ``loss(f^2)[0]`` from ``x0``; ``fun(x)`` gives (f, J).

    Levenberg-Marquardt in its trust-region form (More 1978) with one SVD
    of the Jacobian per iteration (:func:`_lm_step`); the robust loss
    enters through the rescaling of Triggs et al. (2000), which turns
    each iteration into a plain least-squares model.  A step-for-step
    port of the unbounded branch of ``scipy.optimize.least_squares``
    with ``method="trf"``, exact trust-region solves, unit variable
    scale and f_scale = 1.  ``loss(z)`` gives rho and its first two
    derivatives in z; J must be a fresh array, since the solver rescales
    it in place, and ``njev`` counts the Jacobians used (1 plus the
    accepted steps).  Stops at ``max_nfev`` calls of ``fun`` (status 0)
    or when the gradient's sup-norm is below ``gtol`` (1), the relative
    loss decrease of a good step is below ``ftol`` (2), the step is below
    ``xtol`` relative to |x| (3), or both of the last two (4).
    """
    def scaled(f, J, rho):
        # rescale f and J (in place) so that the model's gradient and
        # curvature match those of the loss
        _, rho1, rho2 = rho
        scale = np.sqrt(np.maximum(rho1 + 2.0 * rho2 * f ** 2, EPS))
        J *= scale[:, np.newaxis]
        return f * (rho1 / scale), J

    x = x0
    f, J = fun(x)
    nfev = njev = 1
    m, n = J.shape
    rho = loss(f ** 2)
    cost = 0.5 * rho[0].sum()
    f_s, J = scaled(f, J, rho)
    g = J.T.dot(f_s)
    Delta = math.sqrt(x0.dot(x0)) or 1.0
    alpha = 0.0
    status = None

    while True:
        if np.abs(g).max() < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        V = Vt.T
        uf = U.T.dot(f_s)

        actual_reduction = -1.0
        while actual_reduction <= 0 and nfev < max_nfev:
            step, alpha, _ = _lm_step(m, n, uf, s, V, Delta, alpha)
            Js = J.dot(step)
            predicted_reduction = -(0.5 * Js.dot(Js) + step.dot(g))
            x_new = x + step
            f_new, J_new = fun(x_new)
            nfev += 1
            step_norm = math.sqrt(step.dot(step))
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_norm
                continue

            rho_new = loss(f_new ** 2)
            cost_new = 0.5 * rho_new[0].sum()
            actual_reduction = cost - cost_new
            # the radius update: ratio of actual to predicted reduction
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * Delta:
                Delta_new *= 2.0
            # the termination test
            ftol_met = actual_reduction < ftol * cost and ratio > 0.25
            xtol_met = step_norm < xtol * (xtol + math.sqrt(x.dot(x)))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            njev += 1
            f_s, J = scaled(f, J_new, rho_new)
            g = J.T.dot(f_s)

    return _TrustRegionResult(x=x, fun=f, grad=g, status=0 if status is None else status,
                              nfev=nfev, njev=njev)


def _stationary(res: _TrustRegionResult, objective: float) -> bool:
    """A solver run ended at a stationary point: it met a tolerance and the
    objective's gradient in the fitted coordinates is flat, at a point
    whose curve could be evaluated (a fallback point's gradient is 0)."""
    grad_norm = float(np.linalg.norm(res.grad, ord=np.inf))
    return (res.status > 0 and not np.all(res.fun == FALLBACK_DP)
            and grad_norm <= STATIONARY_GRAD * (1.0 + objective))


def _solve(side: _MarketSide, chart, tail: _ShapeAlpha, x0: list[float], scale: float,
           config: FitConfig, **diagnostics) -> FitResult:
    """Multistart trust-region least squares of the residuals
    over the chart's coordinates, under the weighted loss, from ``x0``
    and seeded jitters of it of size ``scale``.  All
    ``multistart_count`` jitters are drawn up front and run in order;
    the run stops at the first start that is stationary and whose
    objective is within START_AGREEMENT_RTOL relative, plus
    START_AGREEMENT_FLOOR, of the lowest objective of the stationary
    starts before it, so ``multistart_count`` is a cap.  The lowest
    objective among the starts that ran wins.  Each start stops at the
    module's tolerances (machine eps in the objective, XTOL, GTOL) or
    after MAX_NFEV evaluations.  ``diagnostics`` are added to the
    solver's own."""
    residuals = _CountedResiduals(side, chart)
    rng = np.random.default_rng(config.seed)
    x0 = np.array(x0)
    starts = [x0] + [x0 + rng.normal(0.0, scale, len(x0))
                     for _ in range(config.multistart_count - 1)]
    runs = []
    stationary = []  # the objectives of the stationary starts so far
    for start in starts:
        res = _trust_region(residuals, start, side.solver_loss, ftol=EPS, xtol=XTOL, gtol=GTOL,
                            max_nfev=MAX_NFEV)
        f = side.objective(res.fun)
        runs.append((f, res))
        if _stationary(res, f):
            if stationary and (abs(f - min(stationary))
                               <= START_AGREEMENT_RTOL * min(stationary) + START_AGREEMENT_FLOOR):
                break
            stationary.append(f)
    objectives = tuple(f for f, _ in runs)
    fun, best = runs[objectives.index(min(objectives))]

    curve, alpha, _ = chart(best.x)
    info = dict(evaluations=residuals.evals, jacobian_evals=sum(res.njev for _, res in runs),
                fallback_evals=residuals.fallback_evals,
                converged=_stationary(best, fun), status=int(best.status),
                grad_norm=float(np.linalg.norm(best.grad, ord=np.inf)),
                objective_per_start=objectives,
                n_starts=len(objectives), descent=tuple(residuals.improvements),
                **diagnostics, seed=config.seed, at_bound=tail.at_bound(curve.c, alpha))
    return FitResult(params=curve, alpha=alpha if side.em_on else None,
                     residuals=tuple(float(r) for r in best.fun),
                     objective=fun, diagnostics=info)


# -- single-name fit ---------------------------------------------------


def fit_single_name(instruments: Sequence[Instrument], curve: RiskfreeCurve,
                    recovery: float | None,
                    config: FitConfig = FitConfig()) -> FitResult:
    """Fit (a, b, c) to the instruments by weighted robust least squares.

    With a single distinct tenor and both hazard levels free the
    problem is underdetermined: the fit proceeds with a = b and c fixed,
    and the result is flagged.
    """
    if not instruments:
        raise ValueError("no instruments")
    side = _MarketSide(instruments, curve, recovery, config)

    underdetermined = False
    tie_ab = False
    fix_c = config.fix_c
    if len(set(round(t, 12) for t in side.tenors)) == 1 and fix_c is None:
        underdetermined = True
        tie_ab = True
        fix_c = 0.5 * (C_BOUNDS[0] + C_BOUNDS[1])

    # u = (ln a, ln b, ...), one hazard slot when a = b is tied
    i_b = 0 if tie_ab else 1
    tail = _ShapeAlpha.after(i_b + 1, fix_c, side)

    def chart(u: np.ndarray):
        c, alpha, chain = tail.chart(u)
        params = SurvivalParams(math.exp(u[0]), math.exp(u[i_b]), c)
        chain[0, 0], chain[1, i_b] = params.a, params.b
        return params, alpha, {None: (params, chain)}

    x0 = [math.log(0.01), math.log(0.05)][:i_b + 1] + tail.x0()
    return _solve(side, chart, tail, x0, 0.8, config,
                  underdetermined=underdetermined, tie_ab=tie_ab, fix_c=fix_c)


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
                    recovery: float | None,
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
        single = fit_single_name(instruments, curve, recovery, config)
        rating = int(ratings[0])
        return replace(single, params=_grid_from_single(single.params, rating),
                       diagnostics={**single.diagnostics, "underdetermined": True,
                                    "degenerate_single_rating": rating})

    side = _MarketSide(instruments, curve, recovery, config,
                       group_by_rating=True)
    # u = (ln a_AA, softplus^-1 of ln a_BBB - ln a_AA, ... of ln a_B - ln a_BBB,
    #      the same three for b, ...)
    tail = _ShapeAlpha.after(6, config.fix_c, side)
    # d ln x(r)/d ln(anchor k): the log-interpolation weights of anchors k and above
    tail_weights = {r: np.cumsum(anchor_log_weights(r)[::-1])[::-1] for r in side.groups}

    def chart(u: np.ndarray):
        a1 = math.exp(u[0])
        a2 = a1 * math.exp(_softplus(u[1]))
        a3 = a2 * math.exp(_softplus(u[2]))
        b1 = math.exp(u[3])
        b2 = b1 * math.exp(_softplus(u[4]))
        b3 = b2 * math.exp(_softplus(u[5]))
        c, alpha, shape = tail.chart(u)
        grid = RatingGrid(anchors_a=(a1, a2, a3), anchors_b=(b1, b2, b3), c=c)
        # d ln(anchor j)/du_k is 1 for k = 0 and the softplus slope for 0 < k <= j
        slopes_a = np.array([1.0, _logistic(u[1]), _logistic(u[2])])
        slopes_b = np.array([1.0, _logistic(u[4]), _logistic(u[5])])
        groups = {}
        for r, weights in tail_weights.items():
            params = grid.params_for_rating(r)
            chain = shape.copy()
            chain[0, 0:3] = params.a * weights * slopes_a
            chain[1, 3:6] = params.b * weights * slopes_b
            groups[r] = (params, chain)
        return grid, alpha, groups

    x0 = [math.log(0.003), -1.0, -1.0, math.log(0.02), -1.0, -1.0] + tail.x0()
    return _solve(side, chart, tail, x0, 0.6, config,
                  underdetermined=False, fix_c=config.fix_c)
