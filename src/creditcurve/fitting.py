"""Robust weighted calibration of survival curves to bond/CDS prices.

Residuals are price deviations in points per 100 face,

    dP = 100 * [ 1 - P/100 + (coupon - rhat - s(T)) * Pi(T) ]

(rhat omitted for CDS, where the market side is the upfront).  Positive
dP means the instrument looks cheap against the candidate curve.  The
objective is a weighted sum of a robust penalty rho(dP) with
rho(x) = sqrt(1 + x^2) - 1, which grows like x^2/2 near zero and like
|x| for outliers; plain squared loss is available as an option.

The optimizer is bounded trust-region robust least squares, run on the
residual vector dP with a loss that folds in the weights, so that half
its sum is the objective.  The solver (:func:`_trust_region`) is in this
module and needs numpy alone: the trust-region reflective method of
Branch, Coleman & Li (1999), a step-for-step port of the bounded branch
of ``scipy.optimize.least_squares`` for the settings the fits use.  Each
iteration scales the variables by their distance to the bound the
gradient points at (Coleman-Li), solves the trust-region subproblem by
Levenberg-Marquardt (More 1978) with one SVD, and keeps every iterate
strictly inside the box by cutting a step back from a bound or
reflecting it off one; the robust loss enters through the rescaling of
Triggs et al. (2000).  The model's constraints are the solver's box
constraints.  The fit coordinates are the logs of the hazard levels
(free), the shape c itself in ``C_BOUNDS``, the sovereign coefficient
alpha itself in [0, 1], and, on a grid, the log-increments between
neighbouring rating anchors, each >= 0, so that fitted grids can never
cross.  A parameter at an edge of its box is on the solver's active set,
which ``at_bound`` reports.  Multistart with a seeded generator keeps
results reproducible bit for bit; it stops once two stationary starts
agree, and the lowest objective among the starts that ran wins.

The solver's Jacobian is exact.  dP is affine in the kernels (Pi, Xi,
rhat*Pi) and the kernels are linear in Q, so each evaluation runs the
kernel sums once over the survival jet [Q, dQ/da, dQ/db, dQ/dc] and gets
the residuals together with their derivatives in (a, b, c); alpha enters
as -100 * sov * Pi.  Each rating group's kernel pass runs on its own
grid, ending at the group's longest tenor.  Every group's read-out points
(its grid, then its tenors) are laid out side by side once per fit, and
one jet call per evaluation covers them all, each point with its own
group's (a, b) and the shared c; each group's pass is then its product
with W on its slice of that jet.  The instruments are laid out group by
group once per fit, so each group's kernel rows and its chain into x are
one slice; the groups' kernel rows go through one quotient rule for rhat
and one price-gap pass per evaluation, and the residuals and their
Jacobian are put back in instrument order at the end.  A single-name fit
is the one-group case of the same pass.

Each fit has one chart: a map from the fit coordinates x to arrays, not
curve objects: the hazard levels a and b with one entry per rating
group, the shared c and alpha, and d(a, b, c, alpha)/dx as one (groups,
4, coordinates) array, through the coordinate maps (exp of the logs, the
cumulative anchor increments, log-linear rating interpolation; c and
alpha enter as themselves).  One call per solver point evaluates the
chart once and returns the residuals together with their derivatives
chained into x, so a Jacobian costs no extra evaluation.  The fitted
curve, a SurvivalParams or a RatingGrid, is built once, at the winning
point, for the result; a grid chart's levels are that grid's
``params_for_rating`` levels bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .ratecurve import RiskfreeCurve
from .survival import (
    ANCHOR_RATINGS,
    C_BOUNDS,
    RatingGrid,
    SurvivalParams,
    anchor_segment,
    log_interp,
    survival_jet,
)
from .valuation import (
    Instrument,
    KernelReadout,
    _dp,
    _quotes,
    _rhat,
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

# anchor-to-anchor hazard ratio assumed when a grid fit degenerates to a
# single rating and the other anchors must be pinned by a monotone prior
PRIOR_ANCHOR_RATIO = 4.0

EPS = float(np.finfo(float).eps)
# solver stopping rules: the sup-norm of the objective's scaled gradient, the
# step size relative to |x|, and the evaluations per start; a bound within XTOL
# (relative) of the last point is on the active set
GTOL = 1e-8
XTOL = 1e-10
MAX_NFEV = 20000
# converged fits have a projected gradient sup-norm below this, relative to
# 1 + objective
STATIONARY_GRAD = 1e-4
# the multistart stops at a stationary start whose objective is within
# START_AGREEMENT_RTOL * lowest + START_AGREEMENT_FLOOR of the lowest objective
# of the stationary starts before it; the floor ends fits at rounding level
START_AGREEMENT_RTOL = 1e-9
START_AGREEMENT_FLOOR = 1e-20
# residual (points) reported for a candidate whose curve cannot be evaluated
FALLBACK_DP = 1e6


@dataclass(frozen=True)
class FitConfig:
    weight_mode: str = "issue_size"       # issue_size | equal | issue_size_duration
    loss: str = "robust"                  # robust | squared
    fix_c: float | None = None
    multistart_count: int = 5             # a cap: starts stop once two stationary ones agree
    seed: int = 0
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
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValueError(f"multistart_count must be an integer, got {n!r}")
        seed = self.seed
        if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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
                   recovery: float | None, sov_spread: float = 0.0,
                   alpha: float = 0.0) -> float:
    """Price deviation in points per 100; positive means the instrument
    appears cheap relative to the candidate curve.  ``recovery=None``
    takes the instrument's own.  The model spread is widened by alpha
    (in [0, 1]) times the sovereign par spread ``sov_spread`` at the
    instrument's tenor."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    k = kernels(curve, params, inst.tenor)
    quotes = _quotes([inst], curve, recovery)
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


def _slices(sizes: list[int]) -> list[slice]:
    # consecutive slices of the given sizes
    bounds = np.cumsum([0] + sizes).tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _MarketSide:
    """Precomputed instrument arrays and the vectorised loss core.

    Everything that does not depend on the candidate curve (market
    prices, SNAC upfronts, weights, recoveries, grid indices) is
    computed once; per candidate only the survival values move.  A
    candidate is the chart's arrays, not curve objects: each group's
    hazard levels a and b, the shared c and alpha, and each group's
    chain into the fit coordinates.  Each rating group has its own
    read-out, on a grid that ends at the group's longest tenor.  Per
    candidate one jet call (:meth:`jet`) covers every group's read-out
    points, laid out group after group (``_point_slices``), and each
    group's :class:`KernelGrid` is its product with W on its slice, with
    no SurvivalParams.  The rest of the work runs in the
    grouped layout of the instruments, group after group (``slices``),
    and its results are put back in instrument order.  The layout stays
    because it is cheaper where ratings interleave: kernel rows kept in
    instrument order cost about 11% more CPU per evaluation on a
    shuffled five-rating sector, and nothing on rows listed rating by
    rating, where the put-back is the identity.
    """

    def __init__(self, instruments: Sequence[Instrument], curve: RiskfreeCurve,
                 recovery: float | None, config: FitConfig,
                 group_by_rating: bool = False):
        if not instruments:
            raise ValueError("no instruments")
        self.instruments = list(instruments)
        self.config = config
        if group_by_rating:
            for inst in self.instruments:
                if inst.effective_rating is None:
                    raise ValueError(
                        f"instrument {inst.identifier or inst} has no rating; "
                        "rating-grid fitting needs one per instrument")
            ratings = np.array([i.effective_rating for i in self.instruments])
            keys = sorted(set(int(r) for r in ratings))
            self.groups = {r: np.flatnonzero(ratings == r) for r in keys}
        else:
            self.groups = {None: np.arange(len(self.instruments))}
        self.tenors = np.array([i.tenor for i in self.instruments])
        self.weights = _weights(self.instruments, config.weight_mode)
        self._quotes = _quotes(self.instruments, curve, recovery)
        self.em_on = config.em_mode != "off"
        if self.em_on and any(i.sovereign_spread is None for i in self.instruments):
            missing = [i.identifier for i in self.instruments if i.sovereign_spread is None]
            raise ValueError(f"EM mode needs a sovereign spread on every instrument; "
                             f"missing for {missing}")
        self.fit_alpha = config.em_mode == "fit"
        self.sov = np.array([i.sovereign_spread or 0.0 for i in self.instruments])
        self._rho = _rho_vec(config.loss)
        self._readouts = {key: KernelReadout.of(curve, self.tenors[idx])
                          for key, idx in self.groups.items()}
        # the grouped layout: group after group, each in instrument order,
        # so that every group's rows are one slice, and likewise every
        # group's read-out points in the one jet call
        order = np.concatenate(list(self.groups.values()))
        self.slices = dict(zip(self.groups, _slices([len(idx) for idx in self.groups.values()])))
        self._back = np.argsort(order)
        self._grouped_quotes = tuple(q[order] for q in self._quotes)
        self._grouped_sov = self.sov[order]
        sizes = [len(ro.points) for ro in self._readouts.values()]
        self._points = np.concatenate([ro.points for ro in self._readouts.values()])
        self._point_slices = dict(zip(self.groups, _slices(sizes)))
        self._point_group = np.repeat(np.arange(len(sizes)), sizes)

    def jet(self, a: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
        """The survival jet of each group's curve at the group's read-out
        points, every group in one call: the points group after group
        (``_point_slices``), each with its group's b and (b - a)/c, where
        ``a`` and ``b`` hold one hazard level per group and ``c`` is
        shared."""
        # (b - a)/c overflows to -inf at an extreme point, which the
        # residuals' finiteness test turns into a fallback
        with np.errstate(over="ignore"):
            power = (b - a) / c
        return survival_jet(self._points, b.take(self._point_group),
                            power.take(self._point_group), c)

    def residuals(self, a: np.ndarray, b: np.ndarray, c: float, alpha: float,
                  chain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Price residuals in points and their derivatives in the fit
        coordinates x, in instrument order, from the chart's hazard levels
        ``a`` and ``b`` (one per group), shared ``c`` and ``alpha``, and
        ``chain`` = d(a, b, c, alpha)/dx, one (4, coordinates) block per
        group; fresh arrays on every call."""
        jet = self.jet(a, b, c)
        # every group's kernel rows side by side, for one pass of the price gap
        wq = np.empty((3, 4, len(self.instruments)))
        for key, rows in self.slices.items():
            kg = self._readouts[key].kernel_grid(None, jet=True,
                                                 q=jet[:, self._point_slices[key]])
            wq[:, :, rows] = kg.wq
        pi, xi, rp = wq
        rhat = _rhat(pi, rp)
        sov = self._grouped_sov
        gap = _dp(pi, xi, rhat, alpha * sov, *self._grouped_quotes)
        d_params = np.empty((len(self.instruments), 4))
        d_params[:, :3] = gap[1:].T
        # alpha widens the model spread by alpha * sov, which moves dP by -100 * Pi
        d_params[:, 3] = -100.0 * sov * pi[0]
        jac = np.concatenate([d_params[rows] @ chain[g]
                              for g, rows in enumerate(self.slices.values())])
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


# -- fit coordinates ---------------------------------------------------


def _logistic(u: float) -> float:
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _softplus(u: float) -> float:
    # ln(1 + e^u), stable for large |u|
    return math.log1p(math.exp(-abs(u))) + max(u, 0.0)


def _start(u: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """A start in the fit coordinates from its seeded draw ``u``: a logistic
    map into a two-sided box, lb + softplus(u) above a lower bound alone,
    and u itself where the coordinate is free; strictly inside the box."""
    x = u.copy()
    for i, (lo, hi) in enumerate(zip(lb, ub)):
        if math.isfinite(hi):
            x[i] = lo + (hi - lo) * _logistic(u[i])
        elif math.isfinite(lo):
            x[i] = lo + _softplus(u[i])
    # a map that rounds onto an edge (|u| beyond about 37) gives way by one ulp
    return _strictly_feasible(x, lb, ub)


@dataclass(frozen=True)
class _ShapeAlpha:
    """Where the shape c and the sovereign coefficient alpha sit in the
    fit coordinates, after the hazard slots (index None: held fixed).
    Each is its own coordinate, boxed in ``C_BOUNDS`` and [0, 1]."""

    i_c: int | None
    i_alpha: int | None
    fixed_c: float | None
    fixed_alpha: float

    @classmethod
    def after(cls, n_hazard: int, fix_c: float | None, side: _MarketSide) -> "_ShapeAlpha":
        i_c = n_hazard if fix_c is None else None
        i_alpha = n_hazard + (fix_c is None) if side.fit_alpha else None
        return cls(i_c, i_alpha, fix_c, side.config.em_alpha_fixed if side.em_on else 0.0)

    def coordinates(self) -> dict[str, tuple[float, float]]:
        """The box of each of c and alpha that is fitted, by name."""
        boxes = {}
        if self.i_c is not None:
            boxes["c"] = C_BOUNDS
        if self.i_alpha is not None:
            boxes["alpha"] = (0.0, 1.0)
        return boxes

    def chart(self, x: np.ndarray, groups: int = 1) -> tuple[float, float, np.ndarray]:
        """c, alpha and each of ``groups`` groups' d(a, b, c, alpha)/dx with
        rows c and alpha filled; rows a and b are zero, for the hazard part
        of the chart to fill."""
        chain = np.zeros((groups, 4, len(x)))
        c, alpha = self.fixed_c, self.fixed_alpha
        if self.i_c is not None:
            c = float(x[self.i_c])
            chain[:, 2, self.i_c] = 1.0
        if self.i_alpha is not None:
            alpha = float(x[self.i_alpha])
            chain[:, 3, self.i_alpha] = 1.0
        return c, alpha, chain


class _CountedResiduals:
    """Residual vector of the fit coordinates x, with its Jacobian.

    ``chart(x)`` gives the arguments of :meth:`_MarketSide.residuals`:
    (a, b, c, alpha, d(a, b, c, alpha)/dx), with a and b one hazard level
    per rating group.  Each call evaluates the chart once and
    returns the residuals dP together with d dP/dx, as fresh arrays that
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

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.evals += 1
        try:
            dp, jac = self.side.residuals(*self.chart(x))
        except (OverflowError, ValueError):
            dp = jac = None
        if dp is None or not (np.isfinite(dp).all() and np.isfinite(jac).all()):
            self.fallback_evals += 1
            n = len(self.side.instruments)
            dp, jac = np.full(n, FALLBACK_DP), np.zeros((n, len(x)))
        f = self.side.objective(dp)
        if f < self.best:
            self.best = f
            self.improvements.append((self.evals, f))
        return dp, jac


# -- trust-region least-squares solver ----------------------------------


class _TrustRegionResult(NamedTuple):
    x: np.ndarray       # the last accepted point
    fun: np.ndarray     # the residuals there
    grad: np.ndarray    # the gradient of half the loss sum there
    active: np.ndarray  # -1 at an active lower bound, 1 at an upper one, else 0
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


# -- the box: Coleman-Li scaling and strictly feasible reflective steps --


def _active(x: np.ndarray, lb: np.ndarray, ub: np.ndarray, rtol: float) -> np.ndarray:
    """-1 where x is within rtol * max(1, |bound|) of its lower bound (and
    nearer it than the upper), 1 likewise at the upper bound, else 0."""
    lower_dist, upper_dist = x - lb, ub - x
    active = np.zeros(len(x), dtype=int)
    active[np.isfinite(lb) & (lower_dist <= np.minimum(
        upper_dist, rtol * np.maximum(1.0, np.abs(lb))))] = -1
    active[np.isfinite(ub) & (upper_dist <= np.minimum(
        lower_dist, rtol * np.maximum(1.0, np.abs(ub))))] = 1
    return active


def _strictly_feasible(x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """x with each coordinate on or beyond a bound moved one ulp inside it."""
    return np.where(x <= lb, np.nextafter(lb, ub), np.where(x >= ub, np.nextafter(ub, lb), x))


def _cl_scaling(x: np.ndarray, g: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                finite_lb: np.ndarray, finite_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Coleman-Li scaling vector v and its derivative dv/dx: the
    distance to the bound the descent direction -g points at, or 1 where
    that bound is infinite (``finite_lb`` and ``finite_ub`` mark the
    finite bounds)."""
    to_upper = (g < 0) & finite_ub
    to_lower = (g > 0) & finite_lb
    v = np.where(to_upper, ub - x, np.where(to_lower, x - lb, 1.0))
    return v, to_lower - to_upper.astype(float)


def _step_to_bound(x: np.ndarray, s: np.ndarray, lb: np.ndarray,
                   ub: np.ndarray) -> tuple[float, np.ndarray]:
    """The least t >= 0 at which x + t s reaches a bound, and which
    coordinates reach one there (-1 lower, 1 upper, else 0)."""
    moving = s != 0
    steps = np.full(len(x), np.inf)
    with np.errstate(over="ignore"):
        steps[moving] = np.maximum((lb - x)[moving] / s[moving], (ub - x)[moving] / s[moving])
    t = steps.min()
    return t, (steps == t) * np.sign(s).astype(int)


def _to_trust_region(x: np.ndarray, s: np.ndarray, Delta: float) -> float:
    """The t > 0 at which |x + t s| = Delta, for x inside the region."""
    a, b, c = s.dot(s), x.dot(s), x.dot(x) - Delta ** 2
    # the two roots without cancellation (Numerical Recipes)
    q = -(b + math.copysign(math.sqrt(b * b - a * c), b))
    return max(q / a, c / q)


def _quadratic_along(J: np.ndarray, g: np.ndarray, s: np.ndarray, diag: np.ndarray,
                     s0: np.ndarray | None = None) -> tuple[float, float, float]:
    """(a, b, c) of the model 0.5 p (J^T J + diag) p + g p along
    p = s0 + t s, as a t^2 + b t + c."""
    v = J.dot(s)
    a = 0.5 * (v.dot(v) + (s * diag).dot(s))
    b = g.dot(s)
    if s0 is None:
        return a, b, 0.0
    u = J.dot(s0)
    b += u.dot(v)
    b += (s0 * diag).dot(s)
    c = 0.5 * u.dot(u) + g.dot(s0)
    c += 0.5 * (s0 * diag).dot(s0)
    return a, b, c


def _minimize_quadratic(a: float, b: float, lo: float, hi: float,
                        c: float = 0.0) -> tuple[float, float]:
    """The minimum of a t^2 + b t + c over lo <= t <= hi: (t, value),
    the first of lo, hi and the vertex on a tie."""
    ts = [lo, hi]
    if a != 0 and lo < -0.5 * b / a < hi:
        ts.append(-0.5 * b / a)
    return min(((t, t * (a * t + b) + c) for t in ts), key=lambda ty: ty[1])


def _model(J: np.ndarray, g: np.ndarray, s: np.ndarray, diag: np.ndarray) -> float:
    # the model at the step s: t = 1 along s from 0
    a, b, _ = _quadratic_along(J, g, s, diag)
    return a + b


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The trust-region step p if it stays in the box; otherwise the best
    of three strictly feasible steps under the model: p cut back to
    theta of the way to the bound, its reflection off that bound, and the
    scaled steepest descent step.  Returns the step, the step in the
    scaled variables and the model's predicted reduction."""
    if ((x + p >= lb) & (x + p <= ub)).all():
        return p, p_h, -_model(J_h, g_h, p_h, diag_h)

    p_stride, hits = _step_to_bound(x, p, lb, ub)
    # the reflected direction
    r_h = p_h.copy()
    r_h[hits != 0] *= -1
    r = d * r_h
    # cut the trust-region step back to the bound
    p = p * p_stride
    p_h = p_h * p_stride
    x_on_bound = x + p
    # the reflected direction first crosses the box or the region's boundary
    to_tr = _to_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0.0, -1.0
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_along(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic(a, b, r_stride_l, r_stride_u, c=c)
        r_h = p_h + r_h * r_stride
        r = r_h * d
    else:
        r_value = np.inf

    # p strictly inside
    p *= theta
    p_h *= theta
    p_value = _model(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / np.linalg.norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b, _ = _quadratic_along(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic(a, b, 0.0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _trust_region(fun, x0: np.ndarray, lb: np.ndarray, ub: np.ndarray, loss, ftol: float,
                  xtol: float, gtol: float, max_nfev: int) -> _TrustRegionResult:
    """Minimise half the sum of ``loss(f^2)[0]`` over lb <= x <= ub from
    ``x0``, strictly inside the box; ``fun(x)`` gives (f, J).

    The bounded trust-region reflective method (Branch, Coleman & Li
    1999): Coleman-Li scaling of the variables by their distance to the
    bound the gradient points at, one SVD per iteration of the scaled
    Jacobian stacked on the scaling's curvature term, the trust-region
    step from it (:func:`_lm_step`, More 1978), and, when that step
    leaves the box, the best of its strictly feasible cut-back, its
    reflection off the bound and the scaled steepest-descent step
    (:func:`_select_step`).  Every iterate stays strictly inside the
    box; a coordinate with infinite bounds is free.  The robust loss
    enters through the rescaling of Triggs et al. (2000), which turns
    each iteration into a plain least-squares model.  A step-for-step
    port of the bounded branch of ``scipy.optimize.least_squares`` with
    ``method="trf"``, exact trust-region solves, unit variable scale and
    f_scale = 1.  ``loss(z)`` gives rho and its first two derivatives in
    z; J must be a fresh array, since the solver rescales it in place,
    and ``njev`` counts the Jacobians used (1 plus the accepted steps).
    Stops at ``max_nfev`` calls of ``fun`` (status 0) or when the scaled
    gradient's sup-norm is below ``gtol`` (1), the relative loss decrease
    of a good step is below ``ftol`` (2), the step is below ``xtol``
    relative to |x| (3), or both of the last two (4).  ``active`` marks
    the bounds within ``xtol`` (relative) of the last point.
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
    box = (lb, ub, np.isfinite(lb), np.isfinite(ub))
    v, _ = _cl_scaling(x, g, *box)
    Delta = float(np.linalg.norm(x0 / v ** 0.5)) or 1.0
    f_augmented = np.zeros(m + n)
    # the scaled Jacobian over the scaling's curvature rows, which are
    # diagonal: their off-diagonal zeros are written once, here
    J_augmented = np.zeros((m + n, n))
    curvature = J_augmented[m:].reshape(-1)[::n + 1]
    alpha = 0.0
    status = None

    while True:
        v, dv = _cl_scaling(x, g, *box)
        g_norm = np.abs(g * v).max()
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        # the scaled variables x = d * x_h, and the scaling's curvature
        d = v ** 0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f_s
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        curvature[:] = diag_h ** 0.5
        U, s, Vt = np.linalg.svd(J_augmented, full_matrices=False)
        V = Vt.T
        uf = U.T.dot(f_augmented)
        # how far a step backs off from the bounds
        theta = max(0.995, 1.0 - g_norm)

        actual_reduction = -1.0
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha, _ = _lm_step(m, n, uf, s, V, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub)
            f_new, J_new = fun(x_new)
            nfev += 1
            step_h_norm = math.sqrt(step_h.dot(step_h))
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_h_norm
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
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new *= 2.0
            # the termination test
            step_norm = math.sqrt(step.dot(step))
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

    return _TrustRegionResult(x=x, fun=f, grad=g, active=_active(x, lb, ub, xtol),
                              status=0 if status is None else status, nfev=nfev, njev=njev)


def _projected_grad_norm(res: _TrustRegionResult) -> float:
    """Sup-norm of the objective's gradient in the fit coordinates, less
    each component that pushes an active bound outward: g > 0 at a lower
    bound, g < 0 at an upper one."""
    g = res.grad
    outward = ((res.active == -1) & (g > 0)) | ((res.active == 1) & (g < 0))
    return float(np.abs(np.where(outward, 0.0, g)).max(initial=0.0))


def _stationary(res: _TrustRegionResult, objective: float) -> bool:
    """A solver run ended at a stationary point: it met a tolerance and the
    objective's projected gradient in the fit coordinates is flat, at a
    point whose curve could be evaluated (a fallback point's gradient is 0)."""
    return (res.status > 0 and not np.all(res.fun == FALLBACK_DP)
            and _projected_grad_norm(res) <= STATIONARY_GRAD * (1.0 + objective))


def _solve(side: _MarketSide, chart, params_of, coordinates: dict[str, tuple[float, float]],
           u0: list[float], scale: float, config: FitConfig, underdetermined: bool,
           tie_ab: bool | None, fix_c: float | None) -> FitResult:
    """Multistart bounded trust-region least squares of the residuals over
    the chart's coordinates, each boxed as ``coordinates`` gives (name:
    (lower, upper), in order), under the weighted loss.  The starts are
    ``u0`` and seeded normal jitters of it of size ``scale``, all drawn up
    front and each mapped into the box by :func:`_start`.  They run in
    order; the run stops at the first start that is stationary and whose
    objective is within START_AGREEMENT_RTOL relative, plus
    START_AGREEMENT_FLOOR, of the lowest objective of the stationary
    starts before it, so ``multistart_count`` is a cap.  The lowest
    objective among the starts that ran wins.  Each start stops at the
    module's tolerances (machine eps in the objective, XTOL, GTOL) or
    after MAX_NFEV evaluations.  Every fit's diagnostics have the same
    keys, in the same order; ``at_bound`` names the coordinates on an
    active bound at the winning point, and ``params_of`` builds the
    fitted curve there."""
    residuals = _CountedResiduals(side, chart)
    lb, ub = (np.array(edge, dtype=float) for edge in zip(*coordinates.values()))
    rng = np.random.default_rng(config.seed)
    u0 = np.array(u0)
    draws = [u0] + [u0 + rng.normal(0.0, scale, len(u0))
                    for _ in range(config.multistart_count - 1)]
    runs = []
    stationary = []  # the objectives of the stationary starts so far
    for u in draws:
        res = _trust_region(residuals, _start(u, lb, ub), lb, ub, side.solver_loss,
                            ftol=EPS, xtol=XTOL, gtol=GTOL, max_nfev=MAX_NFEV)
        f = side.objective(res.fun)
        runs.append((f, res))
        if _stationary(res, f):
            if stationary and (abs(f - min(stationary))
                               <= START_AGREEMENT_RTOL * min(stationary) + START_AGREEMENT_FLOOR):
                break
            stationary.append(f)
    objectives = tuple(f for f, _ in runs)
    fun, best = runs[objectives.index(min(objectives))]

    info = dict(evaluations=residuals.evals, jacobian_evals=sum(res.njev for _, res in runs),
                fallback_evals=residuals.fallback_evals,
                converged=_stationary(best, fun), status=int(best.status),
                grad_norm=_projected_grad_norm(best),
                objective_per_start=objectives,
                n_starts=len(objectives), descent=tuple(residuals.improvements),
                underdetermined=underdetermined, tie_ab=tie_ab, fix_c=fix_c,
                degenerate_single_rating=None, seed=config.seed,
                at_bound=tuple(name for name, on in zip(coordinates, best.active) if on))
    return FitResult(params=params_of(best.x), alpha=chart(best.x)[3] if side.em_on else None,
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
    return _fit_single(_MarketSide(instruments, curve, recovery, config))


def _fit_single(side: _MarketSide) -> FitResult:
    """The single-name fit on a market side of one group: one curve for
    every instrument."""
    config = side.config
    underdetermined = False
    tie_ab = False
    fix_c = config.fix_c
    if len(set(round(t, 12) for t in side.tenors)) == 1 and fix_c is None:
        underdetermined = True
        tie_ab = True
        fix_c = 0.5 * (C_BOUNDS[0] + C_BOUNDS[1])

    # x = (ln a, ln b, c, alpha), one hazard slot when a = b is tied
    i_b = 0 if tie_ab else 1
    tail = _ShapeAlpha.after(i_b + 1, fix_c, side)
    free = (-math.inf, math.inf)

    def chart(x: np.ndarray):
        c, alpha, chain = tail.chart(x)
        a, b = math.exp(x[0]), math.exp(x[i_b])
        chain[0, 0, 0], chain[0, 1, i_b] = a, b
        return np.array([a]), np.array([b]), c, alpha, chain

    def params_of(x: np.ndarray) -> SurvivalParams:
        return SurvivalParams(math.exp(x[0]), math.exp(x[i_b]), tail.chart(x)[0])

    hazard = {"ln_a": free} if tie_ab else {"ln_a": free, "ln_b": free}
    coordinates = {**hazard, **tail.coordinates()}
    u0 = [math.log(0.01), math.log(0.05)][:i_b + 1] + [0.0] * len(tail.coordinates())
    return _solve(side, chart, params_of, coordinates, u0, 0.8, config,
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

    Anchor monotonicity is built into the parametrisation (log-increments
    between neighbouring anchors, boxed at >= 0), so any fitted grid
    satisfies the no-crossing invariant by construction.
    """
    side = _MarketSide(instruments, curve, recovery, config, group_by_rating=True)
    if len(side.groups) == 1:
        single = _fit_single(side)
        (rating,) = side.groups
        return replace(single, params=_grid_from_single(single.params, rating),
                       diagnostics={**single.diagnostics, "underdetermined": True,
                                    "degenerate_single_rating": rating})

    # x = (ln a_AA, ln a_BBB - ln a_AA, ln a_B - ln a_BBB, the same three
    #      for b, c, alpha), the increments boxed at >= 0
    tail = _ShapeAlpha.after(6, config.fix_c, side)
    # each group's segment of the anchors and its fraction along it
    segment = anchor_segment(list(side.groups))
    # d ln x(r)/d ln(anchor k): the log-interpolation weights of anchors k and
    # above, one row per group
    tail_weights = np.cumsum(log_interp(segment, np.eye(3))[::-1], axis=0)[::-1].T

    def anchors(x: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
        # the a and the b anchors at AA, BBB and B: e^(ln AA anchor), then
        # each anchor the one below it times e^(its increment)
        return tuple(tuple(accumulate(map(math.exp, x[i:i + 3].tolist()), mul)) for i in (0, 3))

    def chart(x: np.ndarray):
        levels = anchors(x)
        # a point where RatingGrid would reject an anchor falls back: an
        # anchor at inf raises here, one at 0 in math.log
        if not (math.isfinite(levels[0][2]) and math.isfinite(levels[1][2])):
            raise OverflowError("rating anchor overflows")
        # every group's ln a and ln b in one interpolation, then each level
        # by the scalar exp, as RatingGrid.params_for_rating takes it
        logs = log_interp(segment, [[math.log(v) for v in row] for row in levels])
        a, b = (np.array([math.exp(v) for v in row]) for row in logs.tolist())
        c, alpha, chain = tail.chart(x, len(side.groups))
        # d ln(anchor j)/dx_k is 1 for k <= j
        chain[:, 0, 0:3] = a[:, np.newaxis] * tail_weights
        chain[:, 1, 3:6] = b[:, np.newaxis] * tail_weights
        return a, b, c, alpha, chain

    def params_of(x: np.ndarray) -> RatingGrid:
        a, b = anchors(x)
        return RatingGrid(anchors_a=a, anchors_b=b, c=tail.chart(x)[0])

    free, increment = (-math.inf, math.inf), (0.0, math.inf)
    coordinates = {"ln_a_AA": free, "d_a1": increment, "d_a2": increment,
                   "ln_b_AA": free, "d_b1": increment, "d_b2": increment,
                   **tail.coordinates()}
    u0 = [math.log(0.003), -1.0, -1.0, math.log(0.02), -1.0, -1.0] + [0.0] * len(
        tail.coordinates())
    return _solve(side, chart, params_of, coordinates, u0, 0.6, config,
                  underdetermined=False, tie_ab=None, fix_c=config.fix_c)
