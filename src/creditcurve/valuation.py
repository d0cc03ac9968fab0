"""Risky valuation kernels and spread transforms.

The building blocks are three trapezium sums over a time grid
{0, h, 2h, ..., T} (last step shortened to land on T):

    Pi   ~ sum dt * (B Q)_avg            -- RPV01, PV of a 1/yr risky stream
    Xi   ~ sum B_avg * (-dQ)             -- PV factor of 1 paid at default
    rhat -- risky-weighted average riskfree forward, defined through
            B(T)Q(T) + Xi + rhat*Pi = 1  (the parity identity)

The discretisation telescopes, so parity holds to accumulation rounding
for any grid step.  Model price of a bond per 100 face is then

    100 * (coupon * Pi + B(T)Q(T) + recovery * Xi)

which treats the coupon stream as continuously paid.  Bond prices fed
into this module are therefore full invoice values per 100 face; there
is no separate accrued-interest concept.

Each tenor's Pi, Xi and rhat*Pi are sums, over the grid steps up to
its last node and one short last step, of B-only weights times Q at the
step ends: linear in Q at the grid and the tenors.  A
:class:`KernelReadout` fixes what a tenor set needs from the riskfree
curve (one per rating group in a fit): the grid up to the last node at
or before its longest tenor, B there and at the tenors from one curve
call, and those weights as one matrix W.  A :class:`KernelGrid` is
built for one read-out: it evaluates Q at the grid and the tenors in
one call and takes one product with W.  A fit hands each group's grid
its slice of one jet call that covers every rating group's points, so
there each build is only its product with W.  A product's sum order
follows the row length, so a tenor read off a shared read-out can differ
from its one-shot kernels at rounding level.

Instruments are one record, :class:`Instrument`: a bond
(:class:`BondSpec`) and a CDS quote (:class:`CdsSpec`) share its coupon,
tenor and keyword-only issuer facts with their checks, and each adds its
own quote.

The root solves (yield, Z-spread, exact fit) share :func:`_falling_root`,
which widens a bracket until the value changes sign, evaluating each end
once, and hands both end values to :func:`_brentq`, a port of scipy's
``brentq`` that finds the same roots bit for bit, so this module does not
import scipy.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import KW_ONLY, dataclass
from typing import ClassVar, Sequence

import numpy as np

from .ratecurve import RiskfreeCurve, _from_continuous
from .survival import SurvivalParams

__all__ = [
    "DEFAULT_GRID_STEP",
    "RiskyKernels",
    "KernelReadout",
    "KernelGrid",
    "kernels",
    "kernels_at",
    "Instrument",
    "BondSpec",
    "CdsSpec",
    "AssetSwapInputs",
    "bond_model_price",
    "price_from_yield",
    "yield_from_price",
    "riskfree_schedule_price",
    "z_spread",
    "asset_swap_spread",
    "par_cds_spread",
    "par_adjusted_spread_bond",
    "cds_traded_spread_to_upfront",
    "cds_upfront",
    "par_adjusted_spread_cds",
    "par_adjusted_spread",
    "market_price",
    "exact_fit_to_instrument",
]

DEFAULT_GRID_STEP = 1.0 / 12.0
# the longest tenor a read-out takes, in years: at most 1200 monthly grid nodes
MAX_TENOR = 100.0

SNAC_COUPONS = (0.01, 0.05)


@dataclass(frozen=True)
class RiskyKernels:
    """Trapezium kernels for one (curve, survival, tenor) triple."""

    pi: float        # RPV01, years
    xi: float        # recovery-leg factor, unitless
    rhat: float      # weighted riskfree forward, per annum
    bq_T: float      # B(T) * Q(T)
    tenor: float

    @property
    def parity_gap(self) -> float:
        """B(T)Q(T) + Xi + rhat*Pi - 1; zero up to rounding."""
        return self.bq_T + self.xi + self.rhat * self.pi - 1.0


@dataclass(frozen=True, eq=False)
class KernelReadout:
    """A tenor set on the grid {0, h, 2h, ...}: the grid up to the last
    node at or before its longest tenor, where each tenor sits on it, and
    the one linear map W from Q at the read-out's points (the grid, then
    the tenors) to Pi, Xi and rhat * Pi at every tenor.

    Row j of a kernel's block of W sums, per point, the step-end weights
    of tenor j's steps: both ends' weights on each node before its last,
    the grid step's end and the short step's start on its last node, and
    the short step's end on the tenor's own point.  B does not move with
    the survival curve, so a fit builds one read-out per rating group
    (:meth:`of`) and then one :class:`KernelGrid` on it per candidate
    curve.
    """

    curve: RiskfreeCurve
    h: float
    t: np.ndarray          # the grid, up to the last node at or before the longest tenor
    points: np.ndarray     # t followed by the tenors
    tenors: np.ndarray
    t_max: float           # the longest tenor
    W: np.ndarray          # (3 * tenors, points): the tenors' Pi rows, then Xi's, then rhat * Pi's
    B_T: np.ndarray        # B at the tenors

    @classmethod
    def of(cls, curve: RiskfreeCurve, tenors,
           grid_step: float = DEFAULT_GRID_STEP) -> "KernelReadout":
        """The read-out of ``tenors`` on the grid of step ``grid_step``,
        with B at the grid and the tenors from one curve call."""
        h = float(grid_step)
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"grid_step must be finite and > 0, got {grid_step!r}")
        tenors = np.asarray(tenors, dtype=float)
        bad = tenors[~(np.isfinite(tenors) & (tenors > 0.0))]
        if bad.size or not tenors.size:
            raise ValueError(f"tenors must be finite and > 0, got {bad.tolist()}")
        too_long = tenors[tenors > MAX_TENOR]
        if too_long.size:
            raise ValueError(f"tenors must be at most {MAX_TENOR:g} years, "
                             f"got {too_long.tolist()}")
        # truncation is the floor here, as every tenor is positive
        k = (tenors / h + 1e-9).astype(int)
        n, m = int(k.max()) + 1, len(tenors)
        t = np.arange(n) * h
        points = np.concatenate([t, tenors])
        B = np.asarray(curve.discount_factor(points))
        B_k, B_T = B[k], B[n:]
        # each step's weights on Q at its start and its end, per kernel:
        # Pi (len/2) * B, Xi +-(B_start + B_end)/2, rhat * Pi (B_start - B_end)/2
        mean, drop = (B[:n - 1] + B[1:n]) / 2.0, (B[:n - 1] - B[1:n]) / 2.0
        half_dt, last_mean, last_drop = (tenors - t[k]) / 2.0, (B_k + B_T) / 2.0, (B_k - B_T) / 2.0
        # on each node, the end weight of the grid step into it (none into node 0) ...
        into = np.zeros((3, n))
        into[:, 1:] = [h / 2.0 * B[1:n], -mean, drop]
        # ... plus the start weight of the step out of it, the grid step or the short one
        full = into.copy()
        full[:, :-1] += [h / 2.0 * B[:n - 1], mean, drop]
        W = np.zeros((3, m, n + m))
        np.copyto(W[:, :, :n], full[:, np.newaxis], where=np.arange(n) < k[:, np.newaxis])
        rows = np.arange(m)
        W[:, rows, k] = into[:, k] + [half_dt * B_k, last_mean, last_drop]
        W[:, rows, n + rows] = [half_dt * B_T, -last_mean, last_drop]
        return cls(curve=curve, h=h, t=t, points=points, tenors=tenors,
                   t_max=float(tenors.max()), W=W.reshape(3 * m, n + m), B_T=B_T)

    def kernel_grid(self, params: SurvivalParams | None, jet: bool = False,
                    q: np.ndarray | None = None) -> "KernelGrid":
        return KernelGrid(self.curve, params, self.t_max, self.h, _cache=self, jet=jet, q=q)


class KernelGrid:
    """The kernels of one survival curve at a read-out's tenors.

    Built for one :class:`KernelReadout` (``_cache``; by default the
    read-out of ``t_max`` alone, :meth:`KernelReadout.of`).  Q is
    evaluated once, at the read-out's points, and Pi, Xi and rhat * Pi
    at every tenor are one product with the read-out's W (``wq``).  The
    product is an ``einsum``, which makes no BLAS call and sums each row
    in the same order for a plain and a jet grid.

    With ``jet=True`` Q is the survival jet [Q, dQ/da, dQ/db, dQ/dc]
    (:meth:`SurvivalParams.jet`).  The kernels are linear in Q, so the
    same product gives each kernel's derivatives as rows 1-3 below its
    value.  ``q``, when given, is that Q (or jet) at the read-out's
    points, computed by the caller: a fit evaluates every rating group's
    jet in one call, and each group's build is then its product with W.
    With ``q`` given, ``params`` is read only by :meth:`at`, and a fit
    passes None.
    """

    def __init__(self, curve: RiskfreeCurve, params: SurvivalParams | None,
                 t_max: float, grid_step: float = DEFAULT_GRID_STEP,
                 _cache: KernelReadout | None = None, jet: bool = False,
                 q: np.ndarray | None = None):
        if _cache is None:
            _cache = KernelReadout.of(curve, [t_max], grid_step)
        self.params = params
        self._ro = ro = _cache
        m = len(ro.tenors)
        if q is None:
            q = params.jet(ro.points) if jet else np.asarray(params.survival_probability(ro.points))
        if jet:
            # (4, 3 * tenors) -> (3, 4, tenors): each kernel's value row over its derivative rows
            self.wq = np.einsum("kp,jp->jk", ro.W, q).reshape(4, 3, m).transpose(1, 0, 2)
        else:
            self.wq = np.einsum("kp,p->k", ro.W, q).reshape(3, m)
        # Q at the tenors, for B(T)Q(T)
        self._Q_T = q[..., -m:]

    def at(self, tenor: float) -> RiskyKernels:
        """Kernels at one tenor in (0, longest read-out tenor], as
        :func:`kernels` gives them."""
        longest = self._ro.t_max
        if not tenor <= longest:
            raise ValueError(f"tenor must be in (0, {longest:g}], got {tenor!r}")
        return kernels_at(self._ro.curve, self.params, [tenor], self._ro.h)[0]

    def at_many(self) -> tuple[np.ndarray, ...]:
        """Vectorised kernels (pi, xi, rhat, bq_T) at the read-out tenors,
        from the rows ``wq`` = W·Q: Pi, Xi and rhat * pi, with
        :func:`_rhat` taking rhat out of rhat * pi.  On a jet grid
        each kernel comes with its derivative rows.
        """
        pi, xi, rp = self.wq
        return pi, xi, _rhat(pi, rp), self._ro.B_T * self._Q_T

    def kernels(self) -> list[RiskyKernels]:
        """:meth:`at_many` of a plain grid as one :class:`RiskyKernels`
        per read-out tenor."""
        return [RiskyKernels(pi=float(p), xi=float(x), rhat=float(r), bq_T=float(q),
                             tenor=float(t))
                for p, x, r, q, t in zip(*self.at_many(), self._ro.tenors)]


def _rhat(pi: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """rhat from the rows of Pi and rhat * Pi: their quotient, and on jet
    rows (value row over derivative rows) the derivatives of rhat below
    it, by the quotient rule."""
    if rp.ndim == 1:
        return rp / pi
    rhat = np.empty_like(rp)
    np.divide(rp[0], pi[0], out=rhat[0])
    np.divide(rp[1:] - rhat[0] * pi[1:], pi[0], out=rhat[1:])
    return rhat


def kernels(curve: RiskfreeCurve, params: SurvivalParams, tenor: float,
            grid_step: float = DEFAULT_GRID_STEP) -> RiskyKernels:
    """One-shot kernels for a single tenor."""
    return KernelGrid(curve, params, tenor, grid_step).kernels()[0]


def kernels_at(curve: RiskfreeCurve, params: SurvivalParams, tenors: Sequence[float],
               grid_step: float = DEFAULT_GRID_STEP) -> list[RiskyKernels]:
    """:func:`kernels` at each of several tenors of one curve, read off
    one grid to the longest of them: the same up to rounding."""
    if len(tenors) == 0:
        return []
    return KernelReadout.of(curve, tenors, grid_step).kernel_grid(params).kernels()


# -- instruments -----------------------------------------------------


@dataclass(frozen=True)
class Instrument:
    """What a bond and a CDS share: the ``coupon``, the ``tenor`` in
    years and, keyword-only, the issuer facts that a fit weights
    (``issue_size``) and groups (:attr:`effective_rating`) by, with the
    sovereign spread of an EM issuer.  The checks on these are here once;
    each subclass adds its quote, checked finite with them, and the rest
    of its own checks."""

    coupon: float
    tenor: float
    _: KW_ONLY
    issue_size: float = 1000.0     # USD millions outstanding ($1Bn for a liquid CDS)
    rating: int | None = None
    internal_rating: int | None = None
    sovereign_spread: float | None = None  # par sov spread at this tenor
    identifier: str = ""

    # the subclass's quote, checked finite with the shared numbers
    _QUOTE: ClassVar[str]

    def __post_init__(self) -> None:
        for name in ("coupon", "tenor", self._QUOTE, "issue_size", "sovereign_spread"):
            x = getattr(self, name)
            if x is not None and not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x!r}")
        if self.coupon < 0:
            raise ValueError("coupon must be >= 0")
        if self.tenor <= 0:
            raise ValueError("tenor must be > 0")
        if self.issue_size <= 0:
            raise ValueError("issue_size must be > 0")

    @property
    def effective_rating(self) -> int | None:
        return self.internal_rating if self.internal_rating is not None else self.rating


@dataclass(frozen=True)
class BondSpec(Instrument):
    """A fixed-coupon bond.  ``price`` is the full value per 100 face."""

    price: float
    recovery: float = 0.4

    _QUOTE = "price"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.price <= 0:
            raise ValueError("price must be > 0")
        if not 0.0 <= self.recovery < 1.0:
            raise ValueError("recovery must be in [0, 1)")


@dataclass(frozen=True)
class CdsSpec(Instrument):
    """A CDS quote: running ``coupon`` plus either a traded spread or an
    upfront per unit notional (positive upfront paid by the protection
    buyer)."""

    quote_type: str                 # "spread" | "upfront"
    quote: float
    quoting_recovery: float = 0.4   # SNAC flat-hazard conversion only
    model_recovery: float | None = None  # valuation recovery, if pre-resolved

    _QUOTE = "quote"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.quote_type not in ("spread", "upfront"):
            raise ValueError("quote_type must be 'spread' or 'upfront'")
        if self.quote_type == "spread" and self.quote < 0:
            raise ValueError("traded spread must be >= 0")
        if not 0.0 <= self.quoting_recovery < 1.0:
            raise ValueError("quoting recovery must be in [0, 1)")
        if self.model_recovery is not None and not 0.0 <= self.model_recovery < 1.0:
            raise ValueError("recovery must be in [0, 1)")
        if self.coupon not in SNAC_COUPONS:
            warnings.warn(
                f"CDS coupon {self.coupon} is not a standard 1%/5% running coupon",
                stacklevel=2)

    @property
    def recovery(self) -> float:
        """Valuation recovery: the loader's resolved one, else the quoting one."""
        return self.quoting_recovery if self.model_recovery is None else self.model_recovery


@dataclass(frozen=True)
class AssetSwapInputs:
    """Par swap rate and the swap PV01s entering the asset-swap spread."""

    par_swap_rate: float
    fixed_pv01: float
    float_pv01: float

    def __post_init__(self) -> None:
        if self.fixed_pv01 <= 0 or self.float_pv01 <= 0:
            raise ValueError("swap PV01s must be > 0")


# -- root finding ------------------------------------------------------

# the smallest relative tolerance the port accepts: 4 * machine epsilon
_BRENT_RTOL = 4.0 * 2.0 ** -52


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float = _BRENT_RTOL,
            maxiter: int = 100, ends: tuple[float, float] | None = None) -> float:
    """Root of ``f`` in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-by-line port of ``scipy.optimize.brentq`` (its
    ``Zeros/brentq.c``), so the same steps, tolerances and sign tests
    give the same root bit for bit.  ``ends`` are f(xa) and f(xb) when
    the caller has them already; otherwise they are evaluated here.
    ValueError on a NaN value or a bracket without a sign change,
    RuntimeError after ``maxiter`` iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = (value(xpre), value(xcur)) if ends is None else map(float, ends)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _falling_root(f, lo: float, hi: float, lower, upper, tries: int, fail: str,
                  xtol: float, rtol: float = _BRENT_RTOL) -> float:
    """Root of an ``f`` that falls through 0, by :func:`_brentq` once
    f(lo) > 0 > f(hi).

    Until then, each round moves lo to ``lower(lo)`` if f(lo) <= 0 and hi
    to ``upper(hi)`` if f(hi) >= 0, and evaluates only an end that moved.
    A move that returns None leaves its range, and no bracket after
    ``tries`` rounds is a failure: both raise ArithmeticError(``fail``).
    """
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(tries):
        if f_lo > 0 > f_hi:
            return _brentq(f, lo, hi, xtol, rtol, ends=(f_lo, f_hi))
        new_lo = lower(lo) if f_lo <= 0 else lo
        new_hi = upper(hi) if f_hi >= 0 else hi
        if new_lo is None or new_hi is None:
            break
        if new_lo != lo:
            lo, f_lo = new_lo, f(new_lo)
        if new_hi != hi:
            hi, f_hi = new_hi, f(new_hi)
    raise ArithmeticError(fail)


# -- pricing and spread transforms ------------------------------------


def bond_model_price(spec: BondSpec, k: RiskyKernels) -> float:
    """Model price per 100: coupon*Pi + B(T)Q(T) + recovery*Xi; linear in recovery."""
    return 100.0 * (spec.coupon * k.pi + k.bq_T + spec.recovery * k.xi)


def _annuity(y: float, tenor: float, m: int) -> float:
    # (1 - (1+y/m)^{-mT}) / y with a stable small-y branch
    if abs(y) < 1e-8:
        return tenor * (1.0 - 0.5 * y * (tenor + 1.0 / m))
    return -math.expm1(-m * tenor * math.log1p(y / m)) / y


def _check_m(m: int) -> None:
    # m is the coupon frequency of the schedule as well as the compounding
    if not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"compounding m must be a positive integer, got {m!r}")


def price_from_yield(coupon: float, tenor: float, y: float, m: int = 2) -> float:
    """Textbook price-yield relation for a vanilla bond, per 100 face.

    Exact for m*T integer and used regardless; m is the compounding
    frequency.
    """
    _check_m(m)
    if tenor <= 0:
        raise ValueError("tenor must be > 0")
    if y <= -m:
        raise ValueError("yield must exceed -m")
    disc = math.exp(-m * tenor * math.log1p(y / m))
    return 100.0 * (coupon * _annuity(y, tenor, m) + disc)


def yield_from_price(coupon: float, tenor: float, price: float, m: int = 2) -> float:
    """Invert the price-yield relation (IRR) to |dP| <= 1e-10."""
    _check_m(m)
    if price <= 0:
        raise ValueError("price must be > 0")

    def f(y: float) -> float:
        return price_from_yield(coupon, tenor, y, m) - price

    return _falling_root(f, -0.5, 1.0, lambda lo: (lo - m) / 2.0 if lo > -m * 0.999 else lo,
                         lambda hi: hi * 2.0, 60, "could not bracket the yield", xtol=1e-14)


def _schedule(coupon: float, tenor: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    # discrete cashflow schedule generated backwards from maturity
    n = max(1, int(math.ceil(m * tenor - 1e-9)))
    times = tenor - (n - 1 - np.arange(n)) / m
    flows = np.full(n, 100.0 * coupon / m)
    flows[-1] += 100.0
    return times, flows


def riskfree_schedule_price(coupon: float, tenor: float, curve: RiskfreeCurve,
                            m: int = 2, spread: float = 0.0) -> float:
    """Discrete-schedule price off the curve's zero rates plus a flat spread.

    This is the discounting that the Z-spread inverts; spread = 0 gives
    the riskfree value of the schedule.
    """
    _check_m(m)
    return _schedule_pv(*_zero_schedule(coupon, tenor, curve, m), m, spread)


def _zero_schedule(coupon: float, tenor: float, curve: RiskfreeCurve,
                   m: int) -> tuple[list[float], list[float], list[float]]:
    # the schedule's times and flows with the curve's zero rate at each
    # time, as zero_rate gives it, from one log-discount call
    times, flows = _schedule(coupon, tenor, m)
    logs, times = curve.log_discount(times).tolist(), times.tolist()
    return times, flows.tolist(), [_from_continuous(y / t, m) for y, t in zip(logs, times)]


def _schedule_pv(times: list[float], flows: list[float], zeros: list[float],
                 m: int, spread: float) -> float:
    pv = 0.0
    for t, cf, z in zip(times, flows, zeros):
        pv += cf * math.exp(-m * t * math.log1p((z + spread) / m))
    return pv


def z_spread(spec: BondSpec, curve: RiskfreeCurve, m: int = 2) -> float:
    """Constant add-on to the curve's zero rates that reprices the bond."""
    _check_m(m)
    # the zero rates do not move with the spread: read them once
    schedule = _zero_schedule(spec.coupon, spec.tenor, curve, m)

    def f(s: float) -> float:
        return _schedule_pv(*schedule, m, s) - spec.price

    return _falling_root(f, -0.25, 0.5, lambda lo: None if lo - 0.25 < -m * 0.5 else lo - 0.25,
                         lambda hi: hi * 2.0, 60, "z-spread root-finding failed to bracket",
                         xtol=1e-14)


def asset_swap_spread(spec: BondSpec, inputs: AssetSwapInputs) -> float:
    """Par asset-swap spread; linear in the bond price."""
    num = 1.0 - spec.price / 100.0 + (spec.coupon - inputs.par_swap_rate) * inputs.fixed_pv01
    return num / inputs.float_pv01


def par_cds_spread(k: RiskyKernels, recovery: float) -> float:
    """s(T) = (1 - recovery) * Xi / Pi, the running spread worth par."""
    return (1.0 - recovery) * k.xi / k.pi


def par_adjusted_spread_bond(spec: BondSpec, k: RiskyKernels) -> float:
    """sbar from P/100 - 1 = (c - rhat - sbar) * Pi.

    Equals the par CDS spread of the curve whenever the price sits on
    the model curve, removing the premium/discount distortion.
    """
    return spec.coupon - k.rhat - (spec.price / 100.0 - 1.0) / k.pi


def cds_traded_spread_to_upfront(q: CdsSpec, curve: RiskfreeCurve) -> float:
    """SNAC conversion: u = (s_traded - coupon) * Pi_tilde.

    Pi_tilde is the RPV01 under the flat hazard lambda = s/(1-R_quote)
    on the riskfree curve; the quoting recovery is a market convention,
    not a valuation assumption.
    """
    if q.quote_type != "spread":
        raise ValueError("quote is already an upfront")
    s = q.quote
    lam = s / (1.0 - q.quoting_recovery)
    pi_tilde = kernels(curve, SurvivalParams.flat(lam), q.tenor).pi
    return (s - q.coupon) * pi_tilde


def cds_upfront(q: CdsSpec, curve: RiskfreeCurve) -> float:
    """Upfront per unit notional, converting from spread quotes if needed."""
    if q.quote_type == "upfront":
        return q.quote
    return cds_traded_spread_to_upfront(q, curve)


def par_adjusted_spread_cds(q: CdsSpec, k: RiskyKernels, curve: RiskfreeCurve) -> float:
    """sbar = coupon + upfront / Pi, with Pi the model-curve RPV01."""
    u = cds_upfront(q, curve)
    return q.coupon + u / k.pi


def market_price(inst: Instrument, curve: RiskfreeCurve) -> float:
    """Market value per 100 face: a bond's full price, 100 * (1 - upfront)
    for a CDS."""
    if isinstance(inst, BondSpec):
        return inst.price
    return 100.0 * (1.0 - cds_upfront(inst, curve))


def par_adjusted_spread(inst: Instrument, k: RiskyKernels,
                        curve: RiskfreeCurve) -> tuple[float, float]:
    """(sbar, c') of a bond or a CDS at the kernels ``k`` of its tenor.

    c' is the funding-adjusted coupon: coupon - rhat for a bond, the
    running coupon for a CDS.  Off the curve the price residual is
    dP = 100 * Pi * (sbar - s_model), s_model the curve's par CDS spread.
    """
    if isinstance(inst, BondSpec):
        return par_adjusted_spread_bond(inst, k), inst.coupon - k.rhat
    return par_adjusted_spread_cds(inst, k, curve), inst.coupon


# -- the price gap -----------------------------------------------------


def _quotes(instruments: Sequence[Instrument], curve: RiskfreeCurve,
            recovery: float | None) -> tuple:
    """The price gap's inputs that do not move with the curve, as arrays:
    recoveries (``recovery``, else each instrument's own), coupons, bond
    prices, CDS market upfronts, bond mask."""
    return (np.array([i.recovery if recovery is None else float(recovery)
                      for i in instruments]),
            np.array([i.coupon for i in instruments]),
            np.array([i.price if isinstance(i, BondSpec) else 0.0 for i in instruments]),
            np.array([cds_upfront(i, curve) if isinstance(i, CdsSpec) else 0.0
                      for i in instruments]),
            np.array([isinstance(i, BondSpec) for i in instruments]))


def _dp(pi, xi, rhat, s_extra, recs, coupons, prices, upfronts, is_bond) -> np.ndarray:
    """The price gap dP in points from kernel arrays, with ``s_extra``
    added to the model par spread; for CDS rhat is omitted and the
    market side is the upfront.  dP = 100 * Pi * (sbar - s_model) up to
    rounding, and it falls for both kinds as hazards rise.

    On jet kernels (a :class:`KernelGrid` with ``jet=True``) row 0 is
    dP and the rows below it are its derivatives.  dP is affine in the
    kernels, 100 - P + 100 * [(coupon - s_extra) * Pi - (1 - R) * Xi
    - rhat * Pi] for a bond and 100 * [u + (coupon - s_extra) * Pi
    - (1 - R) * Xi] for a CDS, so each derivative is that linear part
    applied to the kernels' derivative rows."""
    jet = np.ndim(pi) > 1
    pi0, xi0, rhat0 = (pi[0], xi[0], rhat[0]) if jet else (pi, xi, rhat)
    s_model = (1.0 - recs) * xi0 / pi0 + s_extra
    dp_bond = 100.0 - prices + 100.0 * (coupons - rhat0 - s_model) * pi0
    dp_cds = 100.0 * (upfronts + (coupons - s_model) * pi0)
    if not jet:
        return np.where(is_bond, dp_bond, dp_cds)
    out = np.empty(np.shape(pi))
    out[0] = np.where(is_bond, dp_bond, dp_cds)
    d_rp = rhat0 * pi[1:] + pi0 * rhat[1:]
    np.multiply(100.0, (coupons - s_extra) * pi[1:] - (1.0 - recs) * xi[1:]
                - np.where(is_bond, d_rp, 0.0), out=out[1:])
    return out


def exact_fit_to_instrument(spec: Instrument, base: SurvivalParams,
                            curve: RiskfreeCurve,
                            recovery: float | None = None
                            ) -> tuple[SurvivalParams, RiskyKernels]:
    """Scale (a, b) of ``base`` so the model reprices the instrument at
    ``recovery`` (by default its own); return the fitted parameters with
    their kernels at the instrument's tenor, as :func:`kernels` gives them.

    A multiplicative shift of both hazard levels preserves the curve
    shape and keeps the parameters positive.  Repricing is to
    |dP| <= 1e-8 per 100 face.
    """
    # as Python scalars: the same arithmetic, without array overhead in the root solve
    quotes = [q.item() for q in _quotes([spec], curve, recovery)]
    # the tenor's read-out does not move with the factor
    readout = KernelReadout.of(curve, [spec.tenor])
    # every factor's grid: the root is a factor that the solve has priced
    grids = {}

    def gap(factor: float) -> float:
        grids[factor] = kg = readout.kernel_grid(base.scaled(factor))
        pi, xi, rhat, _ = kg.at_many()
        return float(_dp(float(pi[0]), float(xi[0]), float(rhat[0]), 0.0, *quotes))

    # dP falls for both kinds as hazards scale up
    factor = _falling_root(gap, 0.5, 2.0, lambda lo: None if lo / 4.0 < 1e-14 else lo / 4.0,
                           lambda hi: None if hi * 4.0 > 1e14 else hi * 4.0, 80,
                           "no positive-hazard curve reprices the instrument "
                           "(price outside the attainable range)", xtol=1e-13, rtol=8.9e-16)
    k = grids[factor].kernels()[0]
    if abs(float(_dp(k.pi, k.xi, k.rhat, 0.0, *quotes))) > 1e-8:
        raise ArithmeticError("exact fit did not converge to |dP| <= 1e-8")
    return grids[factor].params, k
