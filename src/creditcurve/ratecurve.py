"""Riskfree discounting curve.

Conventions used throughout the package:

- Times are year fractions measured from the valuation date.
- The curve is stored internally as the cumulative log-discount
  y(T) = -ln B(T), interpolated **linearly in T** between pillars.  This
  makes the instantaneous forward rate piecewise constant and keeps
  discount factors positive whenever input rates are positive.
- Extrapolation is flat in the zero rate: before the first pillar and
  beyond the last one the (continuously-compounded) zero rate of the
  nearest pillar is held constant.
- Pillar zero rates may be quoted at any compounding frequency
  ``m`` per year; ``m = 0`` means continuous compounding.  Rates are
  converted to continuous equivalents on construction, so a flat
  continuously-compounded curve has f(t) equal to that rate everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RiskfreeCurve"]

CONTINUOUS = 0


def _to_continuous(rate: float, m: int) -> float:
    if m == CONTINUOUS:
        return rate
    return m * math.log1p(rate / m)


def _from_continuous(rate_cc: float, m: int) -> float:
    if m == CONTINUOUS:
        return rate_cc
    return m * math.expm1(rate_cc / m)


def _check_compounding(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError("compounding must be a non-negative integer")


@dataclass(frozen=True)
class RiskfreeCurve:
    """Riskfree curve built from (tenor_years, zero_rate) pillars.

    ``compounding`` is the quoting frequency of the input pillar rates
    (0 = continuous, 1 = annual, 2 = semi-annual, ...).  It also serves
    as the default frequency for :meth:`zero_rate`.
    """

    pillars: tuple[tuple[float, float], ...]
    compounding: int = CONTINUOUS
    # internal knots of y(T) = -ln B(T); knot 0 is (0, 0)
    _knot_t: np.ndarray = field(init=False, repr=False, compare=False)
    _knot_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pillars = tuple((float(t), float(z)) for t, z in self.pillars)
        object.__setattr__(self, "pillars", pillars)
        if not pillars:
            raise ValueError("curve needs at least one pillar")
        if not all(math.isfinite(t) and math.isfinite(z) for t, z in pillars):
            raise ValueError("pillar tenors and rates must be finite")
        m = self.compounding
        _check_compounding(m)
        tenors = [t for t, _ in pillars]
        if any(t <= 0 for t in tenors):
            raise ValueError("pillar tenors must be > 0")
        if any(t1 >= t2 for t1, t2 in zip(tenors, tenors[1:])):
            raise ValueError("pillar tenors must be strictly increasing")
        knot_t = np.array([0.0] + tenors)
        rates_cc = [_to_continuous(z, m) for _, z in pillars]
        knot_y = np.array([0.0] + [r * t for t, r in zip(tenors, rates_cc)])
        object.__setattr__(self, "_knot_t", knot_t)
        object.__setattr__(self, "_knot_y", knot_y)

    @classmethod
    def flat(cls, rate: float, compounding: int = CONTINUOUS) -> "RiskfreeCurve":
        """Flat curve: one pillar; flat extrapolation covers all tenors."""
        return cls(pillars=((1.0, rate),), compounding=compounding)

    # -- log-discount --------------------------------------------------

    def log_discount(self, t) -> np.ndarray | float:
        """y(T) = -ln B(T), vectorised.  Negative T is a domain error."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise ValueError("tenor must be >= 0")
        y = np.interp(t_arr, self._knot_t, self._knot_y)
        t_last = self._knot_t[-1]
        if t_last > 0:
            slope_last = self._knot_y[-1] / t_last
            y = np.where(t_arr > t_last, t_arr * slope_last, y)
        return y if t_arr.ndim else float(y)

    def discount_factor(self, t) -> np.ndarray | float:
        """B(T) under the curve's interpolation; B(0) = 1."""
        y = self.log_discount(t)
        return np.exp(-y) if isinstance(y, np.ndarray) else math.exp(-y)

    def instantaneous_forward(self, t: float) -> float:
        """f(t) = -B'(t)/B(t); piecewise constant between pillars.

        At a pillar the value of the following segment is returned.
        """
        if t < 0.0:
            raise ValueError("tenor must be >= 0")
        kt, ky = self._knot_t, self._knot_y
        if t >= kt[-1]:
            return float(ky[-1] / kt[-1])
        i = int(np.searchsorted(kt, t, side="right")) - 1
        return float((ky[i + 1] - ky[i]) / (kt[i + 1] - kt[i]))

    def zero_rate(self, t: float, m: int | None = None) -> float:
        """z such that B(T) = (1+z/m)^{-mT} (or e^{-zT} for m = 0)."""
        if t <= 0.0:
            raise ValueError("zero rate needs tenor > 0")
        if m is None:
            m = self.compounding
        _check_compounding(m)
        rate_cc = self.log_discount(t) / t
        return _from_continuous(rate_cc, m)
