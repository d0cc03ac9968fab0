"""Parametric survival curves and the rating grid.

Single-name curves use the three-parameter family

    Q(T) = (1 + cT)^((b-a)/c) * exp(-bT)

whose forward hazard (a + bcT)/(1 + cT) runs monotonically from ``a``
at T = 0 to ``b`` as T grows, with ``c`` (per annum) setting how fast.

For sector work the same family is indexed by credit rating on the
linear 18-point scale (AAA = 1 ... CCC = 18).  Anchors for (a, b) live
at AA = 3, BBB = 9 and B = 15; between and beyond them ln a and ln b
are linear in the rating index, so spreads move in geometric
progression across ratings and curves of different ratings never cross
when the anchors are ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurvivalParams",
    "survival_jet",
    "RatingGrid",
    "RecoverySchedule",
    "RATING_SYMBOLS",
    "ANCHOR_RATINGS",
    "anchor_log_weights",
    "anchor_segment",
    "log_interp",
    "validate_rating",
]

RATING_SYMBOLS = (
    "AAA", "AA+", "AA", "AA-", "A+", "A", "A-",
    "BBB+", "BBB", "BBB-", "BB+", "BB", "BB-",
    "B+", "B", "B-", "CCC+", "CCC",
)

ANCHOR_RATINGS = (3, 9, 15)  # AA, BBB, B

C_BOUNDS = (0.05, 0.2)  # suggested range for the shape parameter when fitting


def validate_rating(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise ValueError(f"rating must be an integer on the 1..18 scale, got {r!r}")
    if not 1 <= r <= 18:
        raise ValueError(f"rating index {r} outside the 1..18 scale")
    return int(r)


@dataclass(frozen=True)
class SurvivalParams:
    """Hazard parameters: short-end ``a``, long-end ``b``, shape ``c``.

    ``a`` and ``b`` may be zero (riskless limit); ``c`` must be positive.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError("parameters a, b, c must be finite")
        if self.a < 0 or self.b < 0:
            raise ValueError("hazard parameters a, b must be >= 0")
        if self.c <= 0:
            raise ValueError("shape parameter c must be > 0")

    @classmethod
    def flat(cls, hazard: float, c: float = 0.1) -> "SurvivalParams":
        return cls(a=hazard, b=hazard, c=c)

    def scaled(self, factor: float) -> "SurvivalParams":
        """Multiplicative shift of both hazard levels; shape preserved."""
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        return SurvivalParams(a=self.a * factor, b=self.b * factor, c=self.c)

    @property
    def power(self) -> float:
        """(b - a)/c, the power of (1 + cT) in Q."""
        return (self.b - self.a) / self.c

    def survival_probability(self, t) -> np.ndarray | float:
        """Q(T); strictly decreasing, Q(0) = 1."""
        t_arr = _tenors(t)
        q = np.exp(_log_q(t_arr, self.b, self.power, self.c)[1])
        return q if t_arr.ndim else float(q)

    def jet(self, t) -> np.ndarray:
        """Rows [Q, dQ/da, dQ/db, dQ/dc] at the tenors ``t``
        (:func:`survival_jet`); row 0 is :meth:`survival_probability`
        bit for bit."""
        return survival_jet(_tenors(t), self.b, self.power, self.c)

    def forward_hazard(self, t) -> np.ndarray | float:
        """-d ln Q / dT = (a + bcT)/(1 + cT)."""
        t_arr = np.asarray(t, dtype=float)
        h = (self.a + self.b * self.c * t_arr) / (1.0 + self.c * t_arr)
        return h if t_arr.ndim else float(h)


def _tenors(t) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0.0).any():
        raise ValueError("tenor must be >= 0")
    return t_arr


def _log_q(t: np.ndarray, b, power, c) -> tuple[np.ndarray, np.ndarray]:
    # (ln(1 + ct), ln Q(t)) with power = (b - a)/c
    log1p_ct = np.log1p(c * t)
    return log1p_ct, power * log1p_ct - b * t


def survival_jet(t: np.ndarray, b, power, c) -> np.ndarray:
    """Rows [Q, dQ/da, dQ/db, dQ/dc] at the tenors ``t`` >= 0 of the curve
    with long-end hazard ``b``, ``power`` = (b - a)/c and shape ``c``.

    Each of ``b``, ``power`` and ``c`` is a scalar or one value per
    tenor, so one call covers the points of several curves, each point
    with its own curve's values; the arithmetic per point is the same
    either way.  With L = ln(1 + cT): d ln Q/da = -L/c,
    d ln Q/db = L/c - T and d ln Q/dc = power * (T/(1 + cT) - L/c).
    """
    log1p_ct, log_q = _log_q(t, b, power, c)
    # the rows written in place: out[i, ...] is a view for scalar t too
    out = np.empty((4,) + t.shape)
    q = np.exp(log_q, out=out[0, ...])
    l_c = log1p_ct / c
    d_c = power * (t / (1.0 + c * t) - l_c)
    np.multiply(-q, l_c, out=out[1, ...])
    np.multiply(q, l_c - t, out=out[2, ...])
    np.multiply(q, d_c, out=out[3, ...])
    return out


def anchor_segment(r) -> tuple[np.ndarray, np.ndarray]:
    """The first anchor of the segment of each rating ``r`` (one rating or
    an array of them): 0 up to BBB, 1 above it, and r's fraction along
    that segment (< 0 or > 1 outside the anchors)."""
    r = np.asarray(r)
    r1, r2, r3 = ANCHOR_RATINGS
    upper = r > r2
    return upper.astype(int), np.where(upper, (r - r2) / (r3 - r2), (r - r1) / (r2 - r1))


def log_interp(segment: tuple[np.ndarray, np.ndarray], logs) -> np.ndarray:
    """ln x of the log-linear rating interpolation at the ratings whose
    :func:`anchor_segment` is ``segment``: linear in the rating index
    through the anchor logs ``logs`` (last axis: AA, BBB, B), and
    extrapolated linearly outside the anchors.  ``logs`` of shape
    (..., 3) gives (...) + the ratings' shape."""
    j, t = segment
    logs = np.asarray(logs, dtype=float)
    lo = logs[..., j]
    return lo + t * (logs[..., j + 1] - lo)


def anchor_log_weights(r: int) -> np.ndarray:
    """d ln x(r) / d ln (AA, BBB, B anchors) of the log-linear rating
    interpolation; the weights sum to one."""
    return log_interp(anchor_segment(validate_rating(r)), np.eye(3))


@dataclass(frozen=True)
class RatingGrid:
    """Seven-parameter rating grid: (a, b) anchors at AA/BBB/B, shared c.

    Anchors must be positive and non-decreasing in rating; violating
    that raises rather than silently repairing, since a crossing grid
    has no sound interpretation.
    """

    anchors_a: tuple[float, float, float]
    anchors_b: tuple[float, float, float]
    c: float

    def __post_init__(self) -> None:
        for name, anchors in (("a", self.anchors_a), ("b", self.anchors_b)):
            if len(anchors) != 3:
                raise ValueError(f"anchors_{name} must have 3 entries (AA, BBB, B)")
            if not all(x > 0 and math.isfinite(x) for x in anchors):
                raise ValueError(f"anchors_{name} must be finite and positive")
            if not (anchors[0] <= anchors[1] <= anchors[2]):
                raise ValueError(
                    f"anchors_{name} must be non-decreasing in rating (no-crossing)")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("shape parameter c must be finite and > 0")

    def params_for_rating(self, r: int) -> SurvivalParams:
        """Log-linear interpolation of the anchors at rating ``r``."""
        logs = [[math.log(x) for x in anchors] for anchors in (self.anchors_a, self.anchors_b)]
        a, b = (math.exp(v) for v in log_interp(anchor_segment(validate_rating(r)), logs))
        return SurvivalParams(a=a, b=b, c=self.c)


@dataclass(frozen=True)
class RecoverySchedule:
    """Rating-linked recovery: 0.70 - 0.03 * rating, from 0.67 at AAA
    down to 0.16 at CCC."""

    def recovery_for_rating(self, r: int) -> float:
        return 0.70 - 0.03 * validate_rating(r)
