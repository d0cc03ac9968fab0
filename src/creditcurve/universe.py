"""File ingestion: quote files, curve files, run configuration.

All inputs are delimiter-separated text with a header line, diff-able
and desk-friendly:

- riskfree curve:  ``tenor_years,zero_rate``
- bonds:           ``id,coupon,price`` plus ``maturity`` (ISO date) or
                   ``tenor_years``; optional ``issue_size``, ``rating``,
                   ``internal_rating``, ``recovery``, ``sector``, ``country``
- cds:             ``id,coupon,quote_type,quote`` plus maturity/tenor;
                   optional ``quoting_recovery``, ``issue_size``,
                   ``rating``, ``internal_rating``, ``country``
- sovereign:       ``country,tenor_years,par_spread``
- run config:      flat ``key = value`` lines, '#' comments

Maturity dates become year-fraction tenors via actual/365.25 from the
snapshot date.  Rating symbols use the 18-point scale AAA=1 ... CCC=18;
internal rating overrides, when present, take precedence in fitting.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from .ratecurve import RiskfreeCurve
from .survival import RATING_SYMBOLS, RecoverySchedule
from .valuation import MAX_TENOR, BondSpec, CdsSpec, Instrument

__all__ = [
    "UniverseError",
    "UniverseSnapshot",
    "parse_rating",
    "load_riskfree_curve",
    "load_universe",
    "load_config",
    "interp_sovereign",
]

DAYS_PER_YEAR = 365.25


class UniverseError(ValueError):
    """Malformed or inconsistent input data."""


def parse_rating(symbol: str) -> int:
    sym = symbol.strip().upper().replace("−", "-")
    if sym in RATING_SYMBOLS:
        return RATING_SYMBOLS.index(sym) + 1
    if sym.isdigit() and 1 <= int(sym) <= 18:
        return int(sym)
    raise UniverseError(
        f"unknown rating symbol {symbol!r}; use one of "
        f"{', '.join(RATING_SYMBOLS)} (AAA=1 ... CCC=18)")


@dataclass(frozen=True)
class UniverseSnapshot:
    as_of: dt.date
    bonds: tuple[BondSpec, ...]
    cds: tuple[CdsSpec, ...]
    riskfree: RiskfreeCurve

    @property
    def instruments(self) -> tuple[Instrument, ...]:
        return self.bonds + self.cds


def _read_rows(path: Path) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise UniverseError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None:
        raise UniverseError(f"{path}: empty file, header line required")
    fields = [f.strip() for f in reader.fieldnames]
    rows = []
    for lineno, row in enumerate(reader, start=2):
        clean = {(k or "").strip(): (v or "").strip() for k, v in row.items()}
        if any(clean.values()):
            rows.append((lineno, clean))
    return fields, rows


def _need(row: dict[str, str], col: str, path: Path, lineno: int) -> str:
    val = row.get(col, "")
    if not val:
        raise UniverseError(f"{path}:{lineno}: missing required column {col!r}")
    return val


def _float(val: str, col: str, path: Path, lineno: int) -> float:
    try:
        x = float(val)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise UniverseError(f"{path}:{lineno}: column {col!r} is not a finite number: {val!r}")
    return x


def _number(row: dict[str, str], col: str, path: Path, lineno: int,
            default: str | None = None) -> float:
    """A finite number from ``col``; required unless it has a default."""
    val = (row.get(col) or default) if default else _need(row, col, path, lineno)
    return _float(val, col, path, lineno)


def load_riskfree_curve(path: str | Path, compounding: int = 0) -> RiskfreeCurve:
    path = Path(path)
    fields, rows = _read_rows(path)
    for col in ("tenor_years", "zero_rate"):
        if col not in fields:
            raise UniverseError(f"{path}: header must contain 'tenor_years,zero_rate'")
    pillars = []
    for lineno, row in rows:
        pillars.append((_number(row, "tenor_years", path, lineno),
                        _number(row, "zero_rate", path, lineno)))
    if not pillars:
        raise UniverseError(f"{path}: no curve pillars")
    try:
        return RiskfreeCurve(pillars=tuple(pillars), compounding=compounding)
    except ValueError as exc:
        raise UniverseError(f"{path}: {exc}") from exc


def _tenor_from_row(row: dict[str, str], as_of: dt.date, path: Path, lineno: int) -> float:
    if row.get("tenor_years"):
        tenor = _float(row["tenor_years"], "tenor_years", path, lineno)
    elif row.get("maturity"):
        try:
            maturity = dt.date.fromisoformat(row["maturity"])
        except ValueError as exc:
            raise UniverseError(
                f"{path}:{lineno}: maturity {row['maturity']!r} is not an ISO date") from exc
        tenor = (maturity - as_of).days / DAYS_PER_YEAR
    else:
        raise UniverseError(f"{path}:{lineno}: need a 'maturity' date or 'tenor_years'")
    if tenor <= 0.0:
        raise UniverseError(f"{path}:{lineno}: instrument has matured (tenor {tenor:.4f} <= 0)")
    if tenor > MAX_TENOR:
        raise UniverseError(f"{path}:{lineno}: tenor {tenor:g} years is beyond the "
                            f"{MAX_TENOR:g}-year limit")
    return tenor


def _rating_from(row: dict[str, str], col: str, path: Path, lineno: int) -> int | None:
    val = row.get(col, "")
    if not val:
        return None
    try:
        return parse_rating(val)
    except UniverseError as exc:
        raise UniverseError(f"{path}:{lineno}: {exc}") from exc


def interp_sovereign(pillars: tuple[tuple[float, float], ...], tenor: float) -> float:
    """Linear-in-tenor interpolation of sovereign par-spread pillars,
    flat beyond the ends."""
    if not pillars:
        raise UniverseError("empty sovereign curve")
    ts = [p[0] for p in pillars]
    ss = [p[1] for p in pillars]
    if tenor <= ts[0]:
        return ss[0]
    if tenor >= ts[-1]:
        return ss[-1]
    for (t0, s0), (t1, s1) in zip(pillars, pillars[1:]):
        if t0 <= tenor <= t1:
            w = (tenor - t0) / (t1 - t0)
            return s0 + w * (s1 - s0)
    return ss[-1]


def _resolve_recovery(row: dict[str, str], rating: int | None, mode: str, fixed: float,
                      path: Path, lineno: int) -> float:
    if row.get("recovery"):
        return _float(row["recovery"], "recovery", path, lineno)
    if mode == "schedule":
        if rating is None:
            raise UniverseError(
                f"{path}:{lineno}: recovery schedule requested but the row has no rating")
        return RecoverySchedule().recovery_for_rating(rating)
    return fixed


def load_sovereign_curves(path: str | Path) -> dict[str, tuple[tuple[float, float], ...]]:
    path = Path(path)
    fields, rows = _read_rows(path)
    for col in ("country", "tenor_years", "par_spread"):
        if col not in fields:
            raise UniverseError(f"{path}: header must contain 'country,tenor_years,par_spread'")
    curves: dict[str, dict[float, float]] = {}
    for lineno, row in rows:
        country = _need(row, "country", path, lineno).upper()
        tenor = _number(row, "tenor_years", path, lineno)
        if tenor <= 0.0:
            raise UniverseError(f"{path}:{lineno}: sovereign tenor {tenor:g} must be > 0")
        pillars = curves.setdefault(country, {})
        if tenor in pillars:
            raise UniverseError(f"{path}:{lineno}: repeated {country} pillar at tenor {tenor:g}")
        pillars[tenor] = _number(row, "par_spread", path, lineno)
    return {k: tuple(sorted(v.items())) for k, v in curves.items()}


def load_universe(riskfree_path: str | Path,
                  bonds_path: str | Path | None = None,
                  cds_path: str | Path | None = None,
                  sovereign_path: str | Path | None = None,
                  as_of: dt.date | None = None,
                  compounding: int = 0,
                  recovery_mode: str = "fixed",
                  recovery_fixed: float = 0.4) -> UniverseSnapshot:
    """Load and validate a dated snapshot of quotes plus the curve.

    ``recovery_mode`` is 'fixed' or 'schedule' (the default
    :class:`RecoverySchedule` by rating); an explicit per-row recovery
    column always wins (per-issuer override, rarely used).
    """
    as_of = as_of or dt.date.today()
    riskfree = load_riskfree_curve(riskfree_path, compounding)
    sovereign = load_sovereign_curves(sovereign_path) if sovereign_path else {}

    parsed: dict[type, list] = {BondSpec: [], CdsSpec: []}
    seen: set[str] = set()
    for kind, kind_path in ((BondSpec, bonds_path), (CdsSpec, cds_path)):
        if kind_path is None:
            continue
        path = Path(kind_path)
        _, rows = _read_rows(path)
        for lineno, row in rows:
            ident = _need(row, "id", path, lineno)
            if ident in seen:
                raise UniverseError(f"{path}:{lineno}: duplicate identifier {ident!r}")
            seen.add(ident)
            tenor = _tenor_from_row(row, as_of, path, lineno)
            rating = _rating_from(row, "rating", path, lineno)
            internal = _rating_from(row, "internal_rating", path, lineno)
            effective = internal if internal is not None else rating
            recovery = _resolve_recovery(row, effective, recovery_mode, recovery_fixed,
                                         path, lineno)
            country = row.get("country", "").upper()
            sov = interp_sovereign(sovereign[country], tenor) if country in sovereign else None
            fields = dict(
                coupon=_number(row, "coupon", path, lineno), tenor=tenor,
                issue_size=_number(row, "issue_size", path, lineno, "1000"),
                rating=rating, internal_rating=internal, sovereign_spread=sov,
                identifier=ident)
            if kind is BondSpec:
                fields.update(price=_number(row, "price", path, lineno), recovery=recovery)
            else:
                fields.update(quote_type=_need(row, "quote_type", path, lineno),
                              quote=_number(row, "quote", path, lineno),
                              quoting_recovery=_number(row, "quoting_recovery", path,
                                                       lineno, "0.4"),
                              model_recovery=recovery)
            # parse errors already name the file and line; wrap only the range
            # checks, and point the spec's warnings at the row
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    parsed[kind].append(kind(**fields))
            except ValueError as exc:
                raise UniverseError(f"{path}:{lineno}: {exc}") from exc
            for w in caught:
                warnings.warn_explicit(w.message, w.category, str(path), lineno)
    bonds, cds = parsed[BondSpec], parsed[CdsSpec]

    if not bonds and not cds:
        raise UniverseError("no instruments")
    return UniverseSnapshot(as_of=as_of, bonds=tuple(bonds), cds=tuple(cds),
                            riskfree=riskfree)


def load_config(path: str | Path) -> dict[str, str]:
    """Flat key=value run configuration; '#' starts a comment.  A key
    given twice is an input error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UniverseError(f"cannot read {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UniverseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise UniverseError(f"{path}:{lineno}: {key} is set twice")
        out[key] = val
    return out
