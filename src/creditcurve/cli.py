"""Batch command line: value, spread, fit, fit-grid, analytics, history.

Reads delimiter-separated quote/curve files, runs the requested
computation for a snapshot (or a dated series of snapshots) and writes
plot-ready text output.  Units in output headers: spreads and returns
in basis points, prices in points per 100 face, curve parameters in
per-annum decimals.

Exit codes: 0 success, 2 input error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics as an
from . import fitting as ft
from . import valuation as vl
from .survival import ANCHOR_RATINGS, RecoverySchedule, SurvivalParams
from .universe import UniverseError, UniverseSnapshot, load_config, load_universe

EXIT_INPUT = 2
EXIT_NOCONV = 3

ANCHOR_NAMES = ("AA", "BBB", "B")
FILES = ("riskfree", "bonds", "cds", "sovereign")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _bp(x: float) -> str:
    return f"{x * 1e4:.6f}"


def _mode(text, plain: tuple[str, ...], v: float) -> tuple[str, float]:
    # "name" for a name in ``plain`` (with the value ``v``) or "fixed:v"
    text = str(text)
    if text in plain:
        return text, v
    mode, sep, v_text = text.partition(":")
    if mode != "fixed" or not sep:
        raise ValueError(text)
    return mode, float(v_text)


class Settings:
    """Flag values merged over the optional run-config file.

    Grid fits default to the rating recovery schedule, every other verb
    to a fixed 0.4.  The fit settings make up one :class:`FitConfig`,
    ``fit``, and those not set keep its defaults.  Every value is
    converted, the fit and analytics options are validated and ``out`` is
    checked here, so a bad value, an ``out`` that is a file or lies under
    one, or a config key that no setting reads, is an input error before
    any work starts; a bad value names the flag, or the config file and
    key, that gave it.
    """

    def __init__(self, config_path: str | None, overrides: dict, grid: bool = False):
        config = load_config(config_path) if config_path else {}
        merged = dict(config)
        flags = {key for key, val in overrides.items() if val is not None}
        merged.update((key, overrides[key]) for key in flags)
        read: set[str] = set()

        def get(key, default, convert, what, ok=lambda v: True):
            # the setting as ``convert`` reads it; an input error that names
            # the flag, or the config file and key, if it does not read or is
            # not ok (``ok`` may raise ValueError: a fit setting is ok when
            # FitConfig takes it)
            read.add(key)
            if key not in merged:
                return default
            raw = merged[key]
            try:
                val = convert(raw)
                if ok(val):
                    return val
            except (TypeError, ValueError):
                pass
            name = "--" + key.replace("_", "-") if key in flags else f"{config_path}: {key}"
            raise UniverseError(f"{name} must be {what}, got {raw!r}")

        # the FitConfig fields that a flag or the config file sets; the rest
        # keep FitConfig's defaults
        fit: dict = {}

        def fit_setting(key, what, convert):
            # ``convert`` reads the setting as the fields it sets
            fit.update(get(key, {}, convert, what, lambda fields: ft.FitConfig(**fields)))

        def em_fields(text) -> dict:
            mode, alpha = _mode(text, ("off", "fit"), ft.FitConfig.em_alpha_fixed)
            return {"em_mode": mode, "em_alpha_fixed": alpha}

        self.as_of = get("as_of", None, lambda text: dt.date.fromisoformat(str(text)),
                         "a date YYYY-MM-DD")
        self.compounding = get("compounding", 0, int, "an integer >= 0", lambda m: m >= 0)
        self.horizon = get("horizon", 0.25, float, "finite and > 0", lambda x: 0.0 < x < math.inf)
        self.convergence_fraction = get("convergence_fraction", 1.0, float, "in [0, 1]",
                                        lambda x: 0.0 <= x <= 1.0)
        fit_setting("seed", "an integer >= 0", lambda x: {"seed": int(x)})
        fit_setting("multistart", "an integer >= 1", lambda x: {"multistart_count": int(x)})
        fit_setting("weight_mode", "issue_size, equal or issue_size_duration",
                    lambda x: {"weight_mode": str(x)})
        fit_setting("loss", "robust or squared", lambda x: {"loss": str(x)})
        fit_setting("fix_c", "finite and > 0", lambda x: {"fix_c": float(x)})
        self.out = get("out", Path("out"), Path, "a directory")
        # the nearest path of out or its parents that exists must be a directory
        blocker = next((p for p in (self.out, *self.out.parents) if p.exists()), None)
        if blocker is not None and not blocker.is_dir():
            raise UniverseError(f"cannot write {self.out}: {blocker} is not a directory")
        self.compounding_m = get("yield_compounding", 2, int, ">= 1", lambda m: m >= 1)
        self.recovery_mode, self.recovery_fixed = get(
            "recovery", ("schedule" if grid else "fixed", 0.4),
            lambda text: _mode(text, ("schedule", "fixed"), 0.4),
            "'fixed[:v]' with v in [0, 1) or 'schedule'", lambda rec: 0.0 <= rec[1] < 1.0)
        fit_setting("em_alpha", "'fit', 'fixed:v' with v in [0, 1] or 'off'", em_fields)
        self.fit = ft.FitConfig(**fit)
        unread = sorted(config.keys() - read)
        if unread:
            raise UniverseError(f"{config_path}: {unread[0]} must be a setting, one of "
                                f"{', '.join(sorted(read))}")

    def load(self, riskfree, bonds=None, cds=None, sovereign=None,
             as_of: dt.date | None = None) -> UniverseSnapshot:
        """The snapshot, each instrument carrying the recovery it is valued
        at and each CDS quoted by its upfront, converted here once."""
        snap = load_universe(
            riskfree_path=riskfree, bonds_path=bonds, cds_path=cds,
            sovereign_path=sovereign, as_of=as_of or self.as_of,
            compounding=self.compounding,
            recovery_mode=self.recovery_mode,
            recovery_fixed=self.recovery_fixed)
        upfronts = [vl.cds_upfront(q, snap.riskfree) for q in snap.cds]
        with warnings.catch_warnings():
            # the loader has already warned about these rows, naming file and line
            warnings.simplefilter("ignore")
            return replace(snap, cds=tuple(replace(q, quote_type="upfront", quote=u)
                                           for q, u in zip(snap.cds, upfronts)))


def _write(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}", EXIT_INPUT)


# every flag, declared once as argparse keywords; a verb takes its flags by name
OPTIONS = {
    "riskfree": dict(required=True, help="curve file"),
    "bonds": dict(help="bond quote file"),
    "cds": dict(help="CDS quote file"),
    "sovereign": dict(help="sovereign par-spread pillars"),
    "config": dict(dest="config_path", help="run-config file (key = value)"),
    "as-of": dict(help="snapshot date YYYY-MM-DD"),
    "compounding": dict(type=int, help="quoting frequency of curve input rates (0 = continuous)"),
    "recovery": dict(help="fixed[:v] | schedule"),
    "out": dict(help="output directory"),
    "fix-c": dict(type=float, help="fix the shape parameter"),
    "em-alpha": dict(help="fit | fixed:v | off"),
    "seed": dict(type=int, help="seed of the multistart jitters"),
    "multistart": dict(type=int, help="cap on solver starts"),
    "weight-mode": dict(help="issue_size | equal | issue_size_duration"),
    "loss": dict(help="robust | squared"),
    "allow-underdetermined": dict(action="store_true"),
    "a": dict(type=float, required=True, help="short-end hazard"),
    "b": dict(type=float, required=True, help="long-end hazard"),
    "c": dict(type=float, required=True, help="shape parameter"),
    "yield-compounding": dict(type=int, help="compounding m for yield and Z-spread (default 2)"),
    "horizon": dict(type=float, help="horizon in years"),
    "convergence-fraction": dict(type=float),
    "variant": dict(choices=["standard", "model_carry"], default="standard"),
    "snapshots": dict(required=True, help="directory of YYYY-MM-DD subdirectories with "
                                          "riskfree.csv / bonds.csv [/ cds.csv / sovereign.csv]"),
    "mode": dict(choices=["single-name", "rating-grid"], default="single-name"),
    "tenor-points": dict(default="5,10", help="comma list of tenor points, years"),
}
_COMMON = ("riskfree", "bonds", "cds", "sovereign", "config", "as-of", "compounding",
           "recovery", "out")
_FIT_OPTS = ("fix-c", "em-alpha", "seed", "multistart", "weight-mode", "loss",
             "allow-underdetermined")


class _Parser(argparse.ArgumentParser):
    """A parser whose flags are exactly those declared: ``--help`` without
    ``-h``, and no flag abbreviations.  The verbs' parsers are of this class
    too."""

    def __init__(self, **kw):
        super().__init__(add_help=False, allow_abbrev=False, **kw)
        self.add_argument("--help", action="help", help="show this message and exit")


# built once, at import; each verb adds its own parser
_PARSER = _Parser(prog="creditcurve", description="Survival-curve credit analytics.")
_VERBS = _PARSER.add_subparsers(dest="verb", required=True)


def _verb(name: str, *flags: str):
    """A decorator that registers a function as the verb ``name``, taking the
    named flags of :data:`OPTIONS` in this order in ``--help``."""
    def register(fn):
        sub = _VERBS.add_parser(name, help=fn.__doc__.partition("\n")[0], description=fn.__doc__)
        for flag in flags:
            sub.add_argument("--" + flag, **OPTIONS[flag])
        # under its own key: the subparsers' dest holds the verb's name
        sub.set_defaults(run=fn)
        return fn
    return register


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Survival-curve credit analytics: run the verb that ``args`` (by
    default the command line) names.  Usage errors exit 2."""
    # standalone_mode changes nothing; it is kept because perfbench/ops.py and
    # perfbench/launcher.py pass it
    kw = vars(_PARSER.parse_args(args))
    del kw["verb"]
    kw.pop("run")(**kw)


def _fail(msg: str, code: int) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


class _Refused(ArithmeticError):
    """A fit that is not to be reported; ``code`` is the verb's exit code."""

    def __init__(self, msg: str, code: int):
        super().__init__(msg)
        self.code = code


@contextlib.contextmanager
def _exits():
    """Input errors exit 2 with their message; a refused fit exits with its code."""
    try:
        yield
    except (UniverseError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    except _Refused as exc:
        _fail(str(exc), exc.code)


def _load(kw: dict, grid: bool = False) -> tuple[Settings, UniverseSnapshot]:
    """Settings and snapshot from a verb's flags; call under :func:`_exits`."""
    files = [kw.pop(name) for name in FILES]
    st = Settings(kw.pop("config_path"), kw, grid)
    return st, st.load(*files)


def _fit(st: Settings, snap: UniverseSnapshot, grid: bool,
         allow_underdetermined: bool = True, emit: bool = False) -> ft.FitResult:
    """The fit step: a rating-grid or single-name fit, written out if
    ``emit``; an underdetermined fit (unless allowed) or one that did not
    converge is refused."""
    fit_fn = ft.fit_rating_grid if grid else ft.fit_single_name
    result = fit_fn(snap.instruments, snap.riskfree, None, st.fit)
    if emit:
        _emit_fit(st, snap, result)
    if result.diagnostics["underdetermined"] and not allow_underdetermined:
        raise _Refused("fit underdetermined; pass --allow-underdetermined to accept",
                       EXIT_INPUT)
    if not result.diagnostics["converged"]:
        raise _Refused(f"fit did not converge (objective {result.objective:.6g})",
                       EXIT_NOCONV)
    return result


# -- value -------------------------------------------------------------


@_verb("value", *_COMMON, "a", "b", "c")
def value(a, b, c, **kw):
    """Model prices for the instruments off an explicit hazard curve."""
    with _exits():
        st, snap = _load(kw)
        params = SurvivalParams(a=a, b=b, c=c)
    # every instrument read off one grid of the curve, one price-gap pass
    at_tenor = vl.kernels_at(snap.riskfree, params, [inst.tenor for inst in snap.instruments])
    pi, xi, rhat = (np.array([getattr(k, name) for k in at_tenor])
                    for name in ("pi", "xi", "rhat"))
    # model - market for a bond, 100 * (u_mkt - u_model) for a CDS
    deltas = vl._dp(pi, xi, rhat, 0.0, *vl._quotes(snap.instruments, snap.riskfree, None))
    rows = []
    for inst, delta in zip(snap.instruments, deltas.tolist()):
        market = vl.market_price(inst, snap.riskfree)
        rows.append([inst.identifier, _fmt(inst.tenor), _fmt(market),
                     _fmt(market + delta), _fmt(delta)])
    _write(st.out / "value.csv",
           ["id", "tenor_years", "market_price_pts", "model_price_pts", "delta_pts"], rows)
    print(f"wrote {st.out / 'value.csv'} ({len(rows)} instruments)")


# -- spread ------------------------------------------------------------


@_verb("spread", *_COMMON, "yield-compounding")
def spread(**kw):
    """Yield, Z-spread and par-adjusted spread per instrument.

    The par-adjusted spread is computed on the flat-hazard curve that
    exactly reprices the instrument at its recovery; it then equals that
    curve's par CDS spread.  A cell that cannot be computed is left
    blank: every row is written, each failure is named on stderr, and
    the verb then exits 3.
    """
    with _exits():
        st, snap = _load(kw)
    rows = []
    failures = []
    base = SurvivalParams.flat(0.02)
    m = st.compounding_m
    for inst in snap.instruments:
        quotes, adjusted = ["", "", ""], ["", ""]
        try:
            if isinstance(inst, vl.BondSpec):
                quotes = [_fmt(inst.price),
                          _bp(vl.yield_from_price(inst.coupon, inst.tenor, inst.price, m)),
                          _bp(vl.z_spread(inst, snap.riskfree, m))]
            fitted, k = vl.exact_fit_to_instrument(inst, base, snap.riskfree)
        except ArithmeticError as exc:
            failures.append(f"{inst.identifier}: {exc}")
        else:
            sbar, _ = vl.par_adjusted_spread(inst, k, snap.riskfree)
            adjusted = [_bp(sbar), _fmt(fitted.a)]
        rows.append([inst.identifier, _fmt(inst.tenor), *quotes, *adjusted])
    _write(st.out / "spreads.csv",
           ["id", "tenor_years", "price_pts", "yield_bp", "z_spread_bp",
            "par_adjusted_spread_bp", "implied_flat_hazard"], rows)
    print(f"wrote {st.out / 'spreads.csv'} ({len(rows)} instruments)")
    for f in failures:
        print(f"error: {f}", file=sys.stderr)
    if failures:
        sys.exit(EXIT_NOCONV)


# -- fit / fit-grid ----------------------------------------------------


def _param_rows(result: ft.FitResult) -> list[list[str]]:
    """Fitted parameters as (name, value) rows, for fit_params.csv and history."""
    p = result.params
    if isinstance(p, SurvivalParams):
        rows = [["a", _fmt(p.a)], ["b", _fmt(p.b)]]
    else:
        rows = [[f"a_{name}", _fmt(val)] for name, val in zip(ANCHOR_NAMES, p.anchors_a)]
        rows += [[f"b_{name}", _fmt(val)] for name, val in zip(ANCHOR_NAMES, p.anchors_b)]
    rows.append(["c", _fmt(p.c)])
    if result.alpha is not None:
        rows.append(["alpha", _fmt(result.alpha)])
    return rows


def _emit_fit(st: Settings, snap: UniverseSnapshot, result: ft.FitResult) -> None:
    diag = result.diagnostics
    rows = _param_rows(result) + [
        ["objective", _fmt(result.objective)],
        ["converged", str(diag["converged"]).lower()],
        ["underdetermined", str(diag["underdetermined"]).lower()]]
    _write(st.out / "fit_params.csv", ["parameter", "value"], rows)

    params = result.params
    # one grid per curve: the fitted one, or each rating's off a fitted grid
    by_curve: dict[int | None, list[int]] = {}
    for i, inst in enumerate(snap.instruments):
        key = None if isinstance(params, SurvivalParams) else inst.effective_rating
        by_curve.setdefault(key, []).append(i)
    at_tenor: list = [None] * len(snap.instruments)
    for key, idx in by_curve.items():
        curve = params if key is None else params.params_for_rating(key)
        tenors = [snap.instruments[i].tenor for i in idx]
        for i, k in zip(idx, vl.kernels_at(snap.riskfree, curve, tenors)):
            at_tenor[i] = k
    report = []
    for inst, res, k in zip(snap.instruments, result.residuals, at_tenor):
        sbar, _ = vl.par_adjusted_spread(inst, k, snap.riskfree)
        # the model spread of the residual: in EM mode widened by alpha * sov
        model = vl.par_cds_spread(k, inst.recovery)
        if result.alpha is not None:
            model += result.alpha * inst.sovereign_spread
        rating = inst.effective_rating
        report.append([inst.identifier, _fmt(inst.tenor),
                       "" if rating is None else str(rating),
                       _bp(sbar), _bp(model), _fmt(res), "cheap" if res > 0 else "rich"])
    _write(st.out / "fit_report.csv",
           ["id", "tenor_years", "rating", "par_adjusted_spread_bp",
            "model_spread_bp", "residual_pts", "flag"], report)


def _fit_verb(grid: bool, allow_underdetermined: bool, kw: dict) -> None:
    with _exits():
        st, snap = _load(kw, grid)
        result = _fit(st, snap, grid, allow_underdetermined, emit=True)
    fitted = " ".join(f"{name}={val}" for name, val in _param_rows(result))
    print(f"fitted {fitted} objective={_fmt(result.objective)}")
    print(f"wrote {st.out / 'fit_params.csv'} and {st.out / 'fit_report.csv'}")


@_verb("fit", *_COMMON, *_FIT_OPTS)
def fit(allow_underdetermined, **kw):
    """Single-name three-parameter fit."""
    _fit_verb(False, allow_underdetermined, kw)


@_verb("fit-grid", *_COMMON, *_FIT_OPTS)
def fit_grid(allow_underdetermined, **kw):
    """Seven-parameter multi-rating fit (plus alpha in EM mode)."""
    _fit_verb(True, allow_underdetermined, kw)


# -- analytics ---------------------------------------------------------


@_verb("analytics", *_COMMON, *_FIT_OPTS, "horizon", "convergence-fraction", "variant")
def analytics_cmd(allow_underdetermined, variant, **kw):
    """Carry / rolldown / RV / total over a horizon, off a fitted curve."""
    with _exits():
        st, snap = _load(kw)
        params = _fit(st, snap, False, allow_underdetermined).params
    rows = []
    held = [inst for inst in snap.instruments if st.horizon < inst.tenor]
    # every held instrument's kernels at T, then at T - horizon, off one read-out
    tenors = [inst.tenor for inst in held]
    ks = vl.kernels_at(snap.riskfree, params, tenors + [t - st.horizon for t in tenors])
    for inst, k_T, k_Tm in zip(held, ks, ks[len(held):]):
        sbar, c_prime = vl.par_adjusted_spread(inst, k_T, snap.riskfree)
        dec = an.decompose_return(c_prime, sbar, k_T, k_Tm, inst.recovery, variant=variant,
                                  convergence_fraction=st.convergence_fraction)
        # total as the sum of the printed parts, so the row adds up exactly
        parts = [_bp(dec.carry), _bp(dec.rolldown), _bp(dec.rv)]
        total = f"{sum(float(x) for x in parts):.6f}"
        rows.append([inst.identifier, _fmt(inst.tenor), _bp(sbar), *parts, total])
    _write(st.out / "analytics.csv",
           ["id", "tenor_years", "par_adjusted_spread_bp", "carry_bp",
            "rolldown_bp", "rv_bp", "total_bp"], rows)
    print(f"wrote {st.out / 'analytics.csv'} ({len(rows)} instruments, "
          f"horizon {st.horizon}y, variant {variant})")


# -- history -----------------------------------------------------------


@_verb("history", "snapshots", "mode", "tenor-points", "config", "recovery", "compounding",
       "fix-c", "em-alpha", "seed", "multistart", "out")
def history(snapshots, mode, tenor_points, config_path, **kw):
    """Per-date fits over a snapshot series; long-format rows for plotting."""
    grid = mode == "rating-grid"
    with _exits():
        st = Settings(config_path, kw, grid)
        try:
            points = [float(x) for x in tenor_points.split(",") if x.strip()]
        except ValueError:
            points = [math.nan]  # not a number: fails the range test below
        # each point names its series by its :g label, so no two labels may coincide
        labels = {f"{t:g}" for t in points}
        if not (points and len(labels) == len(points)
                and all(0.0 < t <= vl.MAX_TENOR for t in points)):
            raise ValueError(f"--tenor-points must be numbers in (0, {vl.MAX_TENOR:g}] years, "
                             f"got {tenor_points!r}")
    root = Path(snapshots)
    if not root.is_dir():
        _fail(f"{snapshots} is not a directory", EXIT_INPUT)
    dates = sorted(d for d in root.iterdir() if d.is_dir())
    if not dates:
        _fail(f"no snapshot subdirectories under {snapshots}", EXIT_INPUT)

    rows: list[list[str]] = []
    failures: list[str] = []
    for d in dates:
        try:
            date = dt.date.fromisoformat(d.name)
        except ValueError:
            failures.append(f"{d.name}: not a YYYY-MM-DD directory")
            continue
        try:
            rows.extend(_history_one(st, d, date, grid, points))
        except (UniverseError, ValueError, ArithmeticError) as exc:
            failures.append(f"{d.name}: {exc}")
    _write(st.out / "history.csv", ["date", "series", "value"], rows)
    print(f"wrote {st.out / 'history.csv'} "
          f"({len(dates) - len(failures)}/{len(dates)} dates)")
    for f in failures:
        print(f"skipped {f}", file=sys.stderr)
    if failures and len(failures) == len(dates):
        _fail("all dates failed", EXIT_NOCONV)


def _history_one(st: Settings, d: Path, date: dt.date, grid: bool,
                 points: list[float]) -> list[list[str]]:
    def optional(name: str) -> Path | None:
        return d / name if (d / name).exists() else None

    snap = st.load(d / "riskfree.csv", optional("bonds.csv"), optional("cds.csv"),
                   optional("sovereign.csv"), as_of=date)
    # the spread series are valued at the recovery the fit used: the
    # schedule's at each anchor rating, else the one all instruments carry
    scheduled = grid and st.recovery_mode == "schedule"
    recs = sorted({inst.recovery for inst in snap.instruments})
    if not scheduled and len(recs) > 1:
        raise ValueError(f"instruments carry recoveries {', '.join(map(_fmt, recs))}; "
                         "the spread series need a single one")
    result = _fit(st, snap, grid)

    iso = date.isoformat()
    rows = [[iso, f"param.{name}", val] for name, val in _param_rows(result)]
    if grid:
        schedule = RecoverySchedule()
        curves = [(f".{name}", result.params.params_for_rating(r),
                   schedule.recovery_for_rating(r) if scheduled else recs[0])
                  for name, r in zip(ANCHOR_NAMES, ANCHOR_RATINGS)]
    else:
        curves = [("", result.params, recs[0])]
    for label, params, rec in curves:
        for t, k in zip(points, vl.kernels_at(snap.riskfree, params, points)):
            rows.append([iso, f"spread_{t:g}y{label}_bp", _bp(vl.par_cds_spread(k, rec))])
    for inst, res in zip(snap.instruments, result.residuals):
        rows.append([iso, f"rv.{inst.identifier}_pts", _fmt(res)])
    return rows


if __name__ == "__main__":
    main()
