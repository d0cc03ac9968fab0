"""Batch command line: value, spread, fit, fit-grid, analytics, history.

Reads delimiter-separated quote/curve files, runs the requested
computation for a snapshot (or a dated series of snapshots) and writes
plot-ready text output.  Units in output headers: spreads and returns
in basis points, prices in points per 100 face, curve parameters in
per-annum decimals.

Exit codes: 0 success, 2 input error, 3 non-convergence.
"""

from __future__ import annotations

import datetime as dt
import sys
from pathlib import Path

import click

from . import analytics as an
from . import fitting as ft
from . import valuation as vl
from .survival import RatingGrid, RecoverySchedule, SurvivalParams
from .universe import UniverseError, UniverseSnapshot, load_config, load_universe

EXIT_INPUT = 2
EXIT_NOCONV = 3

ANCHOR_NAMES = ("AA", "BBB", "B")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _bp(x: float) -> str:
    return f"{x * 1e4:.6f}"


class Settings:
    """Flag values merged over the optional run-config file."""

    def __init__(self, config_path: str | None, overrides: dict):
        base = load_config(config_path) if config_path else {}
        merged = dict(base)
        for key, val in overrides.items():
            if val is not None:
                merged[key] = val
        self.as_of = dt.date.fromisoformat(str(merged["as_of"])) if "as_of" in merged else None
        self.compounding = int(merged.get("compounding", 0))
        self.grid_step = float(merged.get("grid_step", vl.DEFAULT_GRID_STEP))
        self.horizon = float(merged.get("horizon", 0.25))
        self.convergence_fraction = float(merged.get("convergence_fraction", 1.0))
        self.seed = int(merged.get("seed", 0))
        self.multistart = int(merged.get("multistart", 5))
        self.weight_mode = str(merged.get("weight_mode", "issue_size"))
        self.loss = str(merged.get("loss", "robust"))
        self.fix_c = float(merged["fix_c"]) if "fix_c" in merged else None
        self.out = Path(merged.get("out", "out"))
        self.compounding_m = int(merged.get("yield_compounding", 2))

        self.recovery_specified = "recovery" in merged
        rec = str(merged.get("recovery", "fixed:0.4"))
        if rec == "schedule":
            self.recovery_mode, self.recovery_fixed = "schedule", 0.4
        elif rec == "fixed":
            self.recovery_mode, self.recovery_fixed = "fixed", 0.4
        elif rec.startswith("fixed:"):
            self.recovery_mode, self.recovery_fixed = "fixed", float(rec.split(":", 1)[1])
        else:
            raise UniverseError(f"--recovery must be 'fixed[:v]' or 'schedule', got {rec!r}")

        em = str(merged.get("em_alpha", "off"))
        if em == "off":
            self.em_mode, self.em_alpha_fixed = "off", 0.5
        elif em == "fit":
            self.em_mode, self.em_alpha_fixed = "fit", 0.5
        elif em.startswith("fixed:"):
            self.em_mode, self.em_alpha_fixed = "fixed", float(em.split(":", 1)[1])
        else:
            raise UniverseError(f"--em-alpha must be 'fit', 'fixed:v' or 'off', got {em!r}")

    def fit_config(self) -> ft.FitConfig:
        return ft.FitConfig(
            weight_mode=self.weight_mode, loss=self.loss,
            fix_c=self.fix_c, multistart_count=self.multistart,
            seed=self.seed, grid_step=self.grid_step,
            em_mode=self.em_mode, em_alpha_fixed=self.em_alpha_fixed)

    def load(self, riskfree, bonds, cds, sovereign) -> UniverseSnapshot:
        return load_universe(
            riskfree_path=riskfree, bonds_path=bonds, cds_path=cds,
            sovereign_path=sovereign, as_of=self.as_of,
            compounding=self.compounding,
            recovery_mode=self.recovery_mode,
            recovery_fixed=self.recovery_fixed)


def _write(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _common(fn):
    fn = click.option("--riskfree", required=True, type=click.Path(), help="curve file")(fn)
    fn = click.option("--bonds", type=click.Path(), default=None, help="bond quote file")(fn)
    fn = click.option("--cds", type=click.Path(), default=None, help="CDS quote file")(fn)
    fn = click.option("--sovereign", type=click.Path(), default=None,
                      help="sovereign par-spread pillars")(fn)
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="run-config file (key = value)")(fn)
    fn = click.option("--as-of", default=None, help="snapshot date YYYY-MM-DD")(fn)
    fn = click.option("--compounding", type=int, default=None,
                      help="quoting frequency of curve input rates (0 = continuous)")(fn)
    fn = click.option("--recovery", default=None, help="fixed[:v] | schedule")(fn)
    fn = click.option("--grid-step", type=float, default=None, help="quadrature step, years")(fn)
    fn = click.option("--out", default=None, help="output directory")(fn)
    return fn


def _fit_opts(fn):
    fn = click.option("--fix-c", type=float, default=None, help="fix the shape parameter")(fn)
    fn = click.option("--em-alpha", default=None, help="fit | fixed:v | off")(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--multistart", type=int, default=None)(fn)
    fn = click.option("--weight-mode", default=None,
                      help="issue_size | equal | issue_size_duration")(fn)
    fn = click.option("--loss", default=None, help="robust | squared")(fn)
    fn = click.option("--allow-underdetermined", is_flag=True, default=False)(fn)
    return fn


def _settings(config_path, **kw) -> Settings:
    overrides = {k: v for k, v in kw.items() if v is not None}
    return Settings(config_path, overrides)


@click.group()
def main() -> None:
    """Survival-curve credit analytics."""


def _fail(msg: str, code: int) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


# -- value -------------------------------------------------------------


@main.command()
@_common
@click.option("--a", "a", type=float, required=True, help="short-end hazard")
@click.option("--b", "b", type=float, required=True, help="long-end hazard")
@click.option("--c", "c", type=float, required=True, help="shape parameter")
def value(riskfree, bonds, cds, sovereign, config_path, as_of, compounding,
          recovery, grid_step, out, a, b, c):
    """Model prices for the instruments off an explicit hazard curve."""
    try:
        st = _settings(config_path, as_of=as_of, compounding=compounding,
                       recovery=recovery, grid_step=grid_step, out=out)
        snap = st.load(riskfree, bonds, cds, sovereign)
        params = SurvivalParams(a=a, b=b, c=c)
    except (UniverseError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    rows = []
    for inst in snap.bonds:
        k = vl.kernels(snap.riskfree, params, inst.tenor, st.grid_step)
        model = vl.bond_model_price(inst, k)
        rows.append([inst.identifier, _fmt(inst.tenor), _fmt(inst.price),
                     _fmt(model), _fmt(model - inst.price)])
    for inst in snap.cds:
        k = vl.kernels(snap.riskfree, params, inst.tenor, st.grid_step)
        rec = inst.model_recovery if inst.model_recovery is not None else inst.quoting_recovery
        u_model = (vl.par_cds_spread(k, rec) - inst.coupon) * k.pi
        u_mkt = vl.cds_upfront(inst, snap.riskfree, st.grid_step)
        rows.append([inst.identifier, _fmt(inst.tenor), _fmt(100 * (1 - u_mkt)),
                     _fmt(100 * (1 - u_model)), _fmt(100 * (u_mkt - u_model))])
    _write(st.out / "value.csv",
           ["id", "tenor_years", "market_price_pts", "model_price_pts", "delta_pts"], rows)
    click.echo(f"wrote {st.out / 'value.csv'} ({len(rows)} instruments)")


# -- spread ------------------------------------------------------------


@main.command()
@_common
@click.option("--yield-compounding", "yield_compounding", type=int, default=None,
              help="compounding m for yield and Z-spread (default 2)")
def spread(riskfree, bonds, cds, sovereign, config_path, as_of, compounding,
           recovery, grid_step, out, yield_compounding):
    """Yield, Z-spread and par-adjusted spread per instrument.

    The par-adjusted spread of a bond is computed on the flat-hazard
    curve that exactly reprices it at the configured recovery; it then
    equals that curve's par CDS spread.
    """
    try:
        st = _settings(config_path, as_of=as_of, compounding=compounding,
                       recovery=recovery, grid_step=grid_step, out=out,
                       yield_compounding=yield_compounding)
        snap = st.load(riskfree, bonds, cds, sovereign)
    except (UniverseError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    rows = []
    base = SurvivalParams.flat(0.02)
    m = st.compounding_m
    for inst in snap.bonds:
        try:
            y = vl.yield_from_price(inst.coupon, inst.tenor, inst.price, m)
            s_z = vl.z_spread(inst, snap.riskfree, m)
            fitted = vl.exact_fit_to_instrument(inst, base, snap.riskfree,
                                                grid_step=st.grid_step)
            k = vl.kernels(snap.riskfree, fitted, inst.tenor, st.grid_step)
            sbar = vl.par_adjusted_spread_bond(inst, k)
        except ArithmeticError as exc:
            _fail(f"{inst.identifier}: {exc}", EXIT_NOCONV)
        rows.append([inst.identifier, _fmt(inst.tenor), _fmt(inst.price),
                     _bp(y), _bp(s_z), _bp(sbar), _fmt(fitted.a)])
    for inst in snap.cds:
        rec = inst.model_recovery if inst.model_recovery is not None else inst.quoting_recovery
        try:
            fitted = vl.exact_fit_to_instrument(inst, base, snap.riskfree,
                                                recovery=rec, grid_step=st.grid_step)
            k = vl.kernels(snap.riskfree, fitted, inst.tenor, st.grid_step)
            sbar = vl.par_adjusted_spread_cds(inst, k, snap.riskfree, st.grid_step)
        except ArithmeticError as exc:
            _fail(f"{inst.identifier}: {exc}", EXIT_NOCONV)
        rows.append([inst.identifier, _fmt(inst.tenor), "", "", "", _bp(sbar), _fmt(fitted.a)])
    _write(st.out / "spreads.csv",
           ["id", "tenor_years", "price_pts", "yield_bp", "z_spread_bp",
            "par_adjusted_spread_bp", "implied_flat_hazard"], rows)
    click.echo(f"wrote {st.out / 'spreads.csv'} ({len(rows)} instruments)")


# -- fit / fit-grid ----------------------------------------------------


def _emit_fit(st: Settings, snap: UniverseSnapshot, result: ft.FitResult,
              recovery_arg, prefix: str = "") -> None:
    params = result.params
    rows = []
    if isinstance(params, SurvivalParams):
        rows += [["a", _fmt(params.a)], ["b", _fmt(params.b)], ["c", _fmt(params.c)]]
    else:
        for name, val in zip(ANCHOR_NAMES, params.anchors_a):
            rows.append([f"a_{name}", _fmt(val)])
        for name, val in zip(ANCHOR_NAMES, params.anchors_b):
            rows.append([f"b_{name}", _fmt(val)])
        rows.append(["c", _fmt(params.c)])
    if result.alpha is not None:
        rows.append(["alpha", _fmt(result.alpha)])
    rows.append(["objective", _fmt(result.objective)])
    rows.append(["converged", str(result.diagnostics.get("converged", False)).lower()])
    rows.append(["underdetermined", str(result.diagnostics.get("underdetermined", False)).lower()])
    _write(st.out / f"{prefix}fit_params.csv", ["parameter", "value"], rows)

    report = []
    for inst, res in zip(snap.instruments, result.residuals):
        if isinstance(params, SurvivalParams):
            curve_params = params
        else:
            curve_params = params.params_for_rating(inst.effective_rating)
        rec = ft._recovery_for(inst, recovery_arg)
        k = vl.kernels(snap.riskfree, curve_params, inst.tenor, st.grid_step)
        s_model = vl.par_cds_spread(k, rec)
        if isinstance(inst, vl.BondSpec):
            sbar = vl.par_adjusted_spread_bond(inst, k)
        else:
            sbar = vl.par_adjusted_spread_cds(inst, k, snap.riskfree, st.grid_step)
        flag = "cheap" if res > 0 else "rich"
        rating = inst.effective_rating
        report.append([inst.identifier, _fmt(inst.tenor),
                       "" if rating is None else str(rating),
                       _bp(sbar), _bp(s_model), _fmt(res), flag])
    _write(st.out / f"{prefix}fit_report.csv",
           ["id", "tenor_years", "rating", "par_adjusted_spread_bp",
            "model_spread_bp", "residual_pts", "flag"], report)


@main.command()
@_common
@_fit_opts
def fit(riskfree, bonds, cds, sovereign, config_path, as_of, compounding,
        recovery, grid_step, out, fix_c, em_alpha, seed, multistart,
        weight_mode, loss, allow_underdetermined):
    """Single-name three-parameter fit."""
    try:
        st = _settings(config_path, as_of=as_of, compounding=compounding,
                       recovery=recovery, grid_step=grid_step, out=out,
                       fix_c=fix_c, em_alpha=em_alpha, seed=seed,
                       multistart=multistart, weight_mode=weight_mode, loss=loss)
        snap = st.load(riskfree, bonds, cds, sovereign)
        result = ft.fit_single_name(snap.instruments, snap.riskfree, None, st.fit_config())
    except (UniverseError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    if result.diagnostics.get("underdetermined") and not allow_underdetermined:
        _emit_fit(st, snap, result, None)
        _fail("fit underdetermined (single tenor); pass --allow-underdetermined to accept",
              EXIT_INPUT)
    if not result.diagnostics.get("converged", False):
        _emit_fit(st, snap, result, None)
        _fail(f"fit did not converge (objective {result.objective:.6g})", EXIT_NOCONV)
    _emit_fit(st, snap, result, None)
    p = result.params
    click.echo(f"fitted a={_fmt(p.a)} b={_fmt(p.b)} c={_fmt(p.c)} "
               f"objective={_fmt(result.objective)}")
    click.echo(f"wrote {st.out / 'fit_params.csv'} and {st.out / 'fit_report.csv'}")


@main.command("fit-grid")
@_common
@_fit_opts
def fit_grid(riskfree, bonds, cds, sovereign, config_path, as_of, compounding,
             recovery, grid_step, out, fix_c, em_alpha, seed, multistart,
             weight_mode, loss, allow_underdetermined):
    """Seven-parameter multi-rating fit (plus alpha in EM mode)."""
    try:
        st = _settings(config_path, as_of=as_of, compounding=compounding,
                       recovery=recovery, grid_step=grid_step, out=out,
                       fix_c=fix_c, em_alpha=em_alpha, seed=seed,
                       multistart=multistart, weight_mode=weight_mode, loss=loss)
        if not st.recovery_specified:
            st.recovery_mode = "schedule"  # grid fits default to the rating schedule
        snap = st.load(riskfree, bonds, cds, sovereign)
        result = ft.fit_rating_grid(snap.instruments, snap.riskfree, None, st.fit_config())
    except (UniverseError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    if result.diagnostics.get("underdetermined") and not allow_underdetermined:
        _emit_fit(st, snap, result, None)
        _fail("rating-grid fit underdetermined; pass --allow-underdetermined to accept",
              EXIT_INPUT)
    if not result.diagnostics.get("converged", False):
        _emit_fit(st, snap, result, None)
        _fail(f"fit did not converge (objective {result.objective:.6g})", EXIT_NOCONV)
    _emit_fit(st, snap, result, None)
    g = result.params
    if isinstance(g, RatingGrid):
        click.echo(f"fitted anchors a={tuple(_fmt(x) for x in g.anchors_a)} "
                   f"b={tuple(_fmt(x) for x in g.anchors_b)} c={_fmt(g.c)}"
                   + (f" alpha={_fmt(result.alpha)}" if result.alpha is not None else ""))
    click.echo(f"wrote {st.out / 'fit_params.csv'} and {st.out / 'fit_report.csv'}")


# -- analytics ---------------------------------------------------------


@main.command("analytics")
@_common
@_fit_opts
@click.option("--horizon", type=float, default=None, help="horizon in years")
@click.option("--convergence-fraction", type=float, default=None)
@click.option("--variant", type=click.Choice(["standard", "model_carry"]),
              default="standard")
def analytics_cmd(riskfree, bonds, cds, sovereign, config_path, as_of, compounding,
                  recovery, grid_step, out, fix_c, em_alpha, seed, multistart,
                  weight_mode, loss, allow_underdetermined, horizon,
                  convergence_fraction, variant):
    """Carry / rolldown / RV / total over a horizon, off a fitted curve."""
    try:
        st = _settings(config_path, as_of=as_of, compounding=compounding,
                       recovery=recovery, grid_step=grid_step, out=out,
                       fix_c=fix_c, em_alpha=em_alpha, seed=seed,
                       multistart=multistart, weight_mode=weight_mode, loss=loss,
                       horizon=horizon, convergence_fraction=convergence_fraction)
        snap = st.load(riskfree, bonds, cds, sovereign)
        result = ft.fit_single_name(snap.instruments, snap.riskfree, None, st.fit_config())
    except (UniverseError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    if not result.diagnostics.get("converged", False):
        _fail(f"fit did not converge (objective {result.objective:.6g})", EXIT_NOCONV)
    params = result.params
    rows = []
    for inst in snap.instruments:
        if st.horizon >= inst.tenor:
            continue
        rec = ft._recovery_for(inst, None)
        k = vl.kernels(snap.riskfree, params, inst.tenor, st.grid_step)
        if isinstance(inst, vl.BondSpec):
            c_prime = inst.coupon - k.rhat
            sbar = vl.par_adjusted_spread_bond(inst, k)
        else:
            c_prime = inst.coupon
            sbar = vl.par_adjusted_spread_cds(inst, k, snap.riskfree, st.grid_step)
        dec = an.decompose_return(c_prime, sbar, inst.tenor, st.horizon,
                                  snap.riskfree, params, rec, variant=variant,
                                  convergence_fraction=st.convergence_fraction,
                                  grid_step=st.grid_step)
        # total as the sum of the printed parts, so the row adds up exactly
        parts = [_bp(dec.carry), _bp(dec.rolldown), _bp(dec.rv)]
        total = f"{sum(float(x) for x in parts):.6f}"
        rows.append([inst.identifier, _fmt(inst.tenor), _bp(sbar), *parts, total])
    _write(st.out / "analytics.csv",
           ["id", "tenor_years", "par_adjusted_spread_bp", "carry_bp",
            "rolldown_bp", "rv_bp", "total_bp"], rows)
    click.echo(f"wrote {st.out / 'analytics.csv'} ({len(rows)} instruments, "
               f"horizon {st.horizon}y, variant {variant})")


# -- history -----------------------------------------------------------


@main.command()
@click.option("--snapshots", required=True, type=click.Path(),
              help="directory of YYYY-MM-DD subdirectories with "
                   "riskfree.csv / bonds.csv [/ cds.csv / sovereign.csv]")
@click.option("--mode", type=click.Choice(["single-name", "rating-grid"]),
              default="single-name")
@click.option("--tenor-points", default="5,10", help="comma list of tenor points, years")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--recovery", default=None)
@click.option("--compounding", type=int, default=None)
@click.option("--grid-step", type=float, default=None)
@click.option("--fix-c", type=float, default=None)
@click.option("--em-alpha", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--multistart", type=int, default=None)
@click.option("--out", default=None)
def history(snapshots, mode, tenor_points, config_path, recovery, compounding,
            grid_step, fix_c, em_alpha, seed, multistart, out):
    """Per-date fits over a snapshot series; long-format rows for plotting."""
    try:
        st = _settings(config_path, recovery=recovery, compounding=compounding,
                       grid_step=grid_step, fix_c=fix_c, em_alpha=em_alpha,
                       seed=seed, multistart=multistart, out=out)
        points = [float(x) for x in tenor_points.split(",") if x.strip()]
    except (UniverseError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
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
            rows.extend(_history_one(st, d, date, mode, points))
        except (UniverseError, ValueError, ArithmeticError) as exc:
            failures.append(f"{d.name}: {exc}")
    _write(st.out / "history.csv", ["date", "series", "value"], rows)
    click.echo(f"wrote {st.out / 'history.csv'} "
               f"({len(dates) - len(failures)}/{len(dates)} dates)")
    for f in failures:
        click.echo(f"skipped {f}", err=True)
    if failures and len(failures) == len(dates):
        _fail("all dates failed", EXIT_NOCONV)


def _history_one(st: Settings, d: Path, date: dt.date, mode: str,
                 points: list[float]) -> list[list[str]]:
    bonds = d / "bonds.csv"
    cds = d / "cds.csv"
    sovereign = d / "sovereign.csv"
    snap = load_universe(
        riskfree_path=d / "riskfree.csv",
        bonds_path=bonds if bonds.exists() else None,
        cds_path=cds if cds.exists() else None,
        sovereign_path=sovereign if sovereign.exists() else None,
        as_of=date, compounding=st.compounding,
        recovery_mode=st.recovery_mode, recovery_fixed=st.recovery_fixed)
    config = st.fit_config()
    rows: list[list[str]] = []
    iso = date.isoformat()
    if mode == "single-name":
        result = ft.fit_single_name(snap.instruments, snap.riskfree, None, config)
        if not result.diagnostics.get("converged", False):
            raise ArithmeticError(f"fit did not converge (objective {result.objective:.6g})")
        params = result.params
        rows += [[iso, "param.a", _fmt(params.a)],
                 [iso, "param.b", _fmt(params.b)],
                 [iso, "param.c", _fmt(params.c)]]
        curves = {None: params}
    else:
        result = ft.fit_rating_grid(snap.instruments, snap.riskfree, None, config)
        if not result.diagnostics.get("converged", False):
            raise ArithmeticError(f"fit did not converge (objective {result.objective:.6g})")
        grid = result.params
        for name, val in zip(ANCHOR_NAMES, grid.anchors_a):
            rows.append([iso, f"param.a_{name}", _fmt(val)])
        for name, val in zip(ANCHOR_NAMES, grid.anchors_b):
            rows.append([iso, f"param.b_{name}", _fmt(val)])
        rows.append([iso, "param.c", _fmt(grid.c)])
        if result.alpha is not None:
            rows.append([iso, "param.alpha", _fmt(result.alpha)])
        curves = {r: grid.params_for_rating(r) for r in (3, 9, 15)}

    schedule = RecoverySchedule()
    for rating, params in curves.items():
        if st.recovery_mode == "fixed":
            rec = st.recovery_fixed  # the recovery the fit used
        else:
            rec = 0.4 if rating is None else schedule.recovery_for_rating(rating)
        label = "" if rating is None else f".{ANCHOR_NAMES[(3, 9, 15).index(rating)]}"
        for t in points:
            k = vl.kernels(snap.riskfree, params, t, st.grid_step)
            rows.append([iso, f"spread_{t:g}y{label}_bp", _bp(vl.par_cds_spread(k, rec))])
    for inst, res in zip(snap.instruments, result.residuals):
        rows.append([iso, f"rv.{inst.identifier}_pts", _fmt(res)])
    return rows


if __name__ == "__main__":
    main()
