"""Cross-verb consistency on the sample snapshot and the benchmark's
seeded snapshots.

An instrument's par-adjusted spread, taken on the survival curve that
reprices it exactly, equals that curve's par CDS spread.  These tests
check it on whatever desk snapshot the generator draws, through the
library and through what the ``spread`` verb writes.  ``fit`` and
``analytics`` fit the same curve, so ``analytics`` writes ``fit``'s
par-adjusted spreads, and its relative value is ``fit``'s price residual
carried to the horizon.
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from creditcurve.cli import Settings, main
from creditcurve.fitting import price_residual
from creditcurve.survival import SurvivalParams
from creditcurve.valuation import (
    exact_fit_to_instrument,
    kernels,
    kernels_at,
    par_adjusted_spread,
    par_cds_spread,
)

from conftest import CliRunner

EXACT_PTS = 1e-8        # an exact fit reprices to |dP| <= 1e-8 points per 100 face
# 100 * Pi * (sbar - s_par) is dP rearranged, up to some 70 ulps of a 100-point price
ROUNDING_PTS = 1e-12
ON_CURVE_BP = 1e-4      # spreads.csv prints the hazard to 10 significant digits
# analytics.csv prints to 1e-6 bp, fit_params.csv and fit_report.csv to 10 digits
RV_BP = 1e-6


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**63 - 1))
def test_desk_exact_fits_reprice_and_spread_writes_their_par_cds_spread(tmp_path_factory,
                                                                        gen, seed):
    root = tmp_path_factory.mktemp("desk")
    for meta in gen.generate("desk_cold", seed, root / "in")["snapshots"]:
        d = root / "in" / meta["name"]
        files = [str(d / "riskfree.csv"), str(d / "bonds.csv"), str(d / "cds.csv")]
        snap = Settings(None, {"as_of": meta["as_of"], "recovery": meta["recovery"]}).load(
            *files)
        curve = snap.riskfree
        unpriced = []
        for inst in snap.instruments:
            try:
                fitted, k = exact_fit_to_instrument(inst, SurvivalParams.flat(0.02), curve)
            except ArithmeticError:
                unpriced.append(inst.identifier)
                continue
            assert k == kernels(curve, fitted, inst.tenor)
            assert abs(price_residual(inst, fitted, curve, None)) <= EXACT_PTS
            sbar, _ = par_adjusted_spread(inst, k, curve)
            gap = 100.0 * k.pi * abs(sbar - par_cds_spread(k, inst.recovery))
            assert gap <= EXACT_PTS + ROUNDING_PTS, (inst.identifier, gap)

        out = root / "out" / meta["name"]
        result = CliRunner().invoke(main, [
            "spread", "--riskfree", files[0], "--bonds", files[1], "--cds", files[2],
            "--as-of", meta["as_of"], "--recovery", meta["recovery"], "--out", str(out)])
        assert result.exit_code == (3 if unpriced else 0), result.output
        lines = (out / "spreads.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [row["id"] for row in rows] == [i.identifier for i in snap.instruments]
        named = [line.split(": ")[1] for line in result.stderr.splitlines()
                 if line.startswith("error: ")]
        assert named == unpriced
        for row, inst in zip(rows, snap.instruments):
            if inst.identifier in unpriced:
                assert row["par_adjusted_spread_bp"] == row["implied_flat_hazard"] == ""
                continue
            flat = SurvivalParams.flat(float(row["implied_flat_hazard"]))
            want = par_cds_spread(kernels(curve, flat, inst.tenor), inst.recovery) * 1e4
            assert abs(float(row["par_adjusted_spread_bp"]) - want) <= ON_CURVE_BP, (
                inst.identifier, row["par_adjusted_spread_bp"], want)


def _rows(path):
    lines = path.read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def _fit_and_analytics_agree(snap, args, out):
    """``fit`` and ``analytics`` (standard split, full convergence, EM off)
    on one snapshot: the same exit code, returned, and on success analytics
    writes fit's par-adjusted spreads, and rv = 100 * residual * Pi(T - dt)
    / Pi(T) on the curve of fit_params.csv."""
    runner = CliRunner()
    fit = runner.invoke(main, ["fit", *args, "--em-alpha", "off", "--out", str(out / "fit")])
    an = runner.invoke(main, ["analytics", *args, "--em-alpha", "off", "--variant", "standard",
                              "--convergence-fraction", "1", "--out", str(out / "an")])
    assert fit.exit_code == an.exit_code, (fit.output, an.output)
    if fit.exit_code:
        return fit.exit_code
    fitted = {row["parameter"]: row["value"] for row in _rows(out / "fit" / "fit_params.csv")}
    params = SurvivalParams(*(float(fitted[name]) for name in "abc"))
    report = {row["id"]: row for row in _rows(out / "fit" / "fit_report.csv")}
    rows = _rows(out / "an" / "analytics.csv")
    held = [inst for inst in snap.instruments if inst.tenor > 0.25]
    assert [row["id"] for row in rows] == [inst.identifier for inst in held]
    for row, inst in zip(rows, held):
        fitted_row = report[inst.identifier]
        assert row["par_adjusted_spread_bp"] == fitted_row["par_adjusted_spread_bp"]
        k_T, k_Tm = kernels_at(snap.riskfree, params, [inst.tenor, inst.tenor - 0.25])
        want = 100.0 * float(fitted_row["residual_pts"]) * k_Tm.pi / k_T.pi
        assert abs(float(row["rv_bp"]) - want) <= RV_BP, (inst.identifier, row["rv_bp"], want)
    return 0


def test_fit_and_analytics_agree_on_the_sample_snapshot(tmp_path, colom_dir):
    files = [str(colom_dir / name) for name in ("riskfree.csv", "bonds.csv", "config.txt")]
    snap = Settings(files[2], {}).load(*files[:2])
    args = ["--riskfree", files[0], "--bonds", files[1], "--config", files[2]]
    assert _fit_and_analytics_agree(snap, args, tmp_path) == 0


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**63 - 1))
def test_fit_and_analytics_agree_on_desk_snapshots(tmp_path_factory, gen, seed):
    root = tmp_path_factory.mktemp("desk")
    for meta in gen.generate("desk_cold", seed, root / "in")["snapshots"]:
        d = root / "in" / meta["name"]
        files = [str(d / "riskfree.csv"), str(d / "bonds.csv"), str(d / "cds.csv")]
        snap = Settings(None, {"as_of": meta["as_of"], "recovery": meta["recovery"]}).load(
            *files)
        args = ["--riskfree", files[0], "--bonds", files[1], "--cds", files[2],
                "--as-of", meta["as_of"], "--recovery", meta["recovery"]]
        _fit_and_analytics_agree(snap, args, root / "out" / meta["name"])
