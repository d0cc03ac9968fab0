"""Cross-verb consistency on the benchmark's seeded snapshots.

An instrument's par-adjusted spread, taken on the survival curve that
reprices it exactly, equals that curve's par CDS spread.  These tests
check it on whatever desk snapshot the generator draws, through the
library and through what the ``spread`` verb writes.
"""
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from creditcurve.cli import Settings, main
from creditcurve.fitting import price_residual
from creditcurve.survival import SurvivalParams
from creditcurve.valuation import (
    exact_fit_to_instrument,
    kernels,
    par_adjusted_spread,
    par_cds_spread,
)

EXACT_PTS = 1e-8        # an exact fit reprices to |dP| <= 1e-8 points per 100 face
# 100 * Pi * (sbar - s_par) is dP rearranged, up to some 70 ulps of a 100-point price
ROUNDING_PTS = 1e-12
ON_CURVE_BP = 1e-4      # spreads.csv prints the hazard to 10 significant digits


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
