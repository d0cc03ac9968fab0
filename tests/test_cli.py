import datetime as dt
import math
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

import creditcurve as cc
from creditcurve.cli import ANCHOR_NAMES, main
from creditcurve.survival import RatingGrid, RecoverySchedule, SurvivalParams
from creditcurve.universe import load_universe
from creditcurve.valuation import BondSpec, bond_model_price, kernels

RISKFREE = "tenor_years,zero_rate\n1,0.015\n10,0.015\n30,0.015\n"


@pytest.fixture
def runner():
    return CliRunner()


def write_universe(tmp_path, params=SurvivalParams(0.01, 0.05, 0.1), recovery=0.4,
                   name="bonds.csv"):
    curve = cc.RiskfreeCurve.flat(0.015)
    lines = ["id,coupon,tenor_years,price,issue_size,rating"]
    for i, T in enumerate((1.5, 3, 5, 8, 12, 20)):
        cpn = 0.03 + 0.004 * i
        k = kernels(curve, params, T)
        p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=recovery), k)
        lines.append(f"b{i},{cpn},{T},{p:.8f},1000,BBB")
    bonds = tmp_path / name
    bonds.write_text("\n".join(lines) + "\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    return riskfree, bonds


def grid_universe_lines(grid, sched):
    curve = cc.RiskfreeCurve.flat(0.015)
    lines = ["id,coupon,tenor_years,price,issue_size,rating"]
    i = 0
    for rating, sym in ((3, "AA"), (9, "BBB"), (15, "B")):
        for T in (2.0, 5.0, 10.0, 20.0):
            cpn = 0.02 + 0.003 * rating
            params = grid.params_for_rating(rating)
            rec = sched.recovery_for_rating(rating)
            k = kernels(curve, params, T)
            p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=rec), k)
            lines.append(f"g{i},{cpn},{T},{p:.8f},1000,{sym}")
            i += 1
    return lines


def test_value_on_curve(tmp_path, runner):
    riskfree, bonds = write_universe(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "value", "--riskfree", str(riskfree), "--bonds", str(bonds),
        "--a", "0.01", "--b", "0.05", "--c", "0.1",
        "--recovery", "fixed:0.4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = (out / "value.csv").read_text().splitlines()
    assert rows[0] == "id,tenor_years,market_price_pts,model_price_pts,delta_pts"
    for row in rows[1:]:
        assert abs(float(row.split(",")[-1])) < 1e-6


def test_spread_outputs(tmp_path, runner):
    riskfree, bonds = write_universe(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "spread", "--riskfree", str(riskfree), "--bonds", str(bonds),
        "--recovery", "fixed:0.4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = (out / "spreads.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert "yield_bp" in header and "par_adjusted_spread_bp" in header
    first = dict(zip(header, rows[1].split(",")))
    assert 0 < float(first["yield_bp"]) < 2000
    assert 0 < float(first["par_adjusted_spread_bp"]) < 1000


def test_fit_recovers_curve(tmp_path, runner):
    riskfree, bonds = write_universe(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "fit", "--riskfree", str(riskfree), "--bonds", str(bonds),
        "--recovery", "fixed:0.4", "--out", str(out), "--multistart", "3"])
    assert result.exit_code == 0, result.output
    params = dict(line.split(",") for line in
                  (out / "fit_params.csv").read_text().splitlines()[1:])
    assert float(params["a"]) == pytest.approx(0.01, rel=5e-3)
    assert float(params["b"]) == pytest.approx(0.05, rel=5e-3)
    assert params["converged"] == "true"
    report = (out / "fit_report.csv").read_text().splitlines()
    assert len(report) == 7  # header + 6 bonds


def test_fit_underdetermined_exit_codes(tmp_path, runner):
    curve = cc.RiskfreeCurve.flat(0.015)
    k = kernels(curve, SurvivalParams.flat(0.02), 5.0)
    p = bond_model_price(BondSpec(coupon=0.04, tenor=5.0, price=100, recovery=0.4), k)
    bonds = tmp_path / "bonds.csv"
    bonds.write_text("id,coupon,tenor_years,price\n"
                     f"only,0.04,5.0,{p:.6f}\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    out = tmp_path / "out"
    args = ["fit", "--riskfree", str(riskfree), "--bonds", str(bonds),
            "--recovery", "fixed:0.4", "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "underdetermined" in result.output
    result = runner.invoke(main, args + ["--allow-underdetermined"])
    assert result.exit_code == 0, result.output


def test_fit_input_errors(tmp_path, runner):
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    empty = tmp_path / "bonds.csv"
    empty.write_text("id,coupon,tenor_years,price\n")
    result = runner.invoke(main, [
        "fit", "--riskfree", str(riskfree), "--bonds", str(empty),
        "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "no instruments" in result.output

    bad = tmp_path / "bad.csv"
    bad.write_text("id,coupon,tenor_years,price,rating\nb1,0.04,5.0,100,WD\n")
    result = runner.invoke(main, [
        "fit", "--riskfree", str(riskfree), "--bonds", str(bad),
        "--out", str(tmp_path / "o2")])
    assert result.exit_code == 2
    assert "AAA" in result.output


def test_fit_grid_and_determinism(tmp_path, runner):
    grid = RatingGrid(anchors_a=(0.002, 0.005, 0.02),
                      anchors_b=(0.008, 0.03, 0.09), c=0.12)
    sched = RecoverySchedule()
    bonds = tmp_path / "bonds.csv"
    bonds.write_text("\n".join(grid_universe_lines(grid, sched)) + "\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)

    outputs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        result = runner.invoke(main, [
            "fit-grid", "--riskfree", str(riskfree), "--bonds", str(bonds),
            "--out", str(out), "--multistart", "2", "--seed", "7"])
        assert result.exit_code == 0, result.output
        outputs.append(((out / "fit_params.csv").read_bytes(),
                        (out / "fit_report.csv").read_bytes()))
    assert outputs[0] == outputs[1]

    params = dict(line.split(",") for line in
                  (tmp_path / "run1" / "fit_params.csv").read_text().splitlines()[1:])
    assert float(params["a_BBB"]) == pytest.approx(0.005, rel=0.02)
    assert float(params["b_B"]) == pytest.approx(0.09, rel=0.02)


def test_fit_grid_honours_config_file_recovery(tmp_path, runner):
    # a recovery set in the run-config file must not be overridden by the
    # grid fit's schedule default
    grid = RatingGrid(anchors_a=(0.002, 0.005, 0.02),
                      anchors_b=(0.008, 0.03, 0.09), c=0.12)
    bonds = tmp_path / "bonds.csv"
    bonds.write_text("\n".join(grid_universe_lines(grid, RecoverySchedule())) + "\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("recovery = fixed:0.1\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    fast = ["--multistart", "1", "--fix-c", "0.12"]
    r1 = runner.invoke(main, ["fit-grid", "--riskfree", str(riskfree),
                              "--bonds", str(bonds), "--config", str(cfg),
                              "--out", str(out1)] + fast)
    r2 = runner.invoke(main, ["fit-grid", "--riskfree", str(riskfree),
                              "--bonds", str(bonds),
                              "--out", str(out2)] + fast)
    assert r1.exit_code == 0 and r2.exit_code == 0
    # different recovery assumptions must produce different fitted anchors
    assert (out1 / "fit_params.csv").read_text() != (out2 / "fit_params.csv").read_text()


def test_fit_grid_single_rating_underdetermined(tmp_path, runner):
    curve = cc.RiskfreeCurve.flat(0.015)
    k = kernels(curve, SurvivalParams.flat(0.02), 5.0)
    p = bond_model_price(BondSpec(coupon=0.04, tenor=5.0, price=100, recovery=0.4), k)
    bonds = tmp_path / "bonds.csv"
    bonds.write_text(f"id,coupon,tenor_years,price,rating\nonly,0.04,5.0,{p:.6f},BBB\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    result = runner.invoke(main, [
        "fit-grid", "--riskfree", str(riskfree), "--bonds", str(bonds),
        "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "underdetermined" in result.output


def test_analytics_components_sum(tmp_path, runner):
    riskfree, bonds = write_universe(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "analytics", "--riskfree", str(riskfree), "--bonds", str(bonds),
        "--recovery", "fixed:0.4", "--horizon", "0.25", "--out", str(out),
        "--multistart", "2"])
    assert result.exit_code == 0, result.output
    rows = (out / "analytics.csv").read_text().splitlines()
    header = rows[0].split(",")
    for row in rows[1:]:
        rec = dict(zip(header, row.split(",")))
        total = float(rec["carry_bp"]) + float(rec["rolldown_bp"]) + float(rec["rv_bp"])
        assert total == pytest.approx(float(rec["total_bp"]), abs=1e-6)


def make_history_dir(tmp_path, hazards):
    root = tmp_path / "snaps"
    for i, lam in enumerate(hazards):
        day = root / f"2020-0{i + 1}-15"
        day.mkdir(parents=True)
        (day / "riskfree.csv").write_text(RISKFREE)
        curve = cc.RiskfreeCurve.flat(0.015)
        params = SurvivalParams(lam, lam * 3, 0.1)
        lines = ["id,coupon,tenor_years,price,issue_size,rating"]
        for j, T in enumerate((2, 5, 10, 20)):
            cpn = 0.04
            k = kernels(curve, params, T)
            p = bond_model_price(BondSpec(coupon=cpn, tenor=T, price=100, recovery=0.4), k)
            lines.append(f"b{j},{cpn},{T},{p:.8f},1000,BBB")
        (day / "bonds.csv").write_text("\n".join(lines) + "\n")
    return root


def test_history_drifting_hazard_monotone(tmp_path, runner):
    root = make_history_dir(tmp_path, (0.008, 0.012, 0.016, 0.02))
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "history", "--snapshots", str(root), "--out", str(out),
        "--recovery", "fixed:0.4", "--multistart", "2", "--tenor-points", "5,10"])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    series5 = [float(v) for d, s, v in rows if s == "spread_5y_bp"]
    assert len(series5) == 4
    assert all(x < y for x, y in zip(series5, series5[1:]))


def test_history_identical_snapshots_identical_rows(tmp_path, runner):
    root = make_history_dir(tmp_path, (0.01, 0.01))
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "history", "--snapshots", str(root), "--out", str(out),
        "--recovery", "fixed:0.4", "--multistart", "2"])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    by_date = {}
    for d, s, v in rows:
        by_date.setdefault(d, []).append((s, v))
    d1, d2 = sorted(by_date)
    assert by_date[d1] == by_date[d2]


def test_history_single_snapshot_matches_fit(tmp_path, runner):
    root = make_history_dir(tmp_path, (0.012,))
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "history", "--snapshots", str(root), "--out", str(out),
        "--recovery", "fixed:0.4", "--multistart", "2", "--seed", "9"])
    assert result.exit_code == 0, result.output
    day = sorted(root.iterdir())[0]
    fit_out = tmp_path / "fit_out"
    result = runner.invoke(main, [
        "fit", "--riskfree", str(day / "riskfree.csv"), "--bonds", str(day / "bonds.csv"),
        "--recovery", "fixed:0.4", "--multistart", "2", "--seed", "9",
        "--out", str(fit_out)])
    assert result.exit_code == 0, result.output
    params = dict(line.split(",") for line in
                  (fit_out / "fit_params.csv").read_text().splitlines()[1:])
    hist = {s: v for d, s, v in
            (line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:])}
    for key in ("a", "b", "c"):
        assert hist[f"param.{key}"] == params[key]


def test_history_skips_failing_date(tmp_path, runner):
    root = make_history_dir(tmp_path, (0.01, 0.015))
    # corrupt the second date
    bad = sorted(root.iterdir())[1] / "bonds.csv"
    bad.write_text("id,coupon,tenor_years,price\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "history", "--snapshots", str(root), "--out", str(out),
        "--recovery", "fixed:0.4", "--multistart", "2"])
    assert result.exit_code == 0
    assert "skipped" in result.output
    rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    assert len({d for d, s, v in rows}) == 1


@pytest.mark.parametrize("mode", ["single-name", "rating-grid"])
def test_history_spreads_at_fitted_fixed_recovery(tmp_path, runner, colom_dir, mode):
    # the spread series must be par CDS spreads of the fitted curve at the
    # recovery the fit used, not at a hard-coded or scheduled one
    day = tmp_path / "snaps" / "2016-04-08"
    day.mkdir(parents=True)
    for name in ("riskfree.csv", "bonds.csv"):
        shutil.copy(colom_dir / name, day / name)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "history", "--snapshots", str(tmp_path / "snaps"), "--mode", mode,
        "--recovery", "fixed:0.0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    hist = {s: float(v) for d, s, v in
            (line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:])}
    if mode == "single-name":
        curves = {"": SurvivalParams(hist["param.a"], hist["param.b"], hist["param.c"])}
    else:
        grid = RatingGrid(anchors_a=tuple(hist[f"param.a_{n}"] for n in ANCHOR_NAMES),
                          anchors_b=tuple(hist[f"param.b_{n}"] for n in ANCHOR_NAMES),
                          c=hist["param.c"])
        curves = {f".{n}": grid.params_for_rating(r)
                  for n, r in zip(ANCHOR_NAMES, (3, 9, 15))}
    riskfree = load_universe(day / "riskfree.csv", day / "bonds.csv",
                             as_of=dt.date(2016, 4, 8)).riskfree
    for label, params in curves.items():
        for t in (5, 10):
            want = cc.par_cds_spread(kernels(riskfree, params, t), 0.0) * 1e4
            assert hist[f"spread_{t}y{label}_bp"] == pytest.approx(want, abs=1e-4)


def test_spread_sample_data_runs(tmp_path, runner, colom_dir):
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "spread", "--riskfree", str(colom_dir / "riskfree.csv"),
        "--bonds", str(colom_dir / "bonds.csv"),
        "--config", str(colom_dir / "config.txt"),
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "spreads.csv").exists()


def test_fit_params_file_reload_round_trip(tmp_path, runner):
    # serialize -> reload -> re-emit must be byte-identical
    from creditcurve.cli import _fmt

    riskfree, bonds = write_universe(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "fit", "--riskfree", str(riskfree), "--bonds", str(bonds),
        "--recovery", "fixed:0.4", "--out", str(out), "--multistart", "2"])
    assert result.exit_code == 0, result.output
    original = (out / "fit_params.csv").read_text()
    lines = original.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        key, val = line.split(",")
        try:
            val = _fmt(float(val))
        except ValueError:
            pass
        rebuilt.append(f"{key},{val}")
    assert "\n".join(rebuilt) + "\n" == original
