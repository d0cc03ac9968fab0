import datetime as dt
import json
import math
import os
import shutil
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import creditcurve as cc
import creditcurve.valuation as vl
from creditcurve.cli import ANCHOR_NAMES, Settings, _fmt, main
from creditcurve.fitting import price_residual
from creditcurve.survival import RATING_SYMBOLS, RatingGrid, RecoverySchedule, SurvivalParams
from creditcurve.universe import load_universe
from creditcurve.valuation import MAX_TENOR, BondSpec, CdsSpec, bond_model_price, kernels

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


@pytest.mark.parametrize("verb", ["fit", "analytics"])
def test_fit_underdetermined_exit_codes(tmp_path, runner, verb):
    curve = cc.RiskfreeCurve.flat(0.015)
    k = kernels(curve, SurvivalParams.flat(0.02), 5.0)
    p = bond_model_price(BondSpec(coupon=0.04, tenor=5.0, price=100, recovery=0.4), k)
    bonds = tmp_path / "bonds.csv"
    bonds.write_text("id,coupon,tenor_years,price\n"
                     f"only,0.04,5.0,{p:.6f}\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    out = tmp_path / "out"
    args = [verb, "--riskfree", str(riskfree), "--bonds", str(bonds),
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


def test_fit_grid_recovery_schedule_needs_a_rating(tmp_path, runner):
    # the loader resolves the schedule, so an unrated row is an input error
    # that names its file and line
    riskfree, bonds = write_universe(tmp_path)
    lines = bonds.read_text().splitlines()
    lines[3] = lines[3].removesuffix(",BBB") + ","
    bonds.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["fit-grid", "--riskfree", str(riskfree), "--bonds", str(bonds),
                                  "--recovery", "schedule", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"error: {bonds}:4: recovery schedule requested but the row has no rating" \
        in result.output
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("mode", ["single-name", "rating-grid"])
def test_history_single_snapshot_matches_fit(tmp_path, runner, mode):
    # history's parameter rows are the ones fit / fit-grid write, and the
    # rating-grid mode defaults to the same recovery schedule as fit-grid
    if mode == "single-name":
        root = make_history_dir(tmp_path, (0.012,))
        verb, recovery = "fit", ["--recovery", "fixed:0.4"]
    else:
        root = tmp_path / "snaps"
        (root / "2020-01-15").mkdir(parents=True)
        (root / "2020-01-15" / "riskfree.csv").write_text(RISKFREE)
        grid = RatingGrid(anchors_a=(0.002, 0.005, 0.02),
                          anchors_b=(0.008, 0.03, 0.09), c=0.12)
        lines = grid_universe_lines(grid, RecoverySchedule())
        (root / "2020-01-15" / "bonds.csv").write_text("\n".join(lines) + "\n")
        verb, recovery = "fit-grid", []
    out = tmp_path / "out"
    fast = ["--multistart", "2", "--seed", "9"]
    result = runner.invoke(main, ["history", "--snapshots", str(root), "--mode", mode,
                                  "--out", str(out)] + recovery + fast)
    assert result.exit_code == 0, result.output
    day = sorted(root.iterdir())[0]
    fit_out = tmp_path / "fit_out"
    result = runner.invoke(main, [
        verb, "--riskfree", str(day / "riskfree.csv"), "--bonds", str(day / "bonds.csv"),
        "--out", str(fit_out)] + recovery + fast)
    assert result.exit_code == 0, result.output
    params = dict(line.split(",") for line in
                  (fit_out / "fit_params.csv").read_text().splitlines()[1:])
    hist = {s: v for d, s, v in
            (line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:])}
    fitted = {key for key in params if key not in ("objective", "converged", "underdetermined")}
    assert fitted == {s[len("param."):] for s in hist if s.startswith("param.")}
    for key in fitted:
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


@pytest.mark.parametrize("bad", [["--multistart", "0"], ["--tenor-points", "0,5"],
                                 ["--tenor-points", "5,1e9"], ["--tenor-points", "5,abc"],
                                 ["--tenor-points", ""], ["--tenor-points", "5,5"],
                                 # both points label their series spread_7.12346y
                                 ["--tenor-points", "7.123456,7.1234567"],
                                 ["--recovery", "fixed:x"]],
                         ids=["multistart", "tenor-points", "tenor-points-long",
                              "tenor-points-text", "tenor-points-empty",
                              "tenor-points-repeated", "tenor-points-same-label", "recovery"])
def test_history_rejects_invalid_settings(tmp_path, runner, bad):
    root = make_history_dir(tmp_path, (0.01, 0.015))
    out = tmp_path / "out"
    result = runner.invoke(main, ["history", "--snapshots", str(root),
                                  "--out", str(out)] + bad)
    assert result.exit_code == 2
    assert "skipped" not in result.output and not out.exists()
    # the message names the flag and the value it got
    assert f"error: {bad[0]} must be " in result.output, result.output
    assert repr(bad[1]) in result.output or f"got {bad[1]}" in result.output


@pytest.mark.parametrize("bad", [
    ["analytics", "--horizon", "0"], ["analytics", "--horizon", "-1"],
    ["analytics", "--convergence-fraction", "1.5"], ["spread", "--yield-compounding", "0"],
], ids=["horizon-0", "horizon-negative", "convergence-fraction", "yield-compounding"])
def test_verbs_reject_invalid_settings(tmp_path, runner, colom_dir, bad):
    out = tmp_path / "out"
    result = runner.invoke(main, bad[:1] + [
        "--riskfree", str(colom_dir / "riskfree.csv"), "--bonds", str(colom_dir / "bonds.csv"),
        "--config", str(colom_dir / "config.txt"), "--out", str(out)] + bad[1:])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert bad[1] in result.output and not out.exists()


@pytest.mark.parametrize("config, flags, name", [
    ("seed = abc", [], "seed"), ("multistart = 2.5", [], "multistart"),
    ("compounding = x", [], "compounding"), ("as_of = 2016-13-01", [], "as_of"),
    ("", ["--recovery", "fixed:abc"], "--recovery"),
    ("", ["--compounding", "-1"], "--compounding"),
    ("", ["--recovery", "fixed:1.5"], "--recovery"),
    # values that FitConfig rejects, named with their source as well
    ("em_alpha = fixed:2", [], "em_alpha"),
    ("weight_mode = foo", [], "weight_mode"), ("", ["--multistart", "0"], "--multistart"),
    # keys that no setting reads: a misspelt one, and the quadrature step,
    # which is the kernels' own (1e-9 would ask for a 200 GiB grid)
    ("fixc = 0.1", [], "fixc"), ("grid_step = 1e-9", [], "grid_step"),
], ids=["seed", "multistart", "compounding", "as-of", "recovery-text", "compounding-flag",
        "recovery-range", "em-alpha", "weight-mode", "multistart-flag", "fixc", "grid-step"])
def test_bad_setting_is_named_with_its_source(tmp_path, runner, config, flags, name):
    riskfree, bonds = write_universe(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    result = runner.invoke(main, ["fit", "--riskfree", str(riskfree), "--bonds", str(bonds),
                                  "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    # the setting, and the config file when the value came from it; not a data file
    where = f"{cfg}: {name}" if config else name
    assert f"error: {where} must be " in result.output, result.output
    assert "bonds.csv" not in result.output and "riskfree.csv" not in result.output
    assert "Traceback" not in result.output


def test_config_key_given_twice_is_an_input_error(tmp_path, runner, colom_dir):
    # the last value used to win without a word: this fitted squared loss
    cfg = tmp_path / "run.cfg"
    cfg.write_text((colom_dir / "config.txt").read_text() + "loss = robust\nloss = squared\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["fit", "--riskfree", str(colom_dir / "riskfree.csv"),
                                  "--bonds", str(colom_dir / "bonds.csv"),
                                  "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lineno = len(cfg.read_text().splitlines())
    assert f"error: {cfg}:{lineno}: loss is set twice" in result.output, result.output
    assert "Traceback" not in result.output and not out.exists()


@pytest.mark.parametrize("verb", ["value", "fit", "analytics", "history"])
@pytest.mark.parametrize("unusable", ["file", "under-file"])
def test_unusable_out_is_an_input_error(tmp_path, runner, monkeypatch, verb, unusable):
    # --out is checked with the other settings, so no fit runs first
    fits = []
    for name in ("fit_single_name", "fit_rating_grid"):
        fit_fn = getattr(cc.fitting, name)
        monkeypatch.setattr(cc.fitting, name,
                            lambda *args, fit_fn=fit_fn: fits.append(1) or fit_fn(*args))
    riskfree, bonds = write_universe(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if unusable == "file" else blocker / "sub"
    if verb == "history":
        args = ["--snapshots", str(make_history_dir(tmp_path, (0.01, 0.02))), "--multistart", "1"]
    else:
        args = ["--riskfree", str(riskfree), "--bonds", str(bonds)]
        args += ["--a=0.01", "--b=0.05", "--c=0.1"] if verb == "value" else ["--multistart", "1"]
    result = runner.invoke(main, [verb, *args, "--recovery", "fixed:0.4", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: cannot write {out}: {blocker} is not a directory" in result.output
    assert "Traceback" not in result.output
    assert blocker.read_text() == "not a directory\n"
    assert fits == []


SOVEREIGN = "country,tenor_years,par_spread\nCO,1,0.01\nCO,10,0.02\nCO,30,0.025\n"


@pytest.mark.parametrize("em_alpha", ["fixed:0.5", "fit", "off"])
def test_fit_report_model_spread_is_the_residuals(tmp_path, runner, colom_dir, em_alpha):
    # residual = 100 * Pi * (sbar - model spread), the model spread widened by
    # alpha * sov in EM mode, so each flag follows the sign of sbar - model
    lines = (colom_dir / "bonds.csv").read_text().splitlines()
    bonds = tmp_path / "bonds.csv"
    bonds.write_text("\n".join([lines[0] + ",country"] + [f"{line},CO" for line in lines[1:]])
                     + "\n")
    sovereign = tmp_path / "sovereign.csv"
    sovereign.write_text(SOVEREIGN)
    files = [str(colom_dir / "riskfree.csv"), str(bonds), None, str(sovereign)]
    config = str(colom_dir / "config.txt")
    out = tmp_path / "out"
    result = runner.invoke(main, ["fit", "--riskfree", files[0], "--bonds", files[1],
                                  "--sovereign", files[3], "--config", config,
                                  "--em-alpha", em_alpha, "--out", str(out)])
    assert result.exit_code == 0, result.output
    fitted = dict(line.split(",") for line in (out / "fit_params.csv").read_text().splitlines())
    assert ("alpha" in fitted) == (em_alpha != "off")
    params = SurvivalParams(*(float(fitted[name]) for name in "abc"))
    curve = Settings(config, {}).load(*files).riskfree
    lines = (out / "fit_report.csv").read_text().splitlines()
    for row in (dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]):
        gap_bp = float(row["par_adjusted_spread_bp"]) - float(row["model_spread_bp"])
        pi = kernels(curve, params, float(row["tenor_years"])).pi
        assert abs(float(row["residual_pts"]) - 100.0 * pi * gap_bp / 1e4) <= 1e-6, row
        assert row["flag"] == ("cheap" if gap_bp > 0 else "rich"), row


def test_history_skips_date_with_mixed_recoveries(tmp_path, runner):
    root = make_history_dir(tmp_path, (0.01, 0.015))
    bonds = sorted(root.iterdir())[1] / "bonds.csv"
    lines = bonds.read_text().splitlines()
    lines = [lines[0] + ",recovery"] + [f"{line},{0.3 if i else 0.4}"
                                        for i, line in enumerate(lines[1:])]
    bonds.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["history", "--snapshots", str(root), "--out", str(out),
                                  "--multistart", "1"])
    assert result.exit_code == 0, result.output
    assert "recoveries 0.3, 0.4" in result.output
    rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    assert {d for d, s, v in rows} == {sorted(root.iterdir())[0].name}


@pytest.mark.parametrize("mode, recovery", [
    pytest.param("single-name", "fixed:0.0", id="single-name"),
    pytest.param("rating-grid", "fixed:0.0", id="rating-grid"),
    pytest.param("single-name", "schedule", id="schedule"),
])
def test_history_spreads_at_fitted_fixed_recovery(tmp_path, runner, colom_dir, mode,
                                                  recovery):
    # the spread series must be par CDS spreads of the fitted curve at the
    # recovery the fit used, not at a hard-coded or scheduled one; colom's
    # bonds are all BBB, so under the schedule they share one recovery
    day = tmp_path / "snaps" / "2016-04-08"
    day.mkdir(parents=True)
    for name in ("riskfree.csv", "bonds.csv"):
        shutil.copy(colom_dir / name, day / name)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "history", "--snapshots", str(tmp_path / "snaps"), "--mode", mode,
        "--recovery", recovery, "--out", str(out)])
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
    rec = RecoverySchedule().recovery_for_rating(9) if recovery == "schedule" else 0.0
    for label, params in curves.items():
        for t in (5, 10):
            want = cc.par_cds_spread(kernels(riskfree, params, t), rec) * 1e4
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


@pytest.mark.parametrize("flags", [["--weight-mode", "equal"],
                                   ["--weight-mode", "issue_size_duration"],
                                   ["--weight-mode", "issue_size_duration", "--loss", "squared"]],
                         ids=["equal", "issue-size-duration", "issue-size-duration-squared"])
def test_fit_weight_modes_on_sample_data(tmp_path, runner, colom_dir, flags):
    out = tmp_path / "out"
    config = colom_dir / "config.txt"
    result = runner.invoke(main, [
        "fit", "--riskfree", str(colom_dir / "riskfree.csv"),
        "--bonds", str(colom_dir / "bonds.csv"), "--config", str(config),
        "--out", str(out), *flags])
    assert result.exit_code == 0, result.output
    params = dict(line.split(",") for line in
                  (out / "fit_params.csv").read_text().splitlines()[1:])
    assert params["converged"] == "true"
    # the fit ran under the flagged settings
    st = Settings(str(config), {flag[2:].replace("-", "_"): val
                                for flag, val in zip(flags[::2], flags[1::2])})
    snap = st.load(colom_dir / "riskfree.csv", colom_dir / "bonds.csv")
    want = cc.fit_single_name(snap.instruments, snap.riskfree, None, st.fit)
    assert params["objective"] == _fmt(want.objective)


def test_spread_fits_each_instrument_through_exact_fit_to_instrument(tmp_path, runner, gen,
                                                                    monkeypatch):
    # the benchmark's tracer counts and times spread's exact fits by wrapping
    # this one name, so each instrument spread prices must go through it
    meta = gen.generate("desk_cold", 1, tmp_path / "in")["snapshots"][0]
    snap = tmp_path / "in" / meta["name"]
    fitted = []
    exact_fit = vl.exact_fit_to_instrument

    def counted(inst, *args, **kwargs):
        fitted.append(inst.identifier)
        return exact_fit(inst, *args, **kwargs)

    monkeypatch.setattr(vl, "exact_fit_to_instrument", counted)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "spread", "--riskfree", str(snap / "riskfree.csv"), "--bonds", str(snap / "bonds.csv"),
        "--cds", str(snap / "cds.csv"), "--as-of", meta["as_of"],
        "--recovery", meta["recovery"], "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (out / "spreads.csv").read_text().splitlines()[1:]]
    assert len(rows) == meta["n_bonds"] + meta["n_cds"]
    assert fitted == [row[0] for row in rows]


def test_value_rows_are_each_instruments_price_residual(tmp_path, runner, gen):
    # a desk snapshot: bonds, and CDS quoted by spread and by upfront
    meta = gen.generate("desk_cold", 1, tmp_path / "in")["snapshots"][0]
    snap = tmp_path / "in" / meta["name"]
    files = [str(snap / "riskfree.csv"), str(snap / "bonds.csv"), str(snap / "cds.csv")]
    params = SurvivalParams(0.012, 0.04, 0.15)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "value", "--riskfree", files[0], "--bonds", files[1], "--cds", files[2],
        "--as-of", meta["as_of"], "--recovery", meta["recovery"],
        "--a", "0.012", "--b", "0.04", "--c", "0.15", "--out", str(out)])
    assert result.exit_code == 0, result.output
    st = Settings(None, {"as_of": meta["as_of"], "recovery": meta["recovery"]})
    loaded = st.load(*files)
    assert any(isinstance(i, CdsSpec) for i in loaded.instruments)
    rows = [line.split(",") for line in (out / "value.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [i.identifier for i in loaded.instruments]
    for row, inst in zip(rows, loaded.instruments):
        assert row[-1] == _fmt(price_residual(inst, params, loaded.riskfree, None))


def test_spread_writes_every_row_past_an_instrument_it_cannot_reprice(tmp_path, runner, gen):
    # the benchmark's first issuer snapshot holds a bond priced above every
    # positive-hazard curve
    meta = gen.generate("issuer_daily", 1, tmp_path / "in")["snapshots"][0]
    snap = tmp_path / "in" / meta["name"]

    def spread(bonds: Path, out: Path):
        result = runner.invoke(main, [
            "spread", "--riskfree", str(snap / "riskfree.csv"), "--bonds", str(bonds),
            "--as-of", meta["as_of"], "--recovery", meta["recovery"], "--out", str(out)])
        lines = (out / "spreads.csv").read_text().splitlines()
        header = lines[0].split(",")
        return result, {line.split(",")[0]: dict(zip(header, line.split(",")))
                        for line in lines[1:]}

    result, rows = spread(snap / "bonds.csv", tmp_path / "all")
    assert result.exit_code == 3, result.output
    assert len(rows) == meta["n_bonds"]
    failed = [i for i, row in rows.items() if row["par_adjusted_spread_bp"] == ""]
    assert failed, "the snapshot should hold an instrument that cannot be repriced"
    errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
    assert errors == [f"error: {i}: no positive-hazard curve reprices the instrument "
                      "(price outside the attainable range)" for i in failed]
    for i, row in rows.items():
        # a bond keeps its price, yield and Z-spread whether or not it reprices
        assert all(math.isfinite(float(row[k])) for k in ("price_pts", "yield_bp",
                                                          "z_spread_bp"))
        assert (row["implied_flat_hazard"] == "") == (i in failed)

    # the other rows are those of a run without the failing bonds
    kept = [line for line in (snap / "bonds.csv").read_text().splitlines()
            if line.split(",")[0] not in failed]
    (tmp_path / "kept.csv").write_text("\n".join(kept) + "\n")
    result, kept_rows = spread(tmp_path / "kept.csv", tmp_path / "kept")
    assert result.exit_code == 0, result.output
    assert kept_rows == {i: row for i, row in rows.items() if i not in failed}


COLD_VERBS_SCRIPT = """
import json, sys
import creditcurve.cli as cli

data, out = sys.argv[1], sys.argv[2]
files = ["--riskfree", data + "/riskfree.csv", "--bonds", data + "/bonds.csv",
         "--config", data + "/config.txt", "--out", out]
cli.main(["value", "--a", "0.01", "--b", "0.03", "--c", "0.1"] + files, standalone_mode=False)
cli.main(["spread"] + files, standalone_mode=False)
cold = "scipy" in sys.modules
cli.main(["fit", "--multistart", "1"] + files, standalone_mode=False)
print(json.dumps({"cold": cold, "fit": "scipy" in sys.modules}))
"""


def test_cold_verbs_run_without_scipy(tmp_path, colom_dir):
    # a fresh interpreter: no verb imports scipy, a fit included
    env = dict(os.environ, PYTHONPATH=str(Path(cc.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", COLD_VERBS_SCRIPT, str(colom_dir),
                           str(tmp_path / "out")], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"cold": False, "fit": False}
    assert (tmp_path / "out" / "value.csv").exists()
    assert (tmp_path / "out" / "spreads.csv").exists()


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


# -- malformed input ------------------------------------------------------

ROWS = {
    "bonds.csv": {"id": "b1", "coupon": "0.04", "tenor_years": "5", "price": "100",
                  "issue_size": "1000", "rating": "BBB", "recovery": "0.4"},
    "cds.csv": {"id": "c1", "coupon": "0.01", "tenor_years": "5", "quote_type": "spread",
                "quote": "0.02", "quoting_recovery": "0.4", "issue_size": "1000",
                "rating": "BBB", "recovery": "0.4"},
}
_not_a_number = st.one_of(
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=6)
    .filter(lambda word: word.upper() not in RATING_SYMBOLS
            and word not in ("spread", "upfront")),
    st.sampled_from(["nan", "inf", "-inf", "1e999"]))
_not_positive = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False).map(repr)
_negative = st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False).map(repr)
_not_a_recovery = (st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1.0))
                   .filter(math.isfinite).map(repr))
_beyond_max_tenor = st.floats(min_value=MAX_TENOR, exclude_min=True,
                              allow_infinity=False).map(repr)
_SHARED = {
    "tenor_years": st.one_of(_not_positive, _beyond_max_tenor),
    "issue_size": _not_positive,
    "rating": st.integers().filter(lambda n: not 1 <= n <= 18).map(str),
    "recovery": _not_a_recovery,
}
# out-of-range values per file; a text or non-finite value is bad in every column
# (a nonnegative CDS coupon off the 1%/5% standard only warns)
BAD_VALUES = {
    "bonds.csv": dict(_SHARED, coupon=_negative, price=_not_positive),
    "cds.csv": dict(_SHARED, coupon=_negative, quote_type=st.nothing(), quote=_negative,
                    quoting_recovery=_not_a_recovery),
}


@st.composite
def malformed_row(draw):
    name = draw(st.sampled_from(sorted(ROWS)))
    column = draw(st.sampled_from(sorted(BAD_VALUES[name])))
    return name, column, draw(st.one_of(_not_a_number, BAD_VALUES[name][column]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=malformed_row())
def test_malformed_row_exits_2_with_file_and_line(tmp_path, bad):
    name, column, val = bad
    row = dict(ROWS[name], **{column: val})
    quotes = tmp_path / name
    quotes.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    files = ["--riskfree", str(riskfree), f"--{name[:-4]}", str(quotes),
             "--out", str(tmp_path / "o")]
    for verb in (["value", "--a", "0.01", "--b", "0.02", "--c", "0.1"],
                 ["spread"], ["fit"], ["fit-grid"], ["analytics"]):
        result = CliRunner().invoke(main, verb + files)
        assert result.exit_code == 2, (verb, bad, result.output)
        assert isinstance(result.exception, SystemExit)
        assert result.output.count(f"{name}:2") == 1, (verb, bad, result.output)
        assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    riskfree, bonds = write_universe(root)
    return riskfree, bonds, make_history_dir(root, (0.01,))


# flags that take a number, by verb; value needs its whole curve
NUMERIC_FLAGS = [("value", "--a"), ("value", "--b"), ("value", "--c"),
                 ("fit", "--fix-c"), ("fit-grid", "--fix-c"), ("analytics", "--horizon"),
                 ("analytics", "--convergence-fraction"), ("history", "--tenor-points"),
                 ("history", "--fix-c")]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(NUMERIC_FLAGS), val=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_flag_exits_2_without_traceback(tmp_path, flag_inputs, flag, val):
    verb, name = flag
    riskfree, bonds, snapshots = flag_inputs
    if verb == "history":
        args = ["--snapshots", str(snapshots)]
    else:
        args = ["--riskfree", str(riskfree), "--bonds", str(bonds)]
    if verb == "value":
        args += ["--a=0.01", "--b=0.05", "--c=0.1"]
    args.append(f"{name}=5,{val}" if name == "--tenor-points" else f"{name}={val}")
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
    result = CliRunner().invoke(main, [verb, *args, "--out", str(out)])
    assert result.exit_code == 2, (flag, val, result.output)
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output and "Traceback" not in result.output
    assert not out.exists()


def _cds_value(tmp_path, row):
    cds = tmp_path / "cds.csv"
    cds.write_text("id,coupon,tenor_years,quote_type,quote\n" + row + "\n")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(RISKFREE)
    return CliRunner().invoke(main, [
        "value", "--riskfree", str(riskfree), "--cds", str(cds),
        "--a", "0.01", "--b", "0.02", "--c", "0.1", "--out", str(tmp_path / "o")])


def test_negative_cds_coupon_exits_2_with_file_and_line(tmp_path):
    result = _cds_value(tmp_path, "c1,-0.05,5,upfront,0.02")
    assert result.exit_code == 2, result.output
    assert f"{tmp_path / 'cds.csv'}:2: coupon must be >= 0" in result.output
    assert not (tmp_path / "o" / "value.csv").exists()


def test_nonstandard_cds_coupon_warning_names_file_and_line(tmp_path):
    with pytest.warns(UserWarning, match="not a standard 1%/5% running coupon") as caught:
        result = _cds_value(tmp_path, "c1,0.02,5,upfront,0.02")
    assert result.exit_code == 0, result.output
    assert [(w.filename, w.lineno) for w in caught] == [(str(tmp_path / "cds.csv"), 2)]


def test_fit_params_rows_stay_numeric(tmp_path, runner, colom_dir):
    # solver diagnostics such as at_bound and jacobian_evals stay out of the file
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "fit", "--riskfree", str(colom_dir / "riskfree.csv"),
        "--bonds", str(colom_dir / "bonds.csv"), "--config", str(colom_dir / "config.txt"),
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = dict(line.split(",") for line in (out / "fit_params.csv").read_text().splitlines()[1:])
    assert {"at_bound", "jacobian_evals"}.isdisjoint(rows)
    for key, val in rows.items():
        if key not in ("converged", "underdetermined"):
            assert math.isfinite(float(val)), key
