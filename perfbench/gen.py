"""Seeded input generator for the three benchmark workloads.

``generate(workload, seed, root)`` writes every snapshot file a run
uses under ``root`` plus ``manifest.json``.  The manifest lists the
snapshots with their generating parameters (true hazard curve or rating
grid, recovery, price noise, outliers) and the replay order of one
pass.  The same seed gives byte-identical files.

The two fitting workloads replay a fixed synthetic market history,
generated from ``HISTORY_SEED``; ``seed`` only sets the replay order.
The Nelder-Mead fits spend about 2k, 10k or 17k objective evaluations
depending on which of its polish stages stops early, and any change to
a single quote moves a fit between those modes, so histories drawn per
seed give run-to-run spreads no run length within the time budget of a run can average
out.  The desk workload has no fits; its snapshots are drawn from
``seed`` itself.

Quantities whose draw-to-draw variation would only add noise to the
timings (instrument counts, price noise) are stratified: each pool
covers the stated range evenly and the generator decides the order and
the fine placement.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

from creditcurve.ratecurve import RiskfreeCurve
from creditcurve.survival import RATING_SYMBOLS, RatingGrid, RecoverySchedule, SurvivalParams
from creditcurve.valuation import (
    BondSpec,
    CdsSpec,
    bond_model_price,
    cds_traded_spread_to_upfront,
    kernels,
    par_cds_spread,
)

WORKLOADS = ("issuer_daily", "sector_grid", "desk_cold")

# snapshots per pool; one replay pass visits each once (desk: once per verb)
POOL_SIZE = {"issuer_daily": 4, "sector_grid": 1, "desk_cold": 3}
HISTORY_SEED = 0
DESK_VERBS = ("spread", "value")

PILLARS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)
DAYS_PER_YEAR = 365.25
START_DATE = dt.date(2021, 1, 4)
ISSUER_RECOVERIES = ("fixed:0", "fixed:0.25", "fixed:0.5")
CDS_NOISE_REL = 0.05           # sd of the log market CDS spread
SCHEDULE = RecoverySchedule()
_NORMAL = NormalDist()


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in (0, 1), one per equal stratum, in random order."""
    return (rng.permutation(n) + rng.uniform(0.05, 0.95, n)) / n


def _stratified_normal(rng: np.random.Generator, n: int, sd: float) -> np.ndarray:
    return np.array([sd * _NORMAL.inv_cdf(float(u)) for u in _stratified(rng, n)])


def _counts(rng: np.random.Generator, pool: int, lo: int, hi: int) -> list[int]:
    """Pool-sized list of integers spread evenly over [lo, hi]."""
    return [lo + int(u * (hi - lo + 1)) for u in _stratified(rng, pool)]


def _curve(rng: np.random.Generator, level: float, slope: float) -> tuple:
    hump = rng.uniform(-0.002, 0.002)
    return tuple(
        (t, round(level + slope * (1.0 - math.exp(-t / 4.0))
                  + hump * (t / 3.0) * math.exp(1.0 - t / 3.0), 8))
        for t in PILLARS)


def _maturity(as_of: dt.date, tenor: float) -> tuple[dt.date, float]:
    days = max(1, int(round(tenor * DAYS_PER_YEAR)))
    return as_of + dt.timedelta(days=days), days / DAYS_PER_YEAR


def _coupon(rng: np.random.Generator, curve: RiskfreeCurve, params: SurvivalParams,
            tenor: float, recovery: float) -> float:
    # near-par coupon shifted by up to 3% either way: premium and discount bonds
    k = kernels(curve, params, tenor)
    par = k.rhat + par_cds_spread(k, recovery)
    return max(0.005, round((par + rng.uniform(-0.03, 0.03)) * 800.0) / 800.0)


def _price(coupon: float, tenor: float, recovery: float, curve: RiskfreeCurve,
           params: SurvivalParams) -> float:
    k = kernels(curve, params, tenor)
    return bond_model_price(BondSpec(coupon=coupon, tenor=tenor, price=100.0,
                                     recovery=recovery), k)


def _bond_tenors(rng: np.random.Generator, n: int, t_min: float, t_max: float) -> np.ndarray:
    # log-stratified so the short end is as well covered as the long end
    return t_min * (t_max / t_min) ** _stratified(rng, n)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)] + [",".join(str(x) for x in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_curve(path: Path, pillars: tuple) -> None:
    _write_csv(path, ["tenor_years", "zero_rate"], [[f"{t:g}", f"{z:.8f}"] for t, z in pillars])


def _cds_quotes(rng: np.random.Generator, curve: RiskfreeCurve, params: SurvivalParams,
                recovery: float, as_of: dt.date, n: int, prefix: str,
                extra: list | None = None) -> list[list]:
    """CDS quotes off the true curve with multiplicative spread noise, so
    every quote stays attainable; alternately quoted as upfront and as
    traded spread."""
    rows = []
    tenors = rng.choice([1.0, 3.0, 5.0, 7.0, 10.0], size=n, replace=n > 5)
    noise = _stratified_normal(rng, n, CDS_NOISE_REL)
    for j, t in enumerate(tenors):
        maturity, tenor = _maturity(as_of, float(t))
        k = kernels(curve, params, tenor)
        s_par = par_cds_spread(k, recovery)
        coupon = 0.01 if s_par < 0.03 else 0.05
        upfront = (s_par * math.exp(float(noise[j])) - coupon) * k.pi
        if j % 2 == 0:
            rows.append([f"{prefix}{j:02d}", coupon, maturity.isoformat(), "upfront",
                         f"{upfront:.10f}", "0.4", 1000] + (extra or []))
            continue
        # traded spread whose SNAC conversion gives the noisy upfront
        lo, hi = 0.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            spec = CdsSpec(coupon=coupon, tenor=tenor, quote_type="spread", quote=mid)
            if cds_traded_spread_to_upfront(spec, curve) < upfront:
                lo = mid
            else:
                hi = mid
        rows.append([f"{prefix}{j:02d}", coupon, maturity.isoformat(), "spread",
                     f"{0.5 * (lo + hi):.10f}", "0.4", 1000] + (extra or []))
    return rows


# -- issuer_daily --------------------------------------------------------


def _issuer_snapshot(rng, d: int, curve_pillars: tuple, n_bonds: int, with_cds: bool,
                     out: Path) -> dict:
    as_of = START_DATE + dt.timedelta(days=7 * d)
    curve = RiskfreeCurve(pillars=curve_pillars)
    rec_arg = ISSUER_RECOVERIES[d % len(ISSUER_RECOVERIES)]
    recovery = float(rec_arg.split(":")[1])
    params = SurvivalParams(a=float(rng.uniform(0.002, 0.015)),
                            b=float(rng.uniform(0.015, 0.045)),
                            c=float(rng.uniform(0.06, 0.18)))
    noise_pts = 0.3
    noise = _stratified_normal(rng, n_bonds, noise_pts)
    n_out = max(1, int(round(0.1 * n_bonds)))
    outliers = rng.choice(n_bonds, size=n_out, replace=False)
    out_pts = (rng.uniform(2.0, 5.0, n_out) * rng.choice([-1.0, 1.0], n_out))
    noise[outliers] += out_pts
    rows = []
    for j, target in enumerate(_bond_tenors(rng, n_bonds, 0.5, 30.0)):
        maturity, tenor = _maturity(as_of, float(target))
        coupon = _coupon(rng, curve, params, tenor, recovery)
        price = _price(coupon, tenor, recovery, curve, params) + noise[j]
        size = int(rng.integers(3, 21)) * 100
        rows.append([f"ISS{j:02d}", f"{coupon:.5f}", maturity.isoformat(),
                     f"{price:.6f}", size])
    out.mkdir(parents=True, exist_ok=True)
    _write_curve(out / "riskfree.csv", curve_pillars)
    _write_csv(out / "bonds.csv", ["id", "coupon", "maturity", "price", "issue_size"], rows)
    n_cds = 0
    if with_cds:
        n_cds = int(rng.integers(2, 5))
        cds_rows = _cds_quotes(rng, curve, params, recovery, as_of, n_cds, "CDS")
        _write_csv(out / "cds.csv", ["id", "coupon", "maturity", "quote_type", "quote",
                                     "quoting_recovery", "issue_size"], cds_rows)
    return dict(
        name=out.name, as_of=as_of.isoformat(), recovery=rec_arg,
        n_bonds=n_bonds, n_cds=n_cds, outliers=sorted(int(i) for i in outliers),
        noise_pts=noise_pts, cds_noise_rel=CDS_NOISE_REL if n_cds else None,
        truth=dict(a=params.a, b=params.b, c=params.c))


def _issuer_pool(rng, root: Path) -> list[dict]:
    pool = POOL_SIZE["issuer_daily"]
    counts = _counts(rng, pool, 12, 30)
    cds_days = set(rng.choice(pool, size=pool // 2, replace=False).tolist())
    level, slope = 0.02, 0.01
    snaps = []
    for d in range(pool):
        level = min(0.045, max(0.003, level + rng.normal(0.0, 0.002)))
        slope = min(0.02, max(-0.005, slope + rng.normal(0.0, 0.002)))
        pillars = _curve(rng, level, slope)
        snaps.append(_issuer_snapshot(rng, d, pillars, counts[d], d in cds_days,
                                      root / f"issuer_{d:02d}"))
    return snaps


# -- sector_grid ---------------------------------------------------------


def _max_tenor(rating: int) -> float:
    # AA bonds run to 30y, B and below to 10y, linear in between
    return min(30.0, max(10.0, 30.0 - 20.0 * (rating - 3) / 12.0))


def _sector_snapshot(rng, d: int, n_notches: int, out: Path) -> dict:
    as_of = START_DATE + dt.timedelta(days=7 * d)
    pillars = _curve(rng, float(rng.uniform(0.005, 0.04)), float(rng.uniform(-0.002, 0.015)))
    curve = RiskfreeCurve(pillars=pillars)
    a_aa, b_aa = float(rng.uniform(0.0005, 0.002)), float(rng.uniform(0.004, 0.008))
    grid = RatingGrid(
        anchors_a=(a_aa, a_aa * float(rng.uniform(2.0, 4.0)),
                   a_aa * float(rng.uniform(8.0, 20.0))),
        anchors_b=(b_aa, b_aa * float(rng.uniform(1.8, 3.0)),
                   b_aa * float(rng.uniform(4.0, 8.0))),
        c=float(rng.uniform(0.06, 0.18)))
    # one notch at each end of the AA..B- range, the rest in between
    inner = rng.choice(np.arange(4, 16), size=n_notches - 2, replace=False)
    ratings = sorted([3, 16] + [int(r) for r in inner])
    noise_pts = 0.2
    per_notch = [int(rng.integers(4, 7)) for _ in ratings]
    noise = _stratified_normal(rng, sum(per_notch), noise_pts)
    rows, i = [], 0
    for rating, n in zip(ratings, per_notch):
        params = grid.params_for_rating(rating)
        recovery = SCHEDULE.recovery_for_rating(rating)
        for target in _bond_tenors(rng, n, 1.0, _max_tenor(rating)):
            maturity, tenor = _maturity(as_of, float(target))
            coupon = _coupon(rng, curve, params, tenor, recovery)
            price = _price(coupon, tenor, recovery, curve, params) + noise[i]
            size = int(rng.integers(3, 21)) * 100
            rows.append([f"{RATING_SYMBOLS[rating - 1]}_{i:02d}", f"{coupon:.5f}",
                         maturity.isoformat(), f"{price:.6f}", size,
                         RATING_SYMBOLS[rating - 1]])
            i += 1
    out.mkdir(parents=True, exist_ok=True)
    _write_curve(out / "riskfree.csv", pillars)
    _write_csv(out / "bonds.csv",
               ["id", "coupon", "maturity", "price", "issue_size", "rating"], rows)
    return dict(
        name=out.name, as_of=as_of.isoformat(), recovery="schedule",
        ratings=ratings, n_bonds=len(rows), n_cds=0, noise_pts=noise_pts,
        truth=dict(anchors_a=list(grid.anchors_a), anchors_b=list(grid.anchors_b),
                   c=grid.c))


def _sector_pool(rng, root: Path) -> list[dict]:
    pool = POOL_SIZE["sector_grid"]
    notches = _counts(rng, pool, 4, 5)
    return [_sector_snapshot(rng, d, notches[d], root / f"sector_{d:02d}")
            for d in range(pool)]


# -- desk_cold -----------------------------------------------------------


def _desk_snapshot(rng, d: int, n_bonds: int, n_cds: int, out: Path) -> dict:
    as_of = START_DATE + dt.timedelta(days=7 * d)
    pillars = _curve(rng, float(rng.uniform(0.005, 0.04)), float(rng.uniform(-0.002, 0.015)))
    curve = RiskfreeCurve(pillars=pillars)
    params = SurvivalParams(a=float(rng.uniform(0.002, 0.015)),
                            b=float(rng.uniform(0.015, 0.04)),
                            c=float(rng.uniform(0.06, 0.18)))
    schedule = d % 2 == 1
    noise_pts = 0.3
    noise = _stratified_normal(rng, n_bonds, noise_pts)
    rows = []
    for j, target in enumerate(_bond_tenors(rng, n_bonds, 0.5, 30.0)):
        maturity, tenor = _maturity(as_of, float(target))
        rating = int(rng.integers(3, 14))
        recovery = SCHEDULE.recovery_for_rating(rating) if schedule else 0.4
        # several issuers: each bond's curve is the desk curve scaled
        issuer = params.scaled(float(rng.uniform(0.5, 2.0)))
        coupon = _coupon(rng, curve, issuer, tenor, recovery)
        # short bonds carry less price noise and stay below their riskless
        # value, so every quote has an exact flat-hazard fit
        riskless = _price(coupon, tenor, recovery, curve, SurvivalParams(0.0, 0.0, 0.1))
        price = min(_price(coupon, tenor, recovery, curve, issuer)
                    + noise[j] * min(1.0, tenor / 5.0), riskless - 0.05)
        size = int(rng.integers(3, 21)) * 100
        rows.append([f"DSK{j:02d}", f"{coupon:.5f}", maturity.isoformat(), f"{price:.6f}",
                     size, RATING_SYMBOLS[rating - 1]])
    out.mkdir(parents=True, exist_ok=True)
    _write_curve(out / "riskfree.csv", pillars)
    _write_csv(out / "bonds.csv",
               ["id", "coupon", "maturity", "price", "issue_size", "rating"], rows)
    cds_rating = 9
    cds_recovery = SCHEDULE.recovery_for_rating(cds_rating) if schedule else 0.4
    cds_rows = _cds_quotes(rng, curve, params, cds_recovery, as_of, n_cds, "DCD",
                           extra=[RATING_SYMBOLS[cds_rating - 1]])
    _write_csv(out / "cds.csv", ["id", "coupon", "maturity", "quote_type", "quote",
                                 "quoting_recovery", "issue_size", "rating"], cds_rows)
    return dict(
        name=out.name, as_of=as_of.isoformat(),
        recovery="schedule" if schedule else "fixed:0.4",
        n_bonds=n_bonds, n_cds=n_cds, noise_pts=noise_pts, cds_noise_rel=CDS_NOISE_REL,
        truth=dict(a=params.a, b=params.b, c=params.c))


def _desk_pool(rng, root: Path) -> list[dict]:
    pool = POOL_SIZE["desk_cold"]
    counts = _counts(rng, pool, 20, 40)
    return [_desk_snapshot(rng, d, counts[d], int(rng.integers(8, 13)), root / f"desk_{d:02d}")
            for d in range(pool)]


_POOLS = {"issuer_daily": _issuer_pool, "sector_grid": _sector_pool, "desk_cold": _desk_pool}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's snapshot pool under ``root``; return the manifest."""
    if workload not in _POOLS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    index = WORKLOADS.index(workload)
    key = seed % 2**63            # seed sequences take non-negative integers only
    pool_seed = key if workload == "desk_cold" else HISTORY_SEED
    # one stream per workload so the workloads never share draws
    snapshots = _POOLS[workload](np.random.default_rng([pool_seed, index]), root)
    verbs = DESK_VERBS if workload == "desk_cold" else (None,)
    ops = [[snap["name"], verb] for snap in snapshots for verb in verbs]
    order = np.random.default_rng([key, index, 1]).permutation(len(ops))
    manifest = dict(workload=workload, seed=seed, pool_seed=pool_seed,
                    snapshots=snapshots, replay=[ops[i] for i in order])
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
