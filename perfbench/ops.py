"""One operation per workload, its reference values and its output checks.

- ``issuer_daily``: the in-process ``fit`` verb, then the ``analytics``
  verb, on one dated single-issuer snapshot.
- ``sector_grid``: the in-process ``fit-grid`` verb with schedule
  recovery on one sector snapshot.
- ``desk_cold``: one fresh-interpreter ``python -m creditcurve.cli``
  call of ``spread`` or ``value`` on a desk snapshot.

The reference values come from creditcurve's public functions applied
to the generated files, computed once at set-up.  An operation fails
when a verb exits nonzero, an output has the wrong number of rows or a
non-finite number, a fitted objective exceeds the objective at the
generating parameters, fitted rating anchors decrease, an analytics row
does not add up, or a par-adjusted spread is off the flat curve that
reprices its instrument.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import creditcurve.cli as cli
from creditcurve.fitting import price_residual, robust_loss
from creditcurve.survival import RatingGrid, SurvivalParams
from creditcurve.universe import load_universe
from creditcurve.valuation import BondSpec, kernels, par_cds_spread

from . import instrument

ROOT = Path(__file__).resolve().parent.parent
HORIZON = 0.25                 # analytics default horizon, years
OBJECTIVE_RTOL = 1e-9          # fit and reference objectives use different kernel read-outs
SUM_TOL_BP = 2.5e-6            # four values, each rounded to 1e-6 bp
ON_CURVE_TOL_BP = 1e-4         # hazard printed to 10 digits, exact fit to 1e-8 points
CHILD_TIMEOUT_S = 60.0


@dataclass
class OpResult:
    latency_s: float
    cpu_s: float
    failures: list[str] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)
    rss_kb: int = 0
    import_ms: float | None = None


@dataclass
class Snapshot:
    """A generated snapshot with the reference values its checks use."""

    name: str
    meta: dict
    args: list[str]
    instruments: tuple
    curve: object
    ref_objective: float | None = None
    by_id: dict = field(default_factory=dict)   # id -> (tenor, recovery)


def _snapshot_args(d: Path, meta: dict) -> list[str]:
    args = ["--riskfree", str(d / "riskfree.csv"), "--bonds", str(d / "bonds.csv")]
    if (d / "cds.csv").exists():
        args += ["--cds", str(d / "cds.csv")]
    return args + ["--as-of", meta["as_of"], "--recovery", meta["recovery"]]


def _load(d: Path, meta: dict):
    rec = meta["recovery"]
    mode = "schedule" if rec == "schedule" else "fixed"
    fixed = float(rec.split(":")[1]) if mode == "fixed" else 0.4
    return load_universe(
        riskfree_path=d / "riskfree.csv", bonds_path=d / "bonds.csv",
        cds_path=d / "cds.csv" if (d / "cds.csv").exists() else None,
        as_of=dt.date.fromisoformat(meta["as_of"]),
        recovery_mode=mode, recovery_fixed=fixed)


def _recovery(inst) -> float:
    if isinstance(inst, BondSpec):
        return inst.recovery
    return inst.model_recovery


def reference_objective(instruments, curve, truth: dict) -> float:
    """Robust objective at the generating parameters, issue-size weights
    normalised to mean 1, from the public residual and loss."""
    if "anchors_a" in truth:
        grid = RatingGrid(anchors_a=tuple(truth["anchors_a"]),
                          anchors_b=tuple(truth["anchors_b"]), c=truth["c"])
        params = [grid.params_for_rating(i.effective_rating) for i in instruments]
    else:
        params = [SurvivalParams(truth["a"], truth["b"], truth["c"])] * len(instruments)
    sizes = [i.issue_size for i in instruments]
    mean = sum(sizes) / len(sizes)
    return sum(s / mean * robust_loss(price_residual(i, p, curve, _recovery(i)))
               for i, s, p in zip(instruments, sizes, params))


def load_snapshots(manifest: dict, inputs: Path) -> dict[str, Snapshot]:
    snaps = {}
    for meta in manifest["snapshots"]:
        d = inputs / meta["name"]
        universe = _load(d, meta)
        snap = Snapshot(name=meta["name"], meta=meta, args=_snapshot_args(d, meta),
                        instruments=universe.instruments, curve=universe.riskfree,
                        by_id={i.identifier: (i.tenor, _recovery(i))
                               for i in universe.instruments})
        if manifest["workload"] != "desk_cold":
            snap.ref_objective = reference_objective(universe.instruments, universe.riskfree,
                                                     meta["truth"])
        snaps[snap.name] = snap
    return snaps


# -- reading outputs ------------------------------------------------------


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(rows: list[dict[str, str]], skip: tuple[str, ...] = ()) -> bool:
    for row in rows:
        for key, val in row.items():
            if key in skip or key == "id" or val == "":
                continue
            if not math.isfinite(float(val)):
                return False
    return True


def _check_table(path: Path, expect_rows: int, failures: list[str],
                 skip: tuple[str, ...] = ()) -> list[dict[str, str]]:
    if not path.exists():
        failures.append(f"{path.name}: missing")
        return []
    rows = _rows(path)
    if len(rows) != expect_rows:
        failures.append(f"{path.name}: {len(rows)} rows for {expect_rows} instruments")
    try:
        if not _finite(rows, skip):
            failures.append(f"{path.name}: non-finite number")
    except ValueError as exc:
        failures.append(f"{path.name}: unparsable number ({exc})")
    return rows


def _check_fit_params(path: Path, failures: list[str]) -> dict[str, float]:
    if not path.exists():
        failures.append(f"{path.name}: missing")
        return {}
    values = {}
    for row in _rows(path):
        if row["parameter"] in ("converged", "underdetermined"):
            continue
        values[row["parameter"]] = float(row["value"])
        if not math.isfinite(values[row["parameter"]]):
            failures.append(f"{path.name}: non-finite {row['parameter']}")
    return values


def _check_objectives(fits: list[dict], snap: Snapshot, failures: list[str]) -> None:
    for rec in fits:
        if rec["objective"] > snap.ref_objective * (1.0 + OBJECTIVE_RTOL):
            failures.append(f"objective {rec['objective']!r} above the objective "
                            f"{snap.ref_objective!r} at the generating parameters")


# -- running verbs ------------------------------------------------------


def _clear(paths) -> None:
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            p.unlink()


def run_verb(args: list[str], store: instrument.SpanStore | None) -> tuple[object, str]:
    """One in-process CLI call; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    sid = store.open(store.name_id(instrument.ROOT_SPAN)) if store is not None else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        code = f"{type(exc).__name__}: {exc}"
    finally:
        if sid is not None:
            store.close(sid)
    return code, err.getvalue().strip()


def _code_failure(verb: str, code, err: str) -> list[str]:
    return [] if code == 0 else [f"{verb} exited {code}: {err[-200:]}"]


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float, int]:
    """Run a child to completion; returns (exit code, wall seconds, CPU
    seconds, peak RSS KiB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        # wait4 reports the child's own peak RSS; a pidfd gives it a timeout
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


# -- the three operations -----------------------------------------------


class Workload:
    """Snapshots plus the per-op run-and-check logic of one workload."""

    def __init__(self, manifest: dict, work: Path):
        self.manifest = manifest
        self.name = manifest["workload"]
        self.out = work / "out"
        self.snaps = load_snapshots(manifest, work / "inputs")

    def replay(self) -> list[tuple[str, str | None]]:
        return [tuple(op) for op in self.manifest["replay"]]

    def warm_up(self) -> None:
        """One cheap ``value`` call so lazy imports and file caches settle."""
        snap = next(iter(self.snaps.values()))
        truth = snap.meta["truth"]
        params = ["--a", str(truth.get("a", 0.01)), "--b", str(truth.get("b", 0.02)),
                  "--c", str(truth["c"])]
        out = ["--out", str(self.out / "warm_up")]
        if self.name == "desk_cold":
            run_child([sys.executable, "-m", "creditcurve.cli", "value"] + snap.args
                      + params + out, self.out / "warm_up.log")
        else:
            run_verb(["value"] + snap.args + params + out, None)

    def run(self, op: tuple[str, str | None], inst: instrument.Instrumentation,
            store: instrument.SpanStore | None) -> OpResult:
        snap = self.snaps[op[0]]
        out = self.out / snap.name
        if self.name == "issuer_daily":
            return self._issuer(snap, out, inst, store)
        if self.name == "sector_grid":
            return self._sector(snap, out, inst, store)
        return self._desk(snap, op[1], out, store)

    def _fit_op(self, snap, out, inst, store, verbs) -> tuple[OpResult, dict[str, float]]:
        """Run fitting verbs back to back and check what they share."""
        _clear([out / "fit_params.csv", out / "fit_report.csv", out / "analytics.csv"])
        n_fits = len(inst.fits)
        t0, c0 = time.perf_counter(), time.process_time()
        codes = [(verb, *run_verb([verb] + snap.args + ["--out", str(out)], store))
                 for verb in verbs]
        res = OpResult(time.perf_counter() - t0, time.process_time() - c0,
                       fits=inst.fits[n_fits:])
        for verb, code, err in codes:
            res.failures += _code_failure(verb, code, err)
        params = _check_fit_params(out / "fit_params.csv", res.failures)
        _check_table(out / "fit_report.csv", len(snap.instruments), res.failures,
                     skip=("flag",))
        _check_objectives(res.fits, snap, res.failures)
        return res, params

    def _issuer(self, snap, out, inst, store) -> OpResult:
        res, _ = self._fit_op(snap, out, inst, store, ("fit", "analytics"))
        n_an = sum(1 for i in snap.instruments if i.tenor > HORIZON)
        for row in _check_table(out / "analytics.csv", n_an, res.failures):
            parts = sum(float(row[k]) for k in ("carry_bp", "rolldown_bp", "rv_bp"))
            if abs(parts - float(row["total_bp"])) > SUM_TOL_BP:
                res.failures.append(f"analytics.csv {row['id']}: carry+rolldown+rv "
                                    f"{parts!r} != total {row['total_bp']}")
        return res

    def _sector(self, snap, out, inst, store) -> OpResult:
        res, params = self._fit_op(snap, out, inst, store, ("fit-grid",))
        for h in ("a", "b"):
            anchors = [params.get(f"{h}_{r}", math.nan) for r in cli.ANCHOR_NAMES]
            if not anchors[0] <= anchors[1] <= anchors[2]:
                res.failures.append(f"fit_params.csv: {h} anchors {anchors} "
                                    "not non-decreasing")
        return res

    def _desk(self, snap, verb, out, store) -> OpResult:
        table = out / ("spreads.csv" if verb == "spread" else "value.csv")
        _clear([table])
        args = [verb] + snap.args + ["--out", str(out)]
        if verb == "value":
            t = snap.meta["truth"]
            args += ["--a", repr(t["a"]), "--b", repr(t["b"]), "--c", repr(t["c"])]
        if store is None:
            cmd = [sys.executable, "-m", "creditcurve.cli"] + args
        else:
            spans = out / f"{verb}_spans.npz"
            cmd = [sys.executable, str(ROOT / "perfbench" / "launcher.py"), str(spans)] + args
        code, elapsed, cpu, rss = run_child(cmd, out / f"{verb}.log")
        res = OpResult(elapsed, cpu, rss_kb=rss)
        f = res.failures
        f += _code_failure(verb, code, (out / f"{verb}.log").read_text()
                           if code else "")
        if store is not None and code == 0:
            names, arrays = instrument.load_spans(spans)
            store.extend(names, arrays, store.current_op)
            res.import_ms = float(arrays["import_ms"])
        rows = _check_table(table, len(snap.instruments), f)
        if verb == "spread":
            for row in rows:
                tenor, rec = snap.by_id[row["id"]]
                flat = SurvivalParams.flat(float(row["implied_flat_hazard"]))
                want = par_cds_spread(kernels(snap.curve, flat, tenor), rec) * 1e4
                if abs(float(row["par_adjusted_spread_bp"]) - want) > ON_CURVE_TOL_BP:
                    f.append(f"spreads.csv {row['id']}: par-adjusted spread "
                             f"{row['par_adjusted_spread_bp']} bp != par CDS spread "
                             f"{want:.6f} bp of its implied flat curve")
        return res
