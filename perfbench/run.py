"""Benchmark of creditcurve's issuer fit, rating-grid fit and cold CLI paths.

    python3 perfbench/run.py --workload issuer_daily --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Workloads (closed loop, one client, one process):

- ``issuer_daily``: in-process ``fit`` then ``analytics`` on one dated
  single-issuer snapshot.  One rating group, so the optimizer and the
  ``at_many`` read-out carry the work: a solver change shows here.
- ``sector_grid``: in-process ``fit-grid`` with schedule recovery on a
  4-5 notch sector whose longest tenor shrinks with rating.  Every
  evaluation builds one ``KernelGrid`` per rating over the full grid:
  kernel batching and per-group truncation show here.
- ``desk_cold``: one fresh-interpreter ``python -m creditcurve.cli``
  call of ``spread`` or ``value`` on a 20-40 bond plus CDS desk
  snapshot.  Import dominates and nothing is fitted: it bypasses solver
  changes and catches anything that slows short calls.

A run replays whole passes of the workload's snapshot pool until
``--seconds`` have elapsed.  Every output is checked (see ``ops.py``);
an op whose output fails a check counts as failed.  With ``--trace 0``
the last stdout line holds the end-to-end metrics, with ``--trace 1``
the per-layer ones; each op then runs once plain and once traced, and
the traced copy gives the spans.  Per-op and per-fit records, the
generating parameters and the spans go to ``.bench_work/<run>/``.

The gated times are CPU times: the process's own for in-process ops and
set-up, the child's (user plus system, from ``wait4``) for ``desk_cold``
ops.  On a shared host, wall time also counts the time the hypervisor
and other processes take from the benchmark, which moved the wall-clock
figures of identical work by a quarter between runs.  The program is
single-threaded (BLAS pools are pinned to one thread), so on an idle
machine an in-process op's CPU time is within a few percent of its wall
time; the wall-clock figures are printed beside them, ungated.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("issuer_daily", "sector_grid", "desk_cold")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0

# BLAS and OpenMP pools pinned to one thread: one process, one thread
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

# (name, unit, better): the gated end-to-end metrics, all from CPU time
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_cpu_s", "1/s", "higher"),
    ("op_cpu_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed for every run, but not gated: wall-clock figures, and ones that
# can be absent or zero
REPORTED = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("failed_frac", "ratio"),
    ("fit_objective_sum", "objective"),
)

PER_LAYER = (
    ("cli.import_ms", "ms", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("universe.load.calls", "count/op", "lower"),
    ("universe.load_ms", "ms/op", "lower"),
    ("ratecurve.discount_factor.calls", "count/op", "lower"),
    ("ratecurve.discount_factor_ms", "ms/op", "lower"),
    ("ratecurve.zero_rate.calls", "count/op", "lower"),
    ("ratecurve.zero_rate_ms", "ms/op", "lower"),
    ("survival.survival_probability.calls", "count/op", "lower"),
    ("survival.survival_probability_ms", "ms/op", "lower"),
    ("survival.points", "count/op", "lower"),
    ("valuation.kernel_grid.builds", "count/op", "lower"),
    ("valuation.kernel_grid_ms", "ms/op", "lower"),
    ("valuation.kernel_grid.points", "count/op", "lower"),
    ("valuation.builds_per_eval", "count", "lower"),
    ("valuation.at_many.calls", "count/op", "lower"),
    ("valuation.at_many_ms", "ms/op", "lower"),
    ("valuation.kernels.calls", "count/op", "lower"),
    ("valuation.kernels_ms", "ms/op", "lower"),
    ("valuation.root_solves", "count/op", "lower"),
    ("valuation.root_solve_ms", "ms/op", "lower"),
    ("fitting.fits", "count/op", "lower"),
    ("fitting.evaluations", "count/op", "lower"),
    ("fitting.evals_per_fit", "count", "lower"),
    ("fitting.eval_us", "us", "lower"),
    ("fitting.self_ms", "ms/fit", "lower"),
    ("fitting.useful_eval_ratio", "ratio", "higher"),
    ("fitting.nonconverged", "count", "lower"),
    ("analytics.decompose_return.calls", "count/op", "lower"),
    ("analytics.decompose_return_ms", "ms/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="do one set-up into DIR and exit (used to time set-up)")
    return p.parse_args(argv)


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup(workload: str, seed: int, work: Path):
    """Import, generate inputs, compute reference values, warm up."""
    t0 = time.perf_counter()
    import creditcurve.cli  # noqa: F401  -- timed: the import every verb pays
    import_ms = (time.perf_counter() - t0) * 1e3
    from perfbench import gen, ops

    wl = ops.Workload(gen.generate(workload, seed, work / "inputs"), work)
    wl.warm_up()
    return wl, import_ms


def _child_setups(args, work: Path) -> list[float]:
    """Set-up CPU seconds reported by fresh interpreters, one per extra sample."""
    samples = []
    for k in range(1, SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(work / f"setup_{k}")]
        out = subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _tail(lat_ms: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten ops beyond it, and its value."""
    n = len(lat_ms)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(lat_ms)[n - 11]


def _replay(wl, seconds: float, trace: bool):
    from perfbench import instrument

    store = instrument.SpanStore() if trace else None
    plain = instrument.Instrumentation(spans=False)
    traced = instrument.Instrumentation(spans=True, store=store) if trace else None
    results, plain_s, passes = [], [], 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for op in wl.replay():
            with plain:
                res = wl.run(op, plain, None)
            if trace:
                plain_s.append(res.cpu_s)
                store.current_op = len(results)
                with traced:
                    traced_res = wl.run(op, traced, store)
                traced_res.failures = res.failures + [
                    m for m in traced_res.failures if m not in res.failures]
                res = traced_res
            results.append((op, res))
        passes += 1
    return results, passes, plain, traced, store, plain_s


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "creditcurve" / "__init__.py").is_file():
        print(f"error: {SRC / 'creditcurve'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)    # before numpy loads; children inherit it
    sys.path[:0] = [str(SRC), str(ROOT)]
    c0 = _cpu_s()
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        print(_cpu_s() - c0)
        return 0

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl, import_ms = setup(args.workload, args.seed, work)
    # this process's set-up plus fresh-interpreter ones; all exclude interpreter start
    setup_samples = [_cpu_s() - c0] + _child_setups(args, work)

    results, passes, plain, traced, store, plain_s = _replay(wl, args.seconds, bool(args.trace))
    if args.workload == "desk_cold":
        peak_kb = max(res.rss_kb for _, res in results)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e, notes = end_to_end([res for _, res in results], setup_samples,
                            len(wl.replay()), peak_kb)
    notes["peak_rss_mb"] = "largest child" if args.workload == "desk_cold" else "this process"

    layers = None
    if args.trace:
        from perfbench import instrument

        if args.workload == "desk_cold":
            child = [res.import_ms for _, res in results if res.import_ms is not None]
            import_ms = statistics.mean(child) if child else 0.0
        overhead = sum(res.cpu_s for _, res in results) / sum(plain_s) - 1.0
        layers = instrument.layer_metrics(store, traced.fits, len(results), import_ms, overhead)
        store.save(work / "spans.npz")

    n = len(results)
    failed = sum(1 for _, res in results if res.failures)
    record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        passes=passes, setup_samples_s=setup_samples, metrics=e2e, notes=notes,
        layers=layers, generating=json.loads((work / "inputs" / "manifest.json").read_text()),
        ops=[dict(snapshot=op[0], verb=op[1], latency_ms=res.latency_s * 1e3,
                  cpu_ms=res.cpu_s * 1e3, failures=res.failures) for op, res in results],
        fits=plain.fits)
    (work / "results.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {n} ops in {passes} pass(es), "
          f"{failed} failed; records in {work.relative_to(ROOT)}")
    units = dict([(name, unit) for name, unit, _ in END_TO_END] + list(REPORTED))
    for name, value in e2e.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>14} {units[name]:<10} {notes[name]}")
    for op, res in results:
        for msg in res.failures:
            print(f"  FAILED {op[0]} {op[1] or ''}: {msg}")
    if layers:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<38} {layers[name]:>14.6g} {unit}")
    print(json.dumps(result_line(e2e, layers, n, failed)))
    return 0


def end_to_end(results: list, setup_samples: list[float], pass_len: int,
               peak_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics of a run and a note on how each was formed.

    A run holds whole passes, so op ``k`` of the pass sits at indices
    ``k, k + pass_len, ...``.  The gated CPU figures take each op's cost
    as the median over its passes, which keeps a burst of host contention
    during one pass out of them.
    """
    n = len(results)
    lat_ms = [res.latency_s * 1e3 for res in results]
    per_op_ms = [statistics.median(res.cpu_s * 1e3 for res in results[k::pass_len])
                 for k in range(pass_len)]
    failed = sum(1 for res in results if res.failures)
    fit_objs = [f["objective"] for res in results[:pass_len] for f in res.fits]
    tail = _tail(lat_ms)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_cpu_s": pass_len / sum(per_op_ms) * 1e3,
        "op_cpu_ms_p50": statistics.median(per_op_ms),
        "peak_rss_mb": peak_kb / 1024.0,
        "ops_per_s": n / sum(res.latency_s for res in results),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": tail[1] if tail else None,
        "failed_frac": failed / n,
        "fit_objective_sum": sum(fit_objs) if fit_objs else None,
    }
    notes = {
        "setup_s": f"CPU, median of {len(setup_samples)} set-ups",
        "ops_per_cpu_s": f"CPU, {pass_len} ops x {n // pass_len} passes",
        "op_cpu_ms_p50": f"CPU, {pass_len} ops x {n // pass_len} passes",
        "peak_rss_mb": "",
        "ops_per_s": f"wall, n={n}",
        "op_ms_p50": f"wall, n={n}",
        "op_ms_tail": f"p{tail[0]:.1f}, n={n}" if tail else f"omitted, n={n} < 11",
        "failed_frac": f"{failed}/{n}",
        "fit_objective_sum": f"{len(fit_objs)} fits of one pass" if fit_objs else "no fits",
    }
    return e2e, notes


def result_line(e2e: dict, layers: dict | None, attempted: int, failed: int) -> dict:
    """The last stdout line: end-to-end metrics, or per-layer ones if traced."""
    chosen, source = (PER_LAYER, layers) if layers is not None else (END_TO_END, e2e)
    return dict(correct=failed == 0, attempted=attempted, failed=failed,
                metrics={name: dict(value=source[name], unit=unit)
                         for name, unit, _ in chosen})


if __name__ == "__main__":
    sys.exit(main())
