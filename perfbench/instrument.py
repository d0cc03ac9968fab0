"""Spans and per-fit records around creditcurve's public entry points.

Nothing inside ``src/`` is edited: :class:`Instrumentation` swaps the
public methods and module-level functions for wrappers while it is
installed and puts the originals back when it is removed.

- Class methods are wrapped on the class, so every caller is covered:
  ``RiskfreeCurve.discount_factor`` / ``zero_rate``,
  ``SurvivalParams.survival_probability`` and ``KernelGrid.__init__`` /
  ``at`` / ``at_many``.
- Free functions are re-bound in every ``creditcurve`` module namespace
  that holds them (``kernels`` and ``cds_upfront`` live in both
  ``valuation`` and ``fitting``, ``load_universe`` in ``universe`` and
  ``cli``), so calls through ``from x import y`` names are covered too.

Spans live in flat arrays (name id, start, end, parent id, op index,
size) and are written out once, at the end of a run.  With
``spans=False`` only the two fit entry points are wrapped, to keep the
per-fit record (objective, parameters, evaluations, convergence, start
count) at a cost of one extra call per fit.
"""

from __future__ import annotations

import array
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

import creditcurve.analytics as an
import creditcurve.fitting as ft
import creditcurve.universe as un
import creditcurve.valuation as vl
from creditcurve.ratecurve import RiskfreeCurve
from creditcurve.survival import SurvivalParams

ROOT_SPAN = "cli.verb"
FIT_SPANS = ("fitting.fit_single_name", "fitting.fit_rating_grid")
ROOT_SOLVES = ("valuation.yield_from_price", "valuation.z_spread", "valuation.exact_fit")


def _t_size(args, kwargs) -> int:
    return int(np.size(kwargs.get("t", args[1] if len(args) > 1 else 0)))


def _grid_points(args, kwargs) -> int:
    # KernelGrid(self, curve, params, t_max, grid_step=..., _cache=None)
    cache = kwargs.get("_cache", args[5] if len(args) > 5 else None)
    if cache is not None:
        return int(cache.t.size)
    t_max = kwargs.get("t_max", args[3] if len(args) > 3 else None)
    h = kwargs.get("grid_step", args[4] if len(args) > 4 else vl.DEFAULT_GRID_STEP)
    return int(math.ceil(t_max / h - 1e-12)) + 1


# (owner class, attribute, span name, size of the work in one call)
METHODS = (
    (RiskfreeCurve, "discount_factor", "ratecurve.discount_factor", None),
    (RiskfreeCurve, "zero_rate", "ratecurve.zero_rate", None),
    (SurvivalParams, "survival_probability", "survival.survival_probability", _t_size),
    (vl.KernelGrid, "__init__", "valuation.kernel_grid", _grid_points),
    (vl.KernelGrid, "at", "valuation.at", None),
    (vl.KernelGrid, "at_many", "valuation.at_many", None),
)

# (defining module, function, span name)
FUNCTIONS = (
    (vl, "kernels", "valuation.kernels"),
    (vl, "cds_upfront", "valuation.cds_upfront"),
    (vl, "yield_from_price", "valuation.yield_from_price"),
    (vl, "z_spread", "valuation.z_spread"),
    (vl, "exact_fit_to_instrument", "valuation.exact_fit"),
    (un, "load_universe", "universe.load"),
    (an, "decompose_return", "analytics.decompose_return"),
)

FITS = (
    (ft, "fit_single_name", "fitting.fit_single_name"),
    (ft, "fit_rating_grid", "fitting.fit_rating_grid"),
)


class SpanStore:
    """Spans in flat arrays; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.size = array.array("q")
        self._stack = [-1]
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, size: int = 0) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(name=np.frombuffer(self.name, dtype=np.int32).copy(),
                    start=np.frombuffer(self.start, dtype=np.float64).copy(),
                    end=np.frombuffer(self.end, dtype=np.float64).copy(),
                    parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
                    op=np.frombuffer(self.op, dtype=np.int32).copy(),
                    size=np.frombuffer(self.size, dtype=np.int64).copy())

    def extend(self, names: list[str], arrays: dict[str, np.ndarray], op: int) -> None:
        """Append spans recorded elsewhere (a child process) under op ``op``."""
        offset = len(self)
        remap = np.array([self.name_id(n) for n in names], dtype=np.int32)
        parent = arrays["parent"]
        self.name.extend(remap[arrays["name"]].tolist())
        self.start.extend(arrays["start"].tolist())
        self.end.extend(arrays["end"].tolist())
        self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
        self.op.extend([op] * len(parent))
        self.size.extend(arrays["size"].tolist())

    def save(self, path: Path, **extra: float) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays(), **extra)


def load_spans(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Names and span arrays of a saved store, plus any extra values."""
    with np.load(path) as data:
        return [str(n) for n in data["names"]], {k: data[k] for k in data.files
                                                 if k != "names"}


class Instrumentation:
    """Context manager installing the wrappers; restores on exit."""

    def __init__(self, spans: bool, store: SpanStore | None = None):
        self.spans = spans
        self.store = store if store is not None else SpanStore()
        self.fits: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._fit_depth = 0

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn, size_of=None):
        store, nid = self.store, self.store.name_id(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = store.open(nid, size_of(args, kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                store.close(sid)

        return wrapped

    def _fit(self, name: str, fn):
        inner = self._span(name, fn) if self.spans else fn

        @functools.wraps(fn)
        def wrapped(instruments, *args, **kwargs):
            outer = self._fit_depth == 0
            self._fit_depth += 1
            try:
                result = inner(instruments, *args, **kwargs)
            finally:
                self._fit_depth -= 1
            if outer:
                self.fits.append(fit_record(name, instruments, result))
            return result

        return wrapped

    # -- install / restore -------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, module, attr: str, wrapped) -> None:
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "creditcurve" or name.startswith("creditcurve.")) \
                    and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def __enter__(self) -> "Instrumentation":
        if self.spans:
            for owner, attr, name, size_of in METHODS:
                self._set(owner, attr, self._span(name, owner.__dict__[attr], size_of))
            for module, attr, name in FUNCTIONS:
                self._rebind(module, attr, self._span(name, getattr(module, attr)))
        for module, attr, name in FITS:
            self._rebind(module, attr, self._fit(name, getattr(module, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._saved]


def fit_record(kind: str, instruments, result) -> dict:
    """Everything needed to see that a faster fit gave the same answer."""
    params = result.params
    if isinstance(params, SurvivalParams):
        values = dict(a=params.a, b=params.b, c=params.c)
    else:
        values = dict(anchors_a=list(params.anchors_a), anchors_b=list(params.anchors_b),
                      c=params.c)
    diag = result.diagnostics
    groups = len({inst.effective_rating for inst in instruments}) \
        if kind.endswith("rating_grid") else 1
    return dict(kind=kind.split(".")[-1], objective=result.objective, params=values,
                alpha=result.alpha, evaluations=int(diag.get("evaluations", 0)),
                converged=bool(diag.get("converged", False)),
                n_starts=int(diag.get("n_starts", 0)),
                improvements=len(diag.get("descent", ())), groups=groups)


# -- per-layer metrics -----------------------------------------------------


class WrappingMiss(RuntimeError):
    """The spans disagree with the fit records: a wrapper did not fire."""


def _outer_ancestor(parent: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """Index of each span's outermost flagged ancestor-or-self, else -1."""
    out = np.where(flag, np.arange(len(parent)), -1)
    cur = parent.copy()
    while True:
        live = cur >= 0
        if not live.any():
            return out
        hit = np.zeros_like(live)
        hit[live] = flag[cur[live]]
        out[hit] = cur[hit]
        cur[live] = parent[cur[live]]


def layer_metrics(store: SpanStore, fits: list[dict], n_ops: int,
                  import_ms: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer counts and busy times, per op unless the name says otherwise.

    Raises :class:`WrappingMiss` when a fit built fewer kernel grids than
    its evaluations times its rating groups.
    """
    a = store.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
    ids = {name: i for i, name in enumerate(store.names)}

    def mask(*names: str) -> np.ndarray:
        return np.isin(a["name"], [ids[n] for n in names if n in ids])

    def calls(*names: str) -> float:
        return float(mask(*names).sum()) / n_ops

    def busy_ms(*names: str) -> float:
        return float(dur[mask(*names)].sum()) * 1e3 / n_ops

    is_fit = mask(*FIT_SPANS)
    fit_of = _outer_ancestor(parent, is_fit)
    outer_fits = np.flatnonzero(is_fit & (fit_of == np.arange(len(dur))))
    builds = mask("valuation.kernel_grid")
    per_fit = np.bincount(fit_of[builds & (fit_of >= 0)], minlength=len(dur))
    if len(outer_fits) != len(fits):
        raise WrappingMiss(f"{len(outer_fits)} fit spans for {len(fits)} fit records")
    for span, rec in zip(outer_fits, fits):
        if per_fit[span] < rec["evaluations"] * rec["groups"]:
            raise WrappingMiss(
                f"a {rec['kind']} fit built {per_fit[span]} kernel grids for "
                f"{rec['evaluations']} evaluations x {rec['groups']} rating groups")

    n_fits = len(fits)
    evals = sum(r["evaluations"] for r in fits)
    return {
        "cli.import_ms": import_ms,
        "cli.self_ms": float(self_t[mask(ROOT_SPAN)].sum()) * 1e3 / n_ops,
        "universe.load.calls": calls("universe.load"),
        "universe.load_ms": busy_ms("universe.load"),
        "ratecurve.discount_factor.calls": calls("ratecurve.discount_factor"),
        "ratecurve.discount_factor_ms": busy_ms("ratecurve.discount_factor"),
        "ratecurve.zero_rate.calls": calls("ratecurve.zero_rate"),
        "ratecurve.zero_rate_ms": busy_ms("ratecurve.zero_rate"),
        "survival.survival_probability.calls": calls("survival.survival_probability"),
        "survival.survival_probability_ms": busy_ms("survival.survival_probability"),
        "survival.points": float(a["size"][mask("survival.survival_probability")].sum()) / n_ops,
        "valuation.kernel_grid.builds": calls("valuation.kernel_grid"),
        "valuation.kernel_grid_ms": busy_ms("valuation.kernel_grid"),
        "valuation.kernel_grid.points": float(a["size"][builds].sum()) / n_ops,
        "valuation.builds_per_eval": float(per_fit[outer_fits].sum()) / evals if evals else 0.0,
        "valuation.at_many.calls": calls("valuation.at_many"),
        "valuation.at_many_ms": busy_ms("valuation.at_many"),
        "valuation.kernels.calls": calls("valuation.kernels"),
        "valuation.kernels_ms": busy_ms("valuation.kernels"),
        "valuation.root_solves": calls(*ROOT_SOLVES),
        "valuation.root_solve_ms": busy_ms(*ROOT_SOLVES),
        "fitting.fits": n_fits / n_ops,
        "fitting.evaluations": evals / n_ops,
        "fitting.evals_per_fit": evals / n_fits if n_fits else 0.0,
        "fitting.eval_us": float(dur[outer_fits].sum()) * 1e6 / evals if evals else 0.0,
        "fitting.self_ms": float(self_t[is_fit].sum()) * 1e3 / n_fits if n_fits else 0.0,
        "fitting.useful_eval_ratio":
            sum(r["improvements"] for r in fits) / evals if evals else 0.0,
        "fitting.nonconverged": float(sum(not r["converged"] for r in fits)),
        "analytics.decompose_return.calls": calls("analytics.decompose_return"),
        "analytics.decompose_return_ms": busy_ms("analytics.decompose_return"),
        "trace.overhead_frac": overhead_frac,
    }
