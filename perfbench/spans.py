"""Span tracing of radialcap, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in the module
that defines it *and* in every radialcap module that bound the same object by
name (``from .quadrature import classify_tail`` copies the reference, so
patching only the defining module would miss those callers).  Classes are
patched on the class, which covers every importer at once.  Each call records
one span -- name, start, end, parent -- in memory, and ``aggregate`` turns the
spans into per-layer calls, points (radii passed in), self time and named
counts.

Self time is a span's duration minus the union of its children's intervals.
Children can overlap: ``criteria.sweep`` runs rows on a thread pool, so the
pool is swapped for one that hands the submitting span to its workers as
their parent.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("expr", "model", "constellation", "quadrature", "dirichlet",
           "criteria", "diffusion", "cli")

# (span name, module, function, index of the radius argument or None)
FUNCTIONS = (
    ("expr.evaluate", "expr", "evaluate", 1),
    ("expr.eval_jet2", "expr", "eval_jet2", 1),
    ("constellation.balance_sign", "constellation", "balance_sign", None),
    ("quadrature.classify_tail", "quadrature", "classify_tail", None),
    ("quadrature.integrate", "quadrature", "integrate", None),
    ("dirichlet.solve_closed", "dirichlet", "solve_dirichlet_closed", None),
    ("dirichlet.solve_ode", "dirichlet", "solve_dirichlet_ode", None),
    ("dirichlet.operator_residual", "dirichlet", "operator_residual", None),
    ("dirichlet.drifted_capacity", "dirichlet", "drifted_capacity", None),
    ("criteria.classify", "criteria", "classify", None),
    ("criteria.sweep", "criteria", "sweep", None),
    ("diffusion.simulate_radial", "diffusion", "simulate_radial", None),
    ("diffusion.exact_hitting_prob", "diffusion", "exact_hitting_prob", None),
    ("model.validate_warping", "model", "validate_warping", None),
    ("model.exact_annulus_p_capacity", "model", "exact_annulus_p_capacity", None),
    ("cli.main", "cli", "main", None),
    ("cli.load_config", "cli", "load_config", None),
)

# (span name, module, class, method, index of the radius argument or None)
METHODS = (
    ("constellation.weight", "constellation", "WeightFunction", "__call__", 1),
    ("constellation.weight.integrand", "constellation", "WeightFunction", "integrand", 1),
    ("quadrature.cumulative_cache", "quadrature", "CumulativeCache", "__call__", 1),
    ("dirichlet.profile", "dirichlet", "RadialSolution", "profile", 1),
)

HORIZON_CAP_WARNING = "evaluable only up to r="

# named counts taken from return values: span name -> (metric, extractor)
RESULT_COUNTS = {
    "quadrature.classify_tail": ("quadrature.classify_tail.doublings",
                                 lambda res: len(res.partial_integrals)),
    "dirichlet.solve_ode": ("dirichlet.solve_ode.steps", lambda res: len(res.nodes) - 1),
    "criteria.sweep": ("criteria.sweep.rows", len),
    "criteria.classify": ("criteria.horizon_capped",
                          lambda res: int(any(HORIZON_CAP_WARNING in w for w in res.warnings))),
    "diffusion.simulate_radial": ("diffusion.simulate_radial.paths", lambda res: res.paths),
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._name_ids: dict = {}
        self.names: list = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.points: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.missing: list = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def wrap(self, name: str, fn, points_arg=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        counted = RESULT_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.span_name)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            if points_arg is not None and len(args) > points_arg:
                pts = np.size(args[points_arg])
                with tracer._lock:
                    tracer.points[name] += pts
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
            if counted is not None:
                metric, extract = counted
                try:
                    value = extract(result)
                except (AttributeError, TypeError):  # a result of another shape
                    value = 0
                with tracer._lock:
                    tracer.counts[metric] += value
            return result

        return traced

    # -- installation ---------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; targets a later version no longer has are
        listed in ``missing`` and read as zero."""
        mods = {m: importlib.import_module(f"radialcap.{m}") for m in MODULES}
        package = importlib.import_module("radialcap")
        holders = [package] + [sys.modules[k] for k in sorted(sys.modules)
                               if k.startswith("radialcap.")]
        for name, mod, attr, points_arg in FUNCTIONS:
            original = getattr(mods[mod], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original, points_arg)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, traced)
        for name, mod, cls_name, meth, points_arg in METHODS:
            cls = getattr(mods[mod], cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self._patch(cls, meth, self.wrap(name, original, points_arg))
        pool = self._traced_pool()
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is concurrent.futures.ThreadPoolExecutor:
                    self._patch(holder, key, pool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _traced_pool(self):
        tracer = self

        class TracedThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
            """Runs each task under the span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **kw):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        stack.pop()

                return super().submit(run, *args, **kwargs)

        return TracedThreadPoolExecutor

    # -- aggregation ----------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, points."""
        n = len(self.span_name)
        names = np.frombuffer(self.span_name, dtype=np.int64, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int64, count=n)
        start = np.frombuffer(self.span_start, dtype=np.float64, count=n)
        end = np.frombuffer(self.span_end, dtype=np.float64, count=n)
        covered = np.zeros(n)
        has_parent = np.flatnonzero(parent >= 0)
        if len(has_parent):
            order = has_parent[np.lexsort((start[has_parent], parent[has_parent]))]
            groups = np.split(order, np.flatnonzero(np.diff(parent[order])) + 1)
            for group in groups:
                pid = parent[group[0]]
                s = np.maximum(start[group], start[pid])
                e = np.minimum(end[group], end[pid])
                covered[pid] = _union_length(s, e)
        inclusive = end - start
        self_time = inclusive - covered
        table = {}
        for name, name_id in self._name_ids.items():
            mask = names == name_id
            table[name] = {
                "calls": int(mask.sum()),
                "total_s": float(inclusive[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "points": int(self.points.get(name, 0)),
            }
        for name in self.missing:
            table[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0,
                           "missing": True}
        return table

    def spans(self) -> dict:
        """Raw spans as arrays, for writing out at the end of a run."""
        n = len(self.span_name)
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int64, count=n).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64, count=n).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64, count=n).copy(),
        }


def _union_length(s: np.ndarray, e: np.ndarray) -> float:
    """Length of the union of intervals [s_i, e_i], s sorted ascending."""
    reach = np.maximum.accumulate(e)
    before = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.maximum(0.0, reach - np.maximum(s, before)).sum())


def layer_metrics(table: dict, counts: dict) -> dict:
    """Every per-layer figure: ``<span>.<kind>`` for each traced function,
    the named counts, and the derived waste ratio and path rate."""
    out = {f"{span}.{kind}": value for span, row in table.items()
           for kind, value in row.items() if kind != "missing"}
    out.update({metric: counts.get(metric, 0) for metric, _ in RESULT_COUNTS.values()})
    integrand = out["constellation.weight.integrand.points"]
    points = out["constellation.weight.points"]
    out["constellation.weight.integrand_points"] = integrand
    out["constellation.weight.integrand_points_per_point"] = integrand / points if points else 0.0
    sim_s = out["diffusion.simulate_radial.total_s"]
    out["diffusion.paths_per_s"] = (
        out["diffusion.simulate_radial.paths"] / sim_s if sim_s else 0.0)
    return out
