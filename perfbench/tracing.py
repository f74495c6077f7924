"""Spans around logdisc's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
logdisc module that holds a reference to it (``hyper.det_bareiss``,
``ci.det_bareiss``, ``inertia.det_bareiss``, ...), so calls made inside the
program are seen too. A span is ``[name, start, end, parent, job, extra]``;
spans stay in memory and are written out when the run ends. A function's
self time is its spans' durations minus the durations of their child spans
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, function) of each layer boundary, named "<module>.<function>"
TRACED = (
    ("cli", "main"),
    ("parse", "parse_poly"),
    ("groebner", "buchberger"),
    ("groebner", "reduce_poly"),
    ("hyper", "mul_tables"),
    ("hyper", "log_matrix"),
    ("hyper", "trace_forms"),
    ("hyper", "maxwell_bifurcation"),
    ("ci", "minor_ideal"),
    ("ci", "ci_tables"),
    ("ci", "gm_coefficients"),
    ("matrix", "det_bareiss"),
    ("matrix", "discriminant"),
    ("poly", "exact_divide"),
    ("poly", "poly_gcd"),
    ("poly", "squarefree_core"),
    ("inertia", "inertia"),
    ("oracle", "find_critical_points"),
    ("oracle", "grid_euler"),
)
FROM_POLY_MATRIX = "inertia.SymMatrixQ.from_poly_matrix"


def _det_sizes(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.terms.values()), default=0)
    return {"n": m.rows, "terms": len(result.terms), "bits": bits}


def _finder_sizes(args, kwargs, result):
    mu = args[2] if len(args) > 2 else kwargs["mu"]
    return {"mu": mu, "found": len(result.points), "complete": result.complete}


def _grid_sizes(args, kwargs, result):
    return {"resolution": result.resolution, "stable": result.stable}


SIZES = {
    "matrix.det_bareiss": _det_sizes,
    "oracle.find_critical_points": _finder_sizes,
    "oracle.grid_euler": _grid_sizes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._undo = []

    def wrap(self, name, fn):
        sizes = SIZES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if sizes is not None:
                rec[5] = sizes(args, kwargs, result)
            return result
        return traced

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "logdisc" or n.startswith("logdisc.")}
        for modname, fname in TRACED:
            orig = getattr(mods["logdisc." + modname], fname)
            wrapper = self.wrap("%s.%s" % (modname, fname), orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        cls = mods["logdisc.inertia"].SymMatrixQ
        raw = cls.__dict__["from_poly_matrix"]
        self._undo.append((cls, "from_poly_matrix", raw))
        cls.from_poly_matrix = classmethod(self.wrap(FROM_POLY_MATRIX,
                                                     raw.__func__))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self):
        """Per span: (name, duration, self time, job, extra)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, job, extra in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[0], s[2] - s[1], s[2] - s[1] - c, s[4], s[5])
                for s, c in zip(self.spans, child)]

    def dump(self, path, summary):
        doc = {"summary": summary,
               "fields": ["name", "start", "end", "parent", "job", "extra"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# per-layer metrics: (metric name, unit)
LAYER_METRICS = [("cli.main.self_s", "s"),
                 ("parse.parse_poly.self_s", "s"),
                 ("parse.parse_poly.calls", "count")]
for _n in ("groebner.buchberger", "groebner.reduce_poly"):
    LAYER_METRICS += [(_n + ".self_s", "s"), (_n + ".calls", "count")]
for _n in ("hyper.mul_tables", "hyper.log_matrix", "hyper.trace_forms",
           "hyper.maxwell_bifurcation", "ci.minor_ideal", "ci.ci_tables",
           "ci.gm_coefficients"):
    LAYER_METRICS.append((_n + ".self_s", "s"))
LAYER_METRICS += [("matrix.det_bareiss.self_s", "s"),
                  ("matrix.det_bareiss.calls", "count"),
                  ("matrix.det_bareiss.max_n", "rows"),
                  ("matrix.det_bareiss.result_terms_max", "terms"),
                  ("matrix.det_bareiss.coeff_bits_max", "bits"),
                  ("matrix.discriminant.self_s", "s"),
                  ("poly.exact_divide.self_s", "s"),
                  ("poly.exact_divide.calls", "count"),
                  ("poly.poly_gcd.self_s", "s"),
                  ("poly.poly_gcd.calls", "count"),
                  ("poly.squarefree_core.self_s", "s"),
                  ("inertia.inertia.self_s", "s"),
                  ("inertia.inertia.calls", "count"),
                  (FROM_POLY_MATRIX + ".self_s", "s"),
                  ("oracle.find_critical_points.self_s", "s"),
                  ("oracle.find_critical_points.calls", "count"),
                  ("oracle.find_critical_points.found_per_mu", "ratio"),
                  ("oracle.find_critical_points.complete_share", "share"),
                  ("oracle.grid_euler.self_s", "s"),
                  ("oracle.grid_euler.calls", "count"),
                  ("oracle.grid_euler.final_resolution_p50", "cells"),
                  ("oracle.grid_euler.stable_share", "share")]


def layer_metrics(tracer, passes):
    """Per-layer metrics per pass (self times and call counts are divided
    by the number of passes; sizes and shares are over all calls). A ratio
    over no calls reads 0."""
    rows = tracer.self_times()
    self_s, calls, extras = {}, {}, {}
    for name, _, own, _, extra in rows:
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            extras.setdefault(name, []).append(extra)
    dets = extras.get("matrix.det_bareiss", [])
    finds = extras.get("oracle.find_critical_points", [])
    grids = extras.get("oracle.grid_euler", [])
    derived = {
        "matrix.det_bareiss.max_n": max((d["n"] for d in dets), default=0),
        "matrix.det_bareiss.result_terms_max":
            max((d["terms"] for d in dets), default=0),
        "matrix.det_bareiss.coeff_bits_max":
            max((d["bits"] for d in dets), default=0),
        "oracle.find_critical_points.found_per_mu":
            (sum(f["found"] for f in finds) / sum(f["mu"] for f in finds)
             if finds else 0.0),
        "oracle.find_critical_points.complete_share":
            (sum(f["complete"] for f in finds) / len(finds) if finds else 0.0),
        "oracle.grid_euler.final_resolution_p50":
            (statistics.median(g["resolution"] for g in grids) if grids
             else 0),
        "oracle.grid_euler.stable_share":
            (sum(g["stable"] for g in grids) / len(grids) if grids else 0.0),
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric in derived:
            value = derived[metric]
        else:
            name, _, stat = metric.rpartition(".")
            if stat == "self_s":
                value = self_s.get(name, 0.0) / passes
            else:
                value = calls.get(name, 0) / passes
        out[metric] = {"value": value, "unit": unit}
    return out
