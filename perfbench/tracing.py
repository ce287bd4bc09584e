"""Per-layer tracing, done from outside the program.

Each layer's entry points are wrapped by replacing the module attribute where
its caller looks the function up (``cli.moments_to_cumulants``,
``freeconv.stieltjes_invert`` and the transform it is handed,
``rmt._haar_unitary``, the ``_kernels`` evaluators, ...), so the program's
code is unchanged and ``restore`` puts every original back.

A span is {id, name, start, end, parent, job, leaf_s, counts}; spans are kept
in memory and written out when the pass ends.  Spans opened in a worker
thread take the span open in the main thread as their parent.  The Cauchy
evaluators are called hundreds of thousands of times per job, so they get no
span of their own: their time and counts are added to the innermost open span
(``leaf_s``, ``counts["cauchy_calls"]``) and to running totals.

A span's self time is its duration minus the part of it covered by its child
spans and minus its ``leaf_s``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self.cauchy = {"s": 0.0, "calls": 0, "points": 0, "cell_evals": 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif self._main:
            parent = self._main[-1]["id"]
        else:
            parent = None
        span = {"id": next(self._ids), "name": name, "start": perf_counter(), "end": None,
                "parent": parent, "job": self.job, "leaf_s": 0.0, "counts": {}}
        stack.append(span)
        return span

    def end(self, span: dict):
        span["end"] = perf_counter()
        self._stack().remove(span)
        self.spans.append(span)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name, label=None, count=None):
        """Span around fn.  ``label(bound args)`` appends to the name;
        ``count(bound args, result)`` returns counts for the span."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if (label or count) else None
            span = self.begin(name + (label(bound) if label else ""))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["counts"]["raised"] = 1
                raise
            finally:
                self.end(span)
            if count:
                span["counts"].update(count(bound, out))
            return out

        return traced

    def wrap_kernel(self, fn):
        totals = self.cauchy

        @functools.wraps(fn)
        def traced(z, locs, masses, t, f, lo, hi, S, W):
            t0 = perf_counter()
            out = fn(z, locs, masses, t, f, lo, hi, S, W)
            dt = perf_counter() - t0
            points = np.size(z)
            totals["s"] += dt
            totals["calls"] += 1
            totals["points"] += points
            totals["cell_evals"] += points * (locs.shape[0] + max(hi - lo, 0) + S.shape[0])
            stack = self._stack()
            if stack:
                top = stack[-1]
                top["leaf_s"] += dt
                top["counts"]["cauchy_calls"] = top["counts"].get("cauchy_calls", 0) + 1
            return out

        return traced

    def wrap_inversion(self, fn):
        """stieltjes_invert, plus a ``freeconv.solve`` span around each call
        of the transform it is handed."""

        @functools.wraps(fn)
        def traced(G, *args, **kwargs):
            outer = self.begin("measures.stieltjes_invert")
            outer["counts"]["points"] = 0

            def transform(zs):
                span = self.begin("freeconv.solve")
                span["counts"]["points"] = np.size(zs)
                outer["counts"]["points"] += np.size(zs)
                try:
                    return G(zs)
                except BaseException:
                    span["counts"]["raised"] = 1
                    raise
                finally:
                    self.end(span)

            try:
                return fn(transform, *args, **kwargs)
            finally:
                self.end(outer)

        return traced

    # -- installation -----------------------------------------------------------

    def patch(self, module, attr: str, make_wrapper):
        """Replace module.attr by make_wrapper(original); a name the module
        no longer has is skipped and its layer reads zero."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def install(self):
        from freeprob import _kernels, cli, cumulants, freeconv, measures, rmt, series, walks

        lattice = {"label": lambda a: "." + a.get("lattice", "classical")}
        spans = (
            # span name, attribute, modules that look it up, wrap options
            ("measures.make_named", "make_named", (measures, freeconv), {}),
            ("measures.moments", "moments", (measures,), {}),
            ("measures.moments", "measure_moments", (freeconv,), {}),
            ("freeconv.free_convolve_analytic", "free_convolve_analytic", (freeconv,), {}),
            ("freeconv.free_convolve_moments", "free_convolve_moments", (freeconv, rmt), {}),
            ("series.free_cumulants_from_moments", "free_cumulants_from_moments",
             (series, freeconv, walks), {}),
            ("series.free_moments_from_cumulants", "free_moments_from_cumulants",
             (series, freeconv, walks), {}),
            ("cumulants.moments_to_cumulants", "moments_to_cumulants", (cli,), lattice),
            ("partitions.enumerate_partitions", "enumerate_partitions", (cumulants,),
             {"count": lambda a, out: {"count": len(out)}}),
            ("walks.kesten_loops", "kesten_loops", (walks,), {}),
            ("walks.polya_diagnostic", "polya_diagnostic", (walks,), {}),
            ("rmt.wick_trace_moment", "wick_trace_moment", (rmt,), {}),
            ("rmt.weingarten_series", "weingarten_series", (rmt,), {}),
            ("rmt.freeness_experiment", "freeness_experiment", (rmt,),
             {"count": lambda a, out: {"trials": a["trials"]}}),
            ("rmt.haar", "_haar_unitary", (rmt,), {}),
        )
        for name, attr, modules, options in spans:
            for module in modules:
                self.patch(module, attr, lambda fn: self.wrap(fn, name, **options))
        self.patch(freeconv, "stieltjes_invert", self.wrap_inversion)
        for attr in ("_g_gp_scalar_np", "_g_many_np"):
            self.patch(_kernels, attr, self.wrap_kernel)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics ---------------------------------------------------------


def self_times(spans) -> dict:
    """span id -> duration minus child-covered time minus leaf time."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = s["end"] - s["start"] - covered - s["leaf_s"]
    return out


def layer_metrics(tracer: Tracer, reports: dict) -> dict:
    """Per-layer metrics of one traced pass; ``reports`` are the parsed
    JSON reports of its jobs."""
    spans = tracer.spans
    own = self_times(spans)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def self_total(name):
        return sum(own[s["id"]] for s in of(name))

    def counted(name, key):
        return sum(s["counts"].get(key, 0) for s in of(name))

    k = tracer.cauchy
    solve_points = counted("freeconv.solve", "points")
    experiments = of("rmt.freeness_experiment")
    trials = sum(s["counts"].get("trials", 0) for s in experiments)
    residuals = [r["diagnostics"]["continuation_residual"] for r in reports.values()
                 if "continuation_residual" in r.get("diagnostics", {})]
    return {
        "cli.self_s": self_total("cli.run"),
        "measures.make_named.s": total("measures.make_named"),
        "measures.stieltjes_invert.self_s": self_total("measures.stieltjes_invert"),
        "measures.stieltjes_invert.points": counted("measures.stieltjes_invert", "points"),
        "measures.moments.s": total("measures.moments"),
        "kernels.cauchy.s": k["s"],
        "kernels.cauchy.calls": k["calls"],
        "kernels.cauchy.points": k["points"],
        "kernels.cauchy.points_per_call": k["points"] / k["calls"] if k["calls"] else 0.0,
        "kernels.cauchy.cell_evals": k["cell_evals"],
        "freeconv.solve.s": self_total("freeconv.solve"),
        "freeconv.solve.points": solve_points,
        "freeconv.solve.cauchy_per_point":
            counted("freeconv.solve", "cauchy_calls") / solve_points if solve_points else 0.0,
        "freeconv.solve.worst_residual": max(residuals, default=0.0),
        "freeconv.solve.failed": counted("freeconv.solve", "raised"),
        "freeconv.free_convolve_moments.s": total("freeconv.free_convolve_moments"),
        "series.free_cumulants_from_moments.s": total("series.free_cumulants_from_moments"),
        "series.free_moments_from_cumulants.s": total("series.free_moments_from_cumulants"),
        "cumulants.moments_to_cumulants.classical_s":
            total("cumulants.moments_to_cumulants.classical"),
        "cumulants.moments_to_cumulants.free_s": total("cumulants.moments_to_cumulants.free"),
        "partitions.enumerate_partitions.s": total("partitions.enumerate_partitions"),
        "partitions.enumerate_partitions.count": counted("partitions.enumerate_partitions", "count"),
        "walks.kesten_loops.s": total("walks.kesten_loops"),
        "walks.polya_diagnostic.s": total("walks.polya_diagnostic"),
        "rmt.wick_trace_moment.s": total("rmt.wick_trace_moment"),
        "rmt.weingarten_series.s": total("rmt.weingarten_series"),
        "rmt.freeness_experiment.s": total("rmt.freeness_experiment"),
        "rmt.trial_s": sum(s["end"] - s["start"] for s in experiments) / trials if trials else 0.0,
        "rmt.haar.s": total("rmt.haar"),
        "rmt.haar.calls": len(of("rmt.haar")),
    }
