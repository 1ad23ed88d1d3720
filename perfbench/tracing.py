"""Tracing for the benchmark's traced run, installed from outside the
library: every wrapped function is rebound in each bgeo module that holds
it (``from .symexpr import eval_expr`` copies the name at import time, so
patching symexpr alone would miss the calls made from surface2d).

Three kinds of wrapper, by cost:

* span: a frame on the stack for self time, plus a span record
  (id, parent id, verdict id, name, start, end) kept in memory;
* light: a frame for self time and call counts, no span record.  Used for
  the constructors, normalize and eval_expr, which run millions of times;
* counter: a call count only (poly_mul, scipy brentq/quad, sample draws).

A layer's self time is its frames' duration minus the time of the frames
they called directly.  Everything is undone by ``uninstall``.
"""

import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 400_000

# (module, function) -> metric key.  Functions of these modules that are
# not listed get the module's default key below; symexpr and _poly wrap
# only what is listed, because their small helpers (sort_key, is_zero, ...)
# are too hot to wrap.
KEYS = {
    ("bgeo.symexpr", "parse_expr"): "symexpr.parse",
    **{("bgeo.symexpr", f): "symexpr.construct"
       for f in ("add", "mul", "powr", "div", "fun", "neg", "sub")},
    ("bgeo.symexpr", "normalize"): "symexpr.normalize",
    ("bgeo.symexpr", "expr_to_ratpoly"): "symexpr.ratpoly",
    ("bgeo.symexpr", "expr_equiv"): "symexpr.equiv",
    ("bgeo.symexpr", "eval_expr"): "symexpr.eval",
    ("bgeo._poly", "poly_mul"): "poly.mul",
    ("bgeo.evalcore._tape", "compile_tape"): "evalcore.compile",
    ("bgeo.evalcore", "evaluate_tape"): "evalcore.evaluate",
    ("bgeo.surface2d", "extract_zero_set"): "surface2d.extract",
    ("bgeo.surface2d", "modular_period"): "surface2d.period",
    ("bgeo.surface2d", "regularized_volume"): "surface2d.volume",
    ("bgeo.normalform", "darboux2d"): "normalform.darboux",
    ("bgeo.normalform", "darboux_verify"): "normalform.darboux",
    ("bgeo.normalform", "moser_relative_verify"): "normalform.moser",
    ("bgeo.normalform", "moser_global_verify"): "normalform.moser",
}
DEFAULT_KEYS = {
    "bgeo.surface2d": "surface2d.other",
    "bgeo.normalform": "normalform.other",
    "bgeo.forms": "forms",
    "bgeo.extension": "extension",
    "bgeo.cohomology": "cohomology",
    "bgeo.serialize": "serialize",
}
LIGHT = {"symexpr.construct", "symexpr.normalize", "symexpr.eval"}
COUNTERS = {"poly.mul"}


class Tracer:
    def __init__(self):
        self.stack = [["root", 0.0, 0.0, {}, 0]]
        self.spans = []
        self.dropped_spans = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._next_id = 1
        self._verdict = 0
        self._undo = []

    # --- wrappers -------------------------------------------------------

    def _frame_wrapper(self, key, fn, record, on_exit=None):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        spans, perf = self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            kids = parent[3]
            kids[key] = kids.get(key, 0) + 1
            sid = 0
            if record:
                sid = self._next_id
                self._next_id = sid + 1
            frame = [key, 0.0, 0.0, {}, sid]
            stack.append(frame)
            t0 = frame[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                self_s[key] += dur - frame[2]
                calls[key] += 1
                if record:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent[4], self._verdict, key,
                                      t0, t1))
                    else:
                        self.dropped_spans += 1
                if on_exit is not None:
                    on_exit(frame, args)
        return wrapper

    def _eval_wrapper(self, key, fn, domain_error):
        """Light frame that also counts domain errors, on the caller's frame
        too so expr_equiv can tell rejected samples from accepted ones."""
        inner = self._frame_wrapper(key, fn, record=False)
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except domain_error:
                counts["symexpr.eval.domain_errors"] += 1
                kids = stack[-1][3]
                kids["domain_error"] = kids.get("domain_error", 0) + 1
                raise
        return wrapper

    def _counter(self, key, fn, on_caller=False):
        counts, stack = self.counts, self.stack
        if on_caller:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                kids = stack[-1][3]
                kids[key] = kids.get(key, 0) + 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        return wrapper

    # --- exit hooks -------------------------------------------------------

    def _equiv_exit(self, frame, args):
        kids = frame[3]
        if "symexpr.eval" in kids:
            self.counts["equiv.sampled"] += 1
            draws = kids.get("equiv.draw", 0)
            self.counts["equiv.samples_drawn"] += draws
            self.counts["equiv.samples_accepted"] += (
                draws - kids.get("domain_error", 0))
        elif "symexpr.ratpoly" in kids:
            self.counts["equiv.exact"] += 1
        else:
            self.counts["equiv.structural"] += 1

    def _evaluate_exit(self, frame, args):
        tape, points = args[0], args[1]
        rows = len(points)
        self.counts["evalcore.points"] += rows
        self.counts["evalcore.tape_ops"] += len(tape) * rows

    def _volume_wrapper(self, fn):
        inner = self._frame_wrapper("surface2d.volume", fn, record=True)
        calls = self.calls

        def wrapper(*args, **kwargs):
            before = calls["symexpr.eval"]
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["surface2d.volume_evals"] += (
                    calls["symexpr.eval"] - before)
        return wrapper

    def _solve_wrapper(self, fn):
        inner = self._frame_wrapper("normalform.solve", fn, record=True)
        counts = self.counts

        def wrapper(a, b, *args, **kwargs):
            counts["normalform.solve.systems"] += (
                a.shape[0] if getattr(a, "ndim", 2) > 2 else 1)
            return inner(a, b, *args, **kwargs)
        return wrapper

    # --- installation -----------------------------------------------------

    def _rebind(self, original, wrapper, modules):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self, callers=()):
        """Wrap the bgeo functions and rebind them in every bgeo module and
        in the given caller modules (the benchmark's own, which import
        bgeo names directly)."""
        import numpy
        import bgeo.cli
        from bgeo import surface2d, symexpr

        library = [m for n, m in sorted(sys.modules.items())
                   if (n == "bgeo" or n.startswith("bgeo.")) and m is not None]
        modules = library + list(callers)
        for mod in library:
            default = DEFAULT_KEYS.get(mod.__name__)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not callable(fn)
                        or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                key = KEYS.get((mod.__name__, name), default)
                if key is None:
                    continue
                self._rebind(fn, self._wrap(key, fn, symexpr), modules)
        self._rebind(bgeo.cli.main,
                     self._frame_wrapper("cli", bgeo.cli.main, True),
                     modules)
        # scipy callbacks are counted where surface2d calls them only
        for name in ("brentq", "quad"):
            orig = getattr(surface2d, name)
            self._undo.append((surface2d, name, orig))
            setattr(surface2d, name,
                    self._counter("surface2d." + name, orig))
        draw = symexpr.Patch.random_point
        self._undo.append((symexpr.Patch, "random_point", draw))
        symexpr.Patch.random_point = self._counter("equiv.draw", draw,
                                                   on_caller=True)
        solve = numpy.linalg.solve
        self._undo.append((numpy.linalg, "solve", solve))
        numpy.linalg.solve = self._solve_wrapper(solve)

    def _wrap(self, key, fn, symexpr):
        if key in COUNTERS:
            return self._counter(key, fn)
        if key == "symexpr.eval":
            return self._eval_wrapper(key, fn, symexpr.EvalDomainError)
        if key == "surface2d.volume":
            return self._volume_wrapper(fn)
        on_exit = {"symexpr.equiv": self._equiv_exit,
                   "evalcore.evaluate": self._evaluate_exit}.get(key)
        return self._frame_wrapper(key, fn, key not in LIGHT, on_exit)

    def uninstall(self):
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    # --- verdict scoping ---------------------------------------------------

    def run_verdict(self, label, fn, *args):
        """Run one verdict under its own span, so its layer spans share an
        identifier."""
        self._verdict += 1
        wrapped = self._frame_wrapper("verdict." + label, fn, record=True)
        return wrapped(*args)


def layer_metrics(tr):
    """Per-layer metrics from one traced pass (see README.md for the
    end-to-end metric and workload each should move)."""
    calls, self_s, counts = tr.calls, tr.self_s, tr.counts
    m = {}
    for key in ("symexpr.parse", "symexpr.construct", "symexpr.normalize",
                "symexpr.ratpoly", "symexpr.equiv", "symexpr.eval",
                "evalcore.compile", "evalcore.evaluate", "normalform.solve"):
        m[key + ".calls"] = calls[key]
        m[key + ".self_s"] = self_s[key]
    for key in ("surface2d.extract", "surface2d.period", "surface2d.volume",
                "normalform.moser", "normalform.darboux", "forms",
                "extension", "serialize", "cli"):
        m[key + ".self_s"] = self_s[key]
    m["poly.mul.calls"] = counts["poly.mul"]
    for path in ("structural", "exact", "sampled"):
        m["equiv." + path] = counts["equiv." + path]
    drawn = counts["equiv.samples_drawn"]
    m["equiv.sample_accept_ratio"] = (
        counts["equiv.samples_accepted"] / drawn if drawn else 0.0)
    m["symexpr.eval.domain_errors"] = counts["symexpr.eval.domain_errors"]
    m["evalcore.points"] = counts["evalcore.points"]
    m["evalcore.points_per_call"] = (
        counts["evalcore.points"] / calls["evalcore.evaluate"]
        if calls["evalcore.evaluate"] else 0.0)
    m["evalcore.tape_ops"] = counts["evalcore.tape_ops"]
    m["surface2d.brentq.calls"] = counts["surface2d.brentq"]
    m["surface2d.quad.calls"] = counts["surface2d.quad"]
    volumes = calls["surface2d.volume"]
    m["surface2d.evals_per_volume"] = (
        counts["surface2d.volume_evals"] / volumes if volumes else 0.0)
    m["normalform.solve.systems"] = counts["normalform.solve.systems"]
    m["cohomology.calls"] = calls["cohomology"]
    return m
