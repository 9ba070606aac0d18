"""Spans around the engine's layer boundaries, installed from outside.

A ``Tracer`` replaces each public function in ``TARGETS`` with a timing
wrapper at the place its caller looks the name up (a module global or a
class attribute), keeps every span in memory as (name, start, end,
parent), and puts the originals back when it is closed. ``fold`` turns the
spans of one pass into per-layer totals and clears them.

``sphere`` is not spanned: ``chordal`` costs less than a wrapper would,
so its cost stays in its callers' self time.
"""

import collections
import functools
import importlib
import statistics
import time

# (span name, owner "module" or "module:Class", attribute looked up by callers)
TARGETS = (
    ("cli.main", "pullbacklab.cli", "main"),
    ("fiber.init_run", "pullbacklab.cli", "init_run"),
    ("fiber.init_run", "pullbacklab.fiber", "init_run"),
    ("fiber.run_until", "pullbacklab.cli", "run_until"),
    ("fiber.run_until", "pullbacklab.fiber", "run_until"),
    ("fiber.pullback_step", "pullbacklab.fiber:PullbackRun", "pullback_step"),
    ("fiber.trace_record", "pullbacklab.fiber:PullbackRun", "trace_record"),
    ("ratmap.postsingular_analysis", "pullbacklab.fiber", "postsingular_analysis"),
    ("ratmap.preimages", "pullbacklab.fiber", "preimages"),
    ("lifting.lift_path", "pullbacklab.fiber", "lift_path"),
    ("lifting.simplify_path", "pullbacklab.fiber", "simplify_path"),
    ("hyperbolic.teich_step_bound", "pullbacklab.fiber", "teich_step_bound"),
    ("hyperbolic.path_length_upper_bound", "pullbacklab.hyperbolic",
     "path_length_upper_bound"),
    ("hyperbolic.anchored_step_bound", "pullbacklab.hyperbolic",
     "anchored_step_bound"),
    ("local.inv_step", "pullbacklab.local:LocalFixedChart", "inv_step"),
    ("certify.classify_run", "pullbacklab.cli", "classify_run"),
    ("certify.classify_run", "pullbacklab.certify", "classify_run"),
    ("certify.certify_obstructed", "pullbacklab.cli", "certify_obstructed"),
    ("certify.certify_obstructed", "pullbacklab.certify", "certify_obstructed"),
    ("certify.emit_levy_certificate", "pullbacklab.certify",
     "emit_levy_certificate"),
    ("certify.injectivity_test", "pullbacklab.certify", "injectivity_test"),
    ("lifting.lift_closed_curve", "pullbacklab.certify", "lift_closed_curve"),
    ("certify.verify_certificate", "pullbacklab.cli", "verify_certificate"),
)


def _observe_lift(counts, args, result):
    counts["lifting.lift_path.subdivisions"] += result.subdivisions


def _observe_simplify(counts, args, result):
    counts["lifting.simplify_path.nodes_in"] += len(args[0])
    counts["lifting.simplify_path.nodes_out"] += len(result)


def _observe_record(counts, args, result):
    counts["local.anchored_steps"] += sum(
        entry["mode"] == "anchored" for entry in result["points"].values())
    counts["fiber.uncertified_steps"] += result["step_bound"] is None


def _observe_emit(counts, args, result):
    counts["certify.emitted"] += result is not None


OBSERVERS = {
    "lifting.lift_path": _observe_lift,
    "lifting.simplify_path": _observe_simplify,
    "fiber.trace_record": _observe_record,
    "certify.emit_levy_certificate": _observe_emit,
}


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children. ``spans`` holds (name, start, end, parent)
    tuples, parent being an index into ``spans`` or -1."""
    children = collections.defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class Tracer:
    """Installs the span wrappers; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.cert_s = []                # certify_obstructed span durations
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(counts, args, result)
            return result
        return wrapper

    def install(self):
        for name, owner, attr in TARGETS:
            obj = _resolve(owner)
            original = vars(obj)[attr]
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(name, original))
        return self

    def restore(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def fold(self):
        """Add the spans recorded so far to the totals and drop them."""
        spans = self.spans
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            self.self_s[name] += own
            self.calls[name] += 1
            if name == "certify.certify_obstructed":
                self.cert_s.append(end - start)
            if name == "certify.injectivity_test" and \
                    self._has_ancestor(parent, "certify.emit_levy_certificate"):
                self.counts["certify.injectivity_test.in_emit"] += 1
        spans.clear()

    def _has_ancestor(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Per-pass per-layer metrics from a folded tracer; name -> (value, unit)."""
    per = 1.0 / max(passes, 1)
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    out = {}
    for name in ("ratmap.postsingular_analysis", "lifting.lift_path",
                 "lifting.simplify_path", "lifting.lift_closed_curve",
                 "hyperbolic.teich_step_bound",
                 "hyperbolic.path_length_upper_bound",
                 "hyperbolic.anchored_step_bound", "local.inv_step",
                 "fiber.pullback_step", "fiber.trace_record",
                 "fiber.run_until", "fiber.init_run",
                 "certify.injectivity_test", "certify.verify_certificate",
                 "certify.classify_run", "certify.certify_obstructed",
                 "cli.main"):
        out[name + ".self_s"] = (s[name] * per, "s")
    for name in ("ratmap.postsingular_analysis", "ratmap.preimages",
                 "lifting.lift_path", "lifting.lift_closed_curve",
                 "hyperbolic.path_length_upper_bound",
                 "hyperbolic.anchored_step_bound", "local.inv_step",
                 "certify.emit_levy_certificate", "certify.injectivity_test"):
        out[name + ".calls"] = (c[name] * per, "count")
    out["lifting.lift_path.subdivisions"] = (
        n["lifting.lift_path.subdivisions"] * per, "count")
    nodes_in = n["lifting.simplify_path.nodes_in"]
    out["lifting.simplify_path.drop_ratio"] = (
        _ratio(nodes_in - n["lifting.simplify_path.nodes_out"], nodes_in), "ratio")
    out["local.anchored_steps"] = (n["local.anchored_steps"] * per, "count")
    out["fiber.uncertified_steps"] = (n["fiber.uncertified_steps"] * per, "count")
    out["certify.emitted_per_injectivity"] = (
        _ratio(n["certify.emitted"], n["certify.injectivity_test.in_emit"]), "ratio")
    out["cert_ms.p50"] = (1e3 * statistics.median(tracer.cert_s)
                          if tracer.cert_s else 0.0, "ms")
    return out
