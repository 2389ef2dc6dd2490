"""Spans around the public functions of radialqc, installed from outside the library.

``Tracer.install`` wraps every name in each module's ``__all__`` (the public
methods of the classes among them too) and puts the wrapper in every radialqc
namespace that holds the original, because ``verify``, ``cli`` and the package
itself import functions by name.  Each call records one span
``(name, start, end, parent, points)`` in memory; ``points`` is the size of the
call's data argument, or 0 when that argument is a scalar.  Self time is a
span's duration minus the time its child spans cover.  ``summary`` takes the
duration of each span from a function of its start and end, which can leave
out time spent outside the traced code and scale it to reference speed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

MODULES = ("powermap", "zoom", "uqrmap", "distortion", "verify", "cli")

#: position (counting ``self``) of the argument whose size is the work of a call.
DATA_ARG = {
    "powermap.PiecewisePowerMap.eval_log": 1,
    "powermap.PiecewisePowerMap.inverse_eval_log": 1,
    "powermap.PiecewisePowerMap.locate_interval": 1,
    "uqrmap.ConjugatedMap.eval_log": 1,
    "uqrmap.ConjugatedMap.iterate": 1,
    "zoom.LimitFunction.eval_log": 1,
    "zoom.rescaled_eval": 2,
    "uqrmap.h_via_conjugacy": 1,
    "distortion.finite_difference_distortion": 2,
}

#: span names that drop the class: ``powermap.eval_log``, ``zoom.P2.eval_log``.
SHORT_NAME = {
    "powermap.PiecewisePowerMap": "powermap",
    "uqrmap.ConjugatedMap": "uqrmap",
}


def _size(value):
    """Element count of an array argument; 0 for a scalar or a 0-d array."""
    shape = getattr(value, "shape", ())
    return math.prod(shape) if shape else 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, data_arg, limit_kind=False):
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span_name = f"zoom.{args[0].kind}.eval_log" if limit_kind else name
                has_data = data_arg is not None and data_arg < len(args)
                points = _size(args[data_arg]) if has_data else 0
                spans[idx] = (span_name, t0, t1, parent, points)

        return traced

    def install(self, package):
        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        namespaces = [package, *mods.values()]
        for mod_name, mod in mods.items():
            public = getattr(mod, "__all__", None) or ["main"]
            for attr in public:
                obj = getattr(mod, attr)
                if inspect.isclass(obj):
                    owner = SHORT_NAME.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        full = f"{mod_name}.{attr}.{meth}"
                        wrapped = self._wrap(
                            f"{owner}.{meth}", fn, DATA_ARG.get(full),
                            limit_kind=(full == "zoom.LimitFunction.eval_log"),
                        )
                        self._patched.append((obj, meth, fn))
                        setattr(obj, meth, wrapped)
                elif inspect.isfunction(obj):
                    full = f"{mod_name}.{attr}"
                    wrapped = self._wrap(full, obj, DATA_ARG.get(full))
                    for ns in namespaces:
                        if getattr(ns, attr, None) is obj:
                            self._patched.append((ns, attr, obj))
                            setattr(ns, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self, seconds):
        """Per span name: calls, total and self seconds, and the split by data
        size; a span lasts ``seconds(start, end)``."""
        dur = [seconds(t0, t1) for _, t0, t1, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {}
        for i, (name, t0, t1, parent, points) in enumerate(self.spans):
            s = out.setdefault(name, dict(calls=0, total_s=0.0, self_s=0.0, array_calls=0,
                                          array_s=0.0, points=0, scalar_calls=0,
                                          scalar_s=0.0, child_calls={}))
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            if points:
                s["array_calls"] += 1
                s["array_s"] += dur[i]
                s["points"] += points
            else:
                s["scalar_calls"] += 1
                s["scalar_s"] += dur[i]
            if parent >= 0:
                # a parent span opens, and so is listed, before its children
                calls = out[self.spans[parent][0]]["child_calls"]
                calls[name] = calls.get(name, 0) + 1
        return out


#: every span the tracer records; each gets a ``<span>.calls`` metric.
SPANS = (
    "powermap.breakpoint_log2", "powermap.build_standard_map", "powermap.breakpoint",
    "powermap.locate_interval", "powermap.eval_log", "powermap.inverse_eval_log",
    "powermap.eval", "powermap.mean_radius_radial", "powermap.local_exponent",
    "powermap.distinct_exponents",
    "uqrmap.build_conjugated_map", "uqrmap.h_via_conjugacy", "uqrmap.breakpoint",
    "uqrmap.locate_interval", "uqrmap.eval_log", "uqrmap.iterate", "uqrmap.local_exponent",
    "uqrmap.distinct_exponents",
    "zoom.limit_function", "zoom.rescaled_eval", "zoom.scale_at", "zoom.zoom_limit_deviation",
    "zoom.ivt_sample", "zoom.homogeneity_defect", "zoom.example_1d_rescaled",
    "zoom.example_1d_mean_radius", "zoom.P1.eval_log", "zoom.P2.eval_log", "zoom.Q1.eval_log",
    "zoom.Q2.eval_log",
    "distortion.radial_power_distortion", "distortion.pointwise_distortion",
    "distortion.finite_difference_distortion", "distortion.max_distortion",
    "distortion.iterate_max_distortion", "distortion.linear_distortion_radial",
    "verify.run_verification", "verify.recurrence_vs_closed_worst",
    "verify.anchor_identity_worst", "verify.continuity_worst",
    "verify.product_identities_worst", "verify.breakpoint_image_worst", "verify.Check.as_dict",
    "cli.main",
)

#: unit costs per span: (stat, spans).  ns_per_point counts array calls only and
#: us_per_call 0-d calls only; the other costs count every call.  Times are
#: inclusive of child spans unless the stat says ``self``.
COSTS = (
    ("ns_per_point", ("powermap.eval_log", "powermap.inverse_eval_log", "uqrmap.eval_log",
                      "uqrmap.iterate", "zoom.P1.eval_log", "zoom.P2.eval_log",
                      "zoom.Q1.eval_log", "zoom.Q2.eval_log", "zoom.rescaled_eval")),
    ("us_per_call", ("powermap.eval_log", "uqrmap.eval_log", "powermap.locate_interval",
                     "zoom.rescaled_eval", "distortion.finite_difference_distortion")),
    ("ms_per_call", ("powermap.build_standard_map", "zoom.ivt_sample",
                     "distortion.linear_distortion_radial",
                     "distortion.iterate_max_distortion")),
    ("s_per_call", ("verify.product_identities_worst", "verify.recurrence_vs_closed_worst",
                    "verify.anchor_identity_worst", "verify.continuity_worst",
                    "verify.breakpoint_image_worst")),
    ("self_s", ("zoom.zoom_limit_deviation", "verify.run_verification")),
    ("self_ms_per_call", ("cli.main",)),
    ("self_us_per_row", ("cli.main",)),
)

EMPTY = dict(calls=0, total_s=0.0, self_s=0.0, array_calls=0, array_s=0.0, points=0,
             scalar_calls=0, scalar_s=0.0, child_calls={})


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(summary, cli_rows, overhead_s):
    """Every per-layer metric; a span that was never entered reads 0."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = (summary.get(span, EMPTY)["calls"], "count")
    for stat, spans in COSTS:
        for span in spans:
            s = summary.get(span, EMPTY)
            value, unit = {
                "ns_per_point": (_ratio(s["array_s"], s["points"], 1e9), "ns"),
                "us_per_call": (_ratio(s["scalar_s"], s["scalar_calls"], 1e6), "us"),
                "ms_per_call": (_ratio(s["total_s"], s["calls"], 1e3), "ms"),
                "s_per_call": (_ratio(s["total_s"], s["calls"]), "s"),
                "self_s": (s["self_s"], "s"),
                "self_ms_per_call": (_ratio(s["self_s"], s["calls"], 1e3), "ms"),
                "self_us_per_row": (_ratio(s["self_s"], cli_rows, 1e6), "us"),
            }[stat]
            out[f"{span}.{stat}"] = (value, unit)
    ivt = summary.get("zoom.ivt_sample", EMPTY)
    out["zoom.ivt_sample.rescaled_calls_per_solve"] = (
        _ratio(ivt["child_calls"].get("zoom.rescaled_eval", 0), ivt["calls"]), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
