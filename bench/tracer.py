"""Span tracing of mmrclimate's public functions, from outside the package.

Every binding of a traced function is replaced by a wrapper that records
a span: (name, start, end, parent span index, op id).  Names are
re-imported across the package (``regret.solve_optimal``,
``control.discounted_total_cost``, the package-root re-exports, ...), so
the tracer scans every loaded ``mmrclimate`` module for attributes that
are the original function object and replaces each one.  Methods of
``ExpPoly`` are replaced on the class.  ``restore()`` puts every original
binding back; untraced timing must only happen after it.

Spans stay in memory until ``write()``; self time (duration minus the
time covered by child spans) is derived afterwards in ``summarize()``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are patched
# on the class.  A target the package no longer has is skipped, and its
# per-layer metrics then read zero.
TARGETS = (
    ("mmrclimate.control", "solve_optimal", "control.solve_optimal"),
    ("mmrclimate.control", "solution_cost", "control.solution_cost"),
    ("mmrclimate.economy", "discounted_total_cost", "economy.discounted_total_cost"),
    ("mmrclimate.exppoly", "ExpPoly.__mul__", "exppoly.mul"),
    ("mmrclimate.exppoly", "ExpPoly.__call__", "exppoly.eval"),
    ("mmrclimate.exppoly", "ExpPoly.discounted_integral", "exppoly.discounted_integral"),
    ("mmrclimate.regret", "build_policy_set", "regret.build_policy_set"),
    ("mmrclimate.regret", "regret_matrix", "regret.regret_matrix"),
    ("mmrclimate.regret", "tmax", "regret.tmax"),
    ("mmrclimate.regret", "sweep", "regret.sweep"),
) + tuple(
    ("mmrclimate.report", writer, f"report.{writer}")
    for writer in ("solution_csv", "matrix_csv", "matrix_table", "svg_heatmap",
                   "sweep_csv", "sweep_table_mmr", "sweep_table_tmax")
)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent, op)
        self.counters = {}       # name -> total, recorded at span boundaries
        self.op = -1
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def _count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        on_result = None
        if name.startswith("report."):
            def on_result(text):
                self._count("report.bytes", len(text.encode()))
        elif name == "regret.regret_matrix":
            def on_result(matrix):
                self._count("regret.cells", matrix.values.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
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
                spans[index] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mmrclimate" or key.startswith("mmrclimate.")]
        for module_name, attribute, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    continue
                owners = [owner]
            else:
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                owners = modules
            wrapper = self._wrap(span_name, original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summarize(self, n_ops):
        """Per-op totals: calls, self seconds and inclusive seconds per
        span name, plus the derived high-precision share of solution_cost
        (its inclusive time minus that of its discounted_total_cost
        children)."""
        child = [0.0] * len(self.spans)
        child_dtc = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "economy.discounted_total_cost":
                    child_dtc[parent] += end - start
        calls, self_s, incl_s = {}, {}, {}
        hiprec = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            incl_s[name] = incl_s.get(name, 0.0) + (end - start)
            if name == "control.solution_cost":
                hiprec += (end - start) - child_dtc[i]
        per_op = 1.0 / max(n_ops, 1)
        return {
            "calls": {k: v * per_op for k, v in calls.items()},
            "self_s": {k: v * per_op for k, v in self_s.items()},
            "incl_s": {k: v * per_op for k, v in incl_s.items()},
            "hiprec_s": hiprec * per_op,
            "counters": {k: v * per_op for k, v in self.counters.items()},
        }

    def write(self, path):
        """All spans as gzip CSV: op,index,parent,name,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{i},{parent},{name},{start:.9f},{end:.9f}\n")
