"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

The recorder replaces module attributes of ``npbe_uq`` with wrappers that
record one span per call: name, start, end, parent span and run id, plus a
few counts read from the arguments or the result.  Spans stay in memory and
are written as JSON lines when the run ends.  Self time is a span's duration
minus the durations of its direct children; calls are nested and made from
one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time

# modules whose public functions are wrapped
LAYERS = ("harness", "pde", "smolyak", "geometry", "bounds", "region", "cli")
# private entry points wrapped as well: newton_solve_npbe drops the CGInfo
# that the CG routine returns, so the CG spans come from here
EXTRA = (("pde", "_pcg"),)


# counts recorded per call, read from the result
COUNTS = {
    "pde._pcg": lambda res: {"iters": res[1].iterations},
    "pde.newton_solve_npbe": lambda res: {"iters": res[1].iterations},
    "pde.assemble_pulled_back_operator": lambda res: {"nnz": res.matrix.nnz},
    "geometry.jacobian": lambda res: {"points": math.prod(res.shape[:-2])},
    "smolyak.build_plan": lambda res: {"knots": res.n_knots},
    "smolyak.interpolate": lambda res: {"points": 1 if res.ndim == 0 else len(res)},
    "bounds.verify_bounds_by_sampling": lambda res: {
        "trials": res.trials, "violations": len(res.violations)},
}


class SpanRecorder:
    """Wraps module functions and records a span per call while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []   # [name, start, end, parent index or -1, counts or None]
        self.last = {}    # name -> last result, for probes after the run
        self._stack = []
        self._undo = []

    def wrap(self, module, attr: str, name: str):
        original = getattr(module, attr)
        counts = COUNTS.get(name)
        spans, stack, last = self.spans, self._stack, self.last

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(result)
                last[name] = result
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def install(self, package):
        """Wrap every public function defined in each layer module, plus EXTRA."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self.wrap(module, attr, f"{layer}.{attr}")
        for layer, attr in EXTRA:
            module = getattr(package, layer)
            if hasattr(module, attr):
                self.wrap(module, attr, f"{layer}.{attr}")

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path: str):
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "run": self.run_id, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "counts": counts or {}}) + "\n")


class SpanSummary:
    """Per-name totals over a list of spans."""

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations, self.self_time, self.counts = {}, {}, {}
        for idx, (name, start, end, parent, counts) in enumerate(spans):
            dur = end - start
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[idx]
            # a recursive call is already inside its outermost span's duration
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                self.durations.setdefault(name, []).append(dur)
            for key, val in (counts or {}).items():
                self.counts.setdefault((name, key), []).append(val)

    def total(self, name):
        return sum(self.durations.get(name, ()))

    def calls(self, name):
        return len(self.durations.get(name, ()))

    def first(self, name):
        return self.durations.get(name, [0.0])[0]

    def self_s(self, name):
        return self.self_time.get(name, 0.0)

    def count_sum(self, name, key):
        return sum(self.counts.get((name, key), ()))

    def count_max(self, name, key):
        return max(self.counts.get((name, key), [0]))

    def count_p50(self, name, key):
        vals = self.counts.get((name, key))
        return statistics.median(vals) if vals else 0

    def ms_quantile(self, name, q):
        durs = sorted(self.durations.get(name, ()))
        if not durs:
            return 0.0
        return 1000.0 * durs[min(len(durs) - 1, math.ceil(q * len(durs)) - 1)]


def _timed_calls(name):
    return [(f"{name}.s", "s", lambda s: s.total(name)),
            (f"{name}.calls", "count", lambda s: s.calls(name))]


# (metric, unit, value from a SpanSummary) for the span-derived metrics;
# the probes in PROBE_METRICS are filled in by the worker
SPAN_METRICS = [
    ("pde.cg.s", "s", lambda s: s.total("pde._pcg")),
    ("pde.cg.iters", "count", lambda s: s.count_sum("pde._pcg", "iters")),
    ("pde.cg.iters_p50", "count", lambda s: s.count_p50("pde._pcg", "iters")),
    *_timed_calls("pde.newton_solve_npbe"),
    ("pde.newton_solve_npbe.self_s", "s", lambda s: s.self_s("pde.newton_solve_npbe")),
    ("pde.newton_solve_npbe.ms_p50", "ms", lambda s: s.ms_quantile("pde.newton_solve_npbe", 0.5)),
    ("pde.newton_solve_npbe.ms_p95", "ms", lambda s: s.ms_quantile("pde.newton_solve_npbe", 0.95)),
    ("pde.newton.iters", "count", lambda s: s.count_sum("pde.newton_solve_npbe", "iters")),
    *_timed_calls("pde.assemble_pulled_back_operator"),
    ("pde.assemble_pulled_back_operator.nnz", "count",  # of the largest operator
     lambda s: s.count_max("pde.assemble_pulled_back_operator", "nnz")),
    *_timed_calls("geometry.jacobian"),
    ("geometry.jacobian.points", "count", lambda s: s.count_sum("geometry.jacobian", "points")),
    *_timed_calls("pde.assemble_rhs"),
    ("pde.reaction_profile.s", "s", lambda s: s.total("pde.reaction_profile")),
    ("pde.qoi_integral.s", "s", lambda s: s.total("pde.qoi_integral")),
    *_timed_calls("harness.shifted_charges"),
    ("smolyak.integrate.s", "s", lambda s: s.total("smolyak.integrate")),
    ("smolyak.integrate.first_s", "s", lambda s: s.first("smolyak.integrate")),
    ("smolyak.build_plan.s", "s", lambda s: s.total("smolyak.build_plan")),
    ("smolyak.build_plan.knots", "count", lambda s: s.count_sum("smolyak.build_plan", "knots")),
    ("harness.run_study.self_s", "s", lambda s: s.self_s("harness.run_study")),
    ("cli.main.self_s", "s", lambda s: s.self_s("cli.main")),
    ("geometry.check_assumptions.s", "s", lambda s: s.total("geometry.check_assumptions")),
    ("geometry.b_norms.s", "s", lambda s: s.total("geometry.b_norms")),
    ("bounds.verify_bounds_by_sampling.s", "s",
     lambda s: s.total("bounds.verify_bounds_by_sampling")),
    ("bounds.verify_bounds_by_sampling.trials", "count",
     lambda s: s.count_sum("bounds.verify_bounds_by_sampling", "trials")),
    ("bounds.verify_bounds_by_sampling.violations", "count",
     lambda s: s.count_sum("bounds.verify_bounds_by_sampling", "violations")),
    ("region.m_tilde.s", "s", lambda s: s.total("region.m_tilde")),
    ("smolyak.interpolate.s", "s", lambda s: s.total("smolyak.interpolate")),
    ("smolyak.interpolate.points", "count", lambda s: s.count_sum("smolyak.interpolate", "points")),
    ("smolyak.evaluate_plan.s", "s", lambda s: s.total("smolyak.evaluate_plan")),
]

PROBE_METRICS = [
    ("pde.matvec.ms", "ms"),
    ("pde.matvec.bytes_computed", "B"),
    ("pde.matvec.flops_per_byte", "flop/B"),
    ("trace.cold_wall_s", "s"),
    ("trace.warm_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def span_metrics(spans) -> dict:
    summary = SpanSummary(spans)
    return {name: {"value": float(fn(summary)), "unit": unit} for name, unit, fn in SPAN_METRICS}


def matvec_probe(matrix, reps: int = 30) -> dict:
    """Median time of ``matrix @ x``, with the bytes a CSR matvec must touch.

    Bytes are computed from the array sizes (values, column indices, row
    pointers, x read once, y written once), not measured; cache misses add
    to the real traffic.
    """
    import numpy as np

    x = np.random.default_rng(0).standard_normal(matrix.shape[1])
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        matrix @ x
        times.append(time.perf_counter() - t0)
    nbytes = (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
              + x.nbytes + 8 * matrix.shape[0])
    return {"pde.matvec.ms": {"value": 1000.0 * statistics.median(times), "unit": "ms"},
            "pde.matvec.bytes_computed": {"value": float(nbytes), "unit": "B"},
            "pde.matvec.flops_per_byte": {"value": 2.0 * matrix.nnz / nbytes, "unit": "flop/B"}}
