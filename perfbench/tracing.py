"""Spans and counts recorded from outside the solver.

The solvers look their collaborators up as module attributes at call time
(``sphere.fista``, ``maxop.t_update_bag``, ``engine.solve``, ...), so
replacing those attributes with timing wrappers traces every layer without
editing the package. Spans are kept in compact arrays while the benchmark
runs and written out once it ends.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from array import array

# (module name inside nladmm, attribute, span name).  One span name may be
# looked up from several modules, e.g. FISTA from sphere and from maxop.
LAYERS = [
    ("datagen", "generate_onebit", "datagen.generate_onebit"),
    ("datagen", "generate_bags", "datagen.generate_bags"),
    ("maxop", "save_bags_csv", "maxop.save_bags_csv"),
    ("maxop", "load_bags_csv", "maxop.load_bags_csv"),
    ("sphere", "onebit_solve", "sphere.onebit_solve"),
    ("sphere", "onebit_update_w", "sphere.onebit_update_w"),
    ("sphere", "onebit_update_z", "sphere.onebit_update_z"),
    ("sphere", "sphere_penalty_min", "sphere.sphere_penalty_min"),
    ("sphere", "cubic_real_roots", "inner.cubic_real_roots"),
    ("sphere", "fista", "inner.fista"),
    ("maxop", "maxop_solve", "maxop.maxop_solve"),
    ("maxop", "update_q", "maxop.update_q"),
    ("maxop", "update_beta", "maxop.update_beta"),
    ("maxop", "t_update_bag", "maxop.t_update_bag"),
    ("maxop", "fista", "inner.fista"),
    ("engine", "solve", "engine.solve"),
    ("scalar_examples", "example1_block_update", "scalar_examples.example1_block_update"),
    ("scalar_examples", "example2_block_update", "scalar_examples.example2_block_update"),
    ("scalar_examples", "cubic_real_roots", "inner.cubic_real_roots"),
    ("diagnostics", "diagnose_result", "diagnostics.diagnose_result"),
    ("diagnostics", "vi_matrices", "diagnostics.vi_matrices"),
    ("cli", "write_trace", "cli.write_trace"),
]

SETUP_LAYERS = ["datagen.generate_onebit", "datagen.generate_bags",
                "maxop.save_bags_csv", "maxop.load_bags_csv"]

# Per-layer metric -> unit.  Time and count metrics are per timed solve;
# set-up layers are per set-up.  trace.solves_per_s is the traced run's own
# throughput: the untraced solves_per_s minus it is the tracing overhead.
PER_LAYER = {
    "trace.solves_per_s": "1/s",
    "inner.fista.s": "s",
    "inner.fista.calls": "count",
    "inner.fista.grad_evals": "count",
    "inner.fista.smooth_evals": "count",
    "inner.fista.smooth_per_grad": "ratio",
    "inner.cubic_real_roots.s": "s",
    "inner.cubic_real_roots.calls": "count",
    "sphere.onebit_solve.self_s": "s",
    "sphere.onebit_update_w.self_s": "s",
    "sphere.onebit_update_z.s": "s",
    "sphere.sphere_penalty_min.s": "s",
    "maxop.t_update_bag.s": "s",
    "maxop.t_update_bag.calls": "count",
    "maxop.maxop_solve.self_s": "s",
    "maxop.update_q.self_s": "s",
    "maxop.update_beta.self_s": "s",
    "maxop.save_bags_csv.s": "s",
    "maxop.load_bags_csv.s": "s",
    "datagen.generate_onebit.s": "s",
    "datagen.generate_bags.s": "s",
    "engine.solve.self_s": "s",
    "engine.solve.self_us_per_iter": "us",
    "engine.solve.outer_iters": "count",
    "scalar_examples.example1_block_update.s": "s",
    "scalar_examples.example2_block_update.s": "s",
    "diagnostics.diagnose_result.self_s": "s",
    "diagnostics.vi_matrices.s": "s",
    "cli.write_trace.s": "s",
}

SETUP_SOLVE = -1  # solve index of spans recorded during set-up
WARMUP_SOLVE = -2  # solve index of spans recorded during the warm-up solve


class Tracer:
    """Records one span per wrapped call: name, parent span, the benchmark
    solve it belongs to, start and end. Self time is the span's duration
    minus the durations of its direct children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.solve_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.solve = SETUP_SOLVE
        self._stack: list[list] = []  # [span index, accumulated child time]
        self._patched: list[tuple] = []
        # Counts taken at the FISTA and engine boundaries, per solve index.
        self.counts: dict[tuple[str, int], int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, name: str, n: int = 1) -> None:
        key = (name, self.solve)
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name_id: int, fn, args, kwargs):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.solve_index.append(self.solve)
        self.end.append(0.0)
        self.self_time.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            self.end[index] = t1
            self.self_time[index] = dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def install(self) -> None:
        """Replace every attribute in LAYERS with a timing wrapper."""
        for mod_name, attr, span_name in LAYERS:
            module = importlib.import_module(f"nladmm.{mod_name}")
            original = getattr(module, attr)
            name_id = self._id(span_name)
            if span_name == "inner.fista":
                wrapper = self._fista_wrapper(original, name_id)
            elif span_name == "engine.solve":
                wrapper = self._engine_wrapper(original, name_id)
            else:
                def wrapper(*args, _fn=original, _id=name_id, **kwargs):
                    return self._span(_id, _fn, args, kwargs)
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))

    def _fista_wrapper(self, original, name_id):
        from nladmm.terms import CompositeObjective, SmoothTerm

        def counted(fn, counter):
            def call(x):
                self._count(counter)
                return fn(x)
            return call

        def wrapper(obj, *args, **kwargs):
            smooth = SmoothTerm(value=counted(obj.smooth.value, "inner.fista.smooth_evals"),
                                gradient=counted(obj.smooth.gradient, "inner.fista.grad_evals"))
            obj = CompositeObjective(smooth, obj.nonsmooth)
            return self._span(name_id, original, (obj,) + args, kwargs)
        return wrapper

    def _engine_wrapper(self, original, name_id):
        def wrapper(*args, **kwargs):
            result = self._span(name_id, original, args, kwargs)
            self._count("engine.solve.outer_iters", len(result.trace))
            return result
        return wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self, solves: range) -> dict:
        """Summed (duration, self time, calls) per span name over the given
        solve indices."""
        wanted = set(solves)
        out = {name: [0.0, 0.0, 0] for name in self.names}
        for i in range(len(self.start)):
            if self.solve_index[i] in wanted:
                agg = out[self.names[self.name_id[i]]]
                agg[0] += self.end[i] - self.start[i]
                agg[1] += self.self_time[i]
                agg[2] += 1
        return out

    def count(self, name: str, solves: range) -> int:
        return sum(self.counts.get((name, s), 0) for s in solves)

    def per_layer_metrics(self, n_solves: int, solve_seconds: float) -> dict:
        """Every PER_LAYER metric: solve layers per timed solve (solve
        indices 0..n_solves-1), set-up layers per set-up."""
        timed = range(n_solves)
        solve_tot = self.totals(timed)
        setup_tot = self.totals(range(SETUP_SOLVE, SETUP_SOLVE + 1))

        def tot(name):
            return solve_tot.get(name, [0.0, 0.0, 0])

        grad = self.count("inner.fista.grad_evals", timed)
        smooth = self.count("inner.fista.smooth_evals", timed)
        iters = self.count("engine.solve.outer_iters", timed)
        values = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if layer in SETUP_LAYERS:
                values[metric] = setup_tot.get(layer, [0.0, 0.0, 0])[0]
            elif kind == "s":
                values[metric] = tot(layer)[0] / n_solves
            elif kind == "self_s":
                values[metric] = tot(layer)[1] / n_solves
            elif kind == "calls":
                values[metric] = tot(layer)[2] / n_solves
        values["trace.solves_per_s"] = n_solves / solve_seconds
        values["inner.fista.grad_evals"] = grad / n_solves
        values["inner.fista.smooth_evals"] = smooth / n_solves
        values["inner.fista.smooth_per_grad"] = smooth / grad if grad else 0.0
        values["engine.solve.outer_iters"] = iters / n_solves
        values["engine.solve.self_us_per_iter"] = (
            1e6 * tot("engine.solve")[1] / iters if iters else 0.0)
        return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV, times in seconds from the first span."""
        with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "parent", "solve", "name", "start_s", "end_s", "self_s"])
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                writer.writerow([i, self.parent[i], self.solve_index[i],
                                 self.names[self.name_id[i]],
                                 f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}",
                                 f"{self.self_time[i]:.9f}"])
