"""Outside-in layer tracing for one CLI invocation.

``install()`` replaces the public functions of each mfglab layer, in every
mfglab module namespace that holds them, with wrappers that record a span
per call: busy time (outermost entry of the layer), self time (busy time
minus the time covered by nested spans of other layers) and work counts
derived from the call's arguments and array shapes.  Nothing in the
program's source changes; the swap happens only in the traced process.

Byte counts are "computed": array sizes read and written once by a kernel,
ignoring cache misses and temporaries.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# layer -> (module, public functions the workloads reach)
LAYERS = {
    "rng": ("mfglab.rng", ("gaussian_block",)),
    "kernels.representative": ("mfglab._kernels", ("representative_kernel",)),
    "kernels.population": ("mfglab._kernels", ("population_kernel",)),
    "kernels.forward_field": ("mfglab._kernels", ("forward_field_kernel",)),
    "fixed_point.backward": ("mfglab.fixed_point", ("backward_field_solve",)),
    "simulate": ("mfglab.simulate", ("simulate_population", "simulate_representative",
                                     "estimate_cost")),
    "verify": ("mfglab.verify", ("verify_nash", "gateaux_slope", "flow_consistency",
                                 "y_representation_check",
                                 "lipschitz_scan", "offset_perturbation")),
    "riccati": ("mfglab.riccati", ("riccati_backward",)),
    "master": ("mfglab.master", ("solve_root_system", "select_admissible",
                                 "is_admissible")),
    "io_csv": ("mfglab.io_csv", ("write_csv", "write_text")),
}


class Tracer:
    """Span stack and per-layer accumulators for one process."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time covered by children]
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.rng_rows: set[tuple[int, int, int, int]] = set()

    def _enter(self, layer: str) -> float:
        self.depth[layer] += 1
        start = time.perf_counter()
        self.stack.append([start, 0.0])
        return start

    def _exit(self, layer: str, start: float) -> None:
        end = time.perf_counter()
        _, covered = self.stack.pop()
        duration = end - start
        self.depth[layer] -= 1
        self.calls[layer] += 1
        self.self_time[layer] += duration - covered
        if self.depth[layer] == 0:
            self.busy[layer] += duration
        if self.stack:
            self.stack[-1][1] += duration

    def wrap(self, layer: str, fn):
        signature = inspect.signature(fn)
        counter = _COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, start)
            if counter is not None:
                # counting is charged to the pseudo-layer "trace", not to
                # the caller's self time
                t0 = time.perf_counter()
                counter(self, signature.bind(*args, **kwargs).arguments, result)
                spent = time.perf_counter() - t0
                self.self_time["trace"] += spent
                if self.stack:
                    self.stack[-1][1] += spent
            return result

        return wrapper

    def run(self, fn, *args):
        """Call ``fn`` as the root span; returns (result, duration, other_s)."""
        start = self._enter("other")
        try:
            result = fn(*args)
        finally:
            self._exit("other", start)
        return result, self.busy["other"], self.self_time["other"]


def install() -> Tracer:
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if name == "mfglab" or name.startswith("mfglab.")]
    for layer, (module_name, functions) in LAYERS.items():
        module = sys.modules[module_name]
        for name in functions:
            original = getattr(module, name)
            wrapper = tracer.wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    return tracer


# ---------------------------------------------------------------------------
# work counts from call arguments
# ---------------------------------------------------------------------------


def _count_rng(tracer, a, result):
    n_rows, n_cols = a["n_rows"], a["n_cols"]
    tracer.counts["rng.normals"] += n_rows * n_cols
    tracer.counts["rng.rows"] += n_rows
    first = a["first_index"]
    tracer.rng_rows.update((a["seed"], a["stream"], first + i, n_cols)
                           for i in range(n_rows))


def _count_representative(tracer, a, result):
    noise = a["noise"]
    n_paths, n_steps = noise.shape
    tracer.counts["kernels.representative.path_steps"] += n_paths * n_steps
    tracer.counts["kernels.representative.paths"] += n_paths
    # read: noise, x0s, flow, offsets, discounts; written: costs, terminal,
    # and the kept states
    vectors = (a["x0s"].nbytes + a["mflow"].nbytes + a["off"].nbytes
               + a["disc"].nbytes + 2 * 8 * n_paths)
    kept = a["states"].nbytes if a["keep"] else 0
    tracer.counts["kernels.representative.bytes_computed"] += noise.nbytes + vectors + kept


def _count_population(tracer, a, result):
    n_particles, n_steps = a["noise"].shape
    tracer.counts["kernels.population.path_steps"] += n_particles * n_steps


def _count_forward_field(tracer, a, result):
    noise = a["noise"]
    n_particles, n_steps = noise.shape
    tracer.counts["kernels.forward_field.path_steps"] += n_particles * n_steps
    means = 8 * (n_steps + 1)
    tracer.counts["kernels.forward_field.bytes_computed"] += (
        noise.nbytes + a["u"].nbytes + a["xgrid"].nbytes + a["x0"].nbytes + means)


def _count_backward(tracer, a, result):
    tracer.counts["fixed_point.backward.grid_steps"] += (
        (a["flow"].times.size - 1) * len(a["grid"]))


def _count_csv(tracer, a, result):
    rows = a.get("rows")
    if rows is not None:
        tracer.counts["io_csv.rows"] += len(rows)
    tracer.counts["io_csv.bytes"] += os.path.getsize(a["path"])


_COUNTERS = {
    "gaussian_block": _count_rng,
    "representative_kernel": _count_representative,
    "population_kernel": _count_population,
    "forward_field_kernel": _count_forward_field,
    "backward_field_solve": _count_backward,
    "write_csv": _count_csv,
    "write_text": _count_csv,
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, run_s: float, other_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (names as in BENCHMARK.json)."""
    c, busy, calls = tracer.counts, tracer.busy, tracer.calls
    rep = "kernels.representative"
    out = {
        "rng.calls": calls["rng"],
        "rng.busy_s": busy["rng"],
        "rng.normals": c["rng.normals"],
        "rng.normals_per_s": _rate(c["rng.normals"], busy["rng"]),
        "rng.unique_share": len(tracer.rng_rows) / c["rng.rows"] if c["rng.rows"] else 0.0,
        f"{rep}.calls": calls[rep],
        f"{rep}.busy_s": busy[rep],
        f"{rep}.path_steps": c[f"{rep}.path_steps"],
        f"{rep}.path_steps_per_s": _rate(c[f"{rep}.path_steps"], busy[rep]),
        f"{rep}.paths_per_call": c[f"{rep}.paths"] / calls[rep] if calls[rep] else 0.0,
        f"{rep}.bytes_computed": c[f"{rep}.bytes_computed"],
    }
    for layer in ("kernels.population", "kernels.forward_field"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.path_steps"] = c[f"{layer}.path_steps"]
        out[f"{layer}.path_steps_per_s"] = _rate(c[f"{layer}.path_steps"], busy[layer])
    out["kernels.forward_field.bytes_computed"] = c["kernels.forward_field.bytes_computed"]
    bw = "fixed_point.backward"
    out.update({
        f"{bw}.calls": calls[bw],
        f"{bw}.busy_s": busy[bw],
        f"{bw}.grid_steps": c[f"{bw}.grid_steps"],
        f"{bw}.grid_steps_per_s": _rate(c[f"{bw}.grid_steps"], busy[bw]),
        "simulate.calls": calls["simulate"],
        "simulate.self_s": tracer.self_time["simulate"],
        "verify.self_s": tracer.self_time["verify"],
        "riccati.busy_s": busy["riccati"],
        "master.busy_s": busy["master"],
        "io_csv.calls": calls["io_csv"],
        "io_csv.rows": c["io_csv.rows"],
        "io_csv.bytes": c["io_csv.bytes"],
        "io_csv.busy_s": busy["io_csv"],
        "trace.run_s": run_s,
        "trace.other_s": other_s,
    })
    return out


def self_time_residual(tracer: Tracer, run_s: float) -> float:
    """Per-layer self times (``other`` included) minus the traced run time.

    Zero up to rounding when every span nests properly; a double-wrapped or
    overlapping layer shows up here or as a negative self time.
    """
    if min(tracer.self_time.values()) < -1e-9:
        return float("inf")
    return sum(tracer.self_time.values()) - run_s
