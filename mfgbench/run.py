"""mfglab benchmark: drive the CLI on generated configs, check every output
against closed forms, and report end-to-end or per-layer metrics.

    python3 mfgbench/run.py --workload crn-verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Load model: a batch tool, so a closed loop with one client.  A
set-up is a fresh single-threaded interpreter that imports ``mfglab.cli``,
parses the config and solves the root (``child.py``).  An operation is one
CLI invocation, forked from a set-up so that it starts where a fresh
interpreter's invocation would.  A set-up serves operations for a quarter
of ``--seconds`` and is then replaced, so a run holds ``SETUPS`` set-ups;
operations repeat until ``--seconds`` is spent (at least ``MIN_OPS``).

``setup_s`` is the median over the run's set-ups.  ``run_s`` is the
fastest operation's: an operation's work is fixed by its config, so only
other tenants of a shared host stretch its time, and on a 2-vCPU VM they
stretch compute-bound code by up to 1.7x for seconds to minutes at a
time.  The median over a run swings with how much of the run such a spell
covers; the minimum over many short operations does not, unless the
spell covers the whole run.  Medians are printed alongside.

``--trace 0`` reports ``setup_s``, ``run_s``, ``path_steps_per_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics of the traced ones (see ``tracing.py``)
plus the tracing overhead.  Both print the machine record and each
workload's largest array against the L3 cache before the result, whose
last line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  An operation fails on a nonzero exit code, an exception or a
failed oracle check; ``fail_share`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 3  # untraced operations per run, and as many traced ones with --trace 1
SETUPS = 4  # set-ups per run: each serves operations for seconds / SETUPS
DEADLINE_S = 170.0  # a run, hung operations included, ends within 180 s
WORK_DIR = ".bench_work"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _cache_size(index: int) -> str | None:
    path = f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(size: str) -> int:
    """Bytes of a sysfs cache size such as ``107520K``."""
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
    return int(size.rstrip("KMG")) * scale


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "mfglab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _git_revision(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def machine(root: str, env: dict) -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        backend = "numba"
    except ImportError:
        backend = "numpy"
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "threads": {k: env[k] for k in PINNED_THREADS},
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root),
    }


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in PINNED_THREADS})
    return env


class SetUp:
    """One ``child.py`` interpreter: its set-up, then operations on request."""

    def __init__(self, w, seed: int, root: str, env: dict, index: int, timeout: float):
        self.dir = os.path.join(root, WORK_DIR, f"{w.name}-{os.getpid()}-{index}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        cfg_path = os.path.join(self.dir, "run.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(w.config_text(seed))
        argv = [w.argv[0], "--config", cfg_path, "--out", self.dir, *w.argv[1:]]
        cmd = [sys.executable, os.path.join(HERE, "child.py"), w.name,
               repr(time.monotonic()), "--", *argv]
        self.stderr = open(os.path.join(self.dir, "stderr.txt"), "w+", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr,
                                     start_new_session=True)
        self.pending = b""
        self.started = time.monotonic()
        self.ops = 0
        self.setup = self._read(timeout)

    def _read(self, timeout: float) -> dict:
        """The child's next JSON line, or an ``error`` result."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.pending:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return {"error": f"timed out after {timeout:.0f} s"}
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.stderr.seek(0)
                return {"error": self.stderr.read()[-2000:]
                        or f"child exit {self.proc.wait()}"}
            self.pending += chunk
        line, self.pending = self.pending.split(b"\n", 1)
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            return {"error": f"unparseable child output: {exc}"}

    def operation(self, w, traced: bool, timeout: float) -> dict:
        """One CLI invocation; returns the child's result plus oracle verdicts."""
        out = os.path.join(self.dir, f"op-{self.ops}")
        self.ops += 1
        os.makedirs(out)
        start = time.monotonic()
        try:
            self.proc.stdin.write(f"{out} {int(traced)}\n".encode())
            self.proc.stdin.flush()
            result = self._read(timeout)
        except BrokenPipeError:
            result = {"error": f"child exit {self.proc.wait()}"}
        result["wall_s"] = time.monotonic() - start
        result["traced"] = traced
        check_operation(w, out, result)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def close(self, kill: bool = False) -> None:
        """End the child, and an operation it may still run, and wait for it.

        ``kill`` skips the wait for a clean exit, after a hung operation."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        if not kill:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def check_operation(w, out: str, result: dict) -> None:
    """Add the oracle verdicts, and for a traced operation the tracing
    self-checks, to ``result["failures"]``."""
    result["failures"] = workloads.check(w, out, result)
    result.setdefault("iterations", 0)
    if "layers" in result:
        traced = sum(result["layers"][f"{k}.path_steps"] for k in
                     ("kernels.representative", "kernels.population", "kernels.forward_field"))
        expected = workloads.path_steps(w, result["iterations"])
        if traced != expected:
            result["failures"].append(f"traced path-steps {traced:.0f} != {expected}")
        if not abs(result["self_time_residual"]) <= 1e-6 * max(result["run_s"], 1.0):
            result["failures"].append(
                f"self times do not sum to the traced run_s: residual "
                f"{result['self_time_residual']!r}")


def _values(ops: list[dict], key) -> list[float]:
    values = [key(o) for o in ops]
    if not values:
        raise RuntimeError("no operation completed; nothing to report")
    return values


def _median(ops: list[dict], key) -> float:
    return statistics.median(_values(ops, key))


def _end_to_end_metrics(w, ops: list[dict], setups: list[float]) -> dict[str, float]:
    done = [o for o in ops if "run_s" in o]
    print(f"run_s: median {_median(done, lambda o: o['run_s'])!r} s over {len(done)} "
          f"operations, fastest reported; setup_s: median over {len(setups)} set-ups")
    return {
        "setup_s": statistics.median(setups),
        "run_s": min(_values(done, lambda o: o["run_s"])),
        "path_steps_per_s": max(_values(
            done, lambda o: workloads.path_steps(w, o["iterations"]) / o["run_s"])),
        "peak_rss_mb": _median(done, lambda o: o["peak_rss_mb"]),
    }


def _layer_metrics(ops: list[dict], fail_share: float) -> dict[str, float]:
    traced = [o for o in ops if "layers" in o]
    plain = [o for o in ops if "run_s" in o and not o["traced"]]
    if not traced:
        raise RuntimeError("no traced operation completed; nothing to report")
    metrics = {k: _median(traced, lambda o: o["layers"][k]) for k in traced[0]["layers"]}
    metrics["process.cpu_s"] = _median(traced, lambda o: o["cpu_s"])
    metrics["trace.overhead_share"] = (min(_values(traced, lambda o: o["layers"]["trace.run_s"]))
                                       / min(_values(plain, lambda o: o["run_s"])) - 1.0)
    metrics["fixed_point.iterations"] = _median(traced, lambda o: o["iterations"])
    metrics["fixed_point.final_delta"] = _median(traced, lambda o: o.get("final_delta", 0.0))
    metrics["fail_share"] = fail_share
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        scale: float = 1.0, min_ops: int = MIN_OPS) -> dict:
    """Run the workload for ``seconds``; returns the result object."""
    w = workloads.make(name, scale)
    env = child_env(root)
    info = machine(root, env)
    print("machine " + json.dumps(info, sort_keys=True))
    desc, nbytes = workloads.largest_array(w)
    l3 = info["l3"]
    versus = f"{nbytes / _size_bytes(l3):.2f}x L3 ({l3})" if l3 else "L3 unknown"
    print(f"largest array: {desc} float64 = {nbytes / 2**20:.1f} MiB, {versus}")

    ops: list[dict] = []
    setups: list[float] = []
    setup = None
    t_start = time.monotonic()
    try:
        while True:
            if setup is None:
                setup = SetUp(w, seed, root, env, len(setups),
                              max(1.0, t_start + DEADLINE_S - time.monotonic()))
                if "setup_s" not in setup.setup:
                    error = setup.setup.get("error", "").strip()[-300:]
                    print(f"set-up {len(setups) + 1} FAIL {error}")
                    ops.append({"failures": [f"set-up failed: {error}"], "traced": False})
                    setup.close(kill=True)
                    setup = None
                    break
                setups.append(setup.setup["setup_s"])
                print(f"set-up {len(setups)} {setups[-1]:.3f}s")
            traced = trace and len(ops) % 2 == 1
            op = setup.operation(w, traced, max(1.0, t_start + DEADLINE_S - time.monotonic()))
            ops.append(op)
            status = "FAIL " + "; ".join(op["failures"]) if op["failures"] else "ok"
            print(f"op {len(ops)} traced={int(traced)} run {op.get('run_s', 0):.3f}s "
                  f"rss {op.get('peak_rss_mb', 0):.0f}MB {status}")
            if "error" in op or time.monotonic() - setup.started >= seconds / SETUPS:
                setup.close(kill="error" in op)
                setup = None
            elapsed = time.monotonic() - t_start
            median_wall = statistics.median(o["wall_s"] for o in ops)
            enough = len(ops) >= (2 if trace else 1) * min_ops
            if elapsed >= DEADLINE_S or (enough and elapsed + median_wall > seconds):
                break
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)

    failed = sum(1 for o in ops if o["failures"])
    if trace:
        units = metric_units("per_layer")
        metrics = _layer_metrics(ops, failed / len(ops))
    else:
        units = metric_units("end_to_end")
        metrics = _end_to_end_metrics(w, ops, setups)
    for k, unit in units.items():
        print(f"{k} = {metrics[k]!r} {unit}")
    replay = [o["replay_deviation"] for o in ops if "replay_deviation" in o]
    if replay:
        print(f"replay deviation = {max(replay)!r}")
    print(f"fail_share = {failed / len(ops)!r} ({failed} of {len(ops)} operations)")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mfglab", "cli.py")):
        print("error: run from the root of an mfglab checkout (src/mfglab not found)",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
