"""Record a performance comparison against a parent revision as a BENCH file.

    python3 benchmarks/record.py PARENT_REV LABEL

Run from the root of a source checkout.  PARENT_REV is exported with
``git archive`` into a temporary directory, which is removed when the
script ends, also on failure.  For each pair i and each workload of
``BENCHMARK.json`` the script runs

    python3 mfgbench/run.py --workload W --seed SEEDS[i] --seconds 55 --trace 0

once from the parent's root and once from this checkout's root (each with
its own ``src`` and ``mfgbench``), the parent first in even pairs and
second in odd ones.  It writes ``BENCH_<LABEL>.json`` holding mfgbench's
``machine`` line of each side (its ``source_sha256`` names the source each
side ran, committed or not), with ``git_revision`` set to PARENT_REV's
commit on the parent side and to HEAD on the change side, suffixed
``+uncommitted`` when ``git status --porcelain -- src`` lists changes;
each side's ``kernels_backend``, the ``mfglab._kernels.BACKEND`` a fresh
interpreter loads from that side's ``src`` ("numpy" where the attribute is
absent), read before the first pair, so that a compiled kernel is built
before any run is timed; every run's end-to-end metrics and
``fail_share``, the per-pair change/parent ratios, each side's median
and quartiles, and how many pairs the change wins on each metric (ties
count for neither side).  Before the first pair it runs the tier-1 suite,

    python3 -m pytest -q --durations=10

once in each side's root with that side's ``src`` on ``PYTHONPATH``, and
stores each side's wall time, exit code, count of each outcome (passed,
failed, error, skipped, ...) and ten slowest test phases under ``tier1``.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
PAIRS = 10
SEEDS = tuple(range(501, 501 + PAIRS))
SECONDS = 55
RUN_TIMEOUT_S = 400  # mfgbench ends a run within 180 s
TIER1_TIMEOUT_S = 1800
# pytest's summary counts ("467 passed, 2 skipped in 93.12s") and its
# durations lines ("13.61s call     tests/test_acceptance.py::test_x")
_OUTCOME = re.compile(r"(\d+) (passed|failed|error|skipped|xfailed|xpassed|deselected)s?\b")
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S.*)$")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(root: str, workload: str, seed: int) -> dict:
    """One mfgbench run from ``root``: its machine line, metrics and fail share."""
    cmd = [sys.executable, "mfgbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return {
        "machine": machine,
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "fail_share": result["failed"] / result["attempted"],
    }


def tier1(root: str) -> dict:
    """One tier-1 run from ``root``: its wall time, outcome counts and ten
    slowest test phases."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--durations=10"]
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=TIER1_TIMEOUT_S)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    summary = lines[-1] if lines else ""
    counts = {name: int(n) for n, name in _OUTCOME.findall(summary)}
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(_DURATION.match, lines) if m]
    return {"wall_s": wall_s, "exit_code": proc.returncode, "counts": counts,
            "slowest": slowest}


def kernels_backend(root: str) -> str:
    """``mfglab._kernels.BACKEND`` as a fresh interpreter loads it from
    ``root``'s ``src``; "numpy" for a source without the attribute."""
    code = "from mfglab import _kernels; print(getattr(_kernels, 'BACKEND', 'numpy'))"
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-pair ratios, each side's median and quartiles, and the change's wins."""
    out = {}
    for name, direction in better.items():
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1.0 if direction == "lower" else -1.0
        out[name] = {
            "ratios": [c / p if p else None for p, c in zip(parent, change)],
            "parent": spread(parent),
            "change": spread(change),
            "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            "pairs": len(runs),
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_rev, label = argv
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    parent_sha = git("rev-parse", "--verify", f"{parent_rev}^{{commit}}")
    # the parent's export has no .git, and the change side may run from an
    # uncommitted checkout: mfgbench's own git_revision tells neither
    change_rev = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--", "src"):
        change_rev += "+uncommitted"

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_root], input=archive, check=True)
        roots = {"parent": parent_root, "change": ROOT}
        backends = {side: kernels_backend(root) for side, root in roots.items()}
        print(f"kernels backend: parent {backends['parent']}, change {backends['change']}",
              flush=True)
        tier1_runs = {}
        for side, root in roots.items():
            tier1_runs[side] = tier1(root)
            print(f"tier-1 {side}: {tier1_runs[side]['counts']} in "
                  f"{tier1_runs[side]['wall_s']:.1f} s", flush=True)
        runs = {w: [] for w in workloads}
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(roots[side], w, seed)
                    print(f"pair {i} {w} {side}: run_s "
                          f"{pair[side]['metrics']['run_s']:.3f}", flush=True)
                runs[w].append(pair)

    first = runs[workloads[0]][0]
    record = {
        "label": label,
        "parent_rev": parent_sha,
        "command": f"mfgbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "machine": {"parent": {**first["parent"]["machine"], "git_revision": parent_sha,
                               "kernels_backend": backends["parent"]},
                    "change": {**first["change"]["machine"], "git_revision": change_rev,
                               "kernels_backend": backends["change"]}},
        "tier1": tier1_runs,
        "workloads": {},
    }
    for w in workloads:
        for pair in runs[w]:
            for side in roots:
                del pair[side]["machine"]
        record["workloads"][w] = {"runs": runs[w], "summary": summarise(runs[w], better)}
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w in workloads:
        s = record["workloads"][w]["summary"]["run_s"]
        print(f"{w} run_s: parent {s['parent']['median']:.3f} s, change "
              f"{s['change']['median']:.3f} s, change faster in {s['wins']} of {s['pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
