"""Set-up once, then operations forked from the set-up state.

    python3 mfgbench/child.py WORKLOAD SPAWN_T -- <mfglab argv>

Run by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP threads
pinned to 1.  The interpreter does the CLI's set-up once (``import
mfglab.cli``, config parse and root solve) and prints ``setup_s``, measured
from ``SPAWN_T``, the parent's ``time.monotonic()`` just before the spawn
(the same system-wide clock here).

It then reads one request per line on standard input, ``OUT_DIR TRACE``.
For each it forks a process that runs ``mfglab.cli.main(argv)`` once with
``--out OUT_DIR``, starting from the set-up state just as a fresh
interpreter would, and prints that operation's result: ``run_s`` is
``mfglab.cli.main`` alone; ``peak_rss_mb`` is the operation process's
peak resident set, which holds the set-up's pages once it touches them
(below a fresh interpreter's by the pages it never touches).  Forking
spares each operation the 1.2-1.5 s of imports, so a run holds several
times more operations.  Every line of standard output is one JSON object;
the operations' own output goes to ``/dev/null``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _operation(workload: str, cfg, argv: list[str], trace: bool) -> dict:
    from mfglab import cli

    import workloads

    result: dict = {}
    cpu0 = time.process_time()
    if trace:
        import tracing

        tracer = tracing.install()
        code, run_s, other_s = tracer.run(cli.main, argv)
        result["layers"] = tracing.layer_metrics(tracer, run_s, other_s)
        result["self_time_residual"] = tracing.self_time_residual(tracer, run_s)
    else:
        t0 = time.monotonic()
        code = cli.main(argv)
        run_s = time.monotonic() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["run_s"] = run_s
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(workloads.after_run(workload, cfg))
    return result


def _fork_operation(workload: str, cfg, argv: list[str], trace: bool) -> dict:
    """Run one operation in a forked process; returns its result.

    The set-up process starts no threads (BLAS pinned to one), so it is
    safe to fork."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:  # the operation's process ends here, whatever happens
        try:
            os.close(read_fd)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            try:
                result = _operation(workload, cfg, argv, trace)
            except BaseException:  # SystemExit included; the parent counts the failure
                result = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(result))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"operation process ended with status {status} and no result"}
    return json.loads(data)


def main() -> int:
    workload, spawn_t = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    try:
        from mfglab import cli, config, master  # noqa: F401  (cli: set-up imports it)

        cfg = config.load_config(argv[argv.index("--config") + 1])
        master.solve_selected(cfg.model)
        setup_s = time.monotonic() - spawn_t

        import tracing  # noqa: F401  (imported once here, not in the operations)
        import workloads  # noqa: F401

        print(json.dumps({"setup_s": setup_s}), flush=True)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}), flush=True)
        return 1

    out_at = argv.index("--out") + 1
    for line in sys.stdin:
        out, trace = line.split()
        op_argv = [*argv[:out_at], out, *argv[out_at + 1:]]
        print(json.dumps(_fork_operation(workload, cfg, op_argv, trace == "1")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
