"""Fuzz ``main()``: no config may leave the documented exit codes or print
a traceback.

Each example starts from a valid tiny config, sets one to three keys (or
the ``--seed`` flag) to a value drawn from nan, +-inf, 0, -1, 1e-300,
+-1e300, 2**64, a non-number and a valid value, and runs one of ``check``,
``solve``, ``simulate``, ``fixed-point`` and ``verify`` with all six checks.
Its ``--out`` is a fresh directory, an existing file or a path under a file;
the last two cannot be written and must end in a config error, not a
traceback.

A config may still ask for more particles times steps than can be
allocated: a step count is bounded only by 2**53, and an allocation that
large may succeed lazily and then exhaust the machine.  So a size key
(sim.T, sim.dt, sim.nPaths, sim.nParticles, fixedPoint.maxIter and the
grid's xLo, xHi and dx) set to a huge or tiny value runs only under
``check`` and ``solve``, which allocate nothing of that size, and no
example allocates more than about 1 MB.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mfglab.cli import VERIFY_CHECKS, main

TINY = {
    "model.r": "2", "model.b1": "0", "model.b2": "0", "model.b3": "2",
    "model.b4": "0", "model.A": "2", "model.C": "1",
    "sim.T": "0.1", "sim.dt": "0.01", "sim.nPaths": "8", "sim.nParticles": "8",
    "sim.seed": "7",
    "fixedPoint.damping": "0.5", "fixedPoint.tol": "0.1", "fixedPoint.maxIter": "3",
    "fixedPoint.xLo": "-2", "fixedPoint.xHi": "2", "fixedPoint.dx": "0.5",
}
# a second valid value of every key the fuzz sets
VALID = {
    "model.r": "1", "model.b1": "-0.1", "model.b2": "0.5", "model.b3": "-1",
    "model.b4": "0.5", "model.A": "0.5", "model.C": "3",
    "law0.kind": "gaussian", "law0.x0": "-1", "law0.mean": "1", "law0.sd": "0.5",
    "sim.T": "0.2", "sim.dt": "0.02", "sim.nPaths": "16", "sim.nParticles": "4",
    "sim.seed": "123", "--seed": "0",
    "fixedPoint.damping": "1", "fixedPoint.tol": "0.01", "fixedPoint.maxIter": "5",
    "fixedPoint.xLo": "-3", "fixedPoint.xHi": "3", "fixedPoint.dx": "0.25",
}
HUGE = ["1e-300", "1e300", "-1e300", str(2**64)]
VALUES = ["nan", "inf", "-inf", "0", "-1", *HUGE, "two"]
SIZE_KEYS = {"sim.T", "sim.dt", "sim.nPaths", "sim.nParticles", "fixedPoint.maxIter",
             "fixedPoint.xLo", "fixedPoint.xHi", "fixedPoint.dx"}
COMMANDS = ["check", "solve", "simulate", "fixed-point", "verify"]
# --out: a fresh directory, an existing file, a path under that file
OUTS = {"dir": "fresh", "file": "taken", "under-file": os.path.join("taken", "sub")}
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}


@st.composite
def cases(draw):
    keys = draw(st.permutations(sorted(VALID)))[:draw(st.integers(1, 3))]
    values = {k: draw(st.sampled_from([*VALUES, VALID[k]])) for k in keys}
    values["--out"] = draw(st.sampled_from(sorted(OUTS)))
    large = any(k in SIZE_KEYS and v in HUGE for k, v in values.items())
    return draw(st.sampled_from(COMMANDS[:2] if large else COMMANDS)), values


@given(cases())
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@example(("fixed-point", {"fixedPoint.xLo": "nan"}))
@example(("fixed-point", {"fixedPoint.dx": "nan"}))
@example(("fixed-point", {"fixedPoint.xHi": "inf"}))
@example(("check", {"fixedPoint.xHi": "-inf"}))
@example(("fixed-point", {"fixedPoint.tol": "nan"}))
@example(("fixed-point", {"law0.x0": "nan"}))
@example(("fixed-point", {"law0.kind": "gaussian", "law0.mean": "inf"}))
@example(("simulate", {"law0.kind": "gaussian", "law0.sd": "nan"}))
@example(("simulate", {"law0.mean": "3", "law0.sd": "2"}))
@example(("simulate", {"law0.kind": "gaussian", "law0.x0": "1"}))
@example(("fixed-point", {"fixedPoint.xLo": "-4", "fixedPoint.xHi": "4.05",
                          "fixedPoint.dx": "0.1"}))
@example(("verify", {"--seed": "-1"}))
@example(("verify", {"sim.seed": str(2**64)}))
@example(("verify", {"model.b3": "1e-300"}))
@example(("verify", {"model.r": "1e18"}))
@example(("verify", {"model.b2": "1e18"}))
@example(("verify", {"model.C": "1e18"}))
@example(("verify", {"model.r": "1e300"}))
@example(("solve", {"sim.dt": "1e-300"}))
@example(("simulate", {"--out": "file"}))
@example(("simulate", {"--out": "under-file"}))
def test_main_exits_with_a_documented_code_and_no_traceback(case):
    command, values = case
    settings_ = {**TINY, **{k: v for k, v in values.items() if not k.startswith("--")}}
    flags = ["--seed", values["--seed"]] if "--seed" in values else []
    if command == "verify":
        flags += ["--checks", ",".join(VERIFY_CHECKS)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "taken"), "w") as fh:
            fh.write("not a directory\n")
        flags += ["--out", os.path.join(tmp, OUTS[values.get("--out", "dir")])]
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in settings_.items())
                     + f"output = {os.path.join(tmp, 'out')}\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", path, *flags])
            except SystemExit as exc:  # argparse's usage error, e.g. "--seed -inf"
                code = exc.code
    event(f"{command} exit {code}")
    assert code in DOCUMENTED_EXITS, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
