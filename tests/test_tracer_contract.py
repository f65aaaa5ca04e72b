"""The benchmark's tracer (mfgbench/tracing.py) wraps these functions and
reads their arguments by name; renaming one fails every traced operation
with a KeyError.  Its ``install()`` looks up every function of
``tracing.LAYERS``, and ``workloads.after_run`` calls
``simulate_representative`` by keyword."""

import importlib
import inspect
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from mfgbench import tracing, workloads  # noqa: E402
from mfglab import _kernels, fixed_point, io_csv, rng, simulate  # noqa: E402
from mfglab.config import parse_config  # noqa: E402

TRACED = [
    (rng.gaussian_block, ("seed", "stream", "first_index", "n_rows", "n_cols")),
    (_kernels.population_kernel, ("states", "noise", "off")),
    (_kernels.representative_kernel, ("x0s", "mflow", "off", "noise", "disc",
                                      "states", "keep")),
    (_kernels.forward_field_kernel, ("x0", "u", "xgrid", "noise")),
    (fixed_point.backward_field_solve, ("flow", "grid")),
    (io_csv.write_csv, ("path", "rows")),
    (io_csv.write_text, ("path",)),
]


def test_traced_functions_keep_their_parameter_names():
    for fn, names in TRACED:
        assert set(names) <= set(inspect.signature(fn).parameters), fn.__name__


def test_every_traced_layer_function_exists():
    for layer, (module_name, functions) in tracing.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}: {module_name}.{name}"


def test_after_run_binds_to_simulate_representative(monkeypatch):
    real = simulate.simulate_representative
    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_representative", spy)
    cfg = parse_config("\n".join(f"model.{k} = {v}" for k, v in workloads.EXAMPLE_MODEL.items())
                       + "\nsim.T = 0.1\nsim.dt = 0.01\nsim.nPaths = 8\n")
    values = workloads.after_run("crn-verify", cfg)
    assert len(calls) == 1
    assert set(values["base_cost"]) == {"mean", "se", "tail"}


def test_traced_verify_sees_every_check_call(tmp_path):
    # the tracer wraps functions in module namespaces only: a check that
    # held a traced function object itself (in the check table, say) would
    # run unseen, and these counts would drop
    from mfglab.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(f"model.{k} = {v}" for k, v in workloads.EXAMPLE_MODEL.items())
                   + "\nlaw0.kind = dirac\nlaw0.x0 = 1\nsim.T = 0.1\nsim.dt = 0.02\n"
                   "sim.nPaths = 8\nsim.nParticles = 4\nsim.seed = 3\n")
    names = [n for n in sys.modules if n == "mfglab" or n.startswith("mfglab.")]
    saved = {n: dict(vars(sys.modules[n])) for n in names}
    try:
        tracer = tracing.install()
        main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--checks", "nash,gateaux,consistency,representation,lipschitz"])
    finally:
        for n, namespace in saved.items():
            vars(sys.modules[n]).update(namespace)
    # paths this few may fail the statistical checks; the counts still hold
    assert len((tmp_path / "out" / "summary.txt").read_text().splitlines()) == 5
    # verify: nash's 3 offsets, consistency, representation and lipschitz
    # (the paired legs of nash and gateaux are simulated by run_checks);
    # simulate: the base cost, the replay's population and representative
    # paths, and the representation's population
    assert (tracer.calls["verify"], tracer.calls["simulate"], tracer.calls["riccati"]) == (6, 4, 1)
