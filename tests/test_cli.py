import csv
import math
import os

import pytest

from mfglab import cli
from mfglab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_ROOTS,
    main,
)

BASE = """
model.r = 2
model.b1 = 0
model.b2 = 0
model.b3 = 2
model.b4 = 0
model.A = 2
model.C = 1
law0.kind = dirac
law0.x0 = 1
sim.T = 2
sim.dt = 0.002
sim.nPaths = 500
sim.nParticles = 400
sim.seed = 7
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE + f"output = {tmp_path / 'out'}\n")
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_cfg(tmp_path, overrides):
    """BASE with ``overrides`` replacing or adding keys; returns the path."""
    kept = [line for line in BASE.splitlines() if line.split(" =")[0] not in overrides]
    p = tmp_path / "run.cfg"
    p.write_text("\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()])
                 + f"\noutput = {tmp_path / 'out'}\n")
    return str(p)


def test_check_exits_zero(cfg_path, capsys):
    assert main(["check", "--config", cfg_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_failed_check_has_its_own_exit_code(tmp_path, capsys):
    # A = 0.1 breaks the structural gap: a verdict on a valid config, not a
    # config error
    path = write_cfg(tmp_path, {"model.A": "0.1"})
    assert main(["check", "--config", path]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "structural check : FAIL" in captured.out
    assert captured.err == ""


def test_solve_writes_roots(cfg_path, tmp_path):
    assert main(["solve", "--config", cfg_path]) == EXIT_OK
    rows = read_csv(tmp_path / "out" / "roots.csv")
    assert rows[0] == ["a1", "a2", "a3", "a4", "cx", "cm", "admissible"]
    assert len(rows) == 5
    assert sum(1 for r in rows[1:] if r[6] == "1") == 1
    selected = read_csv(tmp_path / "out" / "selected.csv")
    assert float(selected[1][0]) == 0.5


def test_solve_output_is_deterministic(cfg_path, tmp_path):
    assert main(["solve", "--config", cfg_path]) == EXIT_OK
    first = (tmp_path / "out" / "roots.csv").read_bytes()
    assert main(["solve", "--config", cfg_path]) == EXIT_OK
    assert (tmp_path / "out" / "roots.csv").read_bytes() == first


def test_simulate_writes_flow_and_cost(cfg_path, tmp_path):
    assert main(["simulate", "--config", cfg_path]) == EXIT_OK
    flow = read_csv(tmp_path / "out" / "flow.csv")
    assert flow[0] == ["t", "mean", "var", "q05", "q95"]
    assert float(flow[1][1]) == 1.0  # dirac start
    cost = read_csv(tmp_path / "out" / "cost.csv")
    assert cost[0] == ["mean", "stderr", "ci_lo", "ci_hi", "tail_bound"]
    assert 0.5 < float(cost[1][0]) < 1.0


def test_fixed_point_writes_outputs(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        BASE
        + f"output = {tmp_path / 'out'}\n"
        + "fixedPoint.damping = 1.0\nfixedPoint.tol = 0.01\nfixedPoint.maxIter = 20\n"
    )
    assert main(["fixed-point", "--config", str(p)]) == EXIT_OK
    for name in ("flow_iterations.csv", "final_flow.csv", "field.csv"):
        assert (tmp_path / "out" / name).exists()


def test_fixed_point_nonconvergence_exit_code(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        BASE
        + f"output = {tmp_path / 'out'}\n"
        + "fixedPoint.damping = 0.5\nfixedPoint.tol = 1e-15\nfixedPoint.maxIter = 2\n"
    )
    assert main(["fixed-point", "--config", str(p)]) == EXIT_NO_CONVERGENCE


def test_verify_subset(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text(BASE + f"output = {tmp_path / 'out'}\n")
    code = main(["verify", "--config", str(p), "--checks", "consistency,lipschitz"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS consistency" in out and "PASS lipschitz" in out
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert summary.count("PASS") == 2


def test_verify_runs_checks_in_table_order_once(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text(BASE + f"output = {tmp_path / 'out'}\n")
    code = main(["verify", "--config", str(p),
                 "--checks", "lipschitz,consistency,lipschitz"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["PASS consistency", "PASS lipschitz"]
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert summary == out
    for name in ("consistency", "lipschitz"):
        assert (tmp_path / "out" / f"{name}.csv").exists()


def test_verify_unknown_check_is_config_error(cfg_path):
    assert main(["verify", "--config", cfg_path, "--checks", "nope"]) == EXIT_CONFIG


def test_verify_empty_checks_is_config_error(cfg_path):
    assert main(["verify", "--config", cfg_path, "--checks", ""]) == EXIT_CONFIG


def test_nash_and_gateaux_legs_are_equal_feedbacks(cfg_path, monkeypatch):
    # the Nash offsets 0.25, 0.5, 1 and the Gateaux steps eps * 1 are the
    # same three legs, and feedbacks are values that say so
    from mfglab import verify

    real = verify._paired_legs
    seen = []

    def spy(model, U, feedbacks, mc, m0):
        seen.append(list(feedbacks))
        return real(model, U, feedbacks, mc, m0)

    monkeypatch.setattr(verify, "_paired_legs", spy)
    assert main(["verify", "--config", cfg_path, "--checks", "nash,gateaux"]) == EXIT_OK
    nash, gateaux = seen
    assert len(nash) == len(gateaux) == 3
    assert set(nash) == set(gateaux)


def test_unknown_key_exit_code(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text(BASE + "model.b5 = 1\n")
    assert main(["solve", "--config", str(p)]) == EXIT_CONFIG
    assert "model.b5" in capsys.readouterr().err


def test_invalid_model_exit_code(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE.replace("model.b3 = 2", "model.b3 = 0"))
    assert main(["solve", "--config", str(p)]) == EXIT_CONFIG


def test_root_selection_failure_exit_code(tmp_path):
    # strong mean coupling with a negative cross cost destabilizes every
    # candidate, so selection finds no admissible root
    text = BASE.replace("model.b2 = 0", "model.b2 = 3").replace(
        "model.b4 = 0", "model.b4 = -6"
    )
    p = tmp_path / "run.cfg"
    p.write_text(text + f"output = {tmp_path / 'out'}\n")
    assert main(["solve", "--config", str(p)]) == EXIT_ROOTS


def test_solve_selects_the_small_root_when_the_discriminant_overflows(tmp_path):
    # at r = 1e300 the a1 quadratic 4 a1^2 + r a1 - 2 = 0 overflows b*b; its
    # roots are about A/r = 2e-300 (selected) and -r/4 = -2.5e299
    p = tmp_path / "run.cfg"
    p.write_text(BASE.replace("model.r = 2", "model.r = 1e300")
                 + f"output = {tmp_path / 'out'}\n")
    assert main(["solve", "--config", str(p)]) == EXIT_OK
    selected = read_csv(tmp_path / "out" / "selected.csv")
    assert float(selected[1][0]) == pytest.approx(2e-300, rel=1e-15)
    roots = read_csv(tmp_path / "out" / "roots.csv")[1:]
    assert sorted(float(r[0]) for r in roots) == pytest.approx(
        [-2.5e299, -2.5e299, 2e-300, 2e-300], rel=1e-15)
    assert not any(v == "nan" for r in roots for v in r)


def test_solve_with_overflowing_coefficients_exits_roots(tmp_path, capsys):
    # r - 2*b1 = 3e308 is beyond the double range: no root can be computed
    p = tmp_path / "run.cfg"
    p.write_text(BASE.replace("model.r = 2", "model.r = 1e308")
                 .replace("model.b1 = 0", "model.b1 = -1e308")
                 + f"output = {tmp_path / 'out'}\n")
    assert main(["solve", "--config", str(p)]) == EXIT_ROOTS
    err = capsys.readouterr().err
    assert "beyond the double range" in err and "Traceback" not in err


def test_seed_override_changes_costs(cfg_path, tmp_path):
    assert main(["simulate", "--config", cfg_path, "--seed", "1"]) == EXIT_OK
    first = read_csv(tmp_path / "out" / "cost.csv")
    assert main(["simulate", "--config", cfg_path, "--seed", "2"]) == EXIT_OK
    second = read_csv(tmp_path / "out" / "cost.csv")
    assert first[1][0] != second[1][0]


def test_out_override(tmp_path, cfg_path):
    alt = tmp_path / "alt"
    assert main(["solve", "--config", cfg_path, "--out", str(alt)]) == EXIT_OK
    assert (alt / "roots.csv").exists()


def test_missing_config_file_exit_code():
    assert main(["solve", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG


@pytest.mark.parametrize("command, overrides", [
    ("fixed-point", {"fixedPoint.damping": "2"}),
    ("fixed-point", {"sim.nParticles": "1"}),
    ("fixed-point", {"fixedPoint.xLo": "0", "fixedPoint.xHi": "0.1"}),
    ("simulate", {"sim.nPaths": "1"}),
    ("simulate", {"sim.T": "0.001"}),
    ("simulate", {"law0.kind": "gaussian", "law0.sd": "-1"}),
    ("simulate", {"sim.T": "0.5", "sim.dt": "0.3"}),
    ("solve", {"model.b1": "nan"}),
    ("solve", {"model.A": "inf"}),
    ("simulate", {"model.b4": "-inf"}),
    ("simulate", {"sim.T": "inf"}),
    ("simulate", {"sim.dt": "nan"}),
    ("fixed-point", {"fixedPoint.xLo": "nan"}),
    ("fixed-point", {"fixedPoint.dx": "nan"}),
    ("fixed-point", {"fixedPoint.xHi": "inf"}),
    ("fixed-point", {"fixedPoint.xHi": "-inf"}),
    ("check", {"fixedPoint.xLo": "nan"}),
    ("solve", {"fixedPoint.xHi": "inf"}),
    ("fixed-point", {"fixedPoint.tol": "nan"}),
    ("fixed-point", {"law0.x0": "nan"}),
    ("fixed-point", {"law0.kind": "gaussian", "law0.mean": "inf"}),
    ("fixed-point", {"law0.kind": "gaussian", "law0.mean": "-inf"}),
    ("simulate", {"law0.kind": "gaussian", "law0.sd": "nan"}),
    ("simulate", {"law0.mean": "3", "law0.sd": "2"}),
    ("simulate", {"law0.kind": "gaussian"}),
    ("fixed-point", {"fixedPoint.xLo": "-4", "fixedPoint.xHi": "4.05", "fixedPoint.dx": "0.1"}),
    ("verify", {"sim.seed": "-1"}),
    ("verify", {"sim.seed": str(2**64)}),
    ("solve", {"model.b3": "1e-300"}),
    ("simulate", {"model.b3": "1e-300"}),
    ("fixed-point", {"model.b3": "1e-300"}),
    ("verify", {"model.b3": "1e-300"}),
], ids=["damping", "one-particle", "coarse-grid", "one-path", "T-below-dt", "negative-sd",
        "T-not-whole-steps", "nan-b1", "inf-A", "minus-inf-b4", "inf-T", "nan-dt",
        "nan-xLo", "nan-dx", "inf-xHi", "minus-inf-xHi", "check-nan-xLo", "solve-inf-xHi",
        "nan-tol", "nan-x0", "inf-mean", "minus-inf-mean", "nan-sd", "gaussian-keys-on-dirac",
        "dirac-key-on-gaussian", "grid-not-whole-steps", "negative-seed", "seed-2**64",
        "solve-tiny-b3", "simulate-tiny-b3", "fixed-point-tiny-b3", "verify-tiny-b3"])
def test_invalid_values_exit_config_without_traceback(tmp_path, capsys, command, overrides):
    assert main([command, "--config", write_cfg(tmp_path, overrides)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error" in err
    assert "Traceback" not in err


def test_verify_check_horizons_are_whole_steps(tmp_path, monkeypatch):
    # at dt = 0.003 neither the consistency cap 2.0 nor the representation
    # floor 4.0 is a whole number of steps: the checks must run on the
    # nearest whole-step horizons inside those limits (1.998 and 4.002)
    from mfglab import verify

    seen = {}

    def recording(name, fn, t_at):
        def wrapper(*args):
            seen[name] = (args[t_at], args[t_at + 1])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verify, "flow_consistency",
                        recording("consistency", verify.flow_consistency, 5))
    monkeypatch.setattr(verify, "simulate_population",
                        recording("representation", verify.simulate_population, 4))
    overrides = {"sim.T": "3", "sim.dt": "0.003", "sim.nParticles": "20"}
    assert main(["verify", "--config", write_cfg(tmp_path, overrides),
                 "--checks", "consistency,representation"]) == EXIT_OK
    for name, lo, hi in (("consistency", 2.0 - 0.003, 2.0),
                         ("representation", 4.0, 4.0 + 0.003)):
        T, dt = seen[name]
        steps = T / dt
        assert abs(steps - round(steps)) <= 1e-9 * steps, name
        assert lo - 1e-12 < T <= hi + 1e-12, name


@pytest.mark.parametrize("seed", ["-1", str(2**64), "nan", "1.5"])
def test_seed_flag_obeys_the_sim_seed_rules(cfg_path, capsys, seed):
    # --seed goes through the config's value parser: -1 used to escape as
    # Philox's ValueError and 2**64 to alias seed 0
    assert main(["verify", "--config", cfg_path, "--checks", "lipschitz",
                 "--seed", seed]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sim.seed" in err and "Traceback" not in err


def test_flags_accept_what_the_file_accepts(cfg_path, tmp_path, capsys):
    alt = tmp_path / "alt"
    assert main(["solve", "--config", cfg_path, "--out", str(alt), "--seed", "0x10"]) == EXIT_OK
    assert (alt / "roots.csv").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, value, expected", [
    ("model.r", "1e18", {EXIT_OK, EXIT_CHECK_FAILED}),
    ("model.b2", "1e18", {EXIT_OK, EXIT_CHECK_FAILED}),
    ("model.C", "1e18", {EXIT_OK, EXIT_CHECK_FAILED}),
    ("model.r", "1e300", {EXIT_ROOTS}),
], ids=["huge-r", "huge-b2", "huge-C", "overflowing-r"])
def test_riccati_selfcheck_exits_without_traceback(tmp_path, capsys, name, value, expected):
    # the rest-point self-check runs in the representation check: rounding in
    # terms of size 1e35 is no mismatch, while at r = 1e300 the roots of
    # size 1e299 have terms beyond the double range, which cannot be checked
    # and is a root-selection failure
    overrides = {name: value, "sim.nParticles": "20"}
    code = main(["verify", "--config", write_cfg(tmp_path, overrides),
                 "--checks", "representation"])
    err = capsys.readouterr().err
    assert code in expected, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, key, keys", [
    ("check", "sim.dt", ("sim.T", "sim.dt")),
    ("simulate", "sim.dt", ("sim.T", "sim.dt")),
    ("check", "fixedPoint.dx", ("fixedPoint.xLo", "fixedPoint.dx")),
])
def test_step_counts_of_2_53_or_more_are_config_errors(tmp_path, capsys, command, key, keys):
    # 2/1e-300 steps is a whole number only because every double of that
    # size is; check used to pass it and simulate to end in numpy's
    # "Maximum allowed size exceeded"
    assert main([command, "--config", write_cfg(tmp_path, {key: "1e-300"})]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert all(k in err for k in keys)


def test_out_of_memory_exits_config_in_one_line(cfg_path, capsys, monkeypatch):
    # raised by a stub: a real allocation of this size is 74.5 GiB
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000001,) and data type float64")

    monkeypatch.setattr(cli, "simulate_population", no_memory)
    assert main(["simulate", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "74.5 GiB" in err


def test_representation_oracle_blow_up_is_a_failed_check(tmp_path, capsys):
    # at r = 1e18 the Riccati oracle blows up at the config's dt: that fails
    # the representation check, and the other checks still run
    path = write_cfg(tmp_path, {"model.r": "1e18", "sim.nParticles": "20"})
    assert main(["verify", "--config", path,
                 "--checks", "representation,lipschitz"]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.out.splitlines()
    assert lines[0].startswith("FAIL representation: max gap nan")
    assert lines[1].startswith("PASS lipschitz")
    assert (tmp_path / "out" / "summary.txt").read_text().splitlines() == lines
    assert read_csv(tmp_path / "out" / "representation.csv")[1] == ["nan"]


def test_lipschitz_bound_is_relative(tmp_path, capsys, monkeypatch):
    # at r = 1e18 the gradient bound max(2|a1|, |a2|) is about 2e-18: a
    # ratio of 1.5 times it must fail, which an absolute slack of 1e-9 hid
    from mfglab import verify

    def too_steep(model, U, probes):
        return 1.5 * max(2.0 * abs(U.a1), abs(U.a2))

    monkeypatch.setattr(verify, "lipschitz_scan", too_steep)
    path = write_cfg(tmp_path, {"model.r": "1e18", "sim.nParticles": "20"})
    assert main(["verify", "--config", path, "--checks", "lipschitz"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out.startswith("FAIL lipschitz")
    ratio, bound = map(float, read_csv(tmp_path / "out" / "lipschitz.csv")[1])
    assert 0.0 < bound < ratio


@pytest.mark.parametrize("r", ["2", "1e300"])
def test_solve_writes_finite_coefficients(tmp_path, r):
    # at r = 1e300 the a3 equation's a2*a2 overflowed: two candidates had
    # a3 = +-inf
    assert main(["solve", "--config", write_cfg(tmp_path, {"model.r": r})]) == EXIT_OK
    rows = read_csv(tmp_path / "out" / "roots.csv")
    assert len(rows) == 5
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)


def test_cfl_message_prints_a_short_ratio(tmp_path, capsys):
    # at r = 1e300 the ratio is about 1e279; in fixed-point notation it
    # printed some 280 digits
    path = write_cfg(tmp_path, {"model.r": "1e300"})
    assert main(["fixed-point", "--config", path]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "CFL" in err and "e+" in err
    assert len(err) < 120
