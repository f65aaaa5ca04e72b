import dataclasses

import pytest

from mfglab import EXAMPLE_MODEL, ConfigError, InitialLaw, RunConfig
from mfglab.config import load_config, parse_config

BASE = """
# symmetric reference model
model.r = 2
model.b1 = 0
model.b2 = 0
model.b3 = 2
model.b4 = 0
model.A = 2
model.C = 1
"""


def test_parse_minimal_config():
    cfg = parse_config(BASE)
    assert cfg.model.r == 2.0
    assert cfg.law0.kind == "dirac"
    assert cfg.seed >= 0


def test_parse_full_config():
    text = BASE + """
law0.kind = gaussian
law0.mean = 1
law0.sd = 0.5
sim.T = 4
sim.dt = 0.002
sim.nPaths = 1000
sim.nParticles = 500
sim.seed = 9
fixedPoint.damping = 0.5
fixedPoint.tol = 1e-3
fixedPoint.maxIter = 40
output = /tmp/somewhere
"""
    cfg = parse_config(text)
    assert cfg.law0.kind == "gaussian"
    assert cfg.law0.mean == 1.0
    assert (cfg.T, cfg.dt, cfg.n_paths, cfg.n_particles, cfg.seed) == (
        4.0, 0.002, 1000, 500, 9,
    )
    assert cfg.damping == 0.5
    assert cfg.output == "/tmp/somewhere"


def test_unknown_key_is_named_with_line():
    text = BASE + "model.b5 = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "model.b5" in str(exc.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE + "model.r = 3\n")
    assert "model.r" in str(exc.value)


def test_missing_model_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("model.r = 2\n")
    assert "model." in str(exc.value)


def test_invalid_model_rejected():
    text = BASE.replace("model.b3 = 2", "model.b3 = 0")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_bad_law_kind_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE + "law0.kind = cauchy\n")
    assert "cauchy" in str(exc.value)


def test_nonpositive_step_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE + "sim.dt = -1\n")


def test_malformed_line_reports_number():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE + "not a key value pair\n")
    assert exc.value.line is not None


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_comments_and_blank_lines_ignored(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE + "\n# trailing comment\n\n")
    cfg = load_config(str(p))
    assert cfg.model.A == 2.0


def test_law_zero_values_are_kept():
    # a key set to 0 is the value 0, not "missing"
    cfg = parse_config(BASE + "law0.kind = gaussian\nlaw0.mean = 0\nlaw0.sd = 0\n")
    assert (cfg.law0.mean, cfg.law0.sd) == (0.0, 0.0)
    cfg = parse_config(BASE + "law0.kind = gaussian\n")
    assert (cfg.law0.mean, cfg.law0.sd) == (0.0, 1.0)
    assert parse_config(BASE + "law0.x0 = 0\n").law0.x0 == 0.0


@pytest.mark.parametrize("extra", [
    "law0.kind = gaussian\nlaw0.sd = -1\n",
    "fixedPoint.damping = 2\n",
    "fixedPoint.damping = 0\n",
    "fixedPoint.tol = 0\n",
    "fixedPoint.maxIter = 0\n",
    "fixedPoint.dx = 0\n",
    "fixedPoint.xLo = 0\nfixedPoint.xHi = 0.1\n",
    "sim.nPaths = 1\n",
    "sim.T = 0.001\nsim.dt = 0.002\n",
    "fixedPoint.xLo = nan\n",
    "fixedPoint.xHi = inf\n",
    "fixedPoint.tol = nan\n",
    "law0.x0 = nan\n",
    "law0.mean = 3\nlaw0.sd = 2\n",
    "law0.kind = gaussian\nlaw0.x0 = 1\n",
    "fixedPoint.xLo = -4\nfixedPoint.xHi = 4.05\nfixedPoint.dx = 0.1\n",
    "sim.seed = -1\n",
    f"sim.seed = {2**64}\n",
], ids=["negative-sd", "damping-above-1", "damping-0", "tol-0", "maxIter-0", "dx-0",
        "coarse-grid", "one-path", "T-below-dt", "nan-xLo", "inf-xHi", "nan-tol", "nan-x0",
        "gaussian-keys-without-kind", "dirac-key-on-gaussian", "grid-not-whole-steps",
        "negative-seed", "seed-2**64"])
def test_out_of_range_values_rejected(extra):
    with pytest.raises(ConfigError):
        parse_config(BASE + extra)


def test_horizon_must_be_whole_steps():
    # 0.5 / 0.3 is not an integer: the grid would silently end at t = 0.6
    with pytest.raises(ConfigError, match="whole number of steps"):
        parse_config(BASE + "sim.T = 0.5\nsim.dt = 0.3\n")
    for T, dt in (("3", "0.004"), ("1", "0.002"), ("0.7", "0.1")):
        cfg = parse_config(BASE + f"sim.T = {T}\nsim.dt = {dt}\n")
        assert (cfg.T, cfg.dt) == (float(T), float(dt))


def test_overrides_obey_the_file_rules():
    cfg = parse_config(BASE + "sim.seed = 3\n", {"sim.seed": str(2**64 - 1), "output": "x"})
    assert (cfg.seed, cfg.output) == (2**64 - 1, "x")
    with pytest.raises(ConfigError, match="sim.seed") as exc:
        parse_config(BASE, {"sim.seed": "-1"})
    assert exc.value.line is None


def test_law_keys_go_to_their_kind():
    law = parse_config(BASE + "law0.kind = gaussian\nlaw0.mean = 3\nlaw0.sd = 2\n").law0
    assert (law.kind, law.mean, law.sd) == ("gaussian", 3.0, 2.0)
    with pytest.raises(ConfigError, match="law0.mean") as exc:
        parse_config(BASE + "law0.mean = 3\n")
    assert exc.value.line == BASE.count("\n") + 1


@pytest.mark.parametrize("fields, keys", [
    ({"damping": 0.0}, "fixedPoint.damping = 0\n"),
    ({"damping": 1.5}, "fixedPoint.damping = 1.5\n"),
    ({"tol": 0.0}, "fixedPoint.tol = 0\n"),
    ({"max_iter": 0}, "fixedPoint.maxIter = 0\n"),
    ({"T": 0.5, "dt": 0.3}, "sim.T = 0.5\nsim.dt = 0.3\n"),
    ({"T": 0.001, "dt": 0.002}, "sim.T = 0.001\nsim.dt = 0.002\n"),
    ({"x_lo": -4.0, "x_hi": 4.05, "dx": 0.1},
     "fixedPoint.xLo = -4\nfixedPoint.xHi = 4.05\nfixedPoint.dx = 0.1\n"),
    ({"x_lo": 0.0, "x_hi": 0.1}, "fixedPoint.xLo = 0\nfixedPoint.xHi = 0.1\n"),
], ids=["damping-0", "damping-above-1", "tol-0", "maxIter-0", "T-not-whole-steps",
        "T-below-dt", "grid-not-whole-steps", "coarse-grid"])
def test_run_config_built_in_code_is_checked_like_a_parsed_one(fields, keys):
    with pytest.raises(ConfigError) as parsed:
        parse_config(BASE + keys)
    with pytest.raises(ConfigError) as built:
        RunConfig(EXAMPLE_MODEL, InitialLaw.dirac(0.0), **fields)
    assert str(built.value) == str(parsed.value)


def test_run_config_is_frozen():
    cfg = parse_config(BASE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1
