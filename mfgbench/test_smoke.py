"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest mfgbench/test_smoke.py      # from the checkout root

Checks the result format, that the metric names and units are those of
BENCHMARK.json, that the traced self-consistency checks hold, that
oracle failures are counted and that a hung operation is failed and ended.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = 0.01


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_result_names_and_units(name, trace, capsys):
    result = run.run(name, seed=0, seconds=0, trace=trace, root=ROOT, scale=TINY, min_ops=1)
    printed = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == (2 if trace else 1)
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "machine {" in printed and "largest array:" in printed
    # tiny sizes may fail the statistical oracles, never the harness checks
    assert "exit code" not in printed and "unreadable output" not in printed
    assert "traced path-steps" not in printed and "self times" not in printed
    if trace:
        assert result["metrics"]["rng.calls"]["value"] > 0


def test_oracle_failures_are_counted(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "check", lambda w, out, result: ["forced"])
    result = run.run("fixed-point", seed=0, seconds=0, trace=False, root=ROOT,
                     scale=TINY, min_ops=2)
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["correct"] is False
    assert "fail_share = 1.0" in capsys.readouterr().out


def test_hung_operation_fails_and_is_ended(tmp_path):
    w = workloads.make("crn-verify", TINY)
    setup = run.SetUp(w, 0, str(tmp_path), run.child_env(ROOT), 0, timeout=60)
    assert "setup_s" in setup.setup
    result = setup.operation(w, traced=False, timeout=0.01)
    assert "timed out" in result["error"] and result["failures"]
    setup.close(kill=True)
    assert setup.proc.returncode is not None
    assert not os.path.exists(setup.dir)


def _write(directory, name, header, row):
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n" + ",".join(map(str, row)) + "\n")


def test_replay_oracle_requires_exact_zero(tmp_path):
    out = str(tmp_path)
    _write(out, "consistency.csv", ["max_deviation"], [1e-300])
    _write(out, "representation.csv", ["max_gap"], [1e-4])
    _write(out, "lipschitz.csv", ["max_ratio", "gradient_bound"], [1.0, 1.2])
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"PASS {c}: ok\n" for c in
                         ("consistency", "representation", "lipschitz")))
    failures = []
    workloads.check_replay(out, {}, failures)
    assert len(failures) == 1 and "exactly 0.0" in failures[0]
    w = workloads.make("crn-verify")
    failures = workloads.check(w, out, {"exit_code": 2, "error": "boom"})
    assert failures and "exit code 2" in failures[0]
    failures = workloads.check(w, out, {"exit_code": 0})  # no nash.csv
    assert any("unreadable output" in f for f in failures)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "crn-verify", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
