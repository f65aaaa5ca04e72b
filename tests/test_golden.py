"""Golden outputs: full CLI runs must reproduce recorded bytes.

The configs are the benchmark's crn-verify and fixed-point workloads at
seed 1, and ``tests/test_cli.py``'s BASE config at seed 7 under check,
solve, simulate and verify with all six checks.  Every written file and
standard output are compared by the first 12 hex digits of their SHA-256,
so any change to noise, kernels, the PDE solve, CSV formatting or a parsed
value that moves a single bit fails here.
"""

import hashlib

import pytest

from mfglab.cli import EXIT_OK, main

CRN_VERIFY = """
model.r = 2
model.b1 = 0
model.b2 = 0
model.b3 = 2
model.b4 = 0
model.A = 2
model.C = 1
law0.kind = dirac
law0.x0 = 1
sim.T = 3
sim.dt = 0.004
sim.nPaths = 8192
sim.nParticles = 20
sim.seed = 1
"""

FIXED_POINT = """
model.r = 1
model.b1 = -0.1
model.b2 = 0.5
model.b3 = 2
model.b4 = 0.5
model.A = 2
model.C = 1
law0.kind = dirac
law0.x0 = 1
sim.T = 1.0
sim.dt = 0.002
sim.nParticles = 5000
fixedPoint.damping = 0.5
fixedPoint.tol = 0.001
fixedPoint.maxIter = 100
fixedPoint.xLo = -4
fixedPoint.xHi = 4
fixedPoint.dx = 0.05
sim.seed = 1
"""

# tests/test_cli.py's BASE
CLI_BASE = """
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

CASES = {
    "crn-verify": (
        CRN_VERIFY,
        ["verify", "--checks", "nash,gateaux,consistency,representation,lipschitz"],
        {
            "stdout": "b97d2a5bad4a",
            "summary.txt": "b97d2a5bad4a",
            "consistency.csv": "a544ded31b55",
            "gateaux.csv": "96b604864741",
            "lipschitz.csv": "852c7eb33952",
            "nash.csv": "35f529e2b68e",
            "representation.csv": "b798bdff4bb9",
        },
    ),
    "fixed-point": (
        FIXED_POINT,
        ["fixed-point"],
        {
            "stdout": "8d865fbe13fe",
            "field.csv": "ef58c9b433a1",
            "final_flow.csv": "7b50c15cf982",
            "flow_iterations.csv": "5a5ac279882f",
        },
    ),
    "base-check": (CLI_BASE, ["check"], {"stdout": "9e2642bc0dab"}),
    "base-solve": (
        CLI_BASE,
        ["solve"],
        {
            "stdout": "ec71b93a77d3",
            "roots.csv": "8095efb262c3",
            "selected.csv": "db68b93f1412",
        },
    ),
    "base-simulate": (
        CLI_BASE,
        ["simulate"],
        {
            "stdout": "106177dd500e",
            "flow.csv": "ed995ce21483",
            "cost.csv": "7a6ec7023533",
        },
    ),
    "base-verify": (
        CLI_BASE,
        ["verify", "--checks",
         "nash,gateaux,consistency,representation,uniqueness,lipschitz"],
        {
            "stdout": "df735b7d0681",
            "summary.txt": "df735b7d0681",
            "consistency.csv": "a544ded31b55",
            "gateaux.csv": "724503fb61d8",
            "lipschitz.csv": "57079ba81ad7",
            "nash.csv": "2a7028142102",
            "representation.csv": "283590c1ac88",
            "uniqueness.csv": "3b79cb1fb61f",
        },
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden_digests(name, tmp_path, capsys):
    text, argv, expected = CASES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    assert code == EXIT_OK
    got = {"stdout": _digest(capsys.readouterr().out.encode())}
    got.update({p.name: _digest(p.read_bytes()) for p in out.glob("*")})
    assert got == expected
