"""Golden outputs: two full CLI runs must reproduce recorded bytes.

The configs are the benchmark's crn-verify and fixed-point workloads at
seed 1.  Every written file and standard output are compared by the first
12 hex digits of their SHA-256, so any change to noise, kernels, the PDE
solve or CSV formatting that moves a single bit fails here.
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
    got.update({p.name: _digest(p.read_bytes()) for p in out.iterdir()})
    assert got == expected
