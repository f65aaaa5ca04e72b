"""End-to-end acceptance gate.

Each test covers one headline guarantee at its stated tolerance and runtime
budget, and prints a single PASS/FAIL line (run with -s to see them live).
"""

import math
import time

import numpy as np
import pytest

from mfglab import (
    AffineFeedback,
    InitialLaw,
    RunConfig,
    alpha_hat,
    check_monotonicity_sampled,
    drift,
    eval_jet,
    flow_consistency,
    generalized_hamiltonian,
    master_residual,
    pa_master_residual,
    riccati_backward,
    select_admissible,
    solve_root_system,
    solve_selected,
    square_grid,
    verify_nash,
    w2_empirical,
    weak_uniqueness_check,
)
from mfglab import EXAMPLE_MODEL, INSTANCE_B, estimate_cost, solve_mfg
from mfglab.simulate import simulate_legs
from mfglab.verify import offset_perturbation

MC_BIG = RunConfig(EXAMPLE_MODEL, InitialLaw.dirac(0.0), T=6.0, dt=1e-3, n_paths=100_000,
                   seed=0)

EXPECTED_ROOTS = {
    (0.5, 0.0, 0.0, 0.25),
    (0.5, -3.0, 1.5, 0.25),
    (-1.0, 0.0, 0.0, -0.5),
    (-1.0, 3.0, -1.5, -0.5),
}


def named_rows(rep):
    """A check record's rows as dicts keyed by its header."""
    return [dict(zip(rep.header, row)) for row in rep.rows]


def _report(criterion: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if (passed and elapsed <= budget) else "FAIL"
    print(f"{status} {criterion}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert passed, f"{criterion}: {detail}"
    assert elapsed <= budget, f"{criterion} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_root_reproduction():
    solve_selected(EXAMPLE_MODEL)  # warm import-time caches
    t0 = time.perf_counter()
    candidates = solve_root_system(EXAMPLE_MODEL)
    selected = select_admissible(EXAMPLE_MODEL, candidates)
    elapsed = time.perf_counter() - t0
    got = [(U.a1, U.a2, U.a3, U.a4) for U in candidates]
    ok = len(got) == 4
    for expected in EXPECTED_ROOTS:
        ok = ok and any(
            all(abs(g - e) <= 1e-10 for g, e in zip(c, expected)) for c in got
        )
    ok = ok and all(
        abs(g - e) <= 1e-10
        for g, e in zip((selected.a1, selected.a2, selected.a3, selected.a4),
                        (0.5, 0.0, 0.0, 0.25))
    )
    _report("criterion 1 (root reproduction)", ok,
            f"4 roots found, selected a1={selected.a1:g}", elapsed, 1e-3)


def test_criterion_2_master_residual():
    t0 = time.perf_counter()
    grid = square_grid(-3.0, 3.0, 61)
    candidates = solve_root_system(EXAMPLE_MODEL)
    selected = select_admissible(EXAMPLE_MODEL, candidates)
    worst = max(
        master_residual(EXAMPLE_MODEL, U, grid).max_abs_residual for U in candidates
    )
    pa = pa_master_residual(EXAMPLE_MODEL, selected, grid).max_abs_residual
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and pa < 1e-10
    _report("criterion 2 (master residual)", ok,
            f"max residual {worst:.2e}, pointwise form {pa:.2e} on 61x61",
            elapsed, 1.0)


def test_criterion_3_value_reproduction():
    t0 = time.perf_counter()
    U = solve_selected(EXAMPLE_MODEL)
    fb = AffineFeedback.equilibrium(EXAMPLE_MODEL, U)
    # the legs x0 = 0 and x0 = 1 over one draw of the noise
    starts = (0.0, 1.0)
    batches = simulate_legs(
        EXAMPLE_MODEL, [fb, fb], x0=np.array(starts)[:, None], mean_flow=0.0,
        T=MC_BIG.T, dt=MC_BIG.dt, seed=MC_BIG.seed, n_paths=MC_BIG.n_paths,
    )
    means = {x0: estimate_cost(EXAMPLE_MODEL, batch).mean
             for x0, batch in zip(starts, batches)}
    elapsed = time.perf_counter() - t0
    ok = 0.24 <= means[0.0] <= 0.26 and 0.73 <= means[1.0] <= 0.77
    _report("criterion 3 (value reproduction)", ok,
            f"J(0)={means[0.0]:.4f} (true 0.25), J(1)={means[1.0]:.4f} (true 0.75)",
            elapsed, 120.0)


def test_criterion_4_nash_optimality():
    t0 = time.perf_counter()
    U = solve_selected(EXAMPLE_MODEL)
    perts = [(f"offset {eps:g}", offset_perturbation(EXAMPLE_MODEL, U, eps))
             for eps in (0.5, 1.0)]
    rep = verify_nash(MC_BIG, U, perts)
    elapsed = time.perf_counter() - t0
    ok = rep.passed
    details = []
    for row, eps in zip(named_rows(rep), (0.5, 1.0)):
        oracle = 0.5 * eps * eps
        ok = ok and abs(row["delta_mean"] - oracle) <= 0.1 * oracle
        ok = ok and row["ci_lo"] > 0.0
        details.append(f"dJ({eps:g})={row['delta_mean']:.4f} (oracle {oracle:g})")
    _report("criterion 4 (Nash optimality)", ok, ", ".join(details), elapsed, 180.0)


def test_criterion_5_riccati_agreement():
    t0 = time.perf_counter()
    ok = True
    details = []
    for model in (EXAMPLE_MODEL, INSTANCE_B):
        U = solve_selected(model)
        path = riccati_backward(model, T=10.0, dt=1e-3)
        ep = abs(path.p[0] - 2.0 * U.a1)
        eq = abs(path.q[0] - U.a2)
        ok = ok and ep <= 1e-6 and eq <= 1e-6
        details.append(f"|dp|={ep:.1e}, |dq|={eq:.1e}")
    elapsed = time.perf_counter() - t0
    _report("criterion 5 (backward ODE agreement)", ok,
            "; ".join(details), elapsed, 1.0)


def test_criterion_6_fixed_point_consistency():
    t0 = time.perf_counter()
    tol = 1e-3
    flows = {}
    field0 = None
    ok = True
    for damping in (0.3, 0.5, 1.0):
        cfg = RunConfig(
            EXAMPLE_MODEL, InitialLaw.dirac(1.0), T=3.0, dt=2e-3, x_lo=-4.0, x_hi=4.0,
            dx=0.05, n_particles=10_000, damping=damping, tol=tol, max_iter=100, seed=0,
        )
        rep = solve_mfg(cfg)
        ok = ok and rep.converged
        flows[damping] = rep.final_flow.m
        if damping == 1.0:
            field0 = rep.final_field
    times = np.arange(flows[1.0].size) * 2e-3
    flow_err = float(np.max(np.abs(flows[1.0] - np.exp(-2.0 * times))))
    inner = (field0.x >= -3.0) & (field0.x <= 3.0)
    field_err = float(np.max(np.abs(field0.u[0, inner] - field0.x[inner])))
    pair_gap = max(
        float(np.max(np.abs(flows[a] - flows[b])))
        for a, b in ((0.3, 0.5), (0.3, 1.0), (0.5, 1.0))
    )
    elapsed = time.perf_counter() - t0
    ok = ok and flow_err <= 0.03 and field_err <= 1e-2 and pair_gap <= 2 * tol
    _report("criterion 6 (fixed point consistency)", ok,
            f"flow err {flow_err:.4f}, field err {field_err:.2e}, "
            f"damping gap {pair_gap:.2e}", elapsed, 300.0)


def test_criterion_7_flow_consistency_identity():
    t0 = time.perf_counter()
    ok = True
    devs = []
    for model in (EXAMPLE_MODEL, INSTANCE_B):
        U = solve_selected(model)
        dev = flow_consistency(model, U, InitialLaw.dirac(1.0),
                               N=200, seed=3, T=2.0, dt=1e-3)
        devs.append(dev)
        ok = ok and dev <= 1e-9
    elapsed = time.perf_counter() - t0
    _report("criterion 7 (flow consistency identity)", ok,
            f"max deviations {devs[0]:.1e}, {devs[1]:.1e}", elapsed, 30.0)


def test_criterion_8_weak_uniqueness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, model in (("symmetric", EXAMPLE_MODEL), ("full", INSTANCE_B)):
        U = solve_selected(model)
        cfg = RunConfig(model, InitialLaw.gaussian(1.0, 0.5), T=6.0, dt=2e-3,
                        n_paths=4_000, seed=1)
        rep = weak_uniqueness_check(cfg, U, 0.0, seeds=(21, 22), n_particles=8_000)
        [row] = named_rows(rep)
        ok = ok and rep.passed and row["z"] <= 3.0
        ok = ok and row["ks"] < row["ks_crit"]
        details.append(f"{name}: z={row['z']:.2f}, KS={row['ks']:.4f}"
                       f"<{row['ks_crit']:.4f}")
    elapsed = time.perf_counter() - t0
    _report("criterion 8 (weak uniqueness)", ok, "; ".join(details), elapsed, 120.0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    ok = True

    # minimizer property of the feedback map
    for model in (EXAMPLE_MODEL, INSTANCE_B):
        for x, m, y in [(0.0, 0.0, 1.0), (1.5, -0.5, -2.0), (-2.0, 1.0, 0.3)]:
            a_star = alpha_hat(model, x, y)
            h_star = generalized_hamiltonian(model, x, m, a_star, y)
            ok = ok and all(
                generalized_hamiltonian(model, x, m, a, y) >= h_star - 1e-12
                for a in np.linspace(a_star - 3.0, a_star + 3.0, 61)
            )

    # Lipschitz / dissipativity equalities of the closed-loop coefficients
    for model in (EXAMPLE_MODEL, INSTANCE_B):
        gain = model.control_gain
        for (x, y), (xp, yp) in [((1.0, 2.0), (0.0, 0.0)), ((-1.0, 0.5), (2.0, -3.0))]:
            lip = abs(alpha_hat(model, x, y) - alpha_hat(model, x, yp))
            ok = ok and abs(lip - abs(model.b3) / (2 * model.C) * abs(y - yp)) <= 1e-12
            db = drift(model, x, 0.0, alpha_hat(model, x, y)) - drift(
                model, xp, 0.0, alpha_hat(model, xp, yp))
            rhs = model.b1 * (x - xp) ** 2 - gain * (y - yp) * (x - xp)
            ok = ok and abs(db * (x - xp) - rhs) <= 1e-12

    # quadratic Wasserstein metric axioms on sorted empirical laws
    a = np.array([0.0, 1.0, 3.0])
    b = np.array([-1.0, 0.5, 2.0])
    c = np.array([2.0, 2.0, 2.0])
    ok = ok and w2_empirical(a, a) == 0.0
    ok = ok and abs(w2_empirical(a, b) - w2_empirical(b, a)) <= 1e-12
    ok = ok and w2_empirical(a, c) <= w2_empirical(a, b) + w2_empirical(b, c) + 1e-12
    ok = ok and abs(w2_empirical(a, a + 2.0) - 2.0) <= 1e-12

    # sampled monotonicity inequality at kappa = r/2, >= 1e4 samples
    for model in (EXAMPLE_MODEL, INSTANCE_B):
        mono = check_monotonicity_sampled(model, n=40, seed=5)
        ok = ok and mono.passed and mono.n_samples >= 10_000

    # finite-difference agreement of the derivative jet
    h = 1e-5
    for model in (EXAMPLE_MODEL, INSTANCE_B):
        U = solve_selected(model)
        for x, m in [(0.7, -0.3), (-1.2, 0.9)]:
            _, dx, _, dmu, _ = eval_jet(U, x, m)
            fd_dx = (U.value(x + h, m) - U.value(x - h, m)) / (2 * h)
            fd_dm = (U.value(x, m + h) - U.value(x, m - h)) / (2 * h)
            ok = ok and abs(dx - fd_dx) <= 1e-8 and abs(dmu(0.0) - fd_dm) <= 1e-8

    elapsed = time.perf_counter() - t0
    _report("criterion 9 (property suites)", ok,
            "minimizer, Lipschitz/dissipativity, metric axioms, "
            "monotonicity, derivative jets", elapsed, 60.0)
