import numpy as np
import pytest

from mfglab import DecouplingField, MeanFlow, RunConfig, backward_field_solve, solve_mfg
from mfglab import fixed_point
from mfglab.errors import ConfigError, DivergedError, NoRealRootError, StepTooLargeError
from mfglab.fixed_point import (
    forward_flow_update,
    space_grid,
    stationary_terminal,
)
from mfglab.model import LQModel
from mfglab.simulate import InitialLaw


GRID = space_grid(-4.0, 4.0, 0.05)


def stationary_field(example_selected, grid, m):
    return 2.0 * example_selected.a1 * grid + example_selected.a2 * m


def test_space_grid_endpoints():
    g = space_grid(-1.0, 1.0, 0.5)
    assert np.allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_space_grid_must_be_whole_steps():
    # 8.05 / 0.1 is not an integer: a rounded grid would end at 4.0, not 4.05
    with pytest.raises(ValueError, match="whole number of steps"):
        space_grid(-4.0, 4.05, 0.1)
    assert space_grid(-4.0, 4.0, 0.05).size == 161
    # floating-point noise in the division still counts as whole steps
    assert (0.7 - 0.0) / 0.1 != 7.0 and space_grid(0.0, 0.7, 0.1).size == 8


def test_backward_solve_preserves_stationary_solution(example_model, example_selected):
    # u(t,x) = 2 a1 x solves the backward equation with zero mean flow,
    # so the solver must hold it fixed up to scheme error
    flow = MeanFlow.constant(T=2.0, dt=1e-3, value=0.0)
    field = backward_field_solve(
        example_model, flow, GRID, lambda x: 2.0 * example_selected.a1 * x
    )
    inner = (GRID >= -3.0) & (GRID <= 3.0)
    err = np.max(np.abs(field.u[0, inner] - GRID[inner]))
    assert err <= 5e-3


def test_backward_solve_zero_terminal_converges_to_stationary(example_model):
    # from u(T,.) = 0 the backward flow relaxes onto u = x away from T
    flow = MeanFlow.constant(T=6.0, dt=1e-3, value=0.0)
    field = backward_field_solve(example_model, flow, GRID, lambda x: np.zeros_like(x))
    inner = (GRID >= -3.0) & (GRID <= 3.0)
    assert np.max(np.abs(field.u[0, inner] - GRID[inner])) <= 1e-2


def test_backward_solve_odd_symmetry(example_model):
    # the symmetric model with zero flow has an odd decoupling field
    flow = MeanFlow.constant(T=2.0, dt=1e-3, value=0.0)
    field = backward_field_solve(example_model, flow, GRID, lambda x: np.zeros_like(x))
    assert np.max(np.abs(field.u[0] + field.u[0, ::-1])) <= 1e-10


def test_backward_solve_cfl_guard(example_model, each_backend):
    flow = MeanFlow.constant(T=2.0, dt=0.1, value=0.0)
    for _ in each_backend():
        with pytest.raises(StepTooLargeError):
            backward_field_solve(example_model, flow, GRID, lambda x: 2.0 * x)


def test_backward_solve_non_finite_step_reports_divergence(each_backend):
    # b4 * m overflows the explicit source to inf on the first step; the
    # solve must report the divergence, not let a finite-input check of the
    # linear solver raise ValueError
    model = LQModel(r=1, b1=0, b2=0, b3=1, b4=1e305, A=1, C=1)
    flow = MeanFlow.constant(0.1, 0.01, 1e4)
    grid = space_grid(-1.0, 1.0, 0.25)
    for _ in each_backend():
        with pytest.raises(DivergedError) as info, np.errstate(over="ignore", invalid="ignore"):
            backward_field_solve(model, flow, grid, lambda x: np.zeros_like(x))
        assert info.value.step == flow.times.size - 2


@pytest.mark.parametrize("nx", [3, 4])
def test_backward_solve_needs_five_nodes(example_model, nx):
    # LAPACK's tridiagonal factorisation takes at least 3 interior nodes;
    # a shorter grid is refused by name, not by scipy's array-size check
    flow = MeanFlow.constant(T=0.1, dt=0.01, value=0.0)
    grid = np.linspace(-1.0, 1.0, nx)
    with pytest.raises(ValueError, match=f"at least 5 nodes, got {nx}$"):
        backward_field_solve(example_model, flow, grid, lambda x: np.zeros_like(x))


def test_backward_solve_matches_banded_solver(instance_b):
    # the once-factored tridiagonal solve reproduces scipy's banded solver
    # bitwise on every row of the field
    from scipy.linalg import solve_banded

    flow = MeanFlow(times=0.01 * np.arange(51), m=np.linspace(1.0, 0.2, 51))
    grid = space_grid(-3.0, 3.0, 0.1)
    terminal = stationary_terminal(instance_b, flow)
    field = backward_field_solve(instance_b, flow, grid, terminal)
    dt, dx, gain = flow.dt, float(grid[1] - grid[0]), instance_b.control_gain
    lam = dt / (2.0 * dx * dx)
    ab = np.zeros((3, grid.size - 2))
    ab[0, 1:] = -lam
    ab[1, :] = 1.0 + 2.0 * lam
    ab[2, :-1] = -lam
    u = field.u
    x = field.x
    for k in range(flow.times.size - 2, -1, -1):
        uk1, m = u[k + 1], flow.m[k + 1]
        g = instance_b.b1 * x + instance_b.b2 * m - gain * uk1
        dudx = np.empty(x.size)
        dudx[1:-1] = np.where(g[1:-1] > 0.0, (uk1[1:-1] - uk1[:-2]) / dx,
                              (uk1[2:] - uk1[1:-1]) / dx)
        dudx[0] = (uk1[1] - uk1[0]) / dx
        dudx[-1] = (uk1[-1] - uk1[-2]) / dx
        src = instance_b.b1 * uk1 + instance_b.b4 * m + 2.0 * instance_b.A * x
        explicit = uk1 + dt * (g * dudx + src - instance_b.r * uk1)
        rhs = explicit[1:-1].copy()
        rhs[0] += lam * explicit[0]
        rhs[-1] += lam * explicit[-1]
        assert np.array_equal(u[k, 1:-1], solve_banded((1, 1), ab, rhs))
        assert u[k, 0] == explicit[0] and u[k, -1] == explicit[-1]


def test_backward_solve_matches_expression_reference(instance_b, each_backend):
    # the compiled sweep reproduces the numpy expression form bit for bit
    # (signed zeros included) on a flow whose drift g changes sign across
    # the grid, so both upwind branches run
    flow = MeanFlow(times=0.01 * np.arange(81), m=np.linspace(1.5, -0.5, 81))
    grid = space_grid(-3.0, 3.0, 0.1)
    terminal = stationary_terminal(instance_b, flow)
    got, ref = [backward_field_solve(instance_b, flow, grid, terminal).u
                for _ in each_backend()]
    g = (instance_b.b1 * grid + instance_b.b2 * flow.m[1:, None]
         - instance_b.control_gain * ref[1:])
    assert {-1.0, 1.0} <= set(np.sign(g[:, 1:-1]).ravel().tolist())
    assert got.tobytes() == ref.tobytes()


def test_mean_flow_rejects_partial_step_horizon():
    # 0.5 is not a whole number of steps 0.3; rounding would end at t = 0.6
    with pytest.raises(ValueError, match="whole number of steps"):
        MeanFlow.constant(0.5, 0.3, 0.0)
    # a horizon off by floating-point noise only is still whole
    assert MeanFlow.constant(0.3, 0.1, 0.0).times.size == 4


def test_forward_flow_update_tracks_ode(example_model, example_selected):
    # under the stationary field the mean follows dm/dt = -2m
    flow = MeanFlow.constant(T=3.0, dt=1e-3, value=1.0)
    nt = flow.times.size
    u = np.tile(stationary_field(example_selected, GRID, 0.0), (nt, 1))
    field = DecouplingField(times=flow.times, x=GRID, u=u)
    update = forward_flow_update(example_model, field, InitialLaw.dirac(1.0), N=20_000, seed=4)
    assert np.max(np.abs(update.m - np.exp(-2.0 * flow.times))) <= 0.02


def test_stationary_terminal_uses_selected_root(example_model, example_selected):
    flow = MeanFlow.constant(T=1.0, dt=1e-2, value=0.5)
    term = stationary_terminal(example_model, flow)
    x = np.array([-1.0, 0.0, 2.0])
    expected = 2.0 * example_selected.a1 * x + example_selected.a2 * flow.m[-1]
    assert np.allclose(term(x), expected)


def test_solve_mfg_dirac_zero_is_immediate(example_model):
    # m = 0 is already the fixed point of the symmetric model
    cfg = RunConfig(
        example_model, InitialLaw.dirac(0.0), T=2.0, dt=2e-3, x_lo=-4.0, x_hi=4.0,
        dx=0.05, n_particles=20_000, damping=1.0, tol=1e-2, max_iter=10, seed=0,
    )
    rep = solve_mfg(cfg)
    assert rep.converged
    # the symmetric model's field does not depend on the flow, so the
    # fixed seed makes the iterated map constant: two sweeps at most
    assert rep.iterations <= 2
    assert np.max(np.abs(rep.final_flow.m)) <= 1e-2


def test_solve_mfg_example_decay(example_model):
    cfg = RunConfig(
        example_model, InitialLaw.dirac(1.0), T=3.0, dt=2e-3, x_lo=-4.0, x_hi=4.0,
        dx=0.05, n_particles=10_000, damping=0.5, tol=1e-3, max_iter=60, seed=0,
    )
    rep = solve_mfg(cfg)
    assert rep.converged
    target = np.exp(-2.0 * rep.final_flow.times)
    assert np.max(np.abs(rep.final_flow.m - target)) <= 0.03
    # u(0, x) tracks the stationary field x on the interior
    x = rep.final_field.x
    inner = (x >= -3.0) & (x <= 3.0)
    assert np.max(np.abs(rep.final_field.u[0, inner] - x[inner])) <= 1e-2


def test_solve_mfg_damping_independent_fixed_point(example_model):
    flows = []
    for damping in (0.5, 1.0):
        cfg = RunConfig(
            example_model, InitialLaw.dirac(1.0), T=2.0, dt=2e-3, x_lo=-4.0, x_hi=4.0,
            dx=0.05, n_particles=4_000, damping=damping, tol=1e-4, max_iter=120, seed=0,
        )
        rep = solve_mfg(cfg)
        assert rep.converged
        flows.append(rep.final_flow.m)
    assert np.max(np.abs(flows[0] - flows[1])) <= 2e-4


def test_solve_mfg_matches_analytic_flow_instance_b(instance_b, instance_b_selected):
    from mfglab import closed_loop_coeffs

    cx, cm = closed_loop_coeffs(instance_b, instance_b_selected)
    cfg = RunConfig(
        instance_b, InitialLaw.dirac(1.0), T=2.0, dt=2e-3, x_lo=-6.0, x_hi=6.0,
        dx=0.05, n_particles=10_000, damping=0.5, tol=1e-3, max_iter=80, seed=1,
    )
    rep = solve_mfg(cfg)
    assert rep.converged
    target = np.exp((cx + cm) * rep.final_flow.times)
    assert np.max(np.abs(rep.final_flow.m - target)) <= 2e-2


def test_flow_deltas_recorded(example_model):
    # damping < 1 relaxes geometrically, so a tiny tolerance cannot be met
    # in three sweeps and every delta is recorded
    cfg = RunConfig(
        example_model, InitialLaw.dirac(1.0), T=1.0, dt=2e-3, x_lo=-4.0, x_hi=4.0,
        dx=0.05, n_particles=1_000, damping=0.5, tol=1e-12, max_iter=3, seed=0,
    )
    rep = solve_mfg(cfg)
    assert not rep.converged
    assert rep.iterations == 3
    assert len(rep.deltas) == 3
    assert rep.deltas[1] == pytest.approx(rep.deltas[0] / 2.0, rel=1e-6)


def test_stationary_terminal_propagates_foreign_errors(example_model, monkeypatch):
    # only mfglab's own root-selection failures mean "no stationary field";
    # any other error is a bug and must not become a zero terminal condition
    flow = MeanFlow.constant(1.0, 0.1, 0.0)

    def no_root(model):
        raise NoRealRootError("no real root")

    monkeypatch.setattr(fixed_point, "solve_root_system", no_root)
    x = np.array([-1.0, 2.0])
    assert np.array_equal(fixed_point.stationary_terminal(example_model, flow)(x), [0.0, 0.0])

    def broken(model):
        raise RuntimeError("boom")

    monkeypatch.setattr(fixed_point, "solve_root_system", broken)
    with pytest.raises(RuntimeError, match="boom"):
        fixed_point.stationary_terminal(example_model, flow)


def test_solve_mfg_deltas_match_per_iteration_updates(instance_b):
    # the solve draws its particles and noise once; a loop that redraws them
    # through forward_flow_update on every iteration gives the same deltas
    law0 = InitialLaw.gaussian(1.0, 0.3)
    cfg = RunConfig(
        instance_b, law0, T=0.5, dt=1e-2, x_lo=-4.0, x_hi=4.0,
        dx=0.1, n_particles=300, damping=0.7, tol=1e-12, max_iter=4, seed=3,
    )
    rep = solve_mfg(cfg)
    grid = space_grid(cfg.x_lo, cfg.x_hi, cfg.dx)
    flow = MeanFlow.constant(cfg.T, cfg.dt, law0.mean)
    deltas = []
    for _ in range(cfg.max_iter):
        terminal = stationary_terminal(instance_b, flow)
        field = backward_field_solve(instance_b, flow, grid, terminal)
        update = forward_flow_update(instance_b, field, law0, cfg.n_particles, cfg.seed)
        deltas.append(float(np.max(np.abs(update.m - flow.m))))
        flow = MeanFlow(times=flow.times, m=(1.0 - 0.7) * flow.m + 0.7 * update.m)
    assert rep.deltas == tuple(deltas)
    assert np.array_equal(rep.final_flow.m, flow.m)


def test_solve_mfg_needs_two_particles(example_model):
    cfg = RunConfig(example_model, InitialLaw.dirac(1.0), T=0.1, dt=0.01, n_particles=1)
    with pytest.raises(ConfigError, match=r"^fixed-point needs sim.nParticles >= 2$"):
        solve_mfg(cfg)
