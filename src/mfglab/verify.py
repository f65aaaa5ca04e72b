"""Claim-checking harness: optimality, stationarity, consistency identities,
the adjoint representation, weak uniqueness and value-function Lipschitz
continuity — each reduced to a seeded, tolerance-bearing numerical check.

All paired cost comparisons run under common random numbers: the perturbed
control is simulated against byte-identical noise streams, so the per-path
cost differences carry orders of magnitude less variance than the costs.
Every perturbation is the equilibrium feedback with a constant offset, an
``AffineFeedback`` value: the Nash offsets and the Gateaux steps eps * 1.0
that coincide are equal feedbacks.

``CHECKS`` is the table of the ``verify`` command: each entry maps a run
config and the selected root to a ``CheckResult`` (verdict, summary line and
CSV table), with its sizes and its verdict threshold stated in that entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import ks_2samp

from . import rng
from .config import RunConfig
from .errors import BlowUpError
from .master import QuadraticValue, is_admissible
from .model import LQModel, closed_loop_coeffs, hamiltonian_H_dx
from .riccati import riccati_backward
from .simulate import (
    STEP_RTOL,
    AffineFeedback,
    CostEstimate,
    InitialLaw,
    TrajectoryBatch,
    estimate_cost,
    simulate_legs,
    simulate_population,
    simulate_representative,
)


@dataclass(frozen=True)
class MCConfig:
    T: float = 6.0
    dt: float = 1e-3
    n_paths: int = 10_000
    seed: int = 0
    x0: float = 0.0


@dataclass(frozen=True)
class PairedComparison:
    label: str
    delta_mean: float
    delta_ci: tuple[float, float]
    delta_se: float


@dataclass(frozen=True)
class NashReport:
    base_cost: CostEstimate
    perturbed: tuple[PairedComparison, ...]
    all_non_negative: bool


@dataclass(frozen=True)
class UniquenessReport:
    estimate_a: tuple[float, float]  # (mean, std error)
    estimate_b: tuple[float, float]
    overlap_z: float
    ks_statistic: float
    ks_critical_1pct: float
    passed: bool


def _require_admissible(model: LQModel, U: QuadraticValue) -> None:
    if not is_admissible(model, U):
        raise ValueError("candidate is not admissible for this model")


def equilibrium_mean_flow(model: LQModel, U: QuadraticValue, m0: float):
    """Analytic population mean under equilibrium: m(t) = m0 * exp((cx+cm) t)."""
    cx, cm = closed_loop_coeffs(model, U)
    rate = cx + cm
    return lambda t: m0 * np.exp(rate * np.asarray(t))


def _paired_legs(
    model: LQModel,
    U: QuadraticValue,
    feedbacks,
    mc: MCConfig,
    m0: float,
) -> tuple[TrajectoryBatch, list[tuple[TrajectoryBatch, np.ndarray]]]:
    """Common-random-number legs against the equilibrium.

    The base leg plays the equilibrium feedback; each perturbed leg plays
    one of ``feedbacks``.  Every leg starts at ``mc.x0``, faces the
    equilibrium mean flow from ``m0`` and consumes the same noise streams of
    ``mc.seed``, drawn once per block for all legs.  Returns the base batch
    and, per feedback, its batch with the per-path cost differences
    (perturbed minus base).
    """
    _require_admissible(model, U)
    base, *legs = simulate_legs(
        model, [AffineFeedback.equilibrium(model, U), *feedbacks], x0=mc.x0,
        mean_flow=equilibrium_mean_flow(model, U, m0), T=mc.T, dt=mc.dt,
        seed=mc.seed, n_paths=mc.n_paths,
    )
    return base, [(pert, pert.costs - base.costs) for pert in legs]


def verify_nash(
    model: LQModel,
    U: QuadraticValue,
    perturbations,
    mc: MCConfig,
    m0: float = 0.0,
) -> NashReport:
    """Paired cost comparison of the equilibrium against each perturbation.

    ``perturbations`` is a list of (label, feedback) pairs, such as those
    of ``offset_perturbation``.  The population stays at equilibrium (a
    single player's deviation does not move the flow).
    """
    perturbations = list(perturbations)
    base, legs = _paired_legs(model, U, [fb for _, fb in perturbations], mc, m0)
    rows = []
    ok = True
    for (label, _), (_, diff) in zip(perturbations, legs):
        dm = float(diff.mean())
        dse = float(diff.std(ddof=1) / math.sqrt(diff.size))
        ci = (dm - 1.96 * dse, dm + 1.96 * dse)
        rows.append(PairedComparison(label=label, delta_mean=dm, delta_ci=ci, delta_se=dse))
        if ci[0] <= -3.0 * dse:
            ok = False
    return NashReport(base_cost=estimate_cost(model, base), perturbed=tuple(rows),
                      all_non_negative=ok)


def offset_perturbation(model: LQModel, U: QuadraticValue, offset: float) -> AffineFeedback:
    """Equilibrium feedback plus a constant offset on the control."""
    return AffineFeedback.equilibrium(model, U).with_offset(offset)


def gateaux_slope(
    model: LQModel,
    U: QuadraticValue,
    direction: float,
    epsilons,
    mc: MCConfig,
    m0: float = 0.0,
) -> list[tuple[float, float]]:
    """Finite-difference directional derivatives of the cost at equilibrium.

    ``direction`` is a constant control offset, taken in steps ``eps``.
    Returns (epsilon, (J(eps) - J(0)) / eps) pairs; slopes of a quadratic
    cost are linear in epsilon and vanish at the minimum.
    """
    epsilons = list(epsilons)
    base_fb = AffineFeedback.equilibrium(model, U)
    feedbacks = [base_fb.with_offset(eps * direction) for eps in epsilons]
    _, legs = _paired_legs(model, U, feedbacks, mc, m0)
    out = []
    for eps, (_, diff) in zip(epsilons, legs):
        delta = float(diff.mean())
        out.append((float(eps), delta / eps if eps != 0.0 else 0.0))
    return out


def flow_consistency(
    model: LQModel,
    U: QuadraticValue,
    law0: InitialLaw,
    N: int,
    seed: int,
    T: float,
    dt: float,
) -> float:
    """Replay each population particle as a representative player.

    Each particle is restarted from its own draw, against the frozen
    population mean flow and its own noise stream (path i of one batch of
    N paths); the identity says the two recursions coincide.
    """
    _require_admissible(model, U)
    fb = AffineFeedback.equilibrium(model, U)
    pop = simulate_population(model, fb, law0, N, T, dt, seed)
    rep = simulate_representative(
        model, fb, x0=pop.states[0], mean_flow=pop.means,
        T=T, dt=dt, seed=seed, n_paths=N, keep_states=True,
        stream=rng.STREAM_POPULATION,
    )
    return float(np.max(np.abs(rep.states - pop.states.T)))


def y_representation_check(
    model: LQModel,
    U: QuadraticValue,
    pop_states: np.ndarray,
    mean_flow: np.ndarray,
    times: np.ndarray,
) -> float:
    """Max gap between the gradient-field adjoint and the finite-horizon
    ODE-oracle adjoint along simulated paths, away from the horizon.

    Construction (a): dU/dx(X_t, m_t) = 2 a1 X_t + a2 m_t.
    Construction (b): p_t X_t + q_t m_t with (p, q) integrated backward on
    the matching horizon.  Compared on [0, T-2] to skip the terminal
    boundary layer of (b).
    """
    T = float(times[-1])
    dt = float(times[1] - times[0])
    if pop_states.shape[0] != times.size:
        raise ValueError("state history does not cover the time grid")
    path = riccati_backward(model, T, min(dt, T / 10.0))
    cut = times <= T - 2.0
    p = np.interp(times[cut], path.times, path.p)
    q = np.interp(times[cut], path.times, path.q)
    m = mean_flow[cut]
    x = pop_states[cut]
    y_analytic = 2.0 * U.a1 * x + U.a2 * m[:, None]
    y_oracle = p[:, None] * x + (q * m)[:, None]
    return float(np.max(np.abs(y_analytic - y_oracle)))


def _value_estimate(
    model: LQModel,
    U: QuadraticValue,
    x: float,
    mean_flow: np.ndarray,
    T: float,
    dt: float,
    seed: int,
    n_paths: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the initial adjoint Y_0 at state x.

    Uses the discounted backward representation along equilibrium paths:
    Y_0 = E[ e^{-rT} Y_T + int_0^T e^{-rt} dH/dx(X_t, m_t, Y_t) dt ] with
    Y_t read off the gradient field.  Returns (mean, std error).
    """
    fb = AffineFeedback.equilibrium(model, U)
    batch = simulate_representative(
        model, fb, x0=x, mean_flow=mean_flow, T=T, dt=dt, seed=seed,
        n_paths=n_paths, keep_states=True,
    )
    times = batch.times
    m = batch.mean_flow
    X = batch.states  # (n_paths, nt)
    Y = 2.0 * U.a1 * X + U.a2 * m[None, :]
    dhx = hamiltonian_H_dx(model, X, m[None, :], Y)
    disc = np.exp(-model.r * times)
    functional = (disc[None, :-1] * dhx[:, :-1]).sum(axis=1) * dt + disc[-1] * Y[:, -1]
    mean = float(functional.mean())
    se = float(functional.std(ddof=1) / math.sqrt(n_paths))
    return mean, se


def weak_uniqueness_check(
    model: LQModel,
    U: QuadraticValue,
    x: float,
    law: InitialLaw,
    seeds: tuple[int, int],
    mc: MCConfig,
    n_particles: int = 4000,
) -> UniquenessReport:
    """Statistical surrogate for weak uniqueness.

    Two pathwise-different but equal-in-law initial ensembles are built by
    antithetic inverse-CDF sampling over a midpoint grid; the populations
    evolve under independent Brownian seeds.  The initial adjoint estimate
    at state x and the terminal state distributions must then agree up to
    Monte Carlo noise.
    """
    _require_admissible(model, U)
    if law.kind == "empirical":
        raise ValueError("weak uniqueness check needs an invertible CDF law")
    u_grid = (np.arange(n_particles) + 0.5) / n_particles
    xi_a = law.quantile(u_grid)
    xi_b = law.quantile(1.0 - u_grid)
    fb = AffineFeedback.equilibrium(model, U)
    s_a, s_b = seeds

    results = []
    for xi, seed in ((xi_a, s_a), (xi_b, s_b)):
        pop = simulate_population(
            model, fb, InitialLaw.empirical(xi), n_particles, mc.T, mc.dt, seed
        )
        mean, se = _value_estimate(
            model, U, x, pop.means, mc.T, mc.dt, seed, mc.n_paths
        )
        results.append((mean, se, pop.states[-1]))

    (mean_a, se_a, term_a), (mean_b, se_b, term_b) = results
    denom = math.hypot(se_a, se_b)
    z = abs(mean_a - mean_b) / denom if denom > 0 else 0.0
    ks = ks_2samp(term_a, term_b)
    critical = math.sqrt(-math.log(0.01 / 2.0) / 2.0) * math.sqrt(2.0 / n_particles)
    passed = z <= 3.0 and ks.statistic < critical
    return UniquenessReport(
        estimate_a=(mean_a, se_a),
        estimate_b=(mean_b, se_b),
        overlap_z=float(z),
        ks_statistic=float(ks.statistic),
        ks_critical_1pct=float(critical),
        passed=passed,
    )


def lipschitz_scan(model: LQModel, U: QuadraticValue, probes) -> float:
    """Max difference quotient of the gradient field over probe pairs.

    Probes are ((x, m), (x', m')) pairs; measures shifted in mean have
    quadratic Wasserstein distance |m - m'|.  Coincident pairs are skipped.
    """
    if not probes:
        raise ValueError("need at least one probe pair")
    worst = 0.0
    for (x, m), (xp, mp) in probes:
        denom = abs(x - xp) + abs(m - mp)
        if denom == 0.0:
            continue
        num = abs(U.dx(x, m) - U.dx(xp, mp))
        worst = max(worst, num / denom)
    return worst


# ---------------------------------------------------------------------------
# the checks of ``mfglab verify``
# ---------------------------------------------------------------------------
# Each check calls the functions above by their module-global names, so a
# wrapper installed in this module's namespace sees every call.


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one ``verify`` check: its summary line and its CSV."""

    passed: bool
    detail: str
    header: list[str]
    rows: list[tuple]


def _mc(cfg: RunConfig) -> MCConfig:
    """The Monte Carlo sizes of a run: its horizon, step, paths, seed and start."""
    return MCConfig(T=cfg.T, dt=cfg.dt, n_paths=cfg.n_paths, seed=cfg.seed,
                    x0=cfg.law0.mean)


def _horizon_at_most(cfg: RunConfig, cap: float) -> float:
    """min(T, cap), with the cap lowered to a whole number of steps (at least one)."""
    n_steps = max(1, math.floor(cap / cfg.dt * (1.0 + STEP_RTOL)))
    return min(cfg.T, n_steps * cfg.dt)


def _horizon_at_least(cfg: RunConfig, cap: float) -> float:
    """max(T, cap), with the cap raised to a whole number of steps."""
    n_steps = math.ceil(cap / cfg.dt * (1.0 - STEP_RTOL))
    return max(cfg.T, n_steps * cfg.dt)


def _check_nash(cfg: RunConfig, U: QuadraticValue) -> CheckResult:
    perts = [(f"offset_{eps:g}", offset_perturbation(cfg.model, U, eps))
             for eps in (0.25, 0.5, 1.0)]
    rep = verify_nash(cfg.model, U, perts, _mc(cfg), m0=cfg.law0.mean)
    return CheckResult(
        rep.all_non_negative,
        f"base {rep.base_cost.mean:.4f}, min delta CI "
        f"{min(p.delta_ci[0] for p in rep.perturbed):.3e}",
        ["label", "delta_mean", "ci_lo", "ci_hi", "stderr"],
        [(p.label, p.delta_mean, p.delta_ci[0], p.delta_ci[1], p.delta_se)
         for p in rep.perturbed],
    )


def _check_gateaux(cfg: RunConfig, U: QuadraticValue) -> CheckResult:
    slopes = gateaux_slope(cfg.model, U, 1.0, [1.0, 0.5, 0.25], _mc(cfg), m0=cfg.law0.mean)
    shrink = all(abs(s2) <= abs(s1) + 1e-9
                 for (_, s1), (_, s2) in zip(slopes, slopes[1:]))
    return CheckResult(shrink, "slopes " + ", ".join(f"{s:.4f}" for _, s in slopes),
                       ["epsilon", "slope"], slopes)


def _check_consistency(cfg: RunConfig, U: QuadraticValue) -> CheckResult:
    dev = flow_consistency(cfg.model, U, cfg.law0, min(cfg.n_particles, 200),
                           cfg.seed, _horizon_at_most(cfg, 2.0), cfg.dt)
    return CheckResult(dev <= 1e-9, f"max deviation {dev:.3e}",
                       ["max_deviation"], [(dev,)])


def _check_representation(cfg: RunConfig, U: QuadraticValue) -> CheckResult:
    fb = AffineFeedback.equilibrium(cfg.model, U)
    pop = simulate_population(cfg.model, fb, cfg.law0, min(cfg.n_particles, 2000),
                              _horizon_at_least(cfg, 4.0), cfg.dt, cfg.seed)
    try:
        gap = y_representation_check(cfg.model, U, pop.states, pop.means, pop.times)
    except BlowUpError as exc:  # the oracle failed, not the config
        return CheckResult(False, f"max gap nan: {exc}", ["max_gap"], [(math.nan,)])
    return CheckResult(gap <= 1e-3, f"max gap {gap:.3e}", ["max_gap"], [(gap,)])


def _check_uniqueness(cfg: RunConfig, U: QuadraticValue) -> CheckResult:
    law = cfg.law0 if cfg.law0.kind == "gaussian" else InitialLaw.gaussian(
        cfg.law0.mean, 0.5)
    rep = weak_uniqueness_check(
        cfg.model, U, x=cfg.law0.mean, law=law,
        seeds=(cfg.seed + 1, cfg.seed + 2),
        mc=replace(_mc(cfg), n_paths=min(cfg.n_paths, 4000)),
    )
    return CheckResult(
        rep.passed,
        f"z {rep.overlap_z:.2f}, KS {rep.ks_statistic:.4f} "
        f"(crit {rep.ks_critical_1pct:.4f})",
        ["value_a", "se_a", "value_b", "se_b", "z", "ks", "ks_crit"],
        [(rep.estimate_a[0], rep.estimate_a[1], rep.estimate_b[0],
          rep.estimate_b[1], rep.overlap_z, rep.ks_statistic, rep.ks_critical_1pct)],
    )


def _check_lipschitz(cfg: RunConfig, U: QuadraticValue) -> CheckResult:
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    pts = gen.uniform(-3.0, 3.0, size=(64, 4))
    probes = [((a, b), (c, d)) for a, b, c, d in pts]
    ratio = lipschitz_scan(cfg.model, U, probes)
    # relative slack for rounding: an absolute one would pass any ratio
    # when the gradient coefficients are far below it
    bound = max(2.0 * abs(U.a1), abs(U.a2)) * (1.0 + 1e-9)
    return CheckResult(ratio <= bound, f"max ratio {ratio:.4f} <= bound {bound:.4f}",
                       ["max_ratio", "gradient_bound"], [(ratio, bound)])


# name -> check; checks run in this order and each writes <name>.csv
CHECKS = {
    "nash": _check_nash,
    "gateaux": _check_gateaux,
    "consistency": _check_consistency,
    "representation": _check_representation,
    "uniqueness": _check_uniqueness,
    "lipschitz": _check_lipschitz,
}
