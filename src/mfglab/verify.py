"""Claim-checking harness: optimality, stationarity, consistency identities,
the adjoint representation, weak uniqueness and value-function Lipschitz
continuity — each reduced to a seeded, tolerance-bearing numerical check.

All paired cost comparisons run under common random numbers: the perturbed
control is simulated against byte-identical noise streams, so the per-path
cost differences carry orders of magnitude less variance than the costs.
Every perturbation is the equilibrium feedback with a constant offset, an
``AffineFeedback`` value: the Nash offsets and the Gateaux steps eps * 1.0
that coincide are equal feedbacks.

The paired comparisons and the weak-uniqueness check take their run from
one ``config.RunConfig``: the model, the initial law, the horizon and step,
the path count and the seed.  The representative player starts at the
initial law's mean, and the equilibrium mean flow starts there too.

Every judged claim has one judge and one result, the ``CheckResult``
(verdict, summary line, CSV table) that ``verify`` writes: ``verify_nash``,
``gateaux_slope`` and ``weak_uniqueness_check`` return it, and the
measuring functions (``flow_consistency``, ``y_representation_check``,
``lipschitz_scan``) return numbers that the command's checks judge.
``CHECKS`` is the table of the ``verify`` command: each entry maps a run
config and the selected root to a ``CheckResult``, with its sizes and its
verdict threshold stated in that entry.  ``run_checks`` runs the selected
entries.  The paired checks, nash and gateaux, also take their legs:
``run_checks`` simulates the legs of all selected paired checks in one
``_paired_legs`` call before any check runs, so one ``verify`` run draws
each block of paths once, and each check judges its legs without drawing;
``verify_nash`` and ``gateaux_slope`` are the same judges, ``_nash`` and
``_gateaux``, on a plan of their own legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .config import RunConfig
from .errors import BlowUpError
from .master import QuadraticValue, is_admissible
from .model import LQModel, closed_loop_coeffs, hamiltonian_H_dx
from .riccati import riccati_backward
from .simulate import (
    STEP_RTOL,
    AffineFeedback,
    InitialLaw,
    TrajectoryBatch,
    estimate_cost,
    simulate_legs,
    simulate_population,
    simulate_representative,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one judged claim: its verdict, the summary line ``verify``
    prints and the CSV table it writes."""

    passed: bool
    detail: str
    header: list[str]
    rows: list[tuple]


def _require_admissible(model: LQModel, U: QuadraticValue) -> None:
    if not is_admissible(model, U):
        raise ValueError("candidate is not admissible for this model")


def equilibrium_mean_flow(model: LQModel, U: QuadraticValue, m0: float):
    """Analytic population mean under equilibrium: m(t) = m0 * exp((cx+cm) t)."""
    cx, cm = closed_loop_coeffs(model, U)
    rate = cx + cm
    return lambda t: m0 * np.exp(rate * np.asarray(t))


def _paired_legs(
    cfg: RunConfig,
    U: QuadraticValue,
    groups,
) -> list[tuple[TrajectoryBatch, list[tuple[TrajectoryBatch, np.ndarray]]]]:
    """Common-random-number legs against the equilibrium, for each group of
    feedbacks, in one ``simulate_legs`` call.

    Each group gets its own base leg, which plays the equilibrium feedback,
    and one perturbed leg per feedback of the group.  Every leg starts at
    the initial law's mean, faces the equilibrium mean flow from that same
    mean and consumes the same noise streams of ``cfg.seed``, drawn once per
    block for all legs of all groups; a group's batches are therefore
    bitwise those of simulating that group alone.  Returns, per group, the
    base batch and, per feedback, its batch with the per-path cost
    differences (perturbed minus base).
    """
    model, x0 = cfg.model, cfg.law0.mean
    _require_admissible(model, U)
    groups = [list(group) for group in groups]
    base_fb = AffineFeedback.equilibrium(model, U)
    batches = iter(simulate_legs(
        model, [fb for group in groups for fb in (base_fb, *group)], x0=x0,
        mean_flow=equilibrium_mean_flow(model, U, x0), T=cfg.T, dt=cfg.dt,
        seed=cfg.seed, n_paths=cfg.n_paths,
    ))
    out = []
    for group in groups:
        base = next(batches)
        legs = [next(batches) for _ in group]
        out.append((base, [(pert, pert.costs - base.costs) for pert in legs]))
    return out


def _nash(model: LQModel, labels, base: TrajectoryBatch, legs) -> CheckResult:
    """The Nash verdict on paired legs: the base cost in the summary line
    and per labelled leg a row of the mean cost difference, its 95% interval
    and its standard error.  A leg whose interval reaches down to -3
    standard errors fails; a NaN row does not."""
    rows = []
    for label, (_, diff) in zip(labels, legs):
        dm = float(diff.mean())
        dse = float(diff.std(ddof=1) / math.sqrt(diff.size))
        rows.append((label, dm, dm - 1.96 * dse, dm + 1.96 * dse, dse))
    return CheckResult(
        not any(lo <= -3.0 * se for _, _, lo, _, se in rows),
        f"base {estimate_cost(model, base).mean:.4f}, min delta CI "
        f"{min((lo for _, _, lo, _, _ in rows), default=math.nan):.3e}",
        ["label", "delta_mean", "ci_lo", "ci_hi", "stderr"], rows)


def verify_nash(cfg: RunConfig, U: QuadraticValue, perturbations) -> CheckResult:
    """Paired cost comparison of the equilibrium against each perturbation,
    judged by ``_nash``.

    ``perturbations`` is a list of (label, feedback) pairs, such as those
    of ``offset_perturbation``.  The population stays at equilibrium (a
    single player's deviation does not move the flow).
    """
    perturbations = list(perturbations)
    [(base, legs)] = _paired_legs(cfg, U, [[fb for _, fb in perturbations]])
    return _nash(cfg.model, [label for label, _ in perturbations], base, legs)


def offset_perturbation(model: LQModel, U: QuadraticValue, offset: float) -> AffineFeedback:
    """Equilibrium feedback plus a constant offset on the control."""
    return AffineFeedback.equilibrium(model, U).with_offset(offset)


def _gateaux_feedbacks(model: LQModel, U: QuadraticValue, direction: float, epsilons):
    """The equilibrium feedback offset by eps * direction, per epsilon."""
    base_fb = AffineFeedback.equilibrium(model, U)
    return [base_fb.with_offset(eps * direction) for eps in epsilons]


def _gateaux(epsilons, legs) -> CheckResult:
    """The Gateaux verdict on paired legs: per step eps a row (eps, mean
    cost difference / eps), the slope 0 at eps = 0, in the order of the
    steps; the slopes pass when, taken in order of decreasing |eps|, each
    is at most the previous one in magnitude (plus 1e-9), so they shrink
    towards the minimum whatever order the steps are given in."""
    slopes = [(float(eps), float(diff.mean()) / eps if eps != 0.0 else 0.0)
              for eps, (_, diff) in zip(epsilons, legs)]
    by_step = sorted(slopes, key=lambda row: -abs(row[0]))
    shrink = all(abs(s2) <= abs(s1) + 1e-9
                 for (_, s1), (_, s2) in zip(by_step, by_step[1:]))
    return CheckResult(shrink, "slopes " + ", ".join(f"{s:.4f}" for _, s in slopes),
                       ["epsilon", "slope"], slopes)


def gateaux_slope(cfg: RunConfig, U: QuadraticValue, direction: float, epsilons) -> CheckResult:
    """Finite-difference directional derivatives of the cost at equilibrium,
    judged by ``_gateaux``: ``direction`` is a constant control offset,
    taken in steps ``eps``, and each row is (eps, (J(eps) - J(0)) / eps).
    Slopes of a quadratic cost are linear in eps and vanish at the minimum.
    """
    epsilons = list(epsilons)
    [(_, legs)] = _paired_legs(
        cfg, U, [_gateaux_feedbacks(cfg.model, U, direction, epsilons)])
    return _gateaux(epsilons, legs)


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


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    With c_a, c_b the counts of each sample at or below a pooled point, the
    gap at that point is |c_a n_b - c_b n_a| / (n_a n_b); its maximum is
    h / lcm(n_a, n_b) with the integer h = max |c_a n_b - c_b n_a| / gcd.
    Equal to ``scipy.stats.ks_2samp(a, b).statistic``, which rounds to the
    same fraction for samples of at most 10000 values.
    """
    a, b = np.sort(a), np.sort(b)
    n_a, n_b = a.size, b.size
    pooled = np.concatenate([a, b])
    c_a = np.searchsorted(a, pooled, side="right")
    c_b = np.searchsorted(b, pooled, side="right")
    g = math.gcd(n_a, n_b)
    h = int(np.max(np.abs(c_a * n_b - c_b * n_a))) // g
    return h / (n_a // g * n_b)


def weak_uniqueness_check(
    cfg: RunConfig,
    U: QuadraticValue,
    x: float,
    seeds: tuple[int, int],
    n_particles: int = 4000,
) -> CheckResult:
    """Statistical surrogate for weak uniqueness.

    Two pathwise-different but equal-in-law initial ensembles are built by
    antithetic inverse-CDF sampling of ``cfg.law0`` over a midpoint grid (an
    empirical law has no inverse CDF: ValueError); the populations evolve
    under independent Brownian seeds.  The initial adjoint estimate at state
    x, over ``cfg.n_paths`` paths, and the terminal state distributions must
    then agree up to Monte Carlo noise: the z-score of the two estimates is
    at most 3 and the exact two-sample KS statistic of the terminal states,
    h / lcm(n, n) = h / n for ``n_particles`` each, is below its 1% critical
    value.  The one row holds both estimates with their standard errors,
    the z-score, the KS statistic and its critical value.
    """
    model = cfg.model
    _require_admissible(model, U)
    u_grid = (np.arange(n_particles) + 0.5) / n_particles
    xi_a = cfg.law0.quantile(u_grid)
    xi_b = cfg.law0.quantile(1.0 - u_grid)
    fb = AffineFeedback.equilibrium(model, U)
    s_a, s_b = seeds

    results = []
    for xi, seed in ((xi_a, s_a), (xi_b, s_b)):
        pop = simulate_population(
            model, fb, InitialLaw.empirical(xi), n_particles, cfg.T, cfg.dt, seed
        )
        mean, se = _value_estimate(
            model, U, x, pop.means, cfg.T, cfg.dt, seed, cfg.n_paths
        )
        results.append((mean, se, pop.states[-1]))

    (mean_a, se_a, term_a), (mean_b, se_b, term_b) = results
    denom = math.hypot(se_a, se_b)
    z = abs(mean_a - mean_b) / denom if denom > 0 else 0.0
    ks = _ks_statistic(term_a, term_b)
    critical = math.sqrt(-math.log(0.01 / 2.0) / 2.0) * math.sqrt(2.0 / n_particles)
    return CheckResult(
        z <= 3.0 and ks < critical,
        f"z {z:.2f}, KS {ks:.4f} (crit {critical:.4f})",
        ["value_a", "se_a", "value_b", "se_b", "z", "ks", "ks_crit"],
        [(mean_a, se_a, mean_b, se_b, z, ks, critical)],
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


def _horizon_at_most(cfg: RunConfig, cap: float) -> float:
    """min(T, cap), with the cap lowered to a whole number of steps (at least one)."""
    n_steps = max(1, math.floor(cap / cfg.dt * (1.0 + STEP_RTOL)))
    return min(cfg.T, n_steps * cfg.dt)


def _horizon_at_least(cfg: RunConfig, cap: float) -> float:
    """max(T, cap), with the cap raised to a whole number of steps."""
    n_steps = math.ceil(cap / cfg.dt * (1.0 - STEP_RTOL))
    return max(cfg.T, n_steps * cfg.dt)


# the Nash offsets, and the Gateaux steps along the unit offset
_NASH_OFFSETS = (0.25, 0.5, 1.0)
_GATEAUX_STEPS = (1.0, 0.5, 0.25)


def _nash_legs(cfg: RunConfig, U: QuadraticValue) -> list[AffineFeedback]:
    return [offset_perturbation(cfg.model, U, eps) for eps in _NASH_OFFSETS]


def _gateaux_legs(cfg: RunConfig, U: QuadraticValue) -> list[AffineFeedback]:
    return _gateaux_feedbacks(cfg.model, U, 1.0, _GATEAUX_STEPS)


def _check_nash(cfg: RunConfig, U: QuadraticValue, paired) -> CheckResult:
    return _nash(cfg.model, [f"offset_{eps:g}" for eps in _NASH_OFFSETS], *paired)


def _check_gateaux(cfg: RunConfig, U: QuadraticValue, paired) -> CheckResult:
    return _gateaux(_GATEAUX_STEPS, paired[1])


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
    return weak_uniqueness_check(
        replace(cfg, law0=law, n_paths=min(cfg.n_paths, 4000)), U,
        x=cfg.law0.mean, seeds=(cfg.seed + 1, cfg.seed + 2),
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

# name -> the feedbacks of a paired check; its check also takes the legs
_PAIRED = {
    "nash": _nash_legs,
    "gateaux": _gateaux_legs,
}


def run_checks(cfg: RunConfig, U: QuadraticValue, which):
    """Yield (name, CheckResult) for each check in ``which``, in table order.

    Before any check runs, the legs of every selected paired check are
    simulated in one ``_paired_legs`` call, in table order, so each block
    of paths is drawn once for all of them.  Nash's and Gateaux's legs are
    equal feedbacks, yet both groups are stepped: mfgbench's traced
    path-step check expects 8 legs, so dropping the duplicates waits for
    its count to follow the legs actually computed (ROADMAP item 2).
    """
    paired = [name for name in _PAIRED if name in which]
    planned = {}
    if paired:  # an empty plan would still draw the noise
        groups = _paired_legs(cfg, U, [_PAIRED[name](cfg, U) for name in paired])
        planned = dict(zip(paired, groups))
    for name, check in CHECKS.items():
        if name in planned:
            yield name, check(cfg, U, planned[name])
        elif name in which:
            yield name, check(cfg, U)
