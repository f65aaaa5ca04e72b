"""Command-line surface.

Subcommands: check, solve, simulate, verify, fixed-point.
Exit codes: 0 success, 2 config/usage error (a horizon or space grid of
2**53 or more steps is a config error, and a run that cannot allocate its
arrays ends with a one-line "error:" message), 3 root-selection failure or
a failed Riccati rest-point self-check, 4 simulation divergence, 5
fixed-point non-convergence.  All randomness flows from the config seed;
--seed and --out override sim.seed and output and are parsed by the same
rules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .admissibility import check_monotonicity_sampled, check_structural
from .config import RunConfig, load_config
from .errors import (
    AmbiguousRootError,
    BlowUpError,
    ConfigError,
    DegenerateA3Error,
    DivergedError,
    MFGLabError,
    NoAdmissibleRootError,
    NoRealRootError,
    RestPointMismatchError,
    StepTooLargeError,
)
from .fixed_point import FixedPointConfig, solve_mfg
from .io_csv import write_csv, write_text
from .master import is_admissible, select_admissible, solve_root_system
from .model import closed_loop_coeffs
from .simulate import (
    AffineFeedback,
    InitialLaw,
    estimate_cost,
    export_flow_csv,
    simulate_population,
    simulate_representative,
)
from .verify import (
    MCConfig,
    flow_consistency,
    gateaux_slope,
    lipschitz_scan,
    offset_perturbation,
    verify_nash,
    weak_uniqueness_check,
    y_representation_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ROOTS = 3
EXIT_DIVERGED = 4
EXIT_NO_CONVERGENCE = 5


def cmd_check(cfg: RunConfig) -> int:
    rep = check_structural(cfg.model)
    print(f"lambda           = {rep.lam:.6g}")
    print(f"ell (measure)    = {rep.ell_measure:.6g}")
    print(f"gap structural   = {rep.gap_structural:.6g}")
    print(f"gap control      = {rep.gap_control:.6g}")
    print(f"structural check : {'PASS' if rep.passed else 'FAIL'}")
    for msg in rep.messages:
        print(f"  - {msg}")
    mono = check_monotonicity_sampled(cfg.model, n=1000, seed=cfg.seed)
    print(f"monotonicity kappa = {mono.kappa:.6g}, worst slack = "
          f"{mono.worst_slack:.3e} over {mono.n_samples} samples: "
          f"{'PASS' if mono.passed else 'FAIL'}")
    return EXIT_OK if (rep.passed and mono.passed) else EXIT_CONFIG


def _solve_roots(cfg: RunConfig):
    candidates = solve_root_system(cfg.model)
    selected = select_admissible(cfg.model, candidates)
    return candidates, selected


def cmd_solve(cfg: RunConfig) -> int:
    candidates, selected = _solve_roots(cfg)
    rows = []
    for U in candidates:
        cx, cm = closed_loop_coeffs(cfg.model, U)
        rows.append((U.a1, U.a2, U.a3, U.a4, cx, cm, is_admissible(cfg.model, U)))
    write_csv(os.path.join(cfg.output, "roots.csv"),
              ["a1", "a2", "a3", "a4", "cx", "cm", "admissible"], rows)
    cx, cm = closed_loop_coeffs(cfg.model, selected)
    write_csv(os.path.join(cfg.output, "selected.csv"),
              ["a1", "a2", "a3", "a4", "cx", "cm"],
              [(selected.a1, selected.a2, selected.a3, selected.a4, cx, cm)])
    print(f"selected: a1={selected.a1:.12g} a2={selected.a2:.12g} "
          f"a3={selected.a3:.12g} a4={selected.a4:.12g}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    _, U = _solve_roots(cfg)
    fb = AffineFeedback.equilibrium(cfg.model, U)
    pop = simulate_population(
        cfg.model, fb, cfg.law0, cfg.n_particles, cfg.T, cfg.dt, cfg.seed
    )
    write_csv(os.path.join(cfg.output, "flow.csv"),
              ["t", "mean", "var", "q05", "q95"], export_flow_csv(pop))
    batch = simulate_representative(
        cfg.model, fb, x0=cfg.law0.mean, mean_flow=pop.means,
        T=cfg.T, dt=cfg.dt, seed=cfg.seed, n_paths=cfg.n_paths,
    )
    est = estimate_cost(cfg.model, batch)
    write_csv(os.path.join(cfg.output, "cost.csv"),
              ["mean", "stderr", "ci_lo", "ci_hi", "tail_bound"],
              [(est.mean, est.std_error, est.ci95[0], est.ci95[1], est.tail_bound)])
    print(f"cost mean = {est.mean:.6g} +- {est.std_error:.2g} "
          f"(tail bound {est.tail_bound:.2e})")
    return EXIT_OK


def cmd_fixed_point(cfg: RunConfig) -> int:
    if cfg.n_particles < 2:
        raise ConfigError("fixed-point needs sim.nParticles >= 2")
    fp_cfg = FixedPointConfig(
        T=cfg.T, dt=cfg.dt, x_lo=cfg.x_lo, x_hi=cfg.x_hi, dx=cfg.dx,
        N=cfg.n_particles, damping=cfg.damping, tol=cfg.tol,
        max_iter=cfg.max_iter, seed=cfg.seed,
    )
    report = solve_mfg(cfg.model, cfg.law0, fp_cfg)
    write_csv(os.path.join(cfg.output, "flow_iterations.csv"),
              ["iter", "sup_delta"],
              [(i + 1, d) for i, d in enumerate(report.deltas)])
    write_csv(os.path.join(cfg.output, "final_flow.csv"), ["t", "m"],
              list(zip(report.final_flow.times, report.final_flow.m)))
    field = report.final_field
    table = np.empty(field.u.shape + (3,))
    table[..., 0] = field.times[:, None]
    table[..., 1] = field.x
    table[..., 2] = field.u
    write_csv(os.path.join(cfg.output, "field.csv"), ["t", "x", "u"],
              table.reshape(-1, 3))
    print(f"fixed point: {report.iterations} iterations, "
          f"sup delta {report.flow_delta:.3e}, "
          f"{'converged' if report.converged else 'NOT converged'}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one ``verify`` check: its summary line and its CSV."""

    passed: bool
    detail: str
    header: list[str]
    rows: list[tuple]


def _check_nash(cfg: RunConfig, U, mc: MCConfig) -> CheckResult:
    perts = [(f"offset_{eps:g}", offset_perturbation(cfg.model, U, eps))
             for eps in (0.25, 0.5, 1.0)]
    rep = verify_nash(cfg.model, U, perts, mc, m0=cfg.law0.mean)
    return CheckResult(
        rep.all_non_negative,
        f"base {rep.base_cost.mean:.4f}, min delta CI "
        f"{min(p.delta_ci[0] for p in rep.perturbed):.3e}",
        ["label", "delta_mean", "ci_lo", "ci_hi", "stderr"],
        [(p.label, p.delta_mean, p.delta_ci[0], p.delta_ci[1], p.delta_se)
         for p in rep.perturbed],
    )


def _check_gateaux(cfg: RunConfig, U, mc: MCConfig) -> CheckResult:
    slopes = gateaux_slope(cfg.model, U, 1.0, [1.0, 0.5, 0.25], mc, m0=cfg.law0.mean)
    shrink = all(abs(s2) <= abs(s1) + 1e-9
                 for (_, s1), (_, s2) in zip(slopes, slopes[1:]))
    return CheckResult(shrink, "slopes " + ", ".join(f"{s:.4f}" for _, s in slopes),
                       ["epsilon", "slope"], slopes)


def _horizon_at_most(cfg: RunConfig, cap: float) -> float:
    """min(T, cap), with the cap lowered to a whole number of steps (at least one)."""
    n_steps = max(1, math.floor(cap / cfg.dt * (1.0 + 1e-9)))
    return min(cfg.T, n_steps * cfg.dt)


def _horizon_at_least(cfg: RunConfig, cap: float) -> float:
    """max(T, cap), with the cap raised to a whole number of steps."""
    n_steps = math.ceil(cap / cfg.dt * (1.0 - 1e-9))
    return max(cfg.T, n_steps * cfg.dt)


def _check_consistency(cfg: RunConfig, U, mc: MCConfig) -> CheckResult:
    dev = flow_consistency(cfg.model, U, cfg.law0, min(cfg.n_particles, 200),
                           cfg.seed, _horizon_at_most(cfg, 2.0), cfg.dt)
    return CheckResult(dev <= 1e-9, f"max deviation {dev:.3e}",
                       ["max_deviation"], [(dev,)])


def _check_representation(cfg: RunConfig, U, mc: MCConfig) -> CheckResult:
    fb = AffineFeedback.equilibrium(cfg.model, U)
    pop = simulate_population(cfg.model, fb, cfg.law0, min(cfg.n_particles, 2000),
                              _horizon_at_least(cfg, 4.0), cfg.dt, cfg.seed)
    try:
        gap = y_representation_check(cfg.model, U, pop.states, pop.means, pop.times)
    except BlowUpError as exc:  # the oracle failed, not the config
        return CheckResult(False, f"max gap nan: {exc}", ["max_gap"], [(math.nan,)])
    return CheckResult(gap <= 1e-3, f"max gap {gap:.3e}", ["max_gap"], [(gap,)])


def _check_uniqueness(cfg: RunConfig, U, mc: MCConfig) -> CheckResult:
    law = cfg.law0 if cfg.law0.kind == "gaussian" else InitialLaw.gaussian(
        cfg.law0.mean, 0.5)
    rep = weak_uniqueness_check(
        cfg.model, U, x=cfg.law0.mean, law=law,
        seeds=(cfg.seed + 1, cfg.seed + 2),
        mc=replace(mc, n_paths=min(mc.n_paths, 4000)),
    )
    return CheckResult(
        rep.passed,
        f"z {rep.overlap_z:.2f}, KS {rep.ks_statistic:.4f} "
        f"(crit {rep.ks_critical_1pct:.4f})",
        ["value_a", "se_a", "value_b", "se_b", "z", "ks", "ks_crit"],
        [(rep.estimate_a[0], rep.estimate_a[1], rep.estimate_b[0],
          rep.estimate_b[1], rep.overlap_z, rep.ks_statistic, rep.ks_critical_1pct)],
    )


def _check_lipschitz(cfg: RunConfig, U, mc: MCConfig) -> CheckResult:
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    pts = gen.uniform(-3.0, 3.0, size=(64, 4))
    probes = [((a, b), (c, d)) for a, b, c, d in pts]
    ratio = lipschitz_scan(cfg.model, U, probes)
    bound = max(2.0 * abs(U.a1), abs(U.a2)) + 1e-9
    return CheckResult(ratio <= bound, f"max ratio {ratio:.4f} <= bound {bound:.4f}",
                       ["max_ratio", "gradient_bound"], [(ratio, bound)])


# name -> check; checks run in this order and each writes <name>.csv
_CHECKS = {
    "nash": _check_nash,
    "gateaux": _check_gateaux,
    "consistency": _check_consistency,
    "representation": _check_representation,
    "uniqueness": _check_uniqueness,
    "lipschitz": _check_lipschitz,
}
VERIFY_CHECKS = tuple(_CHECKS)


def cmd_verify(cfg: RunConfig, which: list[str]) -> int:
    if not which:
        print("error: no checks selected", file=sys.stderr)
        return EXIT_CONFIG
    for name in which:
        if name not in VERIFY_CHECKS:
            print(f"error: unknown check {name!r} "
                  f"(known: {', '.join(VERIFY_CHECKS)})", file=sys.stderr)
            return EXIT_CONFIG
    _, U = _solve_roots(cfg)
    mc = MCConfig(T=cfg.T, dt=cfg.dt, n_paths=cfg.n_paths, seed=cfg.seed,
                  x0=cfg.law0.mean)
    lines = []
    all_pass = True
    for name, check in _CHECKS.items():
        if name not in which:
            continue
        res = check(cfg, U, mc)
        write_csv(os.path.join(cfg.output, f"{name}.csv"), res.header, res.rows)
        all_pass = all_pass and res.passed
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {name}: {res.detail}")

    write_text(os.path.join(cfg.output, "summary.txt"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK if all_pass else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="Linear-quadratic mean field game solver and verifier",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "solve", "simulate", "verify", "fixed-point"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)
        if name == "verify":
            p.add_argument("--checks", default=",".join(VERIFY_CHECKS),
                           help="comma-separated subset of: "
                                + ", ".join(VERIFY_CHECKS))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {"sim.seed": args.seed, "output": args.out}
    try:
        cfg = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "fixed-point":
            return cmd_fixed_point(cfg)
        if args.command == "verify":
            which = [w for w in (s.strip() for s in args.checks.split(",")) if w]
            return cmd_verify(cfg, which)
    except (NoRealRootError, NoAdmissibleRootError, AmbiguousRootError,
            DegenerateA3Error, RestPointMismatchError) as exc:
        print(f"root selection failed: {exc}", file=sys.stderr)
        return EXIT_ROOTS
    except (DivergedError, StepTooLargeError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except MFGLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: not enough memory for this config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
