"""Command-line surface: parses arguments, dispatches to the library and
writes the results.

Subcommands: check, solve, simulate, verify, fixed-point.  The checks of
``verify``, their sizes and their verdicts are ``verify.CHECKS``; here the
selected names are validated, run in table order, and each result written
to ``<name>.csv`` and a line of ``summary.txt``.
Exit codes: 0 success, 2 config/usage error (a horizon or space grid of
2**53 or more steps is a config error, and a run that cannot allocate its
arrays or cannot write to its --out path, such as an existing file, ends
with a one-line "error:" message; every command but ``check``, which writes
nothing, makes that path before it computes anything),
3 root-selection failure or a failed Riccati rest-point self-check,
4 simulation divergence, 5 fixed-point non-convergence, 6 a check of
``check`` or ``verify`` that ran and FAILed.
All randomness flows from the config seed; --seed and --out override
sim.seed and output and are parsed by the same rules.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .admissibility import check_monotonicity_sampled, check_structural
from .config import RunConfig, load_config
from .errors import (
    AmbiguousRootError,
    ConfigError,
    DegenerateA3Error,
    DivergedError,
    MFGLabError,
    NoAdmissibleRootError,
    NoRealRootError,
    RestPointMismatchError,
    StepTooLargeError,
)
from .fixed_point import solve_mfg
from .io_csv import write_csv, write_text
from .master import is_admissible, select_admissible, solve_root_system, solve_selected
from .model import closed_loop_coeffs
from .simulate import (
    AffineFeedback,
    estimate_cost,
    export_flow_csv,
    simulate_population,
    simulate_representative,
)
from .verify import CHECKS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ROOTS = 3
EXIT_DIVERGED = 4
EXIT_NO_CONVERGENCE = 5
EXIT_CHECK_FAILED = 6

# the names --checks accepts, in the order the checks run
VERIFY_CHECKS = tuple(CHECKS)


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
    return EXIT_OK if (rep.passed and mono.passed) else EXIT_CHECK_FAILED


def cmd_solve(cfg: RunConfig) -> int:
    candidates = solve_root_system(cfg.model)
    selected = select_admissible(cfg.model, candidates)
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
    U = solve_selected(cfg.model)
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
    report = solve_mfg(cfg)
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


def selected_checks(text: str) -> list[str]:
    """The check names of a ``--checks`` value; ConfigError unless each is
    in ``VERIFY_CHECKS`` and there is at least one."""
    which = [w for w in (s.strip() for s in text.split(",")) if w]
    if not which:
        raise ConfigError("no checks selected")
    for name in which:
        if name not in VERIFY_CHECKS:
            raise ConfigError(f"unknown check {name!r} (known: {', '.join(VERIFY_CHECKS)})")
    return which


def cmd_verify(cfg: RunConfig, which: list[str]) -> int:
    U = solve_selected(cfg.model)
    lines = []
    all_pass = True
    for name, check in CHECKS.items():
        if name not in which:
            continue
        res = check(cfg, U)
        write_csv(os.path.join(cfg.output, f"{name}.csv"), res.header, res.rows)
        all_pass = all_pass and res.passed
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {name}: {res.detail}")

    write_text(os.path.join(cfg.output, "summary.txt"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


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
        if args.command == "check":  # writes nothing
            return cmd_check(cfg)
        which = selected_checks(args.checks) if args.command == "verify" else None
        # an output path that cannot be made fails before any computation
        os.makedirs(cfg.output, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "fixed-point":
            return cmd_fixed_point(cfg)
        if args.command == "verify":
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
    except OSError as exc:  # the output path cannot be written
        print(f"error: cannot write outputs to {cfg.output}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
