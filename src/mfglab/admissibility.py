"""Hypothesis checks on a model: structural gaps and sampled monotonicity.

``check_structural`` evaluates the closed-form solvability gaps.  The two
gap quantities are

    gap_structural = 2A - |b2|/2 - |b4| - r/2
    gap_control    = b3^2/(2C) - |b2|/2 - r/2

both of which must be positive, together with a dissipativity comparison
lambda > ell - r/2 with lambda = -b1 and ell = |b2|, and the existence of
k > 0 with |b2| <= k and -b1 >= k - r/2.

``check_monotonicity_sampled`` probes the abstract monotonicity inequality
for the forward/backward coefficient pair

    B(x, y, m) = b1 x + b2 m + b3 * alpha_hat(x, y)
    F(x, y, m) = b1 y + b4 m + 2 A x - r y

by randomized batches: with paired samples (X, X'), (Y, Y') and hats
denoting differences, the empirical value of

    E[-r Xh Yh - Xh (F - F') + Yh (B - B')]

must be <= -(r/2) E[Xh^2 + Yh^2] up to Monte Carlo tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LQModel
from .rng import STREAM_CHECKS, make_generator

# Per-batch sample count; large enough for the empirical-mean coupling terms.
BATCH_SIZE = 256
# Absolute tolerance for sampled inequalities at unit scale.
SAMPLED_TOL = 1e-3
# Sample-scale rotation so the inequality is probed at several magnitudes.
SCALES = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class AdmissibilityReport:
    lam: float
    ell_measure: float
    gap_structural: float
    gap_control: float
    passed: bool
    messages: tuple[str, ...]


@dataclass(frozen=True)
class MonotonicityReport:
    kappa: float
    worst_slack: float
    n_samples: int
    passed: bool


def check_structural(model: LQModel) -> AdmissibilityReport:
    """Evaluate every closed-form hypothesis; failures are reported, not raised."""
    lam = -model.b1 + 0.0
    ell = abs(model.b2)
    gap_structural = 2.0 * model.A - ell / 2.0 - abs(model.b4) - model.r / 2.0
    gap_control = model.control_gain - ell / 2.0 - model.r / 2.0

    messages = []
    if not lam > ell - model.r / 2.0:
        messages.append(
            f"dissipativity fails: lambda = {lam:g} <= |b2| - r/2 = {ell - model.r / 2:g}"
        )
    if not gap_structural > 0.0:
        messages.append(f"structural gap 2A - |b2|/2 - |b4| - r/2 = {gap_structural:g} <= 0")
    if not gap_control > 0.0:
        messages.append(f"control gap b3^2/(2C) - |b2|/2 - r/2 = {gap_control:g} <= 0")
    # Constructive witness for: exists k > 0 with |b2| <= k and -b1 >= k - r/2.
    k = ell if ell > 0.0 else min(model.r / 2.0, 1.0)
    if not (k > 0.0 and ell <= k and lam >= k - model.r / 2.0):
        messages.append(f"no positive k with |b2| <= k <= -b1 + r/2 (tried k = {k:g})")

    return AdmissibilityReport(
        lam=lam,
        ell_measure=ell,
        gap_structural=gap_structural,
        gap_control=gap_control,
        passed=not messages,
        messages=tuple(messages),
    )


def _batch_lhs(model: LQModel, X, Xp, Y, Yp) -> float:
    """Empirical monotonicity form for one batch, with kappa*E[...] added back
    by the caller."""
    m, mp = X.mean(), Xp.mean()
    xh = X - Xp
    yh = Y - Yp
    gain = model.control_gain
    B = model.b1 * X + model.b2 * m - gain * Y
    Bp = model.b1 * Xp + model.b2 * mp - gain * Yp
    F = model.b1 * Y + model.b4 * m + 2.0 * model.A * X - model.r * Y
    Fp = model.b1 * Yp + model.b4 * mp + 2.0 * model.A * Xp - model.r * Yp
    lhs = np.mean(-model.r * xh * yh - xh * (F - Fp) + yh * (B - Bp))
    return float(lhs), float(np.mean(xh * xh + yh * yh))


def check_monotonicity_sampled(model: LQModel, n: int, seed: int) -> MonotonicityReport:
    """Probe the monotonicity inequality with ``n`` Gaussian batches."""
    if n < 1:
        raise ValueError(f"number of batches must be >= 1, got {n}")
    kappa = model.r / 2.0
    worst = -np.inf
    for i in range(n):
        gen = make_generator(seed, stream=STREAM_CHECKS, index=i)
        scale = SCALES[i % len(SCALES)]
        X, Xp, Y, Yp = scale * gen.standard_normal((4, BATCH_SIZE))
        lhs, quad = _batch_lhs(model, X, Xp, Y, Yp)
        worst = max(worst, lhs + kappa * quad)
    return MonotonicityReport(
        kappa=kappa,
        worst_slack=float(worst),
        n_samples=n * BATCH_SIZE,
        passed=worst <= SAMPLED_TOL,
    )
