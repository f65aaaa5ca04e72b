"""Run configuration: flat ``section.key = value`` files, strictly parsed.

Unknown keys are errors, never warnings.  Each key is stated once, in
``_KEYS``; ``parse_value`` reads every value, from the file or the command
line.  The format is line-oriented and dependency-free so configs diff cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ModelError
from .model import LQModel
from .simulate import InitialLaw, whole_steps

_LAWS = {"dirac": InitialLaw.dirac, "gaussian": InitialLaw.gaussian}


@dataclass
class RunConfig:
    model: LQModel
    law0: InitialLaw
    T: float = 6.0
    dt: float = 1e-3
    n_paths: int = 10_000
    n_particles: int = 10_000
    seed: int = 0
    damping: float = 0.5
    tol: float = 1e-2
    max_iter: int = 30
    x_lo: float = -6.0
    x_hi: float = 6.0
    dx: float = 0.05
    output: str = "out"


# key -> (target, name, type).  Target "model" is a required LQModel
# coefficient, "dirac"/"gaussian" an argument of that law0.kind's InitialLaw
# constructor, "run" a RunConfig field.  A type is float (finite), int, str,
# a tuple of the allowed words, or "seed": an int in [0, 2**64), since rng
# keys use a seed's low 64 bits and larger seeds would alias smaller ones.
_KEYS = {
    "model.r": ("model", "r", float),
    "model.b1": ("model", "b1", float),
    "model.b2": ("model", "b2", float),
    "model.b3": ("model", "b3", float),
    "model.b4": ("model", "b4", float),
    "model.A": ("model", "A", float),
    "model.C": ("model", "C", float),
    "law0.kind": ("law", "kind", tuple(_LAWS)),
    "law0.x0": ("dirac", "x0", float),
    "law0.mean": ("gaussian", "mean", float),
    "law0.sd": ("gaussian", "sd", float),
    "sim.T": ("run", "T", float),
    "sim.dt": ("run", "dt", float),
    "sim.nPaths": ("run", "n_paths", int),
    "sim.nParticles": ("run", "n_particles", int),
    "sim.seed": ("run", "seed", "seed"),
    "fixedPoint.damping": ("run", "damping", float),
    "fixedPoint.tol": ("run", "tol", float),
    "fixedPoint.maxIter": ("run", "max_iter", int),
    "fixedPoint.xLo": ("run", "x_lo", float),
    "fixedPoint.xHi": ("run", "x_hi", float),
    "fixedPoint.dx": ("run", "dx", float),
    "output": ("run", "output", str),
}


def parse_value(key: str, text: str, line: int | None = None):
    """The value of the known ``key`` written as ``text``, by its type."""
    kind = _KEYS[key][2]
    if isinstance(kind, tuple) and text not in kind:
        raise ConfigError(f"{key} must be {' or '.join(kind)}, got {text!r}", line=line)
    if kind is str or isinstance(kind, tuple):
        return text
    try:
        value = float(text) if kind is float else int(text, 0)
    except ValueError:
        noun = "a real number" if kind is float else "an integer"
        raise ConfigError(f"{key}: cannot parse {text!r} as {noun}", line=line)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}", line=line)
    if kind == "seed" and not 0 <= value < 2**64:
        raise ConfigError(f"{key} must lie in [0, 2**64), got {text!r}", line=line)
    return value


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    """key -> (value, line number); comments start with '#'."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = (part.strip() for part in stripped.partition("="))
        if not (sep and key and value):
            raise ConfigError("expected 'key = value'", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        out[key] = (value, lineno)
    return out


def _steps(span_key: str, span: float, step_key: str, step: float) -> int:
    try:
        return whole_steps(span, step)
    except ValueError:
        raise ConfigError(f"{span_key} = {span!r} must be a whole number of steps "
                          f"{step_key} = {step!r} > 0, fewer than 2**53")


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """The config in ``text``; ``overrides`` (key -> value text, e.g. from
    the command line) replace the file's entries under the same rules."""
    entries = _parse_lines(text)
    entries.update((key, (value, None)) for key, value in (overrides or {}).items())
    kind = parse_value("law0.kind", *entries.get("law0.kind", ("dirac", None)))
    values = {target: {} for target, _, _ in _KEYS.values()}
    for key, (value, lineno) in entries.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        target, name, _ = _KEYS[key]
        if target in _LAWS and target != kind:
            raise ConfigError(f"{key} belongs to law0.kind = {target}, not {kind}",
                              line=lineno)
        values[target][name] = parse_value(key, value, lineno)

    for key, (target, _, _) in _KEYS.items():
        if target == "model" and key not in entries:
            raise ConfigError(f"missing required key {key}")
    try:
        cfg = RunConfig(LQModel(**values["model"]), _LAWS[kind](**values[kind]),
                        **values["run"])
    except (ModelError, ValueError) as exc:
        raise ConfigError(f"invalid model or law0: {exc}")
    if _steps("sim.T", cfg.T, "sim.dt", cfg.dt) < 1:
        raise ConfigError("sim.T must be at least one step sim.dt")
    if cfg.n_paths < 2 or cfg.n_particles < 1:
        raise ConfigError("sim.nPaths must be at least 2 and sim.nParticles at least 1")
    if not 0.0 < cfg.damping <= 1.0:
        raise ConfigError("fixedPoint.damping must lie in (0, 1]")
    if cfg.tol <= 0 or cfg.max_iter < 1:
        raise ConfigError("fixedPoint.tol must be positive and fixedPoint.maxIter at least 1")
    if _steps("fixedPoint.xHi - fixedPoint.xLo", cfg.x_hi - cfg.x_lo,
              "fixedPoint.dx", cfg.dx) < 4:
        raise ConfigError("fixedPoint.xHi - fixedPoint.xLo must be at least 4 steps dx")
    return cfg


def load_config(path: str, overrides: dict[str, str] | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config(text, overrides)
