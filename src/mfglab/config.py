"""Run configuration: flat ``section.key = value`` files, strictly parsed.

Unknown keys are errors, never warnings; every numeric field must parse.
The format is deliberately line-oriented and dependency-free so configs
diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .model import LQModel
from .simulate import InitialLaw, whole_steps

_MODEL_KEYS = {"r", "b1", "b2", "b3", "b4", "A", "C"}
_LAW_KEYS = {"kind", "x0", "mean", "sd"}
_SIM_KEYS = {"T", "dt", "nPaths", "nParticles", "seed"}
_FP_KEYS = {"damping", "tol", "maxIter", "xLo", "xHi", "dx"}
_TOP_KEYS = {"output"}


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
    raw: dict = field(default_factory=dict)


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    """key -> (value, line number); comments start with '#'."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError("empty key or value", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        out[key] = (value, lineno)
    return out


def _known(key: str) -> bool:
    if key in _TOP_KEYS:
        return True
    section, _, name = key.partition(".")
    return (
        (section == "model" and name in _MODEL_KEYS)
        or (section == "law0" and name in _LAW_KEYS)
        or (section == "sim" and name in _SIM_KEYS)
        or (section == "fixedPoint" and name in _FP_KEYS)
    )


def _as_float(entries, key: str, default: float | None = None) -> float | None:
    if key not in entries:
        return default
    value, lineno = entries[key]
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as a real number", line=lineno)


def _as_int(entries, key: str, default: int | None = None) -> int | None:
    if key not in entries:
        return default
    value, lineno = entries[key]
    try:
        return int(value, 0)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as an integer", line=lineno)


def parse_config(text: str) -> RunConfig:
    entries = _parse_lines(text)
    for key, (_, lineno) in entries.items():
        if not _known(key):
            raise ConfigError(f"unknown key {key!r}", line=lineno)

    model_vals = {}
    for name in _MODEL_KEYS:
        v = _as_float(entries, f"model.{name}")
        if v is None:
            raise ConfigError(f"missing required key model.{name}")
        model_vals[name] = v
    try:
        model = LQModel(**model_vals)
    except Exception as exc:
        raise ConfigError(f"invalid model: {exc}")

    kind_entry = entries.get("law0.kind", ("dirac", 0))
    kind = kind_entry[0]
    if kind == "dirac":
        law0 = InitialLaw.dirac(_as_float(entries, "law0.x0", 0.0))
    elif kind == "gaussian":
        sd = _as_float(entries, "law0.sd", 1.0)
        if sd < 0:
            raise ConfigError("law0.sd must be nonnegative", line=entries["law0.sd"][1])
        law0 = InitialLaw.gaussian(_as_float(entries, "law0.mean", 0.0), sd)
    else:
        raise ConfigError(f"law0.kind must be dirac or gaussian, got {kind!r}",
                          line=kind_entry[1])

    cfg = RunConfig(model=model, law0=law0, raw={k: v for k, (v, _) in entries.items()})
    cfg.T = _as_float(entries, "sim.T", cfg.T)
    cfg.dt = _as_float(entries, "sim.dt", cfg.dt)
    cfg.n_paths = _as_int(entries, "sim.nPaths", cfg.n_paths)
    cfg.n_particles = _as_int(entries, "sim.nParticles", cfg.n_particles)
    cfg.seed = _as_int(entries, "sim.seed", cfg.seed)
    cfg.damping = _as_float(entries, "fixedPoint.damping", cfg.damping)
    cfg.tol = _as_float(entries, "fixedPoint.tol", cfg.tol)
    cfg.max_iter = _as_int(entries, "fixedPoint.maxIter", cfg.max_iter)
    cfg.x_lo = _as_float(entries, "fixedPoint.xLo", cfg.x_lo)
    cfg.x_hi = _as_float(entries, "fixedPoint.xHi", cfg.x_hi)
    cfg.dx = _as_float(entries, "fixedPoint.dx", cfg.dx)
    if "output" in entries:
        cfg.output = entries["output"][0]
    if cfg.T <= 0 or cfg.dt <= 0 or cfg.n_paths < 1 or cfg.n_particles < 1:
        raise ConfigError("sim.T, sim.dt, sim.nPaths, sim.nParticles must be positive")
    if cfg.T < cfg.dt:
        raise ConfigError("sim.T must be at least one step sim.dt")
    try:
        whole_steps(cfg.T, cfg.dt)
    except ValueError:
        raise ConfigError(f"sim.T = {cfg.T!r} is not a whole number of steps "
                          f"sim.dt = {cfg.dt!r}")
    if cfg.n_paths < 2:
        raise ConfigError("sim.nPaths must be at least 2 (a standard error needs two paths)")
    if not 0.0 < cfg.damping <= 1.0:
        raise ConfigError("fixedPoint.damping must lie in (0, 1]")
    if cfg.tol <= 0 or cfg.max_iter < 1:
        raise ConfigError("fixedPoint.tol must be positive and fixedPoint.maxIter at least 1")
    if cfg.dx <= 0 or round((cfg.x_hi - cfg.x_lo) / cfg.dx) < 4:
        raise ConfigError("fixedPoint.dx must be positive and xHi - xLo at least 4 dx")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config(text)
