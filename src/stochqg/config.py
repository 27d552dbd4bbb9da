"""Plain-text key-value experiment configuration.

One dotted key per line (``section.key = value``), ``#`` comments, UTF-8.
Unknown keys are rejected and all constraint violations are reported at
once.  ``normalize`` emits the canonical form (every key explicit, fixed
order); parse(normalize(cfg)) == cfg.  The config hash used for artifact
provenance is the sha256 of the normalized text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .forcing import grid_steps, steps_per_noise


class ConfigError(ValueError):
    """Carries the full list of violations found in a config document."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


def _key(key: str, default):
    """A config field: its document key, with the default that also fixes its type."""
    return field(default=default, metadata={"key": key})


@dataclass
class SimConfig:
    """One field per key; the field's ``metadata["key"]`` is its name in the document."""

    nx: int = _key("grid.nx", 32)
    ny: int = _key("grid.ny", 32)
    nz: int = _key("grid.nz", 17)
    nu: float = _key("physics.nu", 0.5)
    beta: float = _key("physics.beta", 1.0)
    f0: float = _key("physics.f0", 1.0)
    n_of_z: str = _key("physics.N", "1.0")  # constant, or comma-separated table of nz values
    n_modes: int = _key("noise.n_modes", 8)
    q0: float = _key("noise.q0", 0.01)
    p: float = _key("noise.p", 3.0)
    tau_c: float = _key("noise.tau_c", 0.5)
    dt_noise: float = _key("noise.dt_noise", 0.0625)
    noise_t_min: float = _key("noise.t_min", -64.0)
    noise_t_max: float = _key("noise.t_max", 16.0)
    noise_file: str = _key("noise.file", "")
    amplitude: float = _key("periodic.amplitude", 0.0)
    mode_k: int = _key("periodic.mode_k", 1)
    mode_l: int = _key("periodic.mode_l", 0)
    phase: float = _key("periodic.phase", 0.0)
    dt: float = _key("time.dt", 0.0625)
    t0: float = _key("time.t0", 0.0)
    t1: float = _key("time.t1", 4.0)
    snapshot_every: int = _key("time.snapshot_every", 0)
    linear_only: bool = _key("time.linear_only", False)
    init_kind: str = _key("init.kind", "zero")  # zero | eigenmode | random
    init_amplitude: float = _key("init.amplitude", 0.1)
    init_m: int = _key("init.m", 1)
    init_l: int = _key("init.l", 1)
    init_k: int = _key("init.k", 1)
    init_modes: int = _key("init.modes", 12)
    seed: int = _key("seed", 12345)
    out_dir: str = _key("output.dir", "out")
    horizons: str = _key("pullback.horizons", "2,4,8,16")
    ensemble: int = _key("pullback.ensemble", 8)
    sampling_rule: str = _key("pullback.sampling_rule", "sphere")
    leading_modes: int = _key("pullback.leading_modes", 12)
    quad_horizon: float = _key("pullback.quad_horizon", 0.0)  # 0: default 20/(nu lam1)
    cocycle_s: float = _key("cocycle.s", 1.0)
    cocycle_t: float = _key("cocycle.t", 1.0)


# key in the document -> (attribute, type), in field order
_SCHEMA = {f.metadata["key"]: (f.name, type(f.default)) for f in fields(SimConfig)}


def _parse_value(raw: str, typ, key: str, errors: list):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        val = typ(raw)
    except ValueError:
        errors.append(f"{key}: cannot parse {raw!r} as {typ.__name__}")
        return None
    if typ is float and not math.isfinite(val):
        errors.append(f"{key}: {raw!r} is not finite")
        return None
    return val


def parse_config(text: str) -> SimConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    cfg = SimConfig()
    errors = []
    seen = set()
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {ln}: expected 'key = value', got {stripped!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            errors.append(f"line {ln}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {ln}: duplicate key {key!r}")
            continue
        seen.add(key)
        attr, typ = _SCHEMA[key]
        val = _parse_value(raw, typ, key, errors)
        if val is not None:
            setattr(cfg, attr, val)
    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_config(cfg: SimConfig) -> list[str]:
    errs = []
    if cfg.nx % 2 or cfg.nx < 8 or cfg.ny % 2 or cfg.ny < 8:
        errs.append("grid.nx, grid.ny must be even and >= 8")
    if cfg.nz < 5:
        errs.append("grid.nz must be >= 5")
    if cfg.nu <= 0:
        errs.append("viscosity must be positive")
    if cfg.beta < 0:
        errs.append("physics.beta must be nonnegative")
    if cfg.f0 == 0:
        errs.append("physics.f0 must be nonzero")
    try:
        table = n_table(cfg)
        if np.any(table <= 0) or not np.all(np.isfinite(table)):
            errs.append("physics.N must be positive and finite")
        if table.size not in (1, cfg.nz):
            errs.append(f"physics.N table must have 1 or nz={cfg.nz} entries")
    except ValueError:
        errs.append(f"physics.N: cannot parse {cfg.n_of_z!r}")
    if cfg.n_modes < 0:
        errs.append("noise.n_modes must be nonnegative")
    if cfg.q0 < 0:
        errs.append("noise.q0 must be nonnegative")
    if cfg.tau_c <= 0:
        errs.append("noise.tau_c must be positive")
    if cfg.dt_noise <= 0:
        errs.append("noise.dt_noise must be positive")
    if cfg.dt <= 0:
        errs.append("time.dt must be positive")
    elif cfg.dt_noise > 0:
        try:
            steps_per_noise(cfg.dt, cfg.dt_noise)
        except ValueError:
            errs.append("time.dt must divide noise.dt_noise")
    if cfg.noise_t_min >= cfg.noise_t_max:
        errs.append("noise.t_min must precede noise.t_max")
    if not 0.0 <= cfg.phase < 1.0:
        errs.append("periodic.phase must lie in [0, 1)")
    if cfg.t0 >= cfg.t1:
        errs.append("time.t0 must precede time.t1")
    for key, val in (("cocycle.s", cfg.cocycle_s), ("cocycle.t", cfg.cocycle_t)):
        if val < 0:
            errs.append(f"{key} must be nonnegative")
        elif cfg.dt > 0:
            try:
                grid_steps(val, cfg.dt, key)
            except ValueError as exc:
                errs.append(str(exc))
    if cfg.snapshot_every < 0:
        errs.append("time.snapshot_every must be nonnegative")
    if cfg.seed < 0 or cfg.seed >= (1 << 63):
        errs.append("seed must be a nonnegative 63-bit integer")
    if cfg.init_kind not in ("zero", "eigenmode", "random"):
        errs.append("init.kind must be zero|eigenmode|random")
    if cfg.init_modes < 1:
        errs.append("init.modes must be at least 1")
    if cfg.sampling_rule not in ("sphere", "ball"):
        errs.append("pullback.sampling_rule must be sphere|ball")
    if cfg.ensemble < 8:
        errs.append("pullback.ensemble must be at least 8")
    if cfg.leading_modes < 1:
        errs.append("pullback.leading_modes must be at least 1")
    try:
        hs = horizon_list(cfg)
        if not hs or hs[0] <= 0 or any(b <= a for a, b in zip(hs, hs[1:])):
            errs.append("pullback.horizons must be strictly increasing positive integers")
    except ValueError:
        errs.append(f"pullback.horizons: cannot parse {cfg.horizons!r}")
    return errs


def n_table(cfg: SimConfig) -> np.ndarray:
    return np.array([float(v) for v in cfg.n_of_z.split(",")])


def horizon_list(cfg: SimConfig) -> list[int]:
    return [int(v) for v in cfg.horizons.split(",")]


def _format_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return f"{val:.17g}"
    return str(val)


def normalize_config(cfg: SimConfig) -> str:
    """Canonical text: every key explicit, schema order, normalized values."""
    lines = []
    for key, (attr, _) in _SCHEMA.items():
        lines.append(f"{key} = {_format_value(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: SimConfig) -> str:
    """Experiment identity: hash of the normalized text minus output location."""
    lines = [ln for ln in normalize_config(cfg).splitlines()
             if not ln.startswith("output.dir ")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
