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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .attractor import PullbackConfig, quad_steps
from .forcing import (PeriodicFlux, grid_steps, make_noise_model,
                      make_noise_path, shift_path, steps_per_noise)
from .lift import BoundaryMode, mode_flux
from .spectral import Grid, build_vertical_operator, compute_lambda1, make_profile


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


def _by_key(errs: list, keys: str, rule, *args):
    """``rule(*args)``, or None with its ValueError appended to ``errs`` after ``keys``."""
    try:
        return rule(*args)
    except ValueError as exc:
        errs.append(f"{keys}: {exc}")
        return None


def validate_config(cfg: SimConfig) -> list[str]:
    """Every violation in ``cfg``.

    A rule a library function enforces is checked by calling it (``_by_key``).
    Written out here are the rules no library function owns, and those of
    ``physics.nu`` and ``physics.beta``, whose owner ``build_context`` is too
    costly to build at parse time.  Grid rules are skipped on an invalid grid.
    """
    errs = []
    if cfg.nu <= 0:
        errs.append("physics.nu: viscosity must be positive")
    if cfg.beta < 0:
        errs.append("physics.beta must be nonnegative")
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
    if cfg.init_kind not in ("zero", "eigenmode", "random"):
        errs.append("init.kind must be zero|eigenmode|random")
    dt_ok = _by_key(errs, "time.dt, noise.dt_noise", steps_per_noise, cfg.dt, cfg.dt_noise)
    path = _by_key(errs, "seed, noise.dt_noise, noise.t_min, noise.t_max", make_noise_path,
                   cfg.seed, cfg.n_modes, cfg.dt_noise, cfg.noise_t_min, cfg.noise_t_max)
    if path is not None:
        _by_key(errs, "cocycle.s, noise.dt_noise", shift_path, path, cfg.cocycle_s)
    pullback = _by_key(errs, "pullback.horizons, pullback.ensemble, pullback.sampling_rule, "
                       "pullback.leading_modes", pullback_config, cfg)
    n_of_z = _by_key(errs, "physics.N", n_table, cfg)
    grid = _by_key(errs, "grid.nx, grid.ny, grid.nz", Grid, cfg.nx, cfg.ny, cfg.nz)
    if grid is None:
        return errs
    if n_of_z is not None:
        profile = _by_key(errs, "physics.f0, physics.N", make_profile, cfg.f0, n_of_z, cfg.nz)
        if profile is not None and dt_ok is not None and cfg.quad_horizon:
            rate = cfg.nu * compute_lambda1(build_vertical_operator(profile, cfg.nz))
            _by_key(errs, "pullback.quad_horizon", quad_steps, rate, cfg.quad_horizon, cfg.dt)
    _by_key(errs, "noise.n_modes, noise.q0, noise.p, noise.tau_c", make_noise_model, grid,
            cfg.n_modes, cfg.q0, cfg.p, cfg.tau_c)
    _by_key(errs, "periodic.mode_k, periodic.mode_l, periodic.amplitude, periodic.phase",
            periodic_flux, cfg, grid)
    if cfg.init_kind == "eigenmode":
        _by_key(errs, "init.m, init.l, init.k", grid.check_mode, cfg.init_m, cfg.init_l, cfg.init_k)
    _by_key(errs, "init.modes", grid.check_mode_count, cfg.init_modes)
    if pullback is not None:
        _by_key(errs, "pullback.leading_modes", grid.check_mode_count, cfg.leading_modes)
    return errs


def n_table(cfg: SimConfig) -> np.ndarray:
    return np.array([float(v) for v in cfg.n_of_z.split(",")])


def horizon_list(cfg: SimConfig) -> list[int]:
    return [int(v) for v in cfg.horizons.split(",")]


def periodic_flux(cfg: SimConfig, grid: Grid) -> PeriodicFlux:
    """The ``periodic.*`` flux: amplitude times the cosine boundary mode (mode_k, mode_l)."""
    mode = BoundaryMode(cfg.mode_k ** 2 + cfg.mode_l ** 2, cfg.mode_k, cfg.mode_l, 0)
    flux = mode_flux(grid, mode)
    return PeriodicFlux(replace(flux, values=cfg.amplitude * flux.values), cfg.phase)


def pullback_config(cfg: SimConfig) -> PullbackConfig:
    return PullbackConfig(horizons=tuple(horizon_list(cfg)), ensemble=cfg.ensemble,
                          sampling_rule=cfg.sampling_rule, leading_modes=cfg.leading_modes,
                          phase=cfg.phase, seed=cfg.seed,
                          quad_horizon=cfg.quad_horizon or None)


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
