"""Batch front-end: deterministic experiment orchestration.

Subcommands: simulate | pullback | cocycle-check | validate | spectrum |
gen-noise.  All randomness flows through noise paths derived from the config
seed (or a noise-path file); given a seed, every artifact is bitwise
reproducible.  Exit codes: 0 success, 1 validation or I/O failure, 2
numerical abort; failures emit a JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .attractor import (
    cocycle_check,
    growth_slope,
    pullback_run,
    pullback_window,
    sample_initial_ball,
)
from .config import (
    ConfigError,
    SimConfig,
    config_hash,
    n_table,
    normalize_config,
    parse_config,
    periodic_flux,
    pullback_config,
    seeded_path,
)
from .forcing import (
    ForcingSetup,
    NoisePath,
    build_forcing,
    extend_noise_path,
    grid_steps,
    load_noise_path,
    make_noise_model,
    save_noise_path,
)
from .integrator import (
    BlowupError,
    CFLViolation,
    save_snapshot,
    simulate,
    write_diagnostics_csv,
)
from .operators import build_context, unit_eigenmode
from .selfcheck import run_battery
from .spectral import Grid, build_vertical_operator, compute_lambda1, make_profile


@dataclass
class Runtime:
    cfg: SimConfig
    grid: Grid
    ctx: object
    forcing: ForcingSetup
    chash: str


def _load_noise_file(fname, cfg: SimConfig) -> NoisePath:
    """The path in ``fname``; raises ConfigError unless it has the config's modes and dt_noise."""
    path = load_noise_path(fname)
    if path.n_modes != cfg.n_modes:
        raise ConfigError([f"noise file has {path.n_modes} modes, config wants {cfg.n_modes}"])
    if abs(path.dt_noise - cfg.dt_noise) > 1e-12:
        raise ConfigError([f"noise file dt_noise={path.dt_noise} != config {cfg.dt_noise}"])
    return path


def build_runtime(cfg: SimConfig) -> Runtime:
    grid = Grid(nx=cfg.nx, ny=cfg.ny, nz=cfg.nz)
    vop = build_vertical_operator(make_profile(cfg.f0, n_table(cfg), cfg.nz), cfg.nz)
    ctx = build_context(grid, vop, nu=cfg.nu, beta=cfg.beta)

    path = _load_noise_file(cfg.noise_file, cfg) if cfg.noise_file else seeded_path(cfg)
    model = make_noise_model(grid, cfg.n_modes, q0=cfg.q0, p=cfg.p, tau_c=cfg.tau_c)
    forcing = build_forcing(grid, vop, model, periodic_flux(cfg, grid), path)
    return Runtime(cfg=cfg, grid=grid, ctx=ctx, forcing=forcing, chash=config_hash(cfg))


def check_span(cfg: SimConfig, path: NoisePath, span) -> None:
    """Raise ConfigError, by key, unless ``path`` covers the steps ``span(cfg)`` names."""
    (k0, t0), (k1, t1) = span(cfg)
    _, first, last = path.covered_steps(cfg.dt)
    try:
        n0, n1 = grid_steps(t0, cfg.dt, k0), grid_steps(t1, cfg.dt, k1)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    if n0 < first:
        raise ConfigError([f"{k0}: time {t0} outside path range [{path.t_min}, {path.t_max}]"])
    if n1 > last:
        raise ConfigError([f"{k1}: t1={t1} lies beyond the noise path, which covers "
                           f"t <= {last * cfg.dt}"])


def initial_field(rt: Runtime) -> np.ndarray:
    cfg, ctx = rt.cfg, rt.ctx
    if cfg.init_kind == "zero":
        return np.zeros((cfg.nz, cfg.ny, cfg.nx // 2 + 1), dtype=complex)
    if cfg.init_kind == "eigenmode":
        return cfg.init_amplitude * unit_eigenmode(ctx, cfg.init_m, cfg.init_l, cfg.init_k)
    return sample_initial_ball(ctx, cfg.init_amplitude ** 2, 1, cfg.init_modes,
                               "sphere", cfg.seed)[0]


def _outdir(rt: Runtime) -> Path:
    out = Path(rt.cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(normalize_config(rt.cfg), encoding="utf-8")
    return out


def cmd_simulate(rt: Runtime) -> int:
    cfg = rt.cfg
    out = _outdir(rt)
    written = []

    def save(t, u):
        # Each snapshot goes to disk when it is taken, so none is kept.
        save_snapshot(out / f"snapshot_{len(written):05d}.bin", rt.grid, u, t=t,
                      n=round(t / cfg.dt), dt=cfg.dt, config_hash=rt.chash)
        written.append(t)

    res = simulate(rt.ctx, rt.forcing, initial_field(rt), cfg.t0, cfg.t1, cfg.dt,
                   snapshot_every=cfg.snapshot_every, linear_only=cfg.linear_only,
                   snapshot_sink=save)
    write_diagnostics_csv(out / "diagnostics.csv", res.diagnostics,
                          config_hash=rt.chash)
    print(f"simulate: {len(res.diagnostics)} steps, "
          f"final ||u||_H = {res.diagnostics[-1].h if res.diagnostics else 0.0:.6g}, "
          f"{len(written)} snapshots -> {out}")
    return 0


def preflight_pullback(rt: Runtime) -> Runtime:
    """Check that the noise path covers every horizon's xi* quadrature window.

    A path derived from the seed is widened to cover them (only when it does
    not, so runs that fit are unchanged); a path loaded from a noise file that
    falls short raises ConfigError.  The growth flow after 0 reads only what
    the path covers, so it needs no check.
    """
    cfg, path = rt.cfg, rt.forcing.path
    t_lo, t_hi = pullback_window(pullback_config(cfg), rt.ctx, cfg.dt, path.dt_noise)
    if path.t_min <= t_lo and t_hi <= path.t_max:
        return rt
    if cfg.noise_file:
        raise ConfigError([f"noise.file, pullback.horizons, pullback.quad_horizon: noise file "
                           f"{cfg.noise_file} covers [{path.t_min}, {path.t_max}], "
                           f"the pullback plan needs [{t_lo}, {t_hi}]"])
    wide = extend_noise_path(path, min(t_lo, path.t_min), max(t_hi, path.t_max))
    return replace(rt, forcing=replace(rt.forcing, path=wide))


def cmd_pullback(rt: Runtime) -> int:
    cfg = rt.cfg
    out = _outdir(rt)
    est = pullback_run(pullback_config(cfg), rt.ctx, rt.forcing, cfg.dt)
    slope = growth_slope(rt.ctx, rt.forcing, est, cfg.dt)
    with open(out / "attractor_report.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# config={rt.chash} version={__version__}\n")
        fh.write("T,diameter,hausdorff_prev,xi_star,slope\n")
        for T in est.horizons:
            hprev = est.hausdorff_prev.get(T, float("nan"))
            fh.write(f"{T},{est.diameters[T]:.17g},{hprev:.17g},"
                     f"{est.xi_star[T]:.17g},{slope:.17g}\n")
    for T in est.horizons:
        for i, u in enumerate(est.endpoints[T]):
            save_snapshot(out / f"endpoint_T{T}_{i:03d}.bin", rt.grid, u, t=0.0,
                          n=0, dt=cfg.dt, config_hash=rt.chash)
    print(f"pullback: horizons {list(est.horizons)}, diameters "
          f"{[f'{est.diameters[T]:.3e}' for T in est.horizons]}, "
          f"growth slope {slope:.3e} -> {out}")
    return 0


def cmd_cocycle_check(rt: Runtime) -> int:
    cfg = rt.cfg
    u0 = initial_field(rt)
    dev = cocycle_check(rt.ctx, rt.forcing, cfg.cocycle_s, cfg.cocycle_t, u0, cfg.dt)
    print(f"cocycle-check: s={cfg.cocycle_s} t={cfg.cocycle_t} deviation={dev:.3e}")
    if dev != 0.0:
        _error_record("cocycle", f"nonzero cocycle deviation {dev:.3e}", 1)
        return 1
    return 0


def cmd_validate(rt: Runtime) -> int:
    results = run_battery(rt.ctx, rt.forcing)
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        extra = f"  {detail}" if detail else ""
        print(f"{name:<{width}}  {status}{extra}")
        failed += 0 if ok else 1
    print(f"validate: {len(results) - failed}/{len(results)} checks passed")
    if failed:
        _error_record("validate", f"{failed} invariant checks failed", 1)
        return 1
    return 0


def cmd_spectrum(cfg: SimConfig) -> int:
    vop = build_vertical_operator(make_profile(cfg.f0, n_table(cfg), cfg.nz), cfg.nz)
    print(f"lambda1 = {compute_lambda1(vop):.10g}")
    print("m  mu_m")
    for m in range(min(8, vop.nz)):
        print(f"{m}  {vop.mu[m]:.10g}")
    return 0


def cmd_gen_noise(cfg: SimConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = Path(cfg.noise_file) if cfg.noise_file else out / "noise.bin"
    if target.exists():
        path = extend_noise_path(_load_noise_file(target, cfg), cfg.noise_t_min, cfg.noise_t_max)
        action = "extended"
    else:
        path = seeded_path(cfg)
        action = "created"
    save_noise_path(path, target)
    print(f"gen-noise: {action} {target} covering [{path.t_min}, {path.t_max}] "
          f"({path.n_modes} modes, dt_noise={path.dt_noise})")
    return 0


class Command(NamedTuple):
    """A subcommand: its handler, the ``config.RULE_GROUPS`` it reads, whether ``run`` takes
    a Runtime (else the config), its first and last step on the noise path as
    ((keys, t0), (keys, t1)), and the check or widening of the path once it is built."""

    run: Callable
    reads: tuple[str, ...] = ()
    runtime: bool = True
    span: Callable | None = None
    preflight: Callable | None = None


_COMMANDS = {
    "simulate": Command(cmd_simulate, ("noise", "dt", "simulate"),
                        span=lambda c: (("time.t0", c.t0), ("time.t1", c.t1))),
    "pullback": Command(cmd_pullback, ("noise", "dt", "pullback"), preflight=preflight_pullback),
    "cocycle-check": Command(cmd_cocycle_check, ("noise", "dt", "cocycle"), span=lambda c: (
        ("noise.file" if c.noise_file else "noise.t_min", 0.0),
        ("cocycle.s + cocycle.t", c.cocycle_s + c.cocycle_t))),
    "validate": Command(cmd_validate, ("noise",)),
    "spectrum": Command(cmd_spectrum, runtime=False),
    "gen-noise": Command(cmd_gen_noise, ("noise", "window"), runtime=False),
}


def _error_record(kind: str, message: str, code: int) -> None:
    print(json.dumps({"error": kind, "message": message, "exit_code": code}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochqg",
        description="Stochastic 3D quasigeostrophic simulator and attractor lab.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", nargs="?", help="key-value config file "
                        "(omit to use built-in defaults)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
    args = parser.parse_args(argv)
    command, set_up = _COMMANDS[args.command], False
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        for item in args.set:
            text += "\n" + item.replace("=", " = ", 1)
        cfg = parse_config(text, command.reads)
        if command.span and not cfg.noise_file:  # a seeded path is checked before set-up
            check_span(cfg, seeded_path(cfg), command.span)
        target = build_runtime(cfg) if command.runtime else cfg
        if command.span and cfg.noise_file:  # a loaded one as soon as set-up has read it
            check_span(cfg, target.forcing.path, command.span)
        if command.preflight:
            target = command.preflight(target)
        set_up = True
        return command.run(target)
    except ConfigError as exc:  # one violation per line
        _error_record("config", "\n".join(exc.violations), 1)
        return 1
    except (CFLViolation, BlowupError) as exc:
        _error_record("numerical", str(exc), 2)
        return 2
    except (OSError, ValueError) as exc:
        failed_in = "io" if isinstance(exc, OSError) else "invalid-request"
        _error_record(failed_in if set_up else "setup", str(exc), 1)
        return 1


if __name__ == "__main__":
    sys.exit(main())
