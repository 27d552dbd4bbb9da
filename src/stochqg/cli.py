"""Batch front-end: deterministic experiment orchestration.

Subcommands: simulate | pullback | cocycle-check | validate | spectrum |
gen-noise.  All randomness flows through noise paths derived from the config
seed (or a noise-path file); given a seed, every artifact is bitwise
reproducible.  Exit codes: 0 success, 1 validation or I/O failure, 2
numerical abort; failures emit a JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attractor import (
    cocycle_check,
    flow_estimate,
    growth_diagnostic,
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
)
from .forcing import (
    ForcingSetup,
    NoisePath,
    build_forcing,
    extend_noise_path,
    grid_steps,
    load_noise_path,
    make_noise_model,
    make_noise_path,
    save_noise_path,
)
from .integrator import (
    BlowupError,
    CFLViolation,
    Run,
    save_snapshot,
    simulate,
    write_diagnostics_csv,
)
from .operators import build_context, unit_eigenmode
from .selfcheck import run_battery
from .spectral import Grid, build_vertical_operator, make_profile


@dataclass
class Runtime:
    cfg: SimConfig
    grid: Grid
    ctx: object
    forcing: ForcingSetup
    chash: str


def _check_noise_file(path: NoisePath, cfg: SimConfig) -> None:
    """Raise ConfigError unless a loaded noise path has the config's modes and dt_noise."""
    if path.n_modes != cfg.n_modes:
        raise ConfigError([f"noise file has {path.n_modes} modes, config wants {cfg.n_modes}"])
    if abs(path.dt_noise - cfg.dt_noise) > 1e-12:
        raise ConfigError([f"noise file dt_noise={path.dt_noise} != config {cfg.dt_noise}"])


def build_runtime(cfg: SimConfig) -> Runtime:
    grid = Grid(nx=cfg.nx, ny=cfg.ny, nz=cfg.nz)
    vop = build_vertical_operator(make_profile(cfg.f0, n_table(cfg), cfg.nz), cfg.nz)
    ctx = build_context(grid, vop, nu=cfg.nu, beta=cfg.beta)

    if cfg.noise_file:
        path = load_noise_path(cfg.noise_file)
        _check_noise_file(path, cfg)
    else:
        path = make_noise_path(cfg.seed, cfg.n_modes, cfg.dt_noise,
                               cfg.noise_t_min, cfg.noise_t_max)
    model = make_noise_model(grid, cfg.n_modes, q0=cfg.q0, p=cfg.p, tau_c=cfg.tau_c)
    forcing = build_forcing(grid, vop, model, periodic_flux(cfg, grid), path)
    return Runtime(cfg=cfg, grid=grid, ctx=ctx, forcing=forcing, chash=config_hash(cfg))


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


@contextlib.contextmanager
def _keyed(keys: str):
    """Put the config keys before the message of a ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{keys}: {exc}") from None


def cmd_simulate(rt: Runtime) -> int:
    cfg = rt.cfg
    run = Run(rt.ctx, rt.forcing, cfg.dt)  # the path must cover t0 and t1 before any step
    with _keyed("time.t1"):
        run.end_step(cfg.t1)
    with _keyed("time.t0"):
        run.lift(grid_steps(cfg.t0, cfg.dt, "t0"))
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


def _growth_plan(t_max: float, dt: float) -> tuple[int, float] | None:
    """(steps per record, end time) of the growth flow from 0, or None.

    The flow records >= 50 times over whatever the path covers after 0.
    """
    rec_steps = max(1, int(np.floor(t_max / 50.0 / dt)))
    t_end = 50 * rec_steps * dt
    return (rec_steps, t_end) if 0 < t_end <= t_max else None


def preflight_pullback(rt: Runtime) -> Runtime:
    """Check that the noise path covers the whole pullback plan.

    The plan reads every horizon's xi* quadrature window and then the growth
    flow window.  A path derived from the seed is widened to cover it (only
    when it does not, so runs that fit are unchanged); a path loaded from a
    noise file that falls short raises ConfigError.
    """
    cfg, path = rt.cfg, rt.forcing.path
    t_lo, t_hi = pullback_window(pullback_config(cfg), rt.ctx, cfg.dt, path.dt_noise)
    growth = _growth_plan(path.t_max, cfg.dt)
    if growth is not None:
        t_hi = max(t_hi, growth[1])
    if path.t_min <= t_lo and t_hi <= path.t_max:
        return rt
    if cfg.noise_file:
        raise ConfigError([f"noise file {cfg.noise_file} covers [{path.t_min}, {path.t_max}], "
                           f"the pullback plan needs [{t_lo}, {t_hi}]"])
    wide = extend_noise_path(path, min(t_lo, path.t_min), max(t_hi, path.t_max))
    return replace(rt, forcing=replace(rt.forcing, path=wide))


def cmd_pullback(rt: Runtime) -> int:
    cfg = rt.cfg
    out = _outdir(rt)
    est = pullback_run(pullback_config(cfg), rt.ctx, rt.forcing, cfg.dt)

    # Growth slope from flowing the largest-horizon estimate forward over
    # whatever the path still covers, with >= 50 recorded times.
    slope = float("nan")
    growth = _growth_plan(rt.forcing.path.t_max, cfg.dt)
    if growth is not None:
        rec_steps, t_end = growth
        series = flow_estimate(rt.ctx, rt.forcing, est, cfg.dt, t_end,
                               record_every=rec_steps * cfg.dt)
        slope = growth_diagnostic(series[1:]).slope

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
    with _keyed("cocycle.s + cocycle.t"):  # the first leg runs from 0 to s + t
        Run(rt.ctx, rt.forcing, cfg.dt).end_step(cfg.cocycle_s + cfg.cocycle_t)
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


def cmd_spectrum(rt: Runtime) -> int:
    ctx = rt.ctx
    print(f"lambda1 = {ctx.lambda1:.10g}")
    print("m  mu_m")
    for m in range(min(8, ctx.vop.nz)):
        print(f"{m}  {ctx.vop.mu[m]:.10g}")
    return 0


def cmd_gen_noise(cfg: SimConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = Path(cfg.noise_file) if cfg.noise_file else out / "noise.bin"
    if target.exists():
        path = load_noise_path(target)
        _check_noise_file(path, cfg)
        path = extend_noise_path(path, cfg.noise_t_min, cfg.noise_t_max)
        action = "extended"
    else:
        path = make_noise_path(cfg.seed, cfg.n_modes, cfg.dt_noise,
                               cfg.noise_t_min, cfg.noise_t_max)
        action = "created"
    save_noise_path(path, target)
    print(f"gen-noise: {action} {target} covering [{path.t_min}, {path.t_max}] "
          f"({path.n_modes} modes, dt_noise={path.dt_noise})")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "pullback": cmd_pullback,
    "cocycle-check": cmd_cocycle_check,
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
}


def _error_record(kind: str, message: str, code: int) -> None:
    print(json.dumps({"error": kind, "message": message, "exit_code": code}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochqg",
        description="Stochastic 3D quasigeostrophic simulator and attractor lab.")
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["gen-noise"])
    parser.add_argument("config", nargs="?", help="key-value config file "
                        "(omit to use built-in defaults)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        for item in args.set:
            text += "\n" + item.replace("=", " = ", 1)
        cfg = parse_config(text)
        if args.command == "gen-noise":
            # Creates or extends the noise file; needs no operator tables.
            return cmd_gen_noise(cfg)
        rt = build_runtime(cfg)
        if args.command == "pullback":
            rt = preflight_pullback(rt)
    except ConfigError as exc:
        _error_record("config", str(exc), 1)
        return 1
    except (OSError, ValueError) as exc:
        _error_record("setup", str(exc), 1)
        return 1

    try:
        return _COMMANDS[args.command](rt)
    except (CFLViolation, BlowupError) as exc:
        _error_record("numerical", str(exc), 2)
        return 2
    except ValueError as exc:
        _error_record("invalid-request", str(exc), 1)
        return 1
    except OSError as exc:
        _error_record("io", str(exc), 1)
        return 1


if __name__ == "__main__":
    sys.exit(main())
