"""The three benchmark workloads, driven through stochqg's public functions.

Every workload turns the benchmark seed into a config text (and, for
``cli128_io``, a noise file), so the program sees only generated inputs.
Set-up is always ``config.parse_config`` plus ``cli.build_runtime``; the
timed call differs per workload.  Each call's outputs are checked, and a
sha256 digest of its final state is reported so that two runs of one code
and seed can be compared bitwise.

Program functions are looked up on their module at call time (``cli.x``,
never a bound ``from`` import), so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stochqg import attractor, cli, config, integrator, operators

# Snapshot header as documented in the README's file formats.
SNAPSHOT_HEADER_BYTES = struct.calcsize("<8sIIIIIqdd16s16s")

# Largest |energy-budget residual| accepted per step on sim64_diag.  The
# residual is the scheme's O(dt^3) truncation, not rounding: on the seed code
# the worst step over benchmark seeds 1-20 was 1.0e-4.  The bound allows 5x.
SIM64_RESIDUAL_BOUND = 5e-4


def derived_seed(workload: str, seed: int, role: str) -> int:
    """A 63-bit program seed for one role (config or noise) of a workload."""
    digest = hashlib.sha256(f"{workload}/{seed}/{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _config(**entries) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


@dataclass
class Checks:
    attempted: int
    failed: int
    digest: str


class Workload:
    """One workload: its inputs, set-up, timed call and output checks."""

    name = ""
    root_span = ""   # span of the timed call in a traced run

    def config_text(self, seed: int) -> str:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        """One-off, untimed preparation of input files."""

    def setup(self, text: str):
        return cli.build_runtime(config.parse_config(text))

    def ready(self, rt):
        """Untimed inputs of the timed call, made once per runtime."""
        return None

    def call(self, rt, inputs):
        raise NotImplementedError

    def model_steps(self, rt) -> int:
        raise NotImplementedError

    def n_checks(self, rt) -> int:
        """Checks one call makes; all count as failed when the call raises."""
        raise NotImplementedError

    def check(self, rt, inputs, output) -> Checks:
        raise NotImplementedError


def _steps(cfg) -> int:
    return round((cfg.t1 - cfg.t0) / cfg.dt)


class Sim64Diag(Workload):
    """Library ``integrator.simulate`` at 64x64x33 with diagnostics on.

    Config defaults otherwise (nu=0.5, dt=1/16, 8 noise modes, t in [0, 4]),
    random initial field drawn from the seed, no files written.
    """

    name = "sim64_diag"
    root_span = "integrator.simulate"

    def config_text(self, seed):
        return _config(**{"grid.nx": 64, "grid.ny": 64, "grid.nz": 33,
                          "init.kind": "random",
                          "seed": derived_seed(self.name, seed, "config")})

    def ready(self, rt):
        return cli.initial_field(rt)

    def call(self, rt, u0):
        cfg = rt.cfg
        return integrator.simulate(rt.ctx, rt.forcing, u0, cfg.t0, cfg.t1, cfg.dt)

    def model_steps(self, rt):
        return _steps(rt.cfg)

    def n_checks(self, rt):
        return 3 * _steps(rt.cfg)

    def check(self, rt, u0, res):
        failed = 0
        for rec in res.diagnostics:
            failed += not rec.h ** 2 <= rec.xi
            failed += not np.isfinite(rec.residual)
            failed += not abs(rec.residual) <= SIM64_RESIDUAL_BOUND
        # A short record list means missing steps: each missing record fails.
        failed += 3 * (_steps(rt.cfg) - len(res.diagnostics))
        digest = hashlib.sha256(np.ascontiguousarray(res.final.u).tobytes()).hexdigest()
        return Checks(self.n_checks(rt), failed, digest)


class Pullback32(Workload):
    """The README ``pullback`` example at 32x32x17, timed ``pullback_run``.

    nu=2, dt=dt_noise=1/8, noise path [-64, 16], horizons 2,4,8,16,
    ensemble 8, sphere rule.  The CLI's default pullback config still fails
    its path-coverage check; these are the README's settings.
    """

    name = "pullback32"
    root_span = "attractor.pullback_run"

    def config_text(self, seed):
        return _config(**{"physics.nu": 2.0, "time.dt": 0.125,
                          "noise.dt_noise": 0.125, "noise.t_min": -64,
                          "noise.t_max": 16,
                          "seed": derived_seed(self.name, seed, "config")})

    def ready(self, rt):
        cfg = rt.cfg
        return attractor.PullbackConfig(
            horizons=tuple(config.horizon_list(cfg)), ensemble=cfg.ensemble,
            sampling_rule=cfg.sampling_rule, leading_modes=cfg.leading_modes,
            phase=cfg.phase, seed=cfg.seed, quad_horizon=cfg.quad_horizon or None)

    def call(self, rt, pcfg):
        return attractor.pullback_run(pcfg, rt.ctx, rt.forcing, rt.cfg.dt)

    def model_steps(self, rt):
        cfg = rt.cfg
        return cfg.ensemble * sum(round(T / cfg.dt) for T in config.horizon_list(cfg))

    def n_checks(self, rt):
        hs = config.horizon_list(rt.cfg)
        return 2 * len(hs) - 1 + rt.cfg.ensemble * len(hs)

    def check(self, rt, pcfg, est):
        failed = 0
        diams = [est.diameters[T] for T in pcfg.horizons]
        failed += sum(not np.isfinite(d) for d in diams)
        failed += sum(not b <= a for a, b in zip(diams, diams[1:]))
        sha = hashlib.sha256()
        for T in pcfg.horizons:
            ends = est.endpoints[T]
            failed += pcfg.ensemble - len(ends)
            for u in ends:
                failed += not np.isfinite(operators.norm_h(rt.ctx, u))
                sha.update(np.ascontiguousarray(u).tobytes())
        return Checks(self.n_checks(rt), failed, sha.hexdigest())


class Cli128IO(Workload):
    """``cli.cmd_simulate`` at 128x128x65 from a noise file, with file output.

    Untimed prep writes the noise file with ``cli.cmd_gen_noise``; set-up
    loads it.  The call runs 16 steps from a random initial field and writes
    the diagnostics CSV and a snapshot every 4 steps.  Paths are relative to
    the run's working directory, so the config hash, and with it every
    snapshot header, does not depend on where the benchmark runs.
    """

    name = "cli128_io"
    root_span = "cli.cmd_simulate"
    noise_file = "noise.bin"
    out_dir = "out"

    def config_text(self, seed):
        return _config(**{"grid.nx": 128, "grid.ny": 128, "grid.nz": 65,
                          "init.kind": "random", "time.t1": 1.0,
                          "time.snapshot_every": 4,
                          "noise.file": self.noise_file, "output.dir": self.out_dir,
                          "seed": derived_seed(self.name, seed, "config")})

    def prepare(self, seed):
        Path(self.noise_file).unlink(missing_ok=True)
        text = _config(**{"noise.file": self.noise_file,
                          "seed": derived_seed(self.name, seed, "noise")})
        with contextlib.redirect_stdout(sys.stderr):
            cli.cmd_gen_noise(config.parse_config(text))

    def call(self, rt, inputs):
        with contextlib.redirect_stdout(sys.stderr):
            return cli.cmd_simulate(rt)

    def model_steps(self, rt):
        return _steps(rt.cfg)

    def _n_snapshots(self, cfg) -> int:
        every = cfg.snapshot_every
        interior = (_steps(cfg) - 1) // every if every else 0
        return 2 + interior

    def n_checks(self, rt):
        return 3 + 2 * self._n_snapshots(rt.cfg)

    def check(self, rt, inputs, rc):
        cfg, grid = rt.cfg, rt.grid
        out = Path(cfg.out_dir)
        n_snap = self._n_snapshots(cfg)
        snaps = sorted(out.glob("snapshot_*.bin"))
        failed = (rc != 0) + (len(snaps) != n_snap)
        failed += 2 * max(0, n_snap - len(snaps))
        size = SNAPSHOT_HEADER_BYTES + grid.ny * grid.nkx * grid.nz * 16
        last_u = None
        for snap in snaps[:n_snap]:
            failed += snap.stat().st_size != size
            try:
                last_u, _ = integrator.load_snapshot(snap)
            except (ValueError, struct.error):
                failed += 1
                last_u = None
        h_csv = _last_csv_h(out / "diagnostics.csv")
        if last_u is None or h_csv is None:
            failed += 1
        else:
            h = operators.norms(rt.ctx, last_u).h
            failed += not abs(h - h_csv) <= 1e-12 * abs(h_csv)
        digest = hashlib.sha256(snaps[-1].read_bytes()).hexdigest() if snaps else ""
        shutil.rmtree(out, ignore_errors=True)
        return Checks(self.n_checks(rt), failed, digest)


def _last_csv_h(fname: Path) -> float | None:
    try:
        rows = [ln for ln in fname.read_text(encoding="utf-8").splitlines()
                if ln and not ln.startswith("#")]
    except OSError:
        return None
    if len(rows) < 2:
        return None
    return float(rows[-1].split(",")[1])


WORKLOADS = {w.name: w for w in (Sim64Diag(), Pullback32(), Cli128IO())}
