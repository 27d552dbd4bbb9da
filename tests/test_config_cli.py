"""Config parsing, normalization round trip, CLI subcommands, artifacts."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from stochqg import attractor, cli, config, forcing, integrator
from stochqg.cli import build_runtime, initial_field, main
from stochqg.config import (
    ConfigError,
    SimConfig,
    config_hash,
    normalize_config,
    parse_config,
)
from stochqg.forcing import load_noise_path
from stochqg.integrator import save_snapshot, simulate
from stochqg.selfcheck import run_battery


FAST = [
    "--set", "physics.nu=2.0",
    "--set", "time.dt=0.125",
    "--set", "noise.dt_noise=0.125",
    "--set", "noise.t_min=-32",
    "--set", "noise.t_max=8",
]


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config("grid.nx = 16\n")
        assert cfg.nx == 16
        assert cfg.ny == SimConfig().ny
        norm = normalize_config(cfg)
        assert "grid.nx = 16" in norm
        assert "physics.nu = 0.5" in norm

    def test_zero_viscosity_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("physics.nu = 0\n")
        assert any("viscosity must be positive" in v for v in err.value.violations)

    def test_dt_alignment_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("time.dt = 0.03\n")
        assert any("divide" in v for v in err.value.violations)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.nx = 16\nbogus.key = 1\n")
        assert any("unknown key" in v for v in err.value.violations)

    def test_all_violations_enumerated(self):
        with pytest.raises(ConfigError) as err:
            parse_config("physics.nu = -1\ngrid.nz = 2\nnope = 3\n")
        assert len(err.value.violations) >= 3

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\ngrid.nx = 16  # trailing\n")
        assert cfg.nx == 16

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("grid.nx = 16\ngrid.nx = 32\n")

    def test_n_table_validation(self):
        with pytest.raises(ConfigError) as err:
            parse_config("physics.N = 1.0,2.0\n")
        assert any("physics.N" in v for v in err.value.violations)

    @pytest.mark.parametrize("horizons", ["2,2", "2,4,4", "4,2", "0,2"])
    def test_repeated_horizons_rejected(self, horizons):
        with pytest.raises(ConfigError) as err:
            parse_config(f"pullback.horizons = {horizons}\n")
        assert any("strictly increasing" in v for v in err.value.violations)
        assert parse_config("pullback.horizons = 1,2\n").horizons == "1,2"

    def test_mode_counts_reported_with_other_violations(self):
        with pytest.raises(ConfigError) as err:
            parse_config("physics.nu = 0\ninit.modes = 0\npullback.leading_modes = -1\n")
        assert err.value.violations == [
            "physics.nu: viscosity must be positive",
            "pullback.horizons, pullback.ensemble, pullback.sampling_rule, "
            "pullback.leading_modes: leading_modes must be at least 1",
            "init.modes: mode count 0 outside [1, 7496] (the resolvable modes)"]

    def test_round_trip(self):
        cfg = parse_config("grid.nx = 16\nphysics.nu = 1.25\nnoise.q0 = 0.125\n"
                           "init.kind = eigenmode\ntime.linear_only = true\n")
        again = parse_config(normalize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_reported_with_other_violations(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"time.t1 = {value}\nphysics.nu = 0\n")
        assert f"time.t1: '{value}' is not finite" in err.value.violations
        assert any("viscosity must be positive" in v for v in err.value.violations)

    def test_hash_changes_with_content(self):
        a = parse_config("grid.nx = 16\n")
        b = parse_config("grid.nx = 32\n")
        assert config_hash(a) != config_hash(b)


class TestSchema:
    """Each key is declared once, on its SimConfig field."""

    def test_each_field_has_one_key(self):
        keys = [f.metadata["key"] for f in dataclasses.fields(SimConfig)]
        assert all(isinstance(k, str) and k for k in keys)
        assert len(set(keys)) == len(keys)

    def test_default_hash_is_pinned(self):
        assert config_hash(SimConfig()) == "2348d501d00ab9f0"

    def test_readme_block_is_the_defaults_in_order(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## Configuration\n", 1)[1].split("```")[1]
        assert parse_config(block) == SimConfig()
        keys = [ln.split("#", 1)[0].split("=", 1)[0].strip() for ln in block.splitlines()
                if ln.strip()]
        assert keys == [ln.split(" = ", 1)[0]
                        for ln in normalize_config(SimConfig()).splitlines()]


def _cli_subprocess(*args):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "stochqg.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


class TestBuildRuntime:
    def test_noise_file_mismatch(self, tmp_path):
        cfg = parse_config("")
        rtdir = tmp_path / "o"
        cfg.out_dir = str(rtdir)
        cfg.noise_file = str(tmp_path / "n.bin")
        cfg.noise_t_min, cfg.noise_t_max = -1.0, 1.0
        from stochqg.forcing import make_noise_path, save_noise_path
        save_noise_path(make_noise_path(1, 3, cfg.dt_noise, -1.0, 1.0), cfg.noise_file)
        with pytest.raises(ConfigError):
            build_runtime(cfg)  # 3 modes in file vs 8 in config

    def test_peak_memory_at_128(self):
        # The context keeps lam and inv_lam, one complex field's worth between
        # them; set-up holds no dense lift and no other whole-field temporary.
        cfg = parse_config("grid.nx = 128\ngrid.ny = 128\ngrid.nz = 65\n")
        field = cfg.nz * cfg.ny * (cfg.nx // 2 + 1) * 16
        build_runtime(cfg)  # first-use caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rt = build_runtime(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rt.forcing.basis.shape[0] == cfg.n_modes + 1
        assert peak < 1.5 * field, peak / field

    def test_parse_peak_below_one_dense_flux(self):
        # The periodic flux is scaled on its columns: parsing a 1024x1024x5
        # config holds less than one (ny, nkx) complex array.
        text = "grid.nx = 1024\ngrid.ny = 1024\ngrid.nz = 5\nperiodic.amplitude = 0.5\n"
        parse_config(text)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cfg = parse_config(text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert cfg.amplitude == 0.5
        assert peak < 1024 * 513 * 16, peak

    @pytest.mark.parametrize("amplitude", [0.0, 0.5])
    def test_mean_periodic_mode_rejected(self, amplitude):
        # (mode_k, mode_l) = (0, 0) names no boundary mode, whatever the amplitude.
        with pytest.raises(ConfigError, match=r"periodic.mode_k, .*: flux on the \(0, 0\) column"):
            parse_config(f"periodic.mode_k = 0\nperiodic.amplitude = {amplitude}\n")


class TestCLI:
    def test_validate_defaults(self, capsys, tmp_path):
        rc = main(["validate", "--set", f"output.dir={tmp_path}",
                   "--set", "noise.t_min=-4", "--set", "noise.t_max=4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_validate_ends_its_runs_on_the_step_grid(self, capsys):
        # 2 is no multiple of dt_noise = 0.3, so the battery's runs end 7 steps after t_min.
        rc = main(["validate", "--set", "time.dt=0.3", "--set", "noise.dt_noise=0.3",
                   "--set", "noise.t_min=-30", "--set", "noise.t_max=15"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "validate: 16/16 checks passed" in captured.out

    def test_validate_flags_asymmetric_vertical_operator(self):
        rt = build_runtime(parse_config("noise.t_min = -4\nnoise.t_max = 4\n"))
        checks = {name: ok for name, ok, _ in run_battery(rt.ctx, rt.forcing)}
        assert checks["vertical operator symmetric"]
        vop = rt.ctx.vop
        action = vop.action.copy()
        action[1, 2] *= 1.0 + 1e-9
        bad = dataclasses.replace(rt.ctx, vop=dataclasses.replace(vop, action=action))
        checks = {name: ok for name, ok, _ in run_battery(bad, rt.forcing)}
        assert not checks["vertical operator symmetric"]

    def test_spectrum_reports_lambda1(self, capsys):
        rc = main(["spectrum"])
        out = capsys.readouterr().out
        assert rc == 0
        lam = float(out.splitlines()[0].split("=")[1])
        assert abs(lam - 0.25) < 5e-3

    def test_simulate_deterministic_checksums(self, tmp_path, capsys):
        # Identical (seed, config) runs produce bitwise-identical artifacts.
        out = tmp_path / "run"
        sums = []
        for _ in range(2):
            rc = main(["simulate", "--set", f"output.dir={out}",
                       "--set", "time.t1=1.0", "--set", "init.kind=random",
                       "--set", "noise.t_min=-2", "--set", "noise.t_max=2",
                       "--set", "time.snapshot_every=8"])
            assert rc == 0
            h = hashlib.sha256()
            for f in sorted(out.iterdir()):
                h.update(f.name.encode())
                h.update(f.read_bytes())
            sums.append(h.hexdigest())
        assert sums[0] == sums[1]

    def test_streamed_snapshots_match_library_run(self, tmp_path, capsys):
        # The CLI writes each snapshot when it is taken; the files are the
        # bytes save_snapshot gives for the library's in-memory snapshots.
        out = tmp_path / "run"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output.dir = {out}\ntime.t1 = 1.0\ninit.kind = random\n"
                            "noise.t_min = -2\nnoise.t_max = 2\ntime.snapshot_every = 4\n")
        assert main(["simulate", str(cfg_file)]) == 0
        rt = build_runtime(parse_config(cfg_file.read_text()))
        cfg = rt.cfg
        res = simulate(rt.ctx, rt.forcing, initial_field(rt), cfg.t0, cfg.t1, cfg.dt,
                       snapshot_every=cfg.snapshot_every)
        assert len(res.snapshots) == 5
        assert len(list(out.glob("snapshot_*.bin"))) == 5
        for i, (t, u) in enumerate(res.snapshots):
            ref = tmp_path / f"ref_{i}.bin"
            save_snapshot(ref, rt.grid, u, t=t, n=round(t / cfg.dt), dt=cfg.dt,
                          config_hash=rt.chash)
            assert (out / f"snapshot_{i:05d}.bin").read_bytes() == ref.read_bytes()

    def test_simulate_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--set", f"output.dir={out}",
                   "--set", "time.t1=0.5",
                   "--set", "noise.t_min=-2", "--set", "noise.t_max=2"])
        assert rc == 0
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[1] == "t,H,V,Vdual_liftx,xi,residual,dt"
        assert diag[0].startswith("# config=")
        assert (out / "config.txt").exists()
        assert (out / "snapshot_00000.bin").exists()

    def test_bad_config_exit_one(self, tmp_path, capsys):
        f = tmp_path / "bad.cfg"
        f.write_text("physics.nu = 0\n")
        rc = main(["simulate", str(f)])
        err = capsys.readouterr().err
        assert rc == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert "viscosity" in record["message"]

    @pytest.mark.parametrize("command, key", [("simulate", "init.modes"),
                                              ("pullback", "pullback.leading_modes")])
    def test_zero_mode_count_exit_one(self, tmp_path, capsys, command, key):
        # Rejected before any work: no zero field, no divide-by-zero warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--set", f"output.dir={tmp_path}", *FAST,
                       "--set", "init.kind=random", "--set", f"{key}=0"])
        assert [str(w.message) for w in caught] == []
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert {"init.modes": "init.modes: mode count 0 outside [1, 7496]",
                "pullback.leading_modes": "pullback.leading_modes: leading_modes must be "
                                          "at least 1"}[key] in record["message"]

    @pytest.mark.parametrize("index", ["init.m=17", "init.m=-1", "init.l=33", "init.l=16",
                                       "init.l=-16"])
    def test_out_of_band_eigenmode_exit_one(self, tmp_path, index):
        # Out of band at the default 32x32x17 grid (0 <= m < 17, |l| < 16).
        out = _cli_subprocess("simulate", "--set", f"output.dir={tmp_path}",
                              "--set", "init.kind=eigenmode", "--set", index)
        assert "Traceback" not in out.stderr
        assert out.returncode == 1
        record = json.loads(out.stderr.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert f"init.m, init.l, init.k: {index[5]} out of range" in record["message"]

    @pytest.mark.parametrize("index", ["periodic.mode_k=40", "periodic.mode_k=16",
                                       "periodic.mode_k=-1", "periodic.mode_l=16",
                                       "periodic.mode_l=-16"])
    def test_out_of_band_periodic_mode_exit_one(self, tmp_path, index):
        # Beyond the stored columns the flux could not be written; on a Nyquist line
        # (k = nx/2, |l| = ny/2) or at k = -1 it was written there and had no effect.
        out = _cli_subprocess("simulate", "--set", f"output.dir={tmp_path}", *FAST,
                              "--set", "periodic.amplitude=1", "--set", index)
        assert "Traceback" not in out.stderr
        assert out.returncode == 1
        record = json.loads(out.stderr.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert f"periodic.mode_k, periodic.mode_l, periodic.amplitude, periodic.phase: " \
               f"{index[14]} out of range" in record["message"]

    @pytest.mark.parametrize("command, key", [("simulate", "time.t1"),
                                              ("simulate", "noise.t_max"),
                                              ("cocycle-check", "cocycle.s")])
    def test_non_finite_time_exit_one(self, tmp_path, capsys, command, key):
        rc = main([command, "--set", f"output.dir={tmp_path}", "--set", f"{key}=inf"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert f"{key}: 'inf' is not finite" in record["message"]

    @pytest.mark.parametrize("setting, message", [
        ("cocycle.s=-1", "cocycle.s must be nonnegative"),
        ("cocycle.t=-0.5", "cocycle.t must be nonnegative"),
        ("cocycle.s=0.03", "cocycle.s, noise.dt_noise: shift s: 0.03 is not a multiple of the "
                           "grid step 0.0625"),
        ("cocycle.t=1.01", "cocycle.t: 1.01 is not a multiple of the grid step 0.0625")])
    def test_bad_cocycle_time_exit_one(self, tmp_path, capsys, setting, message):
        rc = main(["cocycle-check", "--set", f"output.dir={tmp_path}", "--set", setting])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert message in record["message"]
        assert parse_config("cocycle.s = 0\ncocycle.t = 0\n").cocycle_s == 0.0

    def test_cocycle_shift_off_noise_grid_exit_one_before_stepping(self, tmp_path, capsys,
                                                                  monkeypatch):
        # s = 0.03125 lies on the step grid of dt = 0.03125, not on the noise grid.
        steps = []
        step = integrator.step
        monkeypatch.setattr(integrator, "step", lambda *a, **k: steps.append(1) or step(*a, **k))
        rc = main(["cocycle-check", "--set", f"output.dir={tmp_path}", "--set", "time.dt=0.03125",
                   "--set", "cocycle.s=0.03125", "--set", "cocycle.t=12"])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err and steps == []
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert "cocycle.s, noise.dt_noise: shift s: 0.03125 is not a multiple of the grid " \
               "step 0.0625" in record["message"]

    @pytest.mark.parametrize("command, setting, t1", [("simulate", "time.t1=100", 100.0),
                                                      ("cocycle-check", "cocycle.t=100", 101.0)])
    def test_end_beyond_path_exit_one_before_stepping(self, tmp_path, capsys, monkeypatch,
                                                      command, setting, t1):
        # The default path covers up to t = 16; nothing is built, stepped or written.
        steps, built = [], []

        def counted(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        step, build = integrator.step, cli.build_runtime
        monkeypatch.setattr(integrator, "step", counted)
        monkeypatch.setattr(cli, "build_runtime", lambda cfg: built.append(1) or build(cfg))
        rc = main([command, "--set", f"output.dir={tmp_path}", "--set", setting,
                   "--set", "time.snapshot_every=64"])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err and steps == [] and built == []
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "config"
        keys = {"simulate": "time.t1", "cocycle-check": "cocycle.s + cocycle.t"}[command]
        assert record["message"].startswith(
            f"{keys}: t1={t1} lies beyond the noise path, which covers t <= 16.0")
        assert list(tmp_path.glob("snapshot_*.bin")) == []

    def test_cocycle_end_beyond_path_names_its_keys(self, tmp_path, capsys):
        rc = main(["cocycle-check", "--set", f"output.dir={tmp_path}", "--set", "cocycle.t=100"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["message"].startswith("cocycle.s + cocycle.t: t1=101.0 lies beyond")

    def test_t0_before_path_names_the_requested_time(self, tmp_path, capsys):
        # At dt = dt_noise/4 the message names t0, not the noise gridpoint -64.0625.
        rc = main(["simulate", "--set", f"output.dir={tmp_path}", "--set", "time.dt=0.015625",
                   "--set", "time.t0=-64.015625", "--set", "time.t1=-63"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["message"].startswith(
            "time.t0: time -64.015625 outside path range [-64.0, 16.0]")

    def test_gen_noise_rejects_off_grid_window_when_extending(self, tmp_path, capsys):
        # Extending rounded t_min = -8.03 to -8.0, where creating a file rejected it.
        target = tmp_path / "noise.bin"
        base = ["gen-noise", "--set", f"output.dir={tmp_path}", "--set", "noise.t_max=4"]
        assert main(base + ["--set", f"noise.file={target}", "--set", "noise.t_min=-4"]) == 0
        for fname in (target, tmp_path / "fresh.bin"):
            capsys.readouterr()
            assert main(base + ["--set", f"noise.file={fname}", "--set", "noise.t_min=-8.03"]) == 1
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert "t_min: -8.03 is not a multiple of the grid step 0.0625" in record["message"]
        assert load_noise_path(target).t_min == -4.0

    @pytest.mark.parametrize("key, value, message", [
        ("noise.n_modes", "3", "noise file has 8 modes, config wants 3"),
        ("noise.dt_noise", "0.125", "noise file dt_noise=0.0625 != config 0.125")],
        ids=["n_modes", "dt_noise"])
    def test_gen_noise_extend_checks_file_against_config(self, tmp_path, capsys,
                                                         key, value, message):
        # Extending keeps the file's modes and dt_noise, so a config that
        # disagrees with them fails as it does for simulate.
        target = tmp_path / "noise.bin"
        base = ["gen-noise", "--set", f"output.dir={tmp_path}", "--set", "noise.t_max=4"]
        assert main(base + ["--set", "noise.t_min=-4"]) == 0
        before = target.read_bytes()
        capsys.readouterr()
        assert main(base + ["--set", "noise.t_min=-8", "--set", f"{key}={value}"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert message in record["message"]
        assert target.read_bytes() == before

    def test_truncated_noise_file_exit_one(self, tmp_path, capsys):
        target = tmp_path / "noise.bin"
        assert main(["gen-noise", "--set", f"output.dir={tmp_path}",
                     "--set", f"noise.file={target}",
                     "--set", "noise.t_min=-2", "--set", "noise.t_max=2"]) == 0
        target.write_bytes(target.read_bytes()[:20])
        capsys.readouterr()
        rc = main(["simulate", "--set", f"output.dir={tmp_path}",
                   "--set", f"noise.file={target}"])
        err = capsys.readouterr().err
        assert rc == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "setup"
        assert "header has 20 bytes" in record["message"]

    @pytest.mark.parametrize("command", ["simulate", "pullback"])
    def test_output_dir_on_a_file_exit_one(self, tmp_path, command):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        out = _cli_subprocess(command, "--set", f"output.dir={target}", *FAST)
        assert "Traceback" not in out.stderr
        assert out.returncode == 1
        record = json.loads(out.stderr.strip().splitlines()[-1])
        assert record["error"] == "io"
        assert str(target) in record["message"]
        assert target.read_text() == "not a directory\n"

    def test_numerical_abort_exit_two(self, tmp_path, capsys):
        rc = main(["simulate", "--set", f"output.dir={tmp_path}",
                   "--set", "init.kind=eigenmode", "--set", "init.amplitude=500",
                   "--set", "time.t1=1.0",
                   "--set", "noise.t_min=-2", "--set", "noise.t_max=2"])
        err = capsys.readouterr().err
        assert rc == 2
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "numerical"

    def test_gen_noise_round_trip_and_extend(self, tmp_path, capsys):
        target = tmp_path / "noise.bin"
        rc = main(["gen-noise", "--set", f"output.dir={tmp_path}",
                   "--set", f"noise.file={target}",
                   "--set", "noise.t_min=-2", "--set", "noise.t_max=2"])
        assert rc == 0
        p1 = load_noise_path(target)
        rc = main(["gen-noise", "--set", f"output.dir={tmp_path}",
                   "--set", f"noise.file={target}",
                   "--set", "noise.t_min=-4", "--set", "noise.t_max=4"])
        assert rc == 0
        p2 = load_noise_path(target)
        lo = p1.i0_abs - p2.i0_abs
        assert np.array_equal(p2.increments[:, lo:lo + p1.n_steps], p1.increments)

    def test_simulate_from_noise_file_matches_seeded(self, tmp_path, capsys):
        target = tmp_path / "noise.bin"
        common = ["--set", "time.t1=1.0",
                  "--set", "noise.t_min=-2", "--set", "noise.t_max=2"]
        rc = main(["gen-noise", "--set", f"output.dir={tmp_path/'g'}",
                   "--set", f"noise.file={target}"] + common)
        assert rc == 0
        outs = []
        for sub, extra in (("s1", []), ("s2", ["--set", f"noise.file={target}"])):
            out = tmp_path / sub
            rc = main(["simulate", "--set", f"output.dir={out}"] + common + extra)
            assert rc == 0
            outs.append((out / "diagnostics.csv").read_bytes().split(b"\n", 1)[1])
        assert outs[0] == outs[1]

    def test_cocycle_check_passes(self, tmp_path, capsys):
        rc = main(["cocycle-check", "--set", f"output.dir={tmp_path}",
                   "--set", "init.kind=random", "--set", "init.amplitude=0.1",
                   "--set", "noise.q0=0.02", "--set", "periodic.amplitude=0.3"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        assert "deviation=0.000e+00" in out

    def test_pullback_report(self, tmp_path, capsys):
        out = tmp_path / "pb"
        rc = main(["pullback", "--set", f"output.dir={out}",
                   "--set", "pullback.horizons=1,2",
                   "--set", "pullback.leading_modes=6",
                   "--set", "pullback.quad_horizon=24",
                   "--set", "noise.q0=0.02", "--set", "periodic.amplitude=0.3"] + FAST)
        assert rc == 0
        lines = (out / "attractor_report.csv").read_text().splitlines()
        assert lines[1] == "T,diameter,hausdorff_prev,xi_star,slope"
        assert len(lines) == 4
        assert (out / "endpoint_T2_000.bin").exists()
        row = lines[3].split(",")
        assert float(row[1]) >= 0.0 and float(row[3]) > 0.0

    def test_pullback_nonzero_phase(self, tmp_path, capsys):
        # The pullback config and the forcing both take periodic.phase.
        out = tmp_path / "pb"
        rc = main(["pullback", "--set", f"output.dir={out}",
                   "--set", "pullback.horizons=1",
                   "--set", "pullback.leading_modes=6",
                   "--set", "pullback.quad_horizon=24",
                   "--set", "periodic.phase=0.3", "--set", "periodic.amplitude=0.3"] + FAST)
        assert rc == 0
        assert (out / "attractor_report.csv").exists()

    def test_pullback_defaults_extend_seeded_path(self, tmp_path, capsys):
        # The default quadrature horizon reaches far behind the default
        # noise.t_min; a seed-derived path is widened to the plan.
        out = tmp_path / "pb"
        rc = main(["pullback", "--set", f"output.dir={out}",
                   "--set", "grid.nx=8", "--set", "grid.ny=8", "--set", "grid.nz=5"])
        assert rc == 0
        lines = (out / "attractor_report.csv").read_text().splitlines()
        assert len(lines) == 6  # comment, header, horizons 2, 4, 8, 16
        assert all(np.isfinite(float(row.split(",")[1])) for row in lines[2:])

    @pytest.mark.parametrize("settings", [
        {"noise.q0": 100, "physics.nu": 2, "time.dt": 0.0625, "noise.dt_noise": 0.125,
         "noise.t_min": -64, "noise.t_max": 16},
        {"noise.t_max": 2},
    ], ids=["nonzero slope", "nan slope"])
    def test_pullback_slope_column(self, tmp_path, capsys, settings):
        # The slope column is growth_slope's, and equals flow_estimate plus growth_diagnostic
        # over 50 records at the widest spacing that fits in the path after 0, else NaN.
        settings = {"grid.nx": 8, "grid.ny": 8, "grid.nz": 5, **settings,
                    "output.dir": tmp_path / "pb"}
        args = ["pullback"]
        for key, value in settings.items():
            args += ["--set", f"{key}={value}"]
        assert main(args) == 0
        rows = (tmp_path / "pb" / "attractor_report.csv").read_text().splitlines()[2:]
        slopes = {row.split(",")[4] for row in rows}
        assert len(rows) == 4 and len(slopes) == 1
        text = "".join(f"{key} = {value}\n" for key, value in settings.items())
        cfg = parse_config(text)
        rt = cli.preflight_pullback(build_runtime(cfg))
        est = attractor.pullback_run(config.pullback_config(cfg), rt.ctx, rt.forcing, cfg.dt)
        t_max = rt.forcing.path.t_max
        rec_steps = max(1, int(np.floor(t_max / 50.0 / cfg.dt)))
        t_end = 50 * rec_steps * cfg.dt
        if 0 < t_end <= t_max:
            series = attractor.flow_estimate(rt.ctx, rt.forcing, est, cfg.dt, t_end,
                                             record_every=rec_steps * cfg.dt)
            expect = attractor.growth_diagnostic(series[1:]).slope
            assert expect != 0.0
        else:
            expect = float("nan")
        slope = attractor.growth_slope(rt.ctx, rt.forcing, est, cfg.dt)
        assert np.float64(slope).tobytes() == np.float64(expect).tobytes()
        assert slopes == {f"{expect:.17g}"}

    def test_pullback_short_noise_file_exit_one(self, tmp_path, capsys):
        target = tmp_path / "noise.bin"
        assert main(["gen-noise", "--set", f"output.dir={tmp_path}",
                     "--set", f"noise.file={target}"]) == 0
        capsys.readouterr()
        rc = main(["pullback", "--set", f"output.dir={tmp_path / 'pb'}",
                   "--set", f"noise.file={target}",
                   "--set", "grid.nx=8", "--set", "grid.ny=8", "--set", "grid.nz=5"])
        err = capsys.readouterr().err
        assert rc == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "config"
        keys = "noise.file, pullback.horizons, pullback.quad_horizon: "
        assert record["message"].startswith(keys)
        assert "covers [-64.0, 16.0], the pullback plan needs [-184.5, 0.0]" in record["message"]
        assert not (tmp_path / "pb").exists()


# Every integer key at -1, 0, its bound and bound + 1, with the settings that make its rule
# apply, on the FAST settings' 32x32x17 grid: there 440 boundary modes lie in band and
# 7496 real eigenmodes are resolvable.  key -> (extra settings, bound, accepts(value)).
INT_KEYS = {
    "grid.nx": ({}, 8, lambda v: v >= 8 and v % 2 == 0),
    "grid.ny": ({}, 8, lambda v: v >= 8 and v % 2 == 0),
    "grid.nz": ({}, 5, lambda v: v >= 5),
    "noise.n_modes": ({}, 440, lambda v: 0 <= v <= 440),
    # with periodic.mode_l = 0, mode_k = 0 is the excluded (0, 0) mode
    "periodic.mode_k": ({"periodic.amplitude": 0.5}, 15, lambda v: 1 <= v <= 15),
    "periodic.mode_l": ({"periodic.amplitude": 0.5}, 15, lambda v: -15 <= v <= 15),
    "time.snapshot_every": ({}, 0, lambda v: v >= 0),
    "init.m": ({"init.kind": "eigenmode"}, 16, lambda v: 0 <= v <= 16),
    "init.l": ({"init.kind": "eigenmode"}, 15, lambda v: -15 <= v <= 15),
    "init.k": ({"init.kind": "eigenmode"}, 15, lambda v: 0 <= v <= 15),
    "init.modes": ({"init.kind": "random"}, 7496, lambda v: 1 <= v <= 7496),
    "seed": ({}, (1 << 63) - 1, lambda v: 0 <= v < 1 << 63),
    "pullback.ensemble": ({}, 8, lambda v: v >= 8),
    "pullback.leading_modes": ({}, 7496, lambda v: 1 <= v <= 7496),
}
MATRIX = [({**extra, key: value}, None if accepts(value) else key)
          for key, (extra, bound, accepts) in INT_KEYS.items()
          for value in sorted({-1, 0, bound, bound + 1})]
# Settings whose rule a set-up function owns (it needs the grid, lambda1 or the noise model),
# some of which `simulate` never reads; each is rejected at parse time all the same.
SETUP_RULES = [({"noise.n_modes": 1000}, "noise.n_modes"),
               ({"pullback.leading_modes": 100000}, "pullback.leading_modes"),
               ({"pullback.quad_horizon": 1}, "pullback.quad_horizon"),
               ({"init.kind": "eigenmode", "init.m": 17}, "init.m"),
               ({"periodic.amplitude": 1, "periodic.mode_k": 40}, "periodic.mode_k"),
               ({"noise.t_min": -32.03}, "noise.t_min"),
               ({"noise.p": -1000}, "noise.p")]  # 3 ** 1000 overflows a covariance weight


class TestInvalidInputMatrix:
    """An invalid value exits 1 at parse time with a `config` record naming its key."""

    def _run(self, tmp_path, capsys, monkeypatch, settings):
        built = []
        build = cli.build_runtime
        monkeypatch.setattr(cli, "build_runtime", lambda cfg: built.append(1) or build(cfg))
        base = dict(item.split("=", 1) for item in FAST[1::2])
        out = tmp_path / "out"
        args = ["simulate", "--set", f"output.dir={out}", "--set", "time.t1=0.5"]
        for key, value in {**base, **settings}.items():
            args += ["--set", f"{key}={value}"]
        rc = main(args)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2) and "Traceback" not in err
        record = json.loads(err.strip().splitlines()[-1]) if rc else None
        return rc, record, built, out

    @pytest.mark.parametrize("settings, key", MATRIX,
                             ids=[",".join(f"{k}={v}" for k, v in s.items()) for s, _ in MATRIX])
    def test_integer_key(self, tmp_path, capsys, monkeypatch, settings, key):
        rc, record, built, out = self._run(tmp_path, capsys, monkeypatch, settings)
        if key is None:
            assert rc == 0
            return
        assert rc == 1 and record["exit_code"] == 1
        assert record["error"] == "config" and key in record["message"]
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("with_nu", [False, True], ids=["alone", "with nu=0"])
    @pytest.mark.parametrize("settings, key", SETUP_RULES, ids=[key for _, key in SETUP_RULES])
    def test_setup_rule_fails_at_parse(self, tmp_path, capsys, monkeypatch, settings, key,
                                         with_nu):
        settings = {**settings, "physics.nu": 0} if with_nu else settings
        rc, record, built, out = self._run(tmp_path, capsys, monkeypatch, settings)
        assert rc == 1 and record["error"] == "config" and key in record["message"]
        assert ("viscosity must be positive" in record["message"]) == with_nu
        assert built == [] and not out.exists()


NOISE_KEYS = "seed, noise.dt_noise, noise.t_min, noise.t_max: "
# (command, settings, the start of one line of its `config` record, or None for exit 0).
# "{noise}" stands for a noise file that covers [-4, 4], "{missing}" for a file that is not there.
READS = [
    # A command does not check keys it does not read.
    ("spectrum", {"time.dt": 0.3, "noise.dt_noise": 0.3}, None),
    ("simulate", {"time.dt": 0.5, "noise.dt_noise": 2, "time.t1": 2}, None),
    ("gen-noise", {"time.dt": 0.05}, None),
    ("validate", {"time.t1": -1, "noise.t_min": -4, "noise.t_max": 4}, None),
    ("validate", {"cocycle.s": 0.03, "noise.t_min": -4, "noise.t_max": 4}, None),
    ("spectrum", {"time.t1": -1}, None),
    ("gen-noise", {"time.t1": -1}, None),
    ("spectrum", {"noise.file": "{missing}"}, None),
    # Each cross-key rule fails at parse under every command that reads its keys.
    *[(command, {"noise.t_min": -32.03}, NOISE_KEYS + "t_min: -32.03 is not a multiple")
      for command in ("simulate", "pullback", "cocycle-check", "validate", "gen-noise")],
    *[(command, {"time.dt": 0.05}, "time.dt, noise.dt_noise: dt must divide dt_noise")
      for command in ("simulate", "pullback", "cocycle-check")],
    ("simulate", {"time.t1": -1}, "time.t0 must precede time.t1"),
    ("cocycle-check", {"cocycle.s": 0.03}, "cocycle.s, noise.dt_noise: shift s: 0.03 is not"),
    ("cocycle-check", {"cocycle.t": 1.01}, "cocycle.t: 1.01 is not a multiple"),
    # Each command's span is checked by key: a seeded path's before set-up, a
    # noise file's once set-up has loaded it.
    ("simulate", {"time.t1": 100},
     "time.t1: t1=100.0 lies beyond the noise path, which covers t <= 16.0"),
    ("simulate", {"time.t1": 4.01}, "time.t1: 4.01 is not a multiple of the grid step 0.0625"),
    ("simulate", {"time.t0": -70, "time.t1": 1},
     "time.t0: time -70.0 outside path range [-64.0, 16.0]"),
    ("cocycle-check", {"cocycle.t": 100},
     "cocycle.s + cocycle.t: t1=101.0 lies beyond the noise path, which covers t <= 16.0"),
    ("cocycle-check", {"noise.t_min": 1}, "noise.t_min: time 0.0 outside path range [1.0, 16.0]"),
    ("simulate", {"noise.file": "{noise}", "time.t1": 100},
     "time.t1: t1=100.0 lies beyond the noise path, which covers t <= 4.0"),
    ("cocycle-check", {"noise.file": "{noise}", "cocycle.t": 100},
     "cocycle.s + cocycle.t: t1=101.0 lies beyond the noise path, which covers t <= 4.0"),
    # The pullback horizons lie on the time.dt grid.
    ("pullback", {"time.dt": 0.3, "noise.dt_noise": 0.3, "noise.t_min": -30, "noise.t_max": 15},
     "pullback.horizons: horizon 2: -2 is not a multiple of the grid step 0.3"),
    # A noise file replaces the seeded window, except for gen-noise, which extends the file to
    # it; seed and cocycle.s keep their rules.
    *[(command, {"noise.file": "{noise}", "noise.t_min": -32.03, "time.t1": 1}, None)
      for command in ("simulate", "cocycle-check", "validate")],
    ("pullback", {"noise.file": "{noise}", "noise.t_min": -32.03},
     "noise.file, pullback.horizons, pullback.quad_horizon: noise file "),
    ("gen-noise", {"noise.file": "{noise}", "noise.t_min": -32.03},
     NOISE_KEYS + "t_min: -32.03 is not a multiple"),
    ("simulate", {"noise.file": "{noise}", "seed": -1},
     NOISE_KEYS + "seed must be a nonnegative 63-bit integer"),
    ("cocycle-check", {"noise.file": "{noise}", "cocycle.s": 0.03},
     "cocycle.s, noise.dt_noise: shift s: 0.03 is not"),
]


class TestCommandReads:
    """Each command checks the cross-key rules and the span of the keys it reads, and no others."""

    @pytest.mark.parametrize("command, settings, expect", READS,
                             ids=[f"{c}:" + ",".join(f"{k}={v}" for k, v in s.items())
                                  for c, s, _ in READS])
    def test_command_checks_what_it_reads(self, tmp_path, capsys, monkeypatch, command,
                                          settings, expect):
        noise = tmp_path / "noise.bin"
        if "{noise}" in settings.values():
            assert main(["gen-noise", "--set", f"noise.file={noise}", "--set", "noise.t_min=-4",
                         "--set", "noise.t_max=4", "--set", f"output.dir={tmp_path}"]) == 0
        steps, built = [], []
        step, build = integrator.step, cli.build_runtime
        monkeypatch.setattr(integrator, "step", lambda *a, **k: steps.append(1) or step(*a, **k))
        monkeypatch.setattr(cli, "build_runtime", lambda cfg: built.append(1) or build(cfg))
        out, files = tmp_path / "out", {"{noise}": noise, "{missing}": tmp_path / "missing.bin"}
        args = [command, "--set", f"output.dir={out}"]
        for key, value in settings.items():
            args += ["--set", f"{key}={files.get(value, value)}"]
        capsys.readouterr()
        rc = main(args)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if expect is None:
            assert rc == 0, err
            return
        record = json.loads(err.strip().splitlines()[-1])
        assert rc == 1 and record["error"] == "config"
        assert any(line.startswith(expect) for line in record["message"].splitlines()), record
        assert steps == [] and not out.exists()
        # Only what a loaded file covers is checked after set-up; every other rule at parse.
        after_setup = "which covers" in expect or expect.startswith("noise.file,")
        assert built == ([1] if after_setup and "noise.file" in settings else [])

    def test_spectrum_builds_no_noise_path_or_forcing(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("make_noise_path", "load_noise_path", "build_forcing"):
            def counted(*args, _name=name, _fn=getattr(forcing, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            for module in (forcing, config, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        assert main(["spectrum", "--set", f"output.dir={tmp_path}"]) == 0
        assert calls == []
        # The counters see the calls of a command that builds the forcing.
        assert main(["simulate", "--set", f"output.dir={tmp_path}", "--set", "time.t1=0.125"]) == 0
        assert set(calls) == {"make_noise_path", "build_forcing"}

    def test_each_broken_rule_reported_once(self, tmp_path, capsys):
        # cocycle.s off the noise grid is one rule, which shift_path checks.
        with pytest.raises(ConfigError) as err:
            parse_config("cocycle.s = 0.03\n")
        assert [v for v in err.value.violations if "cocycle.s" in v] == [
            "cocycle.s, noise.dt_noise: shift s: 0.03 is not a multiple of the grid step 0.0625"]
        assert main(["cocycle-check", "--set", f"output.dir={tmp_path}",
                     "--set", "cocycle.s=0.03"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert len([line for line in record["message"].splitlines() if "cocycle.s" in line]) == 1
