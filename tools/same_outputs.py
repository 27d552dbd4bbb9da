"""Compare the outputs of this checkout with those of another git revision.

Usage, from the repository root:

    python3 tools/same_outputs.py --against REV

A detached ``git worktree`` of REV is made in a temporary directory and
removed afterwards.  Each producer runs once per tree, with that tree's
``src/`` on PYTHONPATH, in a working directory of its own.  For each output
the tool prints its name, its sha256 under REV and under this checkout
(working-tree files, committed or not), and whether the two are equal.  The
exit code is 1 when any output differs or is missing in one tree, else 0.
After the outputs it prints each workload's seed-1 ``peak_rss_mb`` and
``setup_s`` under both trees, read from the result line of ``bench/run.py``;
those values are shown for information and are not compared.

Producers:

- ``bench/run.py --seconds 1``: the final-state digest of every workload,
  seeds 1-3;
- the README "Example" commands: their stdout and every artifact;
- ``simulate`` at dt = dt_noise/4: ``diagnostics.csv`` and the snapshots;
- ``simulate`` on the non-square 48x16x9 grid with 120 noise modes, whose
  first modes reach past the band's |l| <= 5 edge, so a k/l mix-up in the
  band or its discs changes them: ``diagnostics.csv`` and the snapshots;
- ``simulate`` on the 16x48x9 grid, whose ny = 48 is not a power of two, so
  an FFT call whose bits depend on the length of the y pass changes it:
  ``diagnostics.csv`` and the snapshots;
- ``pullback`` at 8x8x5 with the other defaults, whose seeded path is
  widened from -64 to -184.5 for the xi* windows, and at 8x8x5 with
  ``noise.q0 = 100``, ``physics.nu = 2`` and ``noise.dt_noise = 0.125``,
  whose growth slope is nonzero: stdout, ``attractor_report.csv`` and the
  endpoint snapshots;
- ``cocycle-check``, ``validate`` and ``spectrum`` with built-in defaults:
  their stdout;
- ``jacobian`` of seeded physical fields at 32x32x17 (one level block),
  64x64x33 (blocks of 8 levels and a 1-level tail), 64x64x17 (8, 8 and 1
  levels), 128x128x17 (2-level blocks) and 16x48x9 (one block, ny not a
  power of two): its sha256 per grid, since ``validate`` prints only
  PASS/FAIL;
- ``transforms``: ``forward_transform`` of seeded real 3-level fields and
  ``inverse_transform`` of seeded complex ones on ``Grid(nx, ny, 5)``, for
  ny = 8, 10, ..., 128 and nx in {8, 16, 24, 48, 64, 96, 128} (427 shapes,
  most with ny no power of two): one sha256 per nx and direction, over the
  outputs of every ny in order;
- ``build_forcing``'s ``support`` (both index arrays) and ``basis`` through
  ``cli.build_runtime(config.parse_config(text))``: their sha256 for the
  defaults at 32x32x17; for 48x16x9 with a 0.5 periodic flux on (k, l) =
  (0, 3), a conjugate pair of columns outside the first 8 noise modes; and
  for 32x32x17 with a zero periodic flux on (2, 1), which adds no column;
- ``config_hash(SimConfig())``.

The digests depend on the BLAS kernels the host picks, so the two trees are
run on one machine instead of against stored values.  BLAS and OpenMP run
on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim64_diag", "pullback32", "cli128_io")
SEEDS = (1, 2, 3)
# name -> command and arguments; each writes its artifacts to out/.
CLI_RUNS = {
    "simulate dt_noise/4": ("simulate", "--set", "time.dt=0.015625", "--set", "time.t1=1",
                            "--set", "init.kind=random", "--set", "periodic.amplitude=0.5",
                            "--set", "time.snapshot_every=16"),
    "simulate 48x16x9": ("simulate", "--set", "grid.nx=48", "--set", "grid.ny=16",
                         "--set", "grid.nz=9", "--set", "init.kind=random",
                         "--set", "noise.n_modes=120", "--set", "time.t1=1",
                         "--set", "time.snapshot_every=8"),
    "simulate 16x48x9": ("simulate", "--set", "grid.nx=16", "--set", "grid.ny=48",
                         "--set", "grid.nz=9", "--set", "init.kind=random", "--set", "time.t1=1",
                         "--set", "time.snapshot_every=8"),
    "pullback 8x8x5": ("pullback", "--set", "grid.nx=8", "--set", "grid.ny=8",
                       "--set", "grid.nz=5"),
    "pullback q0=100": ("pullback", "--set", "grid.nx=8", "--set", "grid.ny=8",
                        "--set", "grid.nz=5", "--set", "noise.q0=100", "--set", "physics.nu=2",
                        "--set", "noise.dt_noise=0.125"),
}
# Shown for information, not compared: metric -> (unit, format).
INFO_METRICS = {"peak_rss_mb": ("MB", ".1f"), "setup_s": ("s", ".4f")}
# name -> config text of the forcing producer.
FORCING_CONFIGS = {
    "defaults": "",
    "48x16x9 periodic (0, 3)": "grid.nx = 48\ngrid.ny = 16\ngrid.nz = 9\nperiodic.amplitude = 0.5\n"
                               "periodic.mode_k = 0\nperiodic.mode_l = 3\n",
    "zero periodic (2, 1)": "periodic.amplitude = 0\nperiodic.mode_k = 2\nperiodic.mode_l = 1\n",
}
# Prints one JSON object: name -> sha256 of support li, support ki and basis.
FORCING = f"""
import hashlib, json
from stochqg import cli, config
out = {{}}
for name, text in {FORCING_CONFIGS!r}.items():
    forcing = cli.build_runtime(config.parse_config(text)).forcing
    out[name] = [hashlib.sha256(a.tobytes()).hexdigest() for a in (*forcing.support, forcing.basis)]
print(json.dumps(out))
"""
CONFIG_HASH = "from stochqg.config import SimConfig, config_hash; print(config_hash(SimConfig()))"
# Prints "<grid> <sha256 of jacobian>" per grid, through API every tree has.
JACOBIAN = """
import hashlib
import numpy as np
from stochqg.operators import build_context, jacobian
from stochqg.spectral import Grid, build_vertical_operator, make_profile
for nx, ny, nz in ((32, 32, 17), (64, 64, 33), (64, 64, 17), (128, 128, 17), (16, 48, 9)):
    vop = build_vertical_operator(make_profile(1.0, 1.0, nz), nz)
    ctx = build_context(Grid(nx=nx, ny=ny, nz=nz), vop, nu=0.5, beta=1.0)
    rng = np.random.default_rng(nx + nz)
    a, b = (rng.standard_normal((nz, ny, nx)) for _ in range(2))
    print(f"{nx}x{ny}x{nz}", hashlib.sha256(jacobian(ctx, a, b).tobytes()).hexdigest())
"""
# Prints "<nx> <forward sha256> <inverse sha256>" per nx, through API every tree has.
TRANSFORMS = """
import hashlib
import numpy as np
from stochqg.spectral import Grid, forward_transform, inverse_transform
for nx in (8, 16, 24, 48, 64, 96, 128):
    fwd, inv = hashlib.sha256(), hashlib.sha256()
    for ny in range(8, 129, 2):
        grid = Grid(nx=nx, ny=ny, nz=5)
        rng = np.random.default_rng(1000 * nx + ny)
        f = rng.standard_normal((3, ny, nx))
        fhat = rng.standard_normal((3, ny, grid.nkx)) + 1j * rng.standard_normal((3, ny, grid.nkx))
        fwd.update(forward_transform(grid, f).tobytes())
        inv.update(inverse_transform(grid, fhat).tobytes())
    print(nx, fwd.hexdigest(), inv.hexdigest())
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _readme_example() -> str:
    """The README's "Example" code block, as CI runs it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^Example:.*?^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    if match is None:
        sys.exit("same_outputs: no Example block in README.md")
    return match.group(1)


class Tree:
    """One checkout whose producers run with its own ``src/`` on PYTHONPATH."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.info = {}  # (metric, workload) -> seed-1 value, not an output

    def run(self, args, cwd: Path) -> tuple[int, str]:
        proc = subprocess.run(args, cwd=cwd, env=self.env, capture_output=True, text=True)
        if proc.returncode:
            print(f"  [{self.root.name}] {' '.join(map(str, args))[:80]} exited "
                  f"{proc.returncode}: {proc.stderr.strip()[-300:]}", file=sys.stderr)
        return proc.returncode, proc.stdout

    def workdir(self, name: str) -> Path:
        path = self.scratch / name
        path.mkdir(parents=True)
        return path

    def outputs(self) -> dict[str, str]:
        out = {}

        def text(name, code, stdout):
            out[name] = _sha(stdout.encode()) if code == 0 else f"failed (exit {code})"

        def files(prefix, directory):
            for path in sorted(p for p in directory.rglob("*") if p.is_file()):
                out[f"{prefix}/{path.relative_to(directory)}"] = _sha(path.read_bytes())

        py = sys.executable
        for workload in WORKLOADS:
            for seed in SEEDS:
                code, stdout = self.run([py, "bench/run.py", "--workload", workload,
                                         "--seed", str(seed), "--seconds", "1"], self.root)
                lines = stdout.splitlines()
                ok = code == 0 and len(lines) >= 2
                out[f"bench {workload} seed {seed} digest"] = (
                    json.loads(lines[-2])["digest"] if ok else f"failed (exit {code})")
                if ok and seed == 1:
                    metrics = json.loads(lines[-1])["metrics"]
                    for metric in INFO_METRICS:
                        self.info[metric, workload] = metrics[metric]["value"]

        readme = self.workdir("readme")
        script = f'stochqg() {{ "{py}" -m stochqg.cli "$@"; }}\n' + _readme_example()
        text("readme stdout", *self.run(["sh", "-e", "-c", script], readme))
        files("readme", readme)

        for name, args in CLI_RUNS.items():
            work = self.workdir(name.replace(" ", "_").replace("/", "_"))
            text(f"{name} stdout", *self.run([py, "-m", "stochqg.cli", *args,
                                              "--set", "output.dir=out"], work))
            files(name, work / "out")

        for command in ("cocycle-check", "validate", "spectrum"):
            code, stdout = self.run([py, "-m", "stochqg.cli", command], self.workdir(command))
            text(f"{command} stdout", code, stdout)
            if command == "cocycle-check":
                out["cocycle-check line"] = stdout.strip()

        code, stdout = self.run([py, "-c", JACOBIAN], self.scratch)
        for grid, digest in (line.split() for line in stdout.splitlines()):
            out[f"jacobian {grid}"] = digest
        if code:
            out["jacobian"] = f"failed (exit {code})"

        code, stdout = self.run([py, "-c", TRANSFORMS], self.scratch)
        for nx, fwd, inv in (line.split() for line in stdout.splitlines()):
            out[f"transforms nx={nx} forward"], out[f"transforms nx={nx} inverse"] = fwd, inv
        if code:
            out["transforms"] = f"failed (exit {code})"

        code, stdout = self.run([py, "-c", FORCING], self.scratch)
        digests = json.loads(stdout) if code == 0 else {}
        for name in FORCING_CONFIGS:
            for part, digest in zip(("support li", "support ki", "basis"),
                                    digests.get(name, [f"failed (exit {code})"] * 3)):
                out[f"forcing {name} {part}"] = digest

        code, stdout = self.run([py, "-c", CONFIG_HASH], self.scratch)
        out["config_hash(SimConfig())"] = stdout.strip() if code == 0 else f"failed (exit {code})"
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare with, e.g. the parent commit")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        other = tmp / "against"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(other), args.against], check=True)
        trees = Tree(other, tmp / "run-against"), Tree(ROOT, tmp / "run-this")
        try:
            theirs, ours = (tree.outputs() for tree in trees)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(other)], check=False)

    differ = 0
    print(f"{'output':<44} {args.against[:12]:<64} {'this checkout':<64} same")
    names = list(theirs) + [n for n in ours if n not in theirs]
    for name in names:
        a, b = theirs.get(name, "missing"), ours.get(name, "missing")
        differ += a != b
        print(f"{name:<44} {a:<64} {b:<64} {'yes' if a == b else 'NO'}")
    for metric, (unit, fmt) in INFO_METRICS.items():
        for workload in WORKLOADS:
            a, b = (format(tree.info[metric, workload], fmt) if (metric, workload) in tree.info
                    else "missing" for tree in trees)
            print(f"{metric} {workload} seed 1 (not compared): {a} {unit} under "
                  f"{args.against[:12]}, {b} {unit} in this checkout")
    print(f"same_outputs: {len(names) - differ} equal, {differ} differ, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
