"""Run one stochqg benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 bench/run.py --workload sim64_diag --seed 1 --seconds 30 --trace 0

Workloads: sim64_diag, pullback32, cli128_io (see workloads.py).  The load
is closed-loop from this single process: the next call starts when the
previous one has returned and been checked.  BLAS and OpenMP are pinned to
one thread before numpy loads.

A run repeats the timed call until ``--seconds`` is spent (at least three
calls; ``wall_s`` is the median).  Before each call it sets the runtime up
afresh, repeatedly for about a quarter of a call's time, so the set-up
samples are spread over the whole run like the calls are.  ``setup_s`` is
their mean, not their median: a shared host can switch between a fast and a
slow speed for seconds at a time, so the millisecond set-ups fall into two
groups and their median jumps from one to the other with the share of the
run spent fast, while the mean moves smoothly with it.  A call of several
seconds already averages over those phases.  Only one runtime is alive at
a time, so ``peak_rss_mb`` shows what the program itself holds.

With ``--trace 1`` the first half of the budget is untraced and the second
half traced: per-layer metrics are medians over the traced calls,
``trace.overhead_frac`` compares the two halves, and the spans are written
to ``.bench_work/trace_<workload>_s<seed>.csv.gz``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds provenance, the per-call samples and the sha256 of
the final state.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import os

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import per_layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

MIN_CALLS = 3
SETUP_SHARE = 0.25   # of each call's time, spent on timed set-ups


def _import_program():
    """Import stochqg from this checkout's src/, or exit without a result."""
    try:
        import stochqg
    except ImportError as exc:
        sys.exit(f"bench: cannot import stochqg from {SRC}: {exc}")
    if SRC.resolve() not in Path(stochqg.__file__).resolve().parents:
        sys.exit(f"bench: stochqg imported from {stochqg.__file__}, not from {SRC}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    """sha256 over the program's source files, to tell two codes apart."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "stochqg").rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


class Tally:
    """Checks attempted and failed, and the digest every call must repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def call(self, wl, rt, inputs, tracer=None):
        """Time one call of the workload, then check its outputs.

        Returns the wall time and whether the call returned.  A call that
        raises fails all of its checks, the digest check included.  With a tracer, only the call itself
        is traced, not the checks.
        """
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            output = wl.call(rt, inputs)
        except Exception:
            traceback.print_exc()
            self.attempted += wl.n_checks(rt) + 1
            self.failed += wl.n_checks(rt) + 1
            return time.perf_counter() - t0, False
        finally:
            if tracer is not None:
                tracer.active = False
        wall = time.perf_counter() - t0
        checks = wl.check(rt, inputs, output)
        self.attempted += checks.attempted + 1
        self.failed += checks.failed
        if self.digest is None:
            self.digest = checks.digest
        self.failed += checks.digest != self.digest
        return wall, True


def _timed_setups(wl, text, budget_s, times):
    """Set up the runtime at least once and until ``budget_s`` is spent.

    Appends each set-up's wall time to ``times`` and returns the last
    runtime.  Each runtime is dropped before the next is built.
    """
    start = time.perf_counter()
    while True:
        rt = None
        t0 = time.perf_counter()
        rt = wl.setup(text)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= budget_s:
            return rt


def _calls(budget_s, one_call):
    """Repeat ``one_call`` (returns its wall time) until the budget is spent.

    ``one_call`` gets the call's index and the median call time so far (0
    before the first), and spends up to ``SETUP_SHARE`` of the latter on
    set-ups.  A call starts only if, at the median call time so far, it
    would end inside the budget, so a run lasts about ``budget_s`` even when
    one call takes several seconds.
    """
    walls = []
    start = time.perf_counter()
    while True:
        typical = statistics.median(walls) if walls else 0.0
        walls.append(one_call(len(walls), typical))
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls)
        if len(walls) >= MIN_CALLS and elapsed + (1 + SETUP_SHARE) * typical > budget_s:
            return walls


def run(wl, seed: int, seconds: float, trace_file: Path | None):
    text = wl.config_text(seed)
    wl.prepare(seed)
    tally = Tally()
    setups = []
    steps = []

    def one_call(i, typical):
        rt = _timed_setups(wl, text, SETUP_SHARE * typical, setups)
        steps.append(wl.model_steps(rt))
        return tally.call(wl, rt, wl.ready(rt))[0]

    budget = seconds / 2 if trace_file else seconds
    walls = _calls(budget, one_call)
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.fmean(setups), "s"),
        "wall_s": (wall_s, "s"),
        "steps_per_s": (steps[0] / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "check_pass_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    samples = {"setup_s": setups, "wall_s": walls, "model_steps": steps[0]}
    if trace_file:
        metrics, traced = _traced(wl, text, budget, tally, wall_s, trace_file)
        samples["traced_wall_s"] = traced
    return metrics, samples, tally


def _traced(wl, text, budget, tally, untraced_wall_s, trace_file):
    tracer = Tracer()
    per_call = []

    def one_call(i, typical):
        tracer.iteration = i
        tracer.active = True
        rt = wl.setup(text)
        tracer.active = False
        inputs = wl.ready(rt)
        wall, returned = tally.call(wl, rt, inputs, tracer)
        if returned:
            per_call.append(tracer.iteration_metrics(i, wl.root_span, wall))
        return wall

    tracer.install()
    try:
        walls = _calls(budget, one_call)
    finally:
        tracer.uninstall()
    tracer.write(trace_file)

    metrics = {}
    for spec in per_layer_metrics():
        values = [m[spec["name"]] for m in per_call if spec["name"] in m]
        if values:
            metrics[spec["name"]] = (float(statistics.median(values)), spec["unit"])
    traced_wall_s = statistics.median(walls)
    metrics["trace.overhead_frac"] = (
        (traced_wall_s - untraced_wall_s) / untraced_wall_s, "ratio")
    return metrics, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    trace_file = (ROOT / ".bench_work" / f"trace_{wl.name}_s{args.seed}.csv.gz"
                  if args.trace else None)
    os.chdir(work)
    try:
        metrics, samples, tally = run(wl, args.seed, args.seconds, trace_file)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"workload": wl.name, "provenance": provenance(args.seed),
                      "digest": tally.digest, "samples": samples}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
