"""Run every benchmark workload over several seeds and check steadiness.

Usage, from the repository root:

    python3 bench/suite.py                       # all workloads, seeds 1-10
    python3 bench/suite.py --trace --label baseline
    python3 bench/suite.py --seeds 11-20 --against bench/results/BENCH_baseline.json

Each run is a separate ``bench/run.py`` process, of the ``run_seconds`` that
BENCHMARK.json fixes.  For every workload the suite prints each end-to-end
metric by name and unit with the median and quartiles over the seeds, and
its spread: the interquartile distance as a share of the median, next to
the metric's bound from BENCHMARK.json.  It fails (exit 1) when a run
reports a failed check, a spread exceeds its bound, a run reports other
metric names than BENCHMARK.json lists, or two runs of the first seed end
in different final states (sha256 digests).  ``--against FILE`` compares
with an earlier set of runs written by ``--label``: it fails when a median
is worse than that set's by more than the bound, or when the first seed's
digest differs although both sets ran it on the same program source.
``--trace`` adds one traced run per workload and prints its per-layer
metrics.
``--label NAME`` writes everything to ``bench/results/BENCH_<NAME>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LAYER_MAP  # noqa: E402

RUN_TIMEOUT_S = 180


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    return record


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label")
    parser.add_argument("--against", type=Path,
                        help="results file of an earlier set to compare with")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    against = json.loads(args.against.read_text()) if args.against else None

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    seeds = _seeds(args.seeds)
    report = {"benchmark": spec, "seconds": seconds, "seeds": seeds,
              "layer_map": LAYER_MAP, "workloads": {}}
    problems = []

    for wl in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(wl, s, seconds, False) for s in seeds]
        repeat = run_once(wl, seeds[0], seconds, False)
        entry = {"runs": runs, "repeat_of_first_seed": repeat, "metrics": {}}
        report["workloads"][wl] = entry
        report.setdefault("provenance", runs[0]["provenance"])

        print(f"\n== {wl}  seeds {args.seeds}, {seconds} s per run")
        for r in runs + [repeat]:
            res = r["result"]
            if set(res["metrics"]) != set(e2e):
                problems.append(f"{wl}: untraced metric names differ from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{wl} seed {r['provenance']['seed']}: "
                                f"{res['failed']}/{res['attempted']} checks failed")
        if repeat["digest"] != runs[0]["digest"]:
            problems.append(f"{wl}: two runs of seed {seeds[0]} end in different states")
        if against:
            ref = against["workloads"][wl]["runs"][0]
            same = (ref["provenance"]["seed"] == seeds[0] and
                    ref["provenance"]["src_sha256"] == runs[0]["provenance"]["src_sha256"])
            if same and ref["digest"] != runs[0]["digest"]:
                problems.append(f"{wl}: seed {seeds[0]} ends in another state than in "
                                f"{args.against}")
        print(f"final-state sha256 (seed {seeds[0]}, twice): {runs[0]['digest'][:16]} "
              f"{repeat['digest'][:16]}")
        print(f"{'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name, m in e2e.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            flag = ""
            if s["spread"] > m["bound"]:
                flag = "  SPREAD > BOUND"
                problems.append(f"{wl}: {name} spread {s['spread']:.3f} > {m['bound']}")
            if against:
                ref = against["workloads"][wl]["metrics"][name]["median"]
                worse = (ref - s["median"] if m["better"] == "higher"
                         else s["median"] - ref) / ref
                flag += f"  {worse:+.3f} worse than --against"
                if worse > m["bound"]:
                    flag += " > BOUND"
                    problems.append(f"{wl}: {name} median {worse:.3f} worse than "
                                    f"{args.against} > {m['bound']}")
            print(f"{name:<16}{m['unit']:<7}{s['median']:>12.6g}{s['q1']:>12.6g}"
                  f"{s['q3']:>12.6g}{s['spread']:>9.3f}{m['bound']:>7}{flag}")

        if args.trace:
            traced = run_once(wl, seeds[0], seconds, True)
            entry["trace"] = traced
            got = traced["result"]["metrics"]
            if set(got) != per_layer:
                problems.append(f"{wl}: traced metric names differ from BENCHMARK.json")
            print(f"-- traced run, seed {seeds[0]} (medians over "
                  f"{len(traced['samples']['traced_wall_s'])} traced calls)")
            for name, m in got.items():
                if m["value"]:
                    print(f"{name:<44}{m['value']:>14.6g} {m['unit']}")

    if args.label:
        out = BENCH / "results" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {out.relative_to(ROOT)}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
