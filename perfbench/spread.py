"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workloads train,longform,eval \\
        --seeds 1-10 [--seconds S] [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
prints each run's result line.  Then, per workload and metric, it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread ``(q3 - q1) / median``, which BENCHMARK.json's bounds are judged
against.  ``--out`` also writes every run and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]),
            "lines": lines[:-1]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    report = {"command": " ".join(sys.orig_argv), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            run = run_one(workload, seed, args.seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s, correct {res['correct']}, "
                  f"attempted {res['attempted']}, failed {res['failed']}, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
            runs.append(run)
        names = runs[0]["result"]["metrics"]
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in names}
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        report["workloads"][workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "summary": summary, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
