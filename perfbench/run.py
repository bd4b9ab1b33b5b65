"""Benchmark of gesturesynth's three jobs: training, long-form synthesis, evaluation.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {train,longform,eval} --seed N \\
        --seconds S --trace {0,1}

One process, one client, closed loop: the next operation starts when the
previous one returns.  Set-up (corpus, model init, checkpoint save and load,
extractor training for ``eval``) runs at least three times, and until six
seconds are spent; ``setup_s`` is the median.  The previous set-up's objects
are freed outside the timer.
Operations then repeat for about ``--seconds``; a run never starts an
operation expected to end more than half an operation past the deadline, and
always runs at least two, whose output digests must be identical.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json.  With ``--trace 1`` the first third of the time runs
untraced, then wrappers from ``tracing.py`` are installed and at least two
more operations run traced; the last line reports the per-layer metrics,
including the tracing overhead, and the spans are written to
``.bench_out/spans-<workload>-seed<N>.jsonl``.

BLAS policy: one thread.  On a 2-core machine a train step took 172-183 ms
with one thread against 165-246 ms with two, and a T=50 long-form call
2.10-2.25 s against 2.33-2.57 s (three runs each), so one thread is both
faster and steadier.  The variables are set before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 6.0
MIN_OPS = 2
REFERENCE = HERE / "reference.json"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "longform", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    if not (ROOT / ".git").exists():  # do not report an enclosing repository
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(seed):
    import numpy as np
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gesturesynth").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "command": shlex.join(sys.orig_argv),
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _keep_going(times, started, seconds):
    """Start another op unless it would end over half an op past the deadline."""
    return time.perf_counter() - started + statistics.median(times) / 2 <= seconds


class Runner:
    """Runs operations of one workload and keeps the account of them."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = set()
        self.outputs = None

    def op(self, call=None):
        """One timed operation; returns (seconds, items)."""
        w = self.w
        self.attempted += w.attempts_per_op
        t0 = time.perf_counter()
        try:
            items, outputs = call() if call else w.run_op()
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter() - t0
            self.failed += w.attempts_per_op
            self.errors.append(f"op raised {type(exc).__name__}: {exc}")
            return elapsed, 0
        elapsed = time.perf_counter() - t0
        problems = w.check(outputs)
        if problems:
            self.failed += w.attempts_per_op
            self.errors.extend(problems)
        self.digests.add(w.digest(outputs))
        self.outputs = outputs
        return elapsed, items

    def loop(self, seconds, call=None, min_ops=MIN_OPS):
        times, items = [], 0
        started = time.perf_counter()
        while len(times) < min_ops or _keep_going(times, started, seconds):
            dt, n = self.op(call)
            times.append(dt)
            items += n
        return times, items


def _check_reference(workload, seed, values):
    """Compare with the recorded values for this seed, when there are any."""
    table = json.loads(REFERENCE.read_text())
    expected = table["values"].get(workload, {}).get(str(seed))
    if expected is None:
        return "not recorded for this seed", []
    tol = table["rel_tolerance"]
    errors = [
        f"{key} = {values[key]!r}, reference {ref!r} (rel tolerance {tol})"
        for key, ref in expected.items()
        if not math.isclose(values[key], ref, rel_tol=tol, abs_tol=tol)
    ]
    return ("mismatch" if errors else "match"), errors


def _metric_block(kind, computed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    listed = {m["name"] for m in spec}
    if listed != set(computed):
        raise RuntimeError(
            f"{kind} metrics out of sync with BENCHMARK.json: "
            f"missing {sorted(listed - set(computed))}, "
            f"unlisted {sorted(set(computed) - listed)}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in spec}


# Per-workload names and units of the workload-neutral end-to-end metrics.
ALIASES = {
    "train": {"items_per_s": ("train_samples_per_s", "clips/s"),
              "op_s_p50": ("train_call_s_p50", "s")},
    "longform": {"items_per_s": ("longform_frames_per_s", "frames/s"),
                 "op_s_p50": ("longform_call_s_p50", "s")},
    "eval": {"items_per_s": ("eval_clips_per_s", "clips/s"),
             "op_s_p50": ("eval_call_s_p50", "s")},
}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "gesturesynth").is_dir():
        print(f"error: no gesturesynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    record = run_record(args.seed)
    print(json.dumps({"run_record": record}))

    setup_times, setup_digests, stages = [], set(), []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        # free the previous set-up before the clock starts
        w = None
        gc.collect()
        w = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR)
        t0 = time.perf_counter()
        stages.append(w.setup())
        setup_times.append(time.perf_counter() - t0)
        setup_digests.add(w.setup_digest())
    runner = Runner(w)
    if len(setup_digests) != 1:
        runner.errors.append("repeated set-up built different inputs")

    if args.trace:
        computed = _traced(args, runner, stages)
    else:
        times, items = runner.loop(args.seconds)
        computed = {
            "items_per_s": items / sum(times),
            "op_s_p50": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, (alias, unit) in ALIASES[args.workload].items():
            print(f"{alias} = {computed[name]!r} {unit}  (ops: {len(times)})")
        print(f"ops_failed_share = {runner.failed / runner.attempted!r} ratio")

    if len(runner.digests) > 1:
        runner.errors.append(f"{len(runner.digests)} distinct output digests for one seed")
    if runner.outputs is not None:
        values = w.reference_values(runner.outputs)
        status, problems = _check_reference(args.workload, args.seed, values)
        runner.errors.extend(problems)
        print(json.dumps({"outputs": values, "digest": sorted(runner.digests),
                          "reference": status}))
    for err in runner.errors:
        print(f"check failed: {err}")

    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": not runner.errors and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": _metric_block(kind, computed),
    }))
    return 0


def _traced(args, runner, stages):
    """Untraced ops for a third of the time, then traced ops; per-layer metrics."""
    import tracing

    w = runner.w
    plain, _ = runner.loop(args.seconds / 3, min_ops=1)
    tracer = tracing.Tracer()
    tracer.install(w.model)
    try:
        op_ids = itertools.count()
        traced, _ = runner.loop(args.seconds * 2 / 3,
                                call=lambda: tracer.run_op(next(op_ids), w.run_op))
    finally:
        tracer.uninstall()

    counts = tracer.counts_by_op(w.attempts_per_op)
    if len({json.dumps(c, sort_keys=True) for c in counts.values()}) != 1:
        runner.errors.append(f"count metrics differ between traced ops: {counts}")
    m = tracer.layer_metrics(w.attempts_per_op)
    for name in stages[0]:
        m[name] = statistics.median(s[name] for s in stages)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    m["trace.overhead_share"] = m["trace.overhead_s"] / statistics.median(plain)

    WORK_DIR.mkdir(exist_ok=True)
    tracer.dump(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
    print("span self time (traced ops):")
    for name, (calls, total, own) in rows:
        print(f"  {name:28s} calls {calls:8d}  total {total:10.1f} ms  self {own:10.1f} ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
