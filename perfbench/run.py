"""Tracker benchmark: one workload per call, measured in its own process.

    python3 perfbench/run.py --workload track-tiny --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a source tree; it imports mixtrack from ``src/``
there.  The inputs for the seed are written untimed to a work directory
under ``perfbench/out/``, then ``bench.py`` runs the workload in a fresh
process with one BLAS thread.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced, and prints the per-layer metrics plus the tracing overhead.  The
last line of output is one JSON object; the exit code is 1 when any output
check failed.  ``--workload all`` runs every workload in turn, each in
processes of its own.  See README.md for the metrics and the checks.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A worker may take this long beyond --seconds: set-ups and the traced
# run's analysis.
SETUP_MARGIN_S = 120
# glibc adapts its mmap and trim thresholds to the allocation history, so
# the repeated set-ups would change how later frames allocate their
# multi-megabyte temporaries.  Fixed thresholds keep those on the heap.
MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
          "MALLOC_TRIM_THRESHOLD_": str(128 << 20)}

# One BLAS thread, set before numpy loads, here and in the worker: each
# workload is a single-threaded process.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

# Operations per window of the gated throughput, about 1 s of track-tiny
# and 2.5 s of train-tiny.
RATE_WINDOW = 25
WORKLOAD_NAMES = ("track-tiny", "track-mixformer", "train-tiny")
END_TO_END = {
    "setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
# Unit of every per-layer metric; the rest are milliseconds.
LAYER_UNITS = {
    "tracker.template_installs": "count", "tracker.cache_hit_ratio": "ratio",
    "tracker.zero_area_boxes": "count", "autodiff.op_calls": "count",
    "autodiff.tape_entries": "count", "backbone.gmac_per_s": "GMAC/s",
    "checkpoint.load_s": "s", "model.build_s": "s",
    "data.load_sequence_s": "s", "data.training_data_s": "s",
}


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2.0


def windowed_rate(op_ms, window=RATE_WINDOW):
    """Operations per second: the median, over consecutive windows of
    ``window`` operations, of each window's operations over its time.

    Unlike the whole run's count over its time, this keeps the program's
    own recurring costs that fall inside a window but not a few seconds
    in which another load on the host slows every operation."""
    n = max(1, len(op_ms) // window)
    size = len(op_ms) // n
    return median([size * 1e3 / sum(op_ms[i * size:(i + 1) * size])
                   for i in range(n)])


def _git_commit():
    """HEAD of the source tree, or "unknown" outside a git checkout.  The
    ceiling keeps git from searching the directories above the tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def _worker(args, workdir, trace, spans=""):
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), args.workload,
           workdir, str(args.seed), str(args.seconds), str(trace),
           "1" if args.smoke else "0", spans]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]), **MALLOC)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + SETUP_MARGIN_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw, kind):
    """The contract metrics plus the workload's own named figures."""
    op_ms, setup_s = raw["op_ms"], raw["setup_s"]
    metrics = {
        "setup_s": median(setup_s),
        "op_ms_p50": median(op_ms),
        "ops_per_s": windowed_rate(raw["all_ms"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    n = len(op_ms)
    op = "frame" if kind == "track" else "train_step"
    named = [("setup_s", metrics["setup_s"], "s", len(setup_s)),
             (f"{op}_ms_p50", metrics["op_ms_p50"], "ms", n)]
    if n >= 100:  # at least ten samples beyond the p90
        named += [(f"{op}_ms_p90", percentile(op_ms, 90), "ms", n)]
    if kind == "track":
        named += [("track_fps", raw["ops"] / raw["work_s"], "frames/s", raw["ops"])]
    else:
        spm = raw["spm_ms"]
        named += [("spm_step_ms_p50", median(spm) if spm else 0.0, "ms", len(spm)),
                  ("train_samples_per_s", raw["samples"] / raw["work_s"],
                   "samples/s", raw["samples"])]
    named += [("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1)]
    return metrics, named


def outputs(raw, kind):
    """Box or loss sequence of the first pass, for cross-run comparison."""
    return raw["boxes"] if kind == "track" else raw["losses"]


def run(args):
    import bench

    spec = bench.WORKLOADS[args.workload]
    kind = spec["kind"]
    checks = {}
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        seq = bench.prepare(args.workload, args.seed, workdir, smoke=args.smoke)
        if seq is not None:
            gap = bench.cache_disagreement(seq, args.seed)
            checks["cached_vs_uncached_px"] = gap
            checks["cache_agrees"] = gap <= bench.CACHE_TOLERANCE_PX
            del seq
        raw = _worker(args, workdir, trace=0)
        traced = None
        if args.trace:
            spans = os.path.join(OUT, f"spans_{args.workload}.npz")
            traced = _worker(args, workdir, trace=1, spans=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = outputs(raw, kind)
    checks["outputs_digest"] = bench.digest(first)
    checks["repeats_compared"] = raw["repeat_compared"]
    attempted, failed = raw["attempted"], raw["failed"]
    reasons = list(raw["failures"])
    if traced is not None:
        other = outputs(traced, kind)
        n = min(len(first), len(other))
        checks["traced_matches_untraced"] = first[:n] == other[:n]
        attempted += traced["attempted"]
        failed += traced["failed"]
        reasons += traced["failures"]
    correct = (raw["correct"] and (traced is None or traced["correct"])
               and checks.get("cache_agrees", True)
               and checks.get("traced_matches_untraced", True))

    metrics, named = end_to_end(raw, kind)
    env = environment()
    print(f"perfbench {args.workload} seed {args.seed}: {attempted} "
          f"operations, {failed} failed (first pass of each run); "
          f"untraced run {raw['work_s']:.1f} s, {raw['ops']} timed")
    for name, value, unit, n in named:
        print(f"  {name:<22}{value:>12.4f} {unit:<10} n={n}")
    if kind == "track":
        print(f"  zero-area boxes       {raw['zero_area']:>12d} of "
              f"{len(raw['boxes'])} in the first pass (failed operations; "
              f"untrained weights, see README)")
    for reason in reasons:
        print(f"  failed: {reason}")
    print("  checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "env": env, "checks": checks,
              "correct": correct, "attempted": attempted,
              "failed": failed, "failures": reasons,
              "named": {n: {"value": v, "unit": u, "samples": c}
                        for n, v, u, c in named},
              "end_to_end": {k: {"value": v, "unit": END_TO_END[k]}
                             for k, v in metrics.items()}}
    result = report["end_to_end"]
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_ms"] = median(traced["op_ms"]) - metrics["op_ms_p50"]
        for name in sorted(layers):
            print(f"  {name:<32}{layers[name]:>14.4f} "
                  f"{LAYER_UNITS.get(name, 'ms')}")
        result = report["layers"] = {
            k: {"value": v, "unit": LAYER_UNITS.get(k, "ms")}
            for k, v in layers.items()}
    suffix = "_trace" if traced is not None else ""
    with open(os.path.join(OUT, f"BENCH_{args.workload}{suffix}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the inputs to a few operations (tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = []
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            codes.append(subprocess.run(cmd).returncode)
        return max(codes)
    if not os.path.isfile(os.path.join(SRC, "mixtrack", "__init__.py")):
        print(f"error: no mixtrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import mixtrack

    if not os.path.abspath(mixtrack.__file__).startswith(SRC + os.sep):
        print(f"error: imported mixtrack from {mixtrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
