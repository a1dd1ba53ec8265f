#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload kv_udp --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark's self-tests.  Every run prints each metric with its unit, the run
metadata, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Chrome trace-event file; either way the metrics must be exactly
those BENCHMARK.json lists.  The exit code is nonzero when a build or
self-test fails or the metrics differ from that list (no result line), or a
correctness gate fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_udp", "kv_snapshot", "sim_fuzz")
# A run takes --seconds plus set-up, warmup, drains and checks.
RUN_OVERHEAD_S = 140


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, build incrementally, run the self-tests."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry cleanly next time
            return False
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return False
    return subprocess.run([os.path.join(out, "perfbench_selftest")],
                          stdout=sys.stderr).returncode == 0


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    if not build(out):
        log("perfbench: build or self-test failed")
        return 1

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    load_before = os.getloadavg()
    timeout = args.seconds + RUN_OVERHEAD_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % timeout)
        return 1
    load_after = os.getloadavg()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: benchmark exited with %d" % proc.returncode)
        return 1
    doc = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != want:
        log("perfbench: reported metrics %s differ from BENCHMARK.json's %s"
            % (sorted(got.items()), sorted(want.items())))
        return 1

    meta = dict(doc["meta"])
    meta.update({
        "workload": args.workload,
        "seed": str(args.seed),
        "seconds": str(args.seconds),
        "trace": str(args.trace),
        "nproc": str(os.cpu_count()),
        "loadavg_before": "%.2f %.2f %.2f" % load_before,
        "loadavg_after": "%.2f %.2f %.2f" % load_after,
        "commit": commit(),
    })
    for name, m in sorted(doc["metrics"].items()):
        print("%-38s %16.6g %s" % (name, m["value"], m["unit"]))
    attempted, failed = doc["attempted"], doc["failed"]
    print("%-38s %16.6g (%d of %d attempted)" % (
        "failed_frac", failed / attempted if attempted else 0.0, failed,
        attempted))
    for key in sorted(meta):
        print("meta %-33s %s" % (key, meta[key]))
    for why in doc["gate_failures"]:
        print("GATE FAILED: " + why)
    result = {
        "correct": bool(doc["correct"]),
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": doc["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
