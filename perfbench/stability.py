#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and write a trajectory point.

    python3 perfbench/stability.py --runs 10 --first-seed 11 \\
        --out perfbench/trajectory/<commit>.json

Runs perfbench/run.py --trace 0 once per seed on every workload (seeds
first-seed .. first-seed+runs-1), then records per workload and metric the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, the metric's bound from BENCHMARK.json, and the
command.  Exits nonzero if a run fails, a run's result line does not hold
exactly the end-to-end metrics of BENCHMARK.json in their units, or a
spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=11)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    report = {
        "command": " ".join(["python3", "perfbench/stability.py"] + sys.argv[1:]),
        "run_command": " ".join(bench["command"]) +
                       " --workload <w> --seed <s> --seconds %d --trace 0" %
                       bench["run_seconds"],
        "seeds": seeds,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    ok = True
    for w in workloads:
        values, meta, walls = {}, [], []
        for s in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(round(time.time() - t0, 1))
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)" % (w, s, p.returncode),
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != units:
                print("%s seed %d reported %s, BENCHMARK.json lists %s" %
                      (w, s, got, units), file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            meta.append({l.split()[1]: " ".join(l.split()[2:])
                         for l in lines if l.startswith("meta ")})
        metrics = {}
        for name, v in sorted(values.items()):
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is not None and spread > bound:
                ok = False
            metrics[name] = {"median": med, "q1": q[0], "q3": q[2],
                             "spread": round(spread, 4), "bound": bound,
                             "values": v}
            print("%-12s %-20s median %-12.6g spread %.3f (bound %s)" %
                  (w, name, med, spread, bound))
        report["workloads"][w] = {
            "metrics": metrics,
            "wall_s": walls,
            "loadavg_before": [m.get("loadavg_before") for m in meta],
            "commit": meta[0].get("commit") if meta else None,
        }
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
