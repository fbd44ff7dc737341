#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py --workloads paper-fig7,mesh-churn --seeds 1-10 [--seconds 10] [--trace 0]

Runs perfbench/run.py once per (workload, seed), from the repository root,
and prints for every metric the median, the first and third quartile
(Python's statistics.quantiles(values, n=4)) and the spread, which is
(q3 - q1) / median: the figure BENCHMARK.json's bounds are set against.
It also prints each run's wall time, so the cost of a full benchmark
pass can be budgeted.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    for workload in args.workloads.split(","):
        values, walls, failed = {}, [], 0
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                failed += 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {len(walls)} runs, wall s min {min(walls):.1f} median "
              f"{statistics.median(walls):.1f} max {max(walls):.1f}, {failed} incorrect")
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  OK" if spread < bound / 3 else ("  WIDE" if spread < bound else "  OVER")
            print(f"  {name:32s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
