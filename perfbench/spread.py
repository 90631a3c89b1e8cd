#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed, untraced, and prints for every
end-to-end metric the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json. Also prints
each run's values, and exits 1 if any run was incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    all_correct = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", repr(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        all_correct &= result["correct"] and result["failed"] == 0
        print("seed %d: correct %s, %s" % (seed, result["correct"], ", ".join(
            "%s %.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        print("%-12s median %-12.6g spread %.4f (bound %.2f) over %d runs"
              % (m["name"], med, (q[2] - q[0]) / med, m["bound"], len(xs)))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
