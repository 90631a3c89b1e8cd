#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator libraries and the
perfbench program from source into .bench_build (or $CARGO_TARGET_DIR), runs
one workload, prints its metrics with units and the run's metadata, writes a
result record under .bench_build/results/ (and, traced, a Chrome trace under
.bench_build/traces/), and prints as its last line one JSON object with
exactly the keys correct, attempted, failed and metrics.

Exit codes: 0 after a completed run (whether or not it was correct), 1 when
the build or the run fails (no result line is printed then), 2 on bad
arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure (once) and build the program; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def source_revision():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result):
    """The result line: exactly correct, attempted, failed and metrics."""
    return json.dumps({k: result[k] for k in RESULT_KEYS}, separators=(",", ":"))


def summary(result):
    """Human-readable lines: metrics with units, failures, metadata."""
    lines = []
    for name, m in sorted(result["metrics"].items()):
        lines.append("  %-28s %18.6f %s" % (name, m["value"], m["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    lines.append("  %-28s %18.6f ratio (%d failed of %d points attempted)"
                 % ("failed_ratio", failed / attempted, failed, attempted))
    d = result["digest"]
    lines.append("  digest %s (recorded: %s), correct: %s"
                 % (d["workload"], d["recorded"], result["correct"]))
    meta = result["meta"]
    lines.append("  host: %s, nproc %s; %s build, %s; source %s; schema %s; "
                 "seed %s; jobs 1, result cache off"
                 % (meta["cpu"], meta["nproc"], meta["build_type"],
                    meta["compiler"], meta["source"], meta["schema"],
                    meta["seed"]))
    return lines


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        ap.error("seed must be >= 0 and seconds in (0, 3600]")

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests", DIGESTS]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: run failed: %s" % e, file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: program exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    result["meta"]["source"] = source_revision()

    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(result["metrics"]):
        print("perfbench: metrics %s differ from BENCHMARK.json's %s"
              % (sorted(result["metrics"]), sorted(declared)), file=sys.stderr)
        return 1

    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    with open(os.path.join(out, "results", tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    for line in lines[:-1] + summary(result):
        print(line)
    print(result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
