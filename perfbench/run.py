#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload reduce-seq --seed 1 --seconds 20 --trace 0

builds gammad and the perfbench binary from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), then runs one workload. The last
line of standard output is the JSON result.

Steadiness mode repeats every workload (or the ones named) over distinct seeds
and prints each end-to-end metric's median and quartiles beside its bound:

    python3 perfbench/run.py --steady --runs 10 [--workloads serve,equiv] [--batches 2]

Every file the build and the runs write stays under the build directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def go_env():
    """The environment of the go command: caches, temporary files and the
    toolchain's own state under the build directory, no network."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="",
               GOENV="off", CGO_ENABLED="0")
    return env


def build():
    """Build gammad and the benchmark binary; return both paths."""
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    gammad = os.path.join(BUILD, "gammad")
    steps = [
        (["go", "build", "-buildvcs=false", "-o", gammad, "./cmd/gammad"], ROOT),
        (["go", "build", "-buildvcs=false", "-o", binary, "."], HERE),
    ]
    for cmd, cwd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return binary, gammad


def commit():
    """The commit of the checkout, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_once(binary, gammad, workload, seed, seconds, trace, capture, traced_every=0):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--gammad", gammad, "--commit", commit(),
           "--serve-traced-every", str(traced_every)]
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=seconds + 150,
                           stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s seed %d timed out" % (workload, seed))
    if r.returncode != 0:
        sys.exit("perfbench: %s seed %d exited %d" % (workload, seed, r.returncode))
    if capture:
        return json.loads(r.stdout.strip().splitlines()[-1])
    return None


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steady(binary, gammad, spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        medians = []
        for batch in range(args.batches):
            values = {m: [] for m in bounds}
            failed = 0
            for i in range(args.runs):
                seed = args.seed + 1000 * batch + i
                res = run_once(binary, gammad, name, seed, seconds, 0, True)
                failed += res["failed"]
                for m in bounds:
                    values[m].append(res["metrics"][m]["value"])
                print("  seed %d: %s" % (seed, ", ".join(
                    "%s %.6g" % (m, res["metrics"][m]["value"]) for m in bounds)))
            print("%s batch %d: %d runs, seeds %d.., %d failed operations"
                  % (name, batch + 1, args.runs, args.seed + 1000 * batch, failed))
            meds = {}
            for m, vs in values.items():
                q1, med, q3 = quartiles(vs)
                spread = (q3 - q1) / med
                meds[m] = med
                worst = max(worst, spread / bounds[m])
                flag = "" if spread <= bounds[m] / 3 else ("  above a third of the bound"
                                                           if spread <= bounds[m] else "  ABOVE THE BOUND")
                print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f  bound %.2f%s"
                      % (m, med, q1, q3, spread, bounds[m], flag))
            medians.append(meds)
        for b in range(1, len(medians)):
            for m in bounds:
                a, c = medians[0][m], medians[b][m]
                better = next(x["better"] for x in spec["end_to_end"] if x["name"] == m)
                worse = (c - a) / a if better == "lower" else (a - c) / a
                flag = "  WORSE BY MORE THAN THE BOUND" if worse > bounds[m] else ""
                print("  %-16s batch %d median vs batch 1: %+.3f worse%s" % (m, b + 1, worse, flag))
    print("largest spread as a share of its bound: %.2f" % worst)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--steady", action="store_true", help="steadiness mode")
    ap.add_argument("--workloads", help="steadiness mode: comma-separated workloads")
    ap.add_argument("--runs", type=int, default=10, help="steadiness mode: runs per batch")
    ap.add_argument("--batches", type=int, default=1, help="steadiness mode: batches to compare")
    ap.add_argument("--serve-traced-every", type=int, default=0,
                    help="serve: every n-th request asks for a server trace (default 0: none; see README.md)")
    args = ap.parse_args()
    # Steadiness mode reports batch by batch; show each line as it comes.
    sys.stdout.reconfigure(line_buffering=True)

    with open(SPEC) as f:
        spec = json.load(f)
    binary, gammad = build()
    if args.steady:
        steady(binary, gammad, spec, args)
        return
    if not args.workload:
        sys.exit("perfbench: --workload is required")
    run_once(binary, gammad, args.workload, args.seed,
             args.seconds or spec["run_seconds"], args.trace, False, args.serve_traced_every)


if __name__ == "__main__":
    main()
