#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Workloads: paper-grid, gc-hier, stream-io (see perfbench/NOTES.md).  The
benchmark executable, perfbench/bench.ml, is built with dune from the
sources of the checkout it sits in; build output goes to stderr.  The
last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
Exits non-zero, without a result, when the sources or the build are
missing or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper-grid", "gc-hier", "stream-io")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("the repository sources (dune-project, lib/) are not next to perfbench/")

    # Keep dune's artifacts inside the checkout: no shared build cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    # The benchmark fixes its own job counts and sizes; the harness-wide
    # knobs must not leak in.  A fixed mmap threshold (glibc's default,
    # 128 KiB, without its dynamic raise) returns freed trace slabs to
    # the OS, so peak RSS measures live memory, not allocator history.
    for knob in ("REPRO_JOBS", "REPRO_SCALE", "OCAMLRUNPARAM"):
        env.pop(knob, None)
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark failed: {e}")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
