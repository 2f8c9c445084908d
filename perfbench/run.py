#!/usr/bin/env python3
"""Build and run the qtsimage benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--references FILE]

Run from the root of a checkout.  The library is built from the checkout's
own sources into .bench_build/perfbench (Release, incremental), then the
qtsbench driver runs one workload in its own process.  Everything the
driver prints passes through; its last stdout line is the result JSON.
Build output goes to stderr.  When --trace 1 is given the spans are written
to .bench_build/perfbench/trace-<workload>-<seed>.tsv.

Exit codes: the driver's own (0 after a complete run), 2 for bad arguments
or a failed build, 3 when the driver overran its time budget and was
stopped.  Nothing is printed on stdout in the last two cases.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qtsbench")
# A run must end within 180 s; leave room for the build check and start-up.
RUN_BUDGET_S = 170


def fail(message, code):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "qtsbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)


def commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description="qtsimage benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--references", help="reference file (default: perfbench/references.txt)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--commit", commit()]
    if args.references:
        cmd += ["--references", os.path.abspath(args.references)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s-%d.tsv" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("qtsbench overran its %d s budget on workload %s and was stopped"
             % (RUN_BUDGET_S, args.workload), 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
