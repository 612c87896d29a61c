#!/usr/bin/env python3
"""Build and run relynx's two-clock benchmark.

    python3 twoclock/run.py --workload fanin-small --seed 1 --seconds 30 --trace 0
    python3 twoclock/run.py --selfcheck

Builds the library from ../src and the benchmark from this directory into
.bench_build/twoclock at the checkout's root (CMake, Release), then runs
the benchmark binary with the given arguments.  The binary's last stdout
line is the JSON result; build output goes to stderr.  With --trace 1 the
traced run's spans are written to .bench_build/twoclock/spans/.

--selfcheck runs every workload traced at one seed (which checks that the
medium decorator and the trace recorder leave every simulated result
unchanged) and timed at a second seed (which applies every output check).

See NOTES.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "twoclock"
BINARY = BUILD / "twoclock"
WORKLOADS = ["fanin-small", "pipeline-bulk", "move-churn"]
BUILD_JOBS = "2"  # the host is shared


def build():
    """Configures once and builds; returns False (with the log on stderr)
    when either step fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            sys.stderr.write("twoclock: build failed: %s\n" % " ".join(cmd))
            if len(steps) == 2:  # a failed configure must not stick
                shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return BINARY.exists()


def run(workload, seed, seconds, trace, capture=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace == 1:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-dir", str(spans)]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def selfcheck():
    ok = True
    for workload in WORKLOADS:
        for seed, trace in ((1, 1), (2, 0)):
            p = run(workload, seed, 2, trace, capture=True)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                good = p.returncode == 0 and result["correct"] is True
            except (IndexError, ValueError, KeyError):
                good = False
            print("%-14s seed %d trace %d: %s" %
                  (workload, seed, trace, "ok" if good else "FAILED"))
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.selfcheck:
        return 0 if selfcheck() else 1
    return run(args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
