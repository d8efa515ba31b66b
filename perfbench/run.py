#!/usr/bin/env python3
"""Entry point of the end-to-end serving benchmark (see README.md).

    python3 perfbench/run.py --workload warehouse --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the program and the benchmark from
source into .bench_build/ (Release; reused when up to date), runs the
self-tests of the benchmark's arithmetic, then one benchmark run. The last
line of stdout is the run's JSON result. Exits non-zero without a result when
the build, the self-tests or the run fail.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("warehouse", "fleet")
# A run must end within 180 s; the build alone may take longer on first use.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout, env):
    """Runs cmd with its output sent to stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=env).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h")):
        log("program sources (src/) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                "--target", "perfbench", "perfbench_selftest"]
    return (run_quiet(configure, BUILD_TIMEOUT_S, env) == 0 and
            run_quiet(compile_, BUILD_TIMEOUT_S, env) == 0)


def main():
    # A SIGTERM becomes SystemExit inside subprocess.run, which then kills and
    # reaps the child before the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # Compilers and the benchmark keep their scratch files in the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(env):
        log("build failed")
        return 1
    if run_quiet([os.path.join(BUILD, "perfbench_selftest")], 60, env) != 0:
        log("self-tests of the benchmark arithmetic failed")
        return 1

    work = os.path.join(BUILD, f"work-{os.getpid()}")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, env=env, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        log("benchmark printed no JSON result")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
