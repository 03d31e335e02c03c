#!/usr/bin/env python3
"""Build and run the gridcast benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a gridcast checkout.  The benchmark package
(perfbench/CMakeLists.txt: a Release build of the gridcast library plus the
benchmark binary) is configured and built into .bench_build/perfbench, then
run.  Build output goes to .bench_build/perfbench.log; the traced run
writes its spans to .bench_build/traces/.  The last line of standard
output is the result JSON.  Workloads and metrics: perfbench/README.md.
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
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
BINARY = BUILD / "gridcast_perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no gridcast sources in {ROOT}")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text():
        shutil.rmtree(BUILD)  # configured for a checkout elsewhere
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = OUT / "perfbench.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(log_path, "w") as log:
        for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build()
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(traces)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
