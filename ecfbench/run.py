#!/usr/bin/env python3
"""Build and run the simulator benchmark (see ecfbench/README.md).

    python3 ecfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds ecfbench from the checkout's own sources
into $CARGO_TARGET_DIR (default .bench_build): a Release build, and a Release
build with -DMPS_PROF=ON whose profiler seams the traced mode reads. Both are
built on the first run and are no-ops afterwards. Then runs the workload on
one thread, pinned to one CPU, and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones, from
a traced run of the plain build merged with a --prof-pass of the profiled
build. Spans are written under ecfbench/out/.
"""
import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = "ecfbench"
VARIANTS = {"plain": "OFF", "prof": "ON"}
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_root, variant):
    bdir = os.path.join(build_root, variant)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
             f"-DMPS_PROF={VARIANTS[variant]}"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "ecfbench", "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(bdir, "ecfbench")


def pin_to_one_cpu():
    """Pins this process, and so the benchmark it starts, to one CPU: the
    highest-numbered one allowed (CPU 0 takes most interrupts). Unpinned, the
    child often starts on an idle core and runs its first milliseconds
    slower; on a 4-core VM that spread the cold set-up (setup_s) bimodally,
    2.3-3.9 ms for fork_fanout, where pinned runs kept their medians within
    a few percent. The benchmark lifts the pin itself after its first unit,
    so the measured units can move off a core a neighbour slows down."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # unpinned: the run is still valid, only noisier


def run(cmd):
    """Runs one ecfbench process; returns its last stdout line as JSON."""
    t0 = time.monotonic_ns()  # the same clock as the binary's steady_clock
    proc = subprocess.run(cmd + ["--t0-ns", str(t0)], stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["paper_grid", "population", "fork_fanout"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: the simulator sources (src/) are missing")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binaries = {v: build(build_root, v) for v in VARIANTS}
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    pin_to_one_cpu()  # after the builds, which use every core
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    result = run([binaries["plain"], *base, "--seconds", str(args.seconds),
                  "--trace", str(args.trace)])
    if args.trace == 1:
        prof = run([binaries["prof"], *base, "--prof-pass"])
        result["correct"] = result["correct"] and prof["correct"]
        result["attempted"] += prof["attempted"]
        result["failed"] += prof["failed"]
        result["metrics"].update(prof["metrics"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
