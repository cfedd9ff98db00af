#!/usr/bin/env python3
"""Build and run the repository benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload fig5_idle --seed 1 --seconds 10 --trace 0

The first run configures and builds the C++ harness (perfbench.cpp, against
../src) in .bench_build/perfbench; later runs rebuild only what changed. Build
output goes to stderr, so the last line of stdout is the harness's JSON result
({"correct", "attempted", "failed", "metrics"}). With --trace 1 the harness
also writes its spans as Chrome trace_event JSON, loadable in Perfetto, to
.bench_build/perfbench/spans-<workload>-<seed>.json.

Exit status: the harness's (0 clean, 1 a failed check, 2 bad flags); 1 when
the sources are missing, the build fails or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fig5_idle", "fig5_mtu", "fattree_k16", "fig5_serve"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def positive_float(text):
    value = float(text)
    if not 0 < value <= 600:
        raise argparse.ArgumentTypeError("must be in (0, 600]")
    return value


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr.fileno()).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None if absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=positive_float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    spans = os.path.join(BUILD_DIR, f"spans-{args.workload}-{args.seed}.json")
    if args.trace:
        cmd.append(f"--spans-out={spans}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode == 2:
        sys.exit(2)

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"harness (exit {proc.returncode}) printed no result line")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        fail(f"metrics {sorted(set(got.items()) ^ set(want.items()))} differ "
             "from BENCHMARK.json")
    if args.trace:
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        if not any(e.get("ph") == "X" for e in events):
            fail(f"{spans} holds no spans")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
