#!/usr/bin/env python3
"""Builds and runs the closed-loop daemon benchmark.

    python3 daemonbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark, and the library
sources it links, out of tree in Release (-O3 -DNDEBUG) under
.bench_build/daemonbench, then runs one workload (see daemonbench/README.md)
and prints the program's report.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics named
in BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
full result, every metric with its unit and sample count, stamped with git
sha, source digest, build type, compiler, nproc and seed, is written to
.bench_build/daemonbench/results/<workload>-s<seed>-t<trace>.json.

Exit code: 0 when every output matched its reference; 1 when an operation
failed or mismatched (the result line is still printed); 2 when the build or
the run could not be done (no result line).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "daemonbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"daemonbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds; a no-op build takes about a second."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "daemonbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(BUILD_DIR, "daemonbench")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def stamp(args):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    for top in ("src", "daemonbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler or "unknown"
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") + " " +
                      cmake_cache("CMAKE_CXX_FLAGS_RELEASE"),
        "compiler": version,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "src/CMakeLists.txt", "daemonbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail(f"{needed} not found; run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    result_path = os.path.join(
        results_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--out-dir={os.path.join(BUILD_DIR, 'out')}",
           f"--result-file={result_path}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(result_path):
        fail(f"run failed with exit code {proc.returncode}")
    with open(result_path) as f:
        result = json.load(f)

    result["stamp"] = stamp(args)
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print("stamp: " + json.dumps(result["stamp"], sort_keys=True))

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the result "
                 f"({result.get('absent', {}).get(m['name'], 'not measured')})")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = proc.returncode == 0 and result["mismatches"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
