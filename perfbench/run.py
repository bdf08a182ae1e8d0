#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
(RelWithDebInfo, no sanitizers) into .bench_build/; later runs only rebuild
what changed. Build output goes to stderr.

Standard output ends with two lines: the program's full report (environment,
source revision, sample counts, notes, violations) and then the result
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end set, with --trace 1 the per-layer set (see
BENCHMARK.json and perfbench/contract.json). The exit code is 0 only when
every correctness check passed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "rnl_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def sources_present():
    return all(
        os.path.isfile(os.path.join(ROOT, rel))
        for rel in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"))
    )


def build():
    """Configures (once) and builds the benchmark program; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DRNL_SANITIZE=OFF",
        ])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rnl_perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return os.path.isfile(BINARY)


def source_revision():
    """Git revision when the checkout is a repository, plus a digest of the
    sources the program is built from (the checkout may not be one)."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        revision = "none"
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            if "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return revision, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not sources_present():
        log(f"no repository sources under {ROOT}; cannot build the benchmark program")
        return 2
    if not build():
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK_DIR]
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"rnl_perfbench exceeded {RUN_TIMEOUT_S}s")
        return 1
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"rnl_perfbench produced no report (exit {result.returncode})")
        return result.returncode or 1

    metrics = report["metrics"]
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            log(f"metric {name} is not finite")
            return 1
    revision, digest = source_revision()
    report["env"]["revision"] = revision
    report["env"]["source_digest"] = digest
    detail = {key: report[key] for key in
              ("env", "fail_frac", "samples", "notes", "violations")}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }, sort_keys=True), flush=True)
    if not report["correct"]:
        log("correctness violations: " + "; ".join(report["violations"]))
        return 1
    return 0 if result.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
