#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its schema and that perfbench/contract.json
documents exactly its workloads and metrics, then builds the benchmark program and runs
every workload for one second at tiny size with tracing off and on. Every
metric BENCHMARK.json names must be emitted with its unit and a finite value,
and every run must pass its correctness checks. Exits 0 when all holds.
"""

import json
import math
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the same build the benchmark command uses)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_schema(bench, problems):
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(bench) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    for path in bench["paths"]:
        if not PATH.match(path) or path.startswith("/") or ".." in path.split("/"):
            problems.append(f"bad path {path}")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        problems.append("run_seconds out of range")
    if not 2 <= len(bench["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    names = []
    for w in bench["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']} malformed")
    for m in bench["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"end_to_end {m['name']} keys")
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m['name']} bound out of range")
    for m in bench["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m['name']} keys")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']} unit/better malformed")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name}")
    if len(names) != len(set(names)):
        problems.append("names are not unique")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must carry the largest bound")


def check_contract(bench, contract, problems):
    def names(key):
        return [item["name"] for item in bench[key]]
    for key in ("workloads", "end_to_end", "per_layer"):
        documented = [item["name"] for item in contract[key]]
        if documented != names(key):
            problems.append(f"contract {key} differs from BENCHMARK.json")
    workloads = set(names("workloads"))
    e2e = set(names("end_to_end"))
    for item in contract["per_layer"]:
        for move in item["moves"]:
            if move["metric"] not in e2e or move["workload"] not in workloads:
                problems.append(f"{item['name']} moves unknown {move}")


def check_runs(bench, problems):
    if not run.build():
        problems.append("build failed")
        return
    os.makedirs(run.WORK_DIR, exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = subprocess.run(
                [run.BINARY, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", trace, "--tiny",
                 "--work-dir", run.WORK_DIR],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
                check=False)
            label = f"{workload} --trace {trace}"
            try:
                report = json.loads(result.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no report (exit {result.returncode})")
                continue
            if not report["correct"] or result.returncode != 0:
                problems.append(f"{label}: violations {report['violations']}")
            metrics = report["metrics"]
            for m in bench[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{label}: {m['name']} not emitted")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{label}: {m['name']} not finite")
            extra = set(metrics) - {m["name"] for m in bench[key]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"selftest: {label}: {len(metrics)} metrics", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "contract.json"), encoding="utf-8") as f:
        contract = json.load(f)
    problems = []
    check_schema(bench, problems)
    check_contract(bench, contract, problems)
    if not problems:
        check_runs(bench, problems)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: ok" if not problems else "selftest: failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
