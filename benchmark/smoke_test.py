#!/usr/bin/env python3
"""Smoke test of the benchmark program against BENCHMARK.json.

    smoke_test.py <qec_benchmark binary> <BENCHMARK.json> <work dir>

Runs every workload for one second untraced and traced. Each run must
exit 0, report "correct": true, and print exactly the metrics
BENCHMARK.json declares for its mode (end_to_end untraced, per_layer
traced), each with its declared unit; a traced run must also write
its Chrome trace file. Every workload run with --self-test must exit
non-zero. Finally the runner script, copied with BENCHMARK.json into
an otherwise empty directory, must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

SECONDS = "1"


def run(binary, args, timeout=300):
    proc = subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc


def check_result(line, declared, what):
    errors = []
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{what}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{what}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{what}: attempted {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        errors.append(f"{what}: failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    for name in sorted(set(declared) - set(metrics)):
        errors.append(f"{what}: missing metric {name}")
    for name in sorted(set(metrics) - set(declared)):
        errors.append(f"{what}: undeclared metric {name}")
    for name, value in metrics.items():
        if name in declared and value.get("unit") != declared[name]:
            errors.append(f"{what}: {name} unit {value.get('unit')} != "
                          f"{declared[name]}")
        if sorted(value) != ["unit", "value"] or not isinstance(
                value.get("value"), (int, float)):
            errors.append(f"{what}: {name} malformed {value}")
    return errors


def main():
    binary, spec_path, work_dir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    os.makedirs(work_dir, exist_ok=True)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", end_to_end), ("1", per_layer)):
            what = f"{workload} trace={trace}"
            code, line, proc = run(binary, [
                "--workload", workload, "--seed", "1", "--seconds", SECONDS,
                "--trace", trace, "--out", work_dir])
            print(f"{what}: exit {code}", flush=True)
            if code != 0:
                errors.append(f"{what}: exit {code}\n{proc.stdout}"
                              f"{proc.stderr}")
                continue
            errors += check_result(line, declared, what)
            if trace == "1" and not os.path.exists(os.path.join(
                    work_dir, f"{workload}-seed1.trace.json")):
                errors.append(f"{what}: no trace file")
        code, line, _ = run(binary, ["--workload", workload, "--seed", "2",
                                     "--seconds", "0.5", "--self-test"])
        print(f"{workload} --self-test: exit {code}", flush=True)
        if code == 0:
            errors.append(f"{workload}: --self-test exited 0")

    # Without the library sources next to it the runner must fail
    # fast and print no result line.
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    with tempfile.TemporaryDirectory(dir=work_dir) as empty:
        shutil.copy(spec_path, empty)
        shutil.copytree(bench_dir, os.path.join(empty, "benchmark"),
                        ignore=shutil.ignore_patterns("build", "out"))
        proc = subprocess.run(
            ["bash", "benchmark/run.sh", "--workload", "burst_d13",
             "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=170)
        print(f"runner without sources: exit {proc.returncode}", flush=True)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            errors.append("runner without sources did not fail cleanly")

    for error in errors:
        print("FAIL", error)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
