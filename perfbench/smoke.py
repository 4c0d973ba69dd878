"""Smoke test of the benchmark itself, in about half a minute.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at tiny sizes through the same code path as the
benchmark (``run.py --size tiny``), untraced and traced on two seeds,
and fails if a run is incorrect, a metric named in BENCHMARK.json is
missing, a computed count differs between seeds, or the benchmark does
not refuse a directory without the program.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("core.compose.flops", "core.embed.dense_bytes", "circuits.compile.steps",
         "hamiltonians.un.repeat_frac")


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(*args: str) -> dict:
    proc = _run(ROOT, "--workload", "all", "--size", "tiny", "--seconds", "1", *args)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []

    untraced = _result("--seed", "1", "--trace", "0")
    traced = [_result("--seed", str(seed), "--trace", "1") for seed in (1, 2)]
    for res in [untraced, *traced]:
        if not res["correct"] or res["failed"]:
            problems.append(f"incorrect run: {res['failed']} of {res['attempted']} failed")
    for names, res in (([m["name"] for m in spec["end_to_end"]], untraced),
                       ([m["name"] for m in spec["per_layer"]], traced[0])):
        for w in workloads:
            for name in names:
                if f"{w}.{name}" not in res["metrics"]:
                    problems.append(f"{w}: metric {name} missing")
    for w in workloads:
        for name in EXACT:
            a, b = (r["metrics"][f"{w}.{name}"]["value"] for r in traced)
            if a != b:
                problems.append(f"{w}: {name} differs between seeds: {a} vs {b}")

    # a directory with only the benchmark's own files must be refused
    bare = os.path.join(HERE, "out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark did not refuse a directory without src/spinfanout")
    shutil.rmtree(bare)

    for line in problems:
        print("FAIL", line)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
