"""spinfanout benchmark: one command, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload compile-cap --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Workloads: verify, compile-cap (see workloads.py).
``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
``SETUP_RUNS`` fresh processes, each from process start to the end of
its warm-up pass), ``pass_s`` (median closed-loop pass time) and
``peak_rss_mb``.  ``--trace 1`` reports the per-layer metrics of a
traced run and writes its spans to ``perfbench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a per-run record with quartiles and the
environment goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("verify", "compile-cap")
SETUP_RUNS = 3
TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _run_worker(root: str, args: list[str], deadline: float):
    """Start a worker; return (seconds from start to READY, last output line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - start, 1.0))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline - start)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0 or ready.strip() != "READY":
        raise WorkerError(f"worker failed with code {proc.returncode}: {' '.join(args)}")
    lines = rest.strip().splitlines()
    return setup_s, (lines[-1] if lines else "")


def run_workload(root: str, spec: dict, name: str, seed: int, seconds: float, trace: int,
                 size: str, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--size", size]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans-out", os.path.join(out_dir, f"{tag}.spans.jsonl")]
    setup_first, line = _run_worker(root, common + extra, deadline)
    res = json.loads(line)
    setups = [setup_first]
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_run_worker(root, common + ["--setup-only"], deadline)[0])
    res["setup_samples_s"] = setups
    res["setup_s"] = statistics.median(setups)
    res["pass_quartiles_s"] = statistics.quantiles(res["pass_s"], n=4)
    res["passes"] = len(res["pass_s"])
    if trace:
        values, declared = res["layers"], spec["per_layer"]
    else:
        values = {"setup_s": res["setup_s"], "pass_s": statistics.median(res["pass_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        declared = spec["end_to_end"]
    # report exactly the metrics BENCHMARK.json declares, with its units
    res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in declared}
    res["fail_frac"] = res["failed"] / res["attempted"]
    res["correct"] = res["failed"] == 0 and res.get("counts_repeat", True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def _print_summary(name: str, res: dict) -> None:
    for key, m in res["metrics"].items():
        print(f"{name:<12} {key:<34} {m['value']:.6g} {m['unit']}")
    print(f"{name:<12} {'fail_frac':<34} {res['fail_frac']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    q = res["pass_quartiles_s"]
    print(f"{name:<12} passes {res['passes']}, pass_s quartiles "
          f"{q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s; setup samples "
          + ", ".join(f"{s:.3f}" for s in res["setup_samples_s"]) + " s")
    for check_id, row in sorted(res.get("per_check", {}).items()):
        print(f"{name:<12} check {check_id:<26} span {row['span_s']:.4f} s, "
              f"CheckResult.elapsed {row['elapsed_s']:.4f} s ({row['instances']} instances)")
    print(f"{name:<12} env {json.dumps(res['env'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code on small inputs (smoke test)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinfanout", "__init__.py")):
        print("run from the root of a spinfanout checkout: src/spinfanout is missing",
              file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    results = {}
    try:
        for name in names:
            deadline = time.perf_counter() + TIMEOUT_S
            results[name] = run_workload(root, spec, name, args.seed, args.seconds,
                                         args.trace, args.size, deadline)
            _print_summary(name, results[name])
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(f"total wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
