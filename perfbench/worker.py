"""One workload in one process: set up, warm up, then timed passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``READY`` once set-up and the warm-up pass are done,
so the parent can time set-up from process start, then (unless
``--setup-only``) runs closed-loop passes for ``--seconds`` and prints
one JSON object as its last line.

With ``--trace 1`` the first half of the time runs untraced and the
second half traced, so both pass times come from the same process; the
per-layer numbers are medians over the traced passes.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

MIN_PASSES = 3


def _layer_summary(rows: list[dict]) -> dict:
    """Median of each time over the traced passes; counts from the first pass."""
    return {k: statistics.median(r[k] for r in rows) if k.endswith("_s") else v
            for k, v in rows[0].items()}


def _per_check(spans, passes: int) -> dict:
    """CheckResult.elapsed next to the benchmark's run_check span, per check id and pass."""
    table: dict[str, dict] = {}
    for s in spans:
        if s.layer == "verify.run_check" and s.attrs:
            row = table.setdefault(s.attrs["check_id"], {"instances": 0, "span_s": 0.0,
                                                         "elapsed_s": 0.0})
            row["instances"] += 1
            row["span_s"] += s.dur
            row["elapsed_s"] += s.attrs["elapsed"]
    for row in table.values():
        row["instances"] //= passes
        row["span_s"] /= passes
        row["elapsed_s"] /= passes
    return table


def _git_commit() -> str:
    """HEAD commit read from .git without starting git; "unknown" outside a repo."""
    git = os.path.join(os.getcwd(), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int | None) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "blas_threads": _blas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "seed": seed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    import spinfanout

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(spinfanout.__file__).startswith(src + os.sep):
        print(f"spinfanout imported from {spinfanout.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.enabled = True  # set-up spans go to the span file only

    attempted = failed = 0

    def one_pass():
        nonlocal attempted, failed
        start = time.perf_counter()
        out = wl.run()
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.enabled = False
        flags = wl.check(out)
        attempted += len(flags)
        failed += sum(flags)
        return elapsed

    wl = WORKLOADS[args.workload](args.seed, args.size)
    if tracer:
        tracer.op = "warmup"
    one_pass()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    untraced: list[float] = []
    traced: list[float] = []
    layer_rows: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    half = time.perf_counter() + args.seconds / 2
    while True:
        now = time.perf_counter()
        if tracer and (now >= half and len(untraced) >= MIN_PASSES):
            first = len(tracer.spans)
            tracer.op = f"pass{len(traced)}"
            tracer.enabled = True
            traced.append(one_pass())
            layer_rows.append(spans.layer_metrics(tracer.spans[first:]))
            if len(traced) >= MIN_PASSES and time.perf_counter() >= deadline:
                break
        else:
            untraced.append(one_pass())
            if not tracer and len(untraced) >= MIN_PASSES and time.perf_counter() >= deadline:
                break

    result = {
        "pass_s": untraced,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(args.seed),
    }
    if tracer:
        layers = _layer_summary(layer_rows)
        counts = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in layer_rows]
        # computed counts must repeat exactly from pass to pass
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        layers["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1
        )
        result["traced_pass_s"] = traced
        result["layers"] = layers
        pass_spans = [s for s in tracer.spans if s.op.startswith("pass")]
        result["per_check"] = _per_check(pass_spans, len(traced))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for rec in spans.span_records(tracer.spans):
                    fh.write(json.dumps(rec) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
