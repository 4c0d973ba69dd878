"""Re-measure the ROADMAP baseline rows at their full sizes.

Usage, from the root of a checkout (takes about three minutes on a
2-vCPU host):

    PYTHONPATH=src python3 perfbench/baseline.py [--out perfbench/BENCH_baseline.json]

Each row is timed ``repeats`` times after one untimed warm-up call that
also measures the Python-heap peak with ``tracemalloc``; the row records
the median, quartiles and repeat count, never a single wall-clock number.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc

import spinfanout as sf

from worker import environment

HERE = os.path.dirname(os.path.abspath(__file__))


def _rows():
    grid = sf.default_time_grid()
    fan8, fan10 = sf.fanout_circuit(8), sf.fanout_circuit(10)
    ring = sf.build_kn(sf.build_ring(16, 1.0))
    hn, l2 = sf.build_hn(12), sf.build_l2(8)
    basis = sf.StateVector.basis(11, 5)
    # name, layer, n (qubits), representation, repeats, call
    return [
        ("run_suite", "verify", None, "mixed", 7, lambda: sf.run_suite()),
        ("compile fanout n=8", "circuits", 9, "dense", 7, lambda: sf.compile_circuit(fan8)),
        ("compile fanout n=10", "circuits", 11, "dense", 3, lambda: sf.compile_circuit(fan10)),
        ("scan ring n=16", "explore", 16, "diagonal", 3, lambda: sf.scan(ring, grid)),
        ("scan l2 n=8", "explore", 8, "dense", 5, lambda: sf.scan(l2, grid)),
        ("scan hn n=12", "explore", 12, "diagonal", 7, lambda: sf.scan(hn, grid)),
        ("run_circuit fanout n=10, one basis state", "circuits", 11, "state", 51,
         lambda: sf.run_circuit(fan10, basis)),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", default=os.path.join(HERE, "BENCH_baseline.json"))
    args = p.parse_args(argv)
    rows = []
    for name, layer, n, rep, repeats, call in _rows():
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        q = statistics.quantiles(times, n=4)
        rows.append({"name": name, "layer": layer, "n": n, "representation": rep,
                     "median_s": statistics.median(times), "q1_s": q[0], "q3_s": q[2],
                     "repeats": repeats, "peak_bytes": peak})
        print(f"{name:<42} median {rows[-1]['median_s']:.4f} s "
              f"(q1 {q[0]:.4f}, q3 {q[2]:.4f}, {repeats} repeats)", flush=True)
    record = {"env": environment(seed=None), "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
