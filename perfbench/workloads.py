"""The two workloads: seeded inputs, the timed pass, and its output checks.

Each workload is built from ``(seed, size)``; the constructor is the
set-up (inputs, references, circuits and Hamiltonians).  ``run()`` is one
timed pass and calls only public spinfanout names.  ``check(out)``
returns one failure flag per operation of the pass, judged against
``oracles`` and, where noted, against a second spinfanout path.
``size`` is "full" for the benchmark and "tiny" for the smoke test,
which runs the same code on small inputs.
"""
from __future__ import annotations

import json
import math

import numpy as np

import spinfanout as sf
from spinfanout import report

import oracles

AMP_TOL = 1e-9


def _json_lines_ok(text: str) -> list[bool]:
    ok = []
    for line in text.splitlines():
        try:
            json.loads(line)
            ok.append(True)
        except ValueError:
            ok.append(False)
    return ok


def _grid_index(grid: list[float], t: float) -> int:
    return min(range(len(grid)), key=lambda i: abs(grid[i] - t))


class Verify:
    """The paper-reproduction job: the default check registry and its JSON
    report, then the scan of the squared-spin Hamiltonian for the times at
    which U_N is parity-usable, with its JSON report.

    One operation is one check instance; the scan is one more.  The
    registry is fixed by the paper; the seed picks the scan's time grid,
    a subset of ``default_time_grid()`` that always holds the four odd
    multiples of pi/4.
    """

    def __init__(self, seed: int, size: str):
        full = size == "full"
        rng = np.random.default_rng(seed)
        self.n_max = None if full else 4
        self.first_lines: list[str] | None = None
        n_hn, points = (12, 64) if full else (4, 16)
        grid = sf.default_time_grid()
        quarters = [_grid_index(grid, k * math.pi / 4) for k in (1, 3, 5, 7)]
        rest = [i for i in range(len(grid)) if i not in quarters]
        keep = set(quarters) | {int(i) for i in rng.choice(rest, points - 4, replace=False)}
        self.times = [grid[i] for i in sorted(keep)]
        self.quarter_times = {grid[i] for i in quarters}
        self.hn = sf.build_hn(n_hn)
        self.usable = oracles.parity_usable(oracles.hn_energies(n_hn), self.times)

    def run(self):
        results = sf.run_suite(n_max=self.n_max)
        res = sf.scan(self.hn, self.times, hamiltonian_id="hn")
        return results, report.check_results_json(results), res, report.scan_result_json(res)

    def check(self, out) -> list[bool]:
        results, text, res, scan_text = out
        lines = text.splitlines()
        if self.first_lines is None:
            self.first_lines = lines
        parsed = _json_lines_ok(text)
        consistent = sf.suite_ok(results) == all(r.ok for r in results)
        if not consistent or len(lines) != len(results) or len(lines) != len(self.first_lines):
            flags = [True] * max(len(results), 1)
        else:
            flags = [
                not (r.ok and parsed[i] and lines[i] == self.first_lines[i])
                for i, r in enumerate(results)
            ]
        usable = [v.parity_usable for v in res.verdicts]
        scan_ok = (
            usable == self.usable
            and {t for t, u in zip(self.times, usable) if u} == self.quarter_times
            and abs(res.best_time - math.pi / 4) < 1e-12
            and len(scan_text.splitlines()) == len(self.times)
            and all(_json_lines_ok(scan_text))
        )
        return flags + [not scan_ok]


# one gate name per position: a dense gate first, so that every step of the
# compiled product is a dense matmul and the work does not depend on the seed
_RANDOM_GATES = (
    "H", "UN", "CNOT", "S", "X", "CZ", "SDAG", "H", "UNDAG", "Z", "CNOT", "UN", "H", "S",
)


def random_circuit_text(rng: np.random.Generator, n: int, steps: int) -> str:
    lines = []
    for name in (_RANDOM_GATES * steps)[:steps]:
        if name in ("UN", "UNDAG"):
            lines.append(f"{name} {int(rng.integers(2, n + 1))}")
        elif name in ("CNOT", "CZ"):
            a, b = rng.choice(n, size=2, replace=False)
            lines.append(f"{name} {a} {b}")
        else:
            lines.append(f"{name} {int(rng.integers(n))}")
    return "\n".join(lines) + "\n"


class CompileCap:
    """Dense compilation: the fanout circuit and a seeded circuit file.

    Operation 0 compiles the fanout circuit and compares it with its
    reference; operation 1 compiles the seeded circuit.  Both compiled
    matrices are checked column by column against the oracles, and the
    seeded one also against ``run_circuit``.
    """

    def __init__(self, seed: int, size: str):
        full = size == "full"
        rng = np.random.default_rng(seed)
        n_fan, self.n_rand, steps, cols = (8, 10, 14, 8) if full else (2, 4, 8, 4)
        self.fan = sf.fanout_circuit(n_fan)
        self.fan_ref = sf.fanout_reference(n_fan + 1)
        self.fan_target = [oracles.fanout_index(x, n_fan + 1) for x in range(1 << (n_fan + 1))]
        self.text = random_circuit_text(rng, self.n_rand, steps)
        self.rand = sf.from_text(self.text, n=self.n_rand)
        self.cols = [int(c) for c in np.sort(rng.choice(1 << self.n_rand, cols, replace=False))]
        self.expected = [oracles.simulate_text(self.text, self.n_rand, c) for c in self.cols]

    def run(self):
        fan_u = sf.compile_circuit(self.fan)
        rep = sf.equiv_up_to_global_phase(fan_u, self.fan_ref)
        return fan_u, rep, sf.compile_circuit(self.rand)

    def check(self, out) -> list[bool]:
        fan_u, rep, rand_u = out
        mat = fan_u.matrix
        m = fan_u.n
        vals = mat[self.fan_target, np.arange(1 << m)]
        # a permutation times one global phase: unit entries, equal phases
        fan_ok = (
            rep.equivalent
            and float(np.max(np.abs(vals - vals[0]))) < AMP_TOL
            and abs(abs(vals[0]) - 1.0) < AMP_TOL
            and abs(float(np.sum(np.abs(mat) ** 2)) - (1 << m)) < AMP_TOL
        )
        rand_ok = True
        for c, expected in zip(self.cols, self.expected):
            col = rand_u.matrix[:, c]
            state = sf.run_circuit(self.rand, sf.StateVector.basis(self.n_rand, c)).amplitudes
            rand_ok &= float(np.max(np.abs(col - expected))) < AMP_TOL
            rand_ok &= float(np.max(np.abs(state - expected))) < AMP_TOL
        return [not fan_ok, not rand_ok]


WORKLOADS = {
    "verify": Verify,
    "compile-cap": CompileCap,
}
