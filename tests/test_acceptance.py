"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""
import math
import time

import numpy as np
import pytest

from spinfanout.core import (
    DiagonalOperator,
    StateVector,
    equiv_up_to_global_phase,
)
from spinfanout.circuits import (
    Circuit,
    compile_circuit,
    fanout_circuit,
    from_text,
    parity_circuit,
    run_circuit,
    simplified_fanout_circuit,
)
from spinfanout.explore import default_time_grid, scan
from spinfanout.gates import (
    fanout_reference,
    ieq_reference,
    parity_reference,
    standard_gate,
)
from spinfanout.hamiltonians import (
    CouplingMatrix,
    build_hn,
    build_kn,
    build_l2,
    build_ring,
    evolve,
    un,
    un_dagger,
)
from spinfanout.report import scan_result_json

from helpers import schmidt_rank_one_deviation


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_ieq_identity():
    target = DiagonalOperator(3, np.array([1, -1, -1, -1, -1, -1, -1, 1], dtype=complex))
    # warm-up outside the timed region
    equiv_up_to_global_phase(evolve(build_hn(3), math.pi / 4), target, tol=1e-10)
    start = time.perf_counter()
    rep = equiv_up_to_global_phase(evolve(build_hn(3), math.pi / 4), target, tol=1e-10)
    elapsed = time.perf_counter() - start
    report("1 ieq-identity", rep.equivalent and rep.max_deviation < 1e-10 and elapsed < 1e-3)


def test_criterion_02_phase_formula():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        diag = un(n).entries
        norm = diag / diag[0]
        k = np.array([x.bit_count() for x in range(1 << n)])
        worst = max(worst, float(np.max(np.abs(norm - 1j ** (k * (n - k))))))
    elapsed = time.perf_counter() - start
    report("2 phase-formula", worst < 1e-10 and elapsed < 1.0)


def test_criterion_03_parity_dichotomy():
    worst = 0.0
    for n, odd_phase in [(2, 1j), (6, 1j), (10, 1j), (4, -1j), (8, -1j)]:
        norm = un(n).entries / un(n).entries[0]
        k = np.array([x.bit_count() for x in range(1 << n)])
        expected = np.where(k % 2 == 0, 1, odd_phase)
        worst = max(worst, float(np.max(np.abs(norm - expected))))
    report("3 parity-dichotomy", worst < 1e-10)


def test_criterion_04_parity_circuit():
    start = time.perf_counter()
    ok = True
    for n in (2, 4, 6, 8):
        rep = equiv_up_to_global_phase(
            compile_circuit(parity_circuit(n)), parity_reference(n + 1), tol=1e-9
        )
        ok = ok and rep.equivalent and rep.max_deviation < 1e-9
    elapsed = time.perf_counter() - start
    report("4 parity-circuit", ok and elapsed < 30.0)


def test_criterion_05_fanout_circuit():
    ok = True
    for n in (2, 4, 6, 8):
        full = fanout_circuit(n)
        rep = equiv_up_to_global_phase(
            compile_circuit(full), fanout_reference(n + 1), tol=1e-9
        )
        simplified = simplified_fanout_circuit(n)
        rep_s = equiv_up_to_global_phase(
            compile_circuit(simplified), fanout_reference(n + 1), tol=1e-9
        )
        ok = ok and rep.equivalent and rep_s.equivalent and len(simplified.steps) < len(full.steps)
    report("5 fanout-circuit", ok)


def test_criterion_06_unentangled_control():
    worst = 0.0
    for n in (2, 4, 6):
        circ = parity_circuit(n)
        prefix = Circuit(circ.n, circ.steps[:4])
        control = n - 1
        for x in range(1 << (n + 1)):
            state = run_circuit(prefix, StateVector.basis(n + 1, x))
            worst = max(worst, schmidt_rank_one_deviation(state, control))
            p = (x & ((1 << (n - 1)) - 1)).bit_count() & 1
            r = (x >> (n - 1)) & 1
            wrong = [
                idx for idx in range(1 << (n + 1))
                if ((idx >> control) & 1) != (p ^ r)
            ]
            worst = max(worst, float(np.linalg.norm(state.amplitudes[wrong])))
    report("6 unentangled-control", worst < 1e-9)


def test_criterion_07_dagger_and_order():
    ok = True
    for n in range(1, 11):
        u, udag = un(n), un_dagger(n)
        pair = DiagonalOperator(n, u.entries * udag.entries)
        pow4 = DiagonalOperator(n, u.entries ** 4)
        identity = DiagonalOperator.identity(n)
        if n % 2 == 0:
            # even n: exact identities, no phase left over
            ok = ok and np.max(np.abs(pair.entries - 1)) < 1e-12
            ok = ok and np.max(np.abs(pow4.entries - 1)) < 1e-12
        else:
            # odd n: the kept n^2/2 energy constant contributes exactly a
            # global phase, so the identities hold in the proportional sense
            ok = ok and equiv_up_to_global_phase(pair, identity, 1e-12).equivalent
            ok = ok and equiv_up_to_global_phase(pow4, identity, 1e-12).equivalent
    report("7 dagger-and-order", ok)


def test_criterion_08_kn_offset():
    worst = 0.0
    for n in range(2, 11):
        hn = build_hn(n).energies
        kn = build_kn(CouplingMatrix.uniform(n, 1.0)).energies
        worst = max(worst, float(np.max(np.abs(hn - kn - n / 2))))
    report("8 kn-offset", worst < 1e-12)


def test_criterion_09_cz_from_ieq():
    # the equality gate with its third qubit in |1> (entries 4..7), and H 1; CZ 0 1; H 1
    restriction = DiagonalOperator(2, ieq_reference().entries[4:])
    cz_rep = equiv_up_to_global_phase(restriction, standard_gate("CZ").unitary, tol=1e-12)
    conj = compile_circuit(from_text("H 1\nCZ 0 1\nH 1\n"))
    cnot_rep = equiv_up_to_global_phase(conj, standard_gate("CNOT").unitary, tol=1e-12)
    report("9 cz-from-ieq", cz_rep.equivalent and cnot_rep.equivalent)


def test_criterion_10_negative_control():
    rep = equiv_up_to_global_phase(
        compile_circuit(parity_circuit(4, swapped=False)), parity_reference(5)
    )
    report("10 negative-control", not rep.equivalent and rep.max_deviation > 0.5)


def test_criterion_11_exploration_smoke(capsys):
    from spinfanout.cli import main

    code = main(["explore", "--hamiltonian", "hn", "--n", "6"])
    out = capsys.readouterr().out
    flags_quarter_pi = code == 0 and "usable at t = pi/4" in out

    grid = default_time_grid()
    ring = scan(build_kn(build_ring(6, 1.0)), grid, hamiltonian_id="ring6")
    l2 = scan(build_l2(4), grid, hamiltonian_id="l2_4")
    completed = len(ring.verdicts) == len(grid) and len(l2.verdicts) == len(grid)
    deterministic = scan_result_json(l2) == scan_result_json(
        scan(build_l2(4), grid, hamiltonian_id="l2_4")
    )
    report("11 exploration-smoke", flags_quarter_pi and completed and deterministic)
