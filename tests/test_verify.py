import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from spinfanout import circuits, core, verify
from spinfanout.circuits import (
    Circuit,
    Step,
    _summed_blocks,
    _use_swapped_evolution,
    compile_circuit,
    fanout_circuit,
    parity_circuit,
    parity_like_circuit,
    run_circuit,
    simplified_fanout_circuit,
)
from spinfanout.core import (
    CapExceededError,
    DenseOperator,
    DiagonalOperator,
    EquivalenceReport,
    StateVector,
    equiv_up_to_global_phase,
    popcounts,
)
from spinfanout.gates import (
    GateDef,
    _fanout_targets,
    _parity_targets,
    fanout_reference,
    parity_reference,
    standard_gate,
)
from spinfanout.hamiltonians import DiagonalHamiltonian, build_kn, un
from spinfanout.report import check_results_json, check_results_table
from spinfanout.verify import (
    CheckResult,
    _matches_reference,
    known_check_ids,
    run_check,
    run_suite,
    suite_ok,
)

from helpers import schmidt_rank_one_deviation


class TestRunCheck:
    def test_ieq(self):
        r = run_check("ieq")
        assert r.passed and r.max_deviation < 1e-10

    def test_parity_n6(self):
        r = run_check("parity", {"n": 6})
        assert r.passed

    def test_pow4_odd_n(self):
        r = run_check("unitary_pow4", {"n": 5})
        assert r.passed

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_check("nonsense")

    def test_cap_exceeded(self, lower_caps):
        lower_caps(dense=4, l2=4, state=6)
        with pytest.raises(CapExceededError):
            run_check("parity", {"n": 6})

    def test_diagonal_check_runs_to_state_cap(self):
        # U_N is 2^n phases: past the dense cap of 12, within the state cap
        r = run_check("phase_formula", {"n": 13})
        assert r.passed

    def test_state_vector_check_under_tight_dense_cap(self, lower_caps):
        # 5-qubit state vectors only; no dense matrix is built
        lower_caps(dense=4, l2=4, state=6)
        r = run_check("unentangled_control", {"n": 4})
        assert r.passed

    @pytest.mark.parametrize("entry", [1, 6, 15])
    def test_kn_offset_compares_every_energy(self, monkeypatch, entry):
        # K_N wrong at one basis state other than 0 fails the row
        def wrong_kn(coupling):
            energies = build_kn(coupling).energies.copy()
            energies[entry] += 1e-6
            return DiagonalHamiltonian(coupling.n, energies)

        monkeypatch.setattr(verify, "build_kn", wrong_kn)
        r = run_check("kn_offset", {"n": 4})
        assert not r.passed and r.max_deviation == pytest.approx(1e-6)

    def test_negative_control_fails_by_design(self):
        r = run_check("parity_negative_control", {"n": 4})
        assert not r.passed
        assert r.max_deviation > 0.5
        assert r.negative_control
        assert r.ok

    def test_negative_control_phase_is_one(self):
        # the compiled circuit vanishes at the reference's largest entry
        r = run_check("parity_negative_control", {"n": 4})
        assert r.phase == 1 + 0j

    @pytest.mark.parametrize(
        "check_id, n",
        [("parity", 12), ("parity_negative_control", 12), ("parity_like", 12), ("parity_like", 14)],
    )
    def test_parity_rows_run_past_the_dense_cap(self, check_id, n):
        # n + 1 (parity) and n (parity_like) qubits on 2^2 and 2^1 summed
        # columns: bounded by the state cap, as no dense matrix stands behind them
        r = run_check(check_id, {"n": n})
        assert r.ok and not r.skipped
        assert r.passed != r.negative_control
        if r.negative_control:
            assert r.max_deviation > 0.5

    @pytest.mark.parametrize(
        "check_id, params",
        [("fanout", {"n": 12}), ("fanout_simplified", {"n": 12}),
         ("fig3_conjugation", {"n_plus_1": 13})],
    )
    def test_rows_that_mix_every_bit_stop_at_the_dense_cap(self, check_id, params):
        # their 2^13 summed columns are the dense 13-qubit unitary (1 GiB)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="n=13 exceeds dense cap 12"):
                run_check(check_id, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def un_diagonal_rows(n: int) -> dict[str, tuple[float, complex]]:
    """``phase_formula``, ``parity_dichotomy`` and ``unitary_pow4`` over all
    2^n entries of ``un(n)``: the oracle for the rows, which read only its
    n + 1 weight phases."""
    entries = un(n).entries
    diag, k = entries / entries[0], popcounts(n)
    odd_phase = 1j if n % 4 == 2 else -1j
    u2 = entries ** 2
    u4 = DiagonalOperator(n, u2 * u2)
    rep = equiv_up_to_global_phase(u4, DiagonalOperator.identity(n), tol=1e-12)
    return {
        "phase_formula": (float(np.max(np.abs(diag - 1j ** (k * (n - k))))), complex(1)),
        "parity_dichotomy": (
            float(np.max(np.abs(diag - np.where(k % 2 == 0, 1, odd_phase)))), complex(odd_phase)
        ),
        "unitary_pow4": (rep.max_deviation, rep.phase),
    }


class TestUnDiagonalRows:
    """The rows on U_N read its n + 1 weight phases; ``un(n)`` gathers those
    by popcount, so each maximum is the one over all 2^n entries, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_levels_give_the_full_diagonal_rows(self, n):
        for check_id, expected in un_diagonal_rows(n).items():
            if check_id == "parity_dichotomy" and n % 2:
                continue
            r = run_check(check_id, {"n": n})
            assert (r.max_deviation, r.phase) == expected, check_id


def unentangled_control_per_state(n: int, prefix: Circuit | None = None) -> float:
    """The unentangled-control check, one basis state and one SVD at a time,
    of ``prefix``, by default the steps of ``parity_circuit(n)`` before its CNOT."""
    if prefix is None:
        circ = parity_circuit(n)
        prefix = Circuit(circ.n, circ.steps[:4])
    control = n - 1
    control_bit = (np.arange(1 << (n + 1)) >> control) & 1
    source_parity = popcounts(n - 1) & 1
    worst = 0.0
    for x in range(1 << (n + 1)):
        state = run_circuit(prefix, StateVector.basis(n + 1, x))
        dev = schmidt_rank_one_deviation(state, control)
        p = source_parity[x & ((1 << (n - 1)) - 1)]
        r = (x >> (n - 1)) & 1
        wrong_value = 1 - (p ^ r)
        dev = max(dev, float(np.linalg.norm(state.amplitudes[control_bit == wrong_value])))
        worst = max(worst, dev)
    return worst


class TestUnentangledControl:
    """The check runs the prefix on its summed columns and groups each
    column's rows by the input they hold; it must report exactly the
    deviation of the per-state loop."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_per_state_loop(self, n):
        # default caps: all 2^k summed columns in one block
        r = run_check("unentangled_control", {"n": n})
        assert r.passed and r.max_deviation == unentangled_control_per_state(n)

    @pytest.mark.parametrize("n, k", [(4, 1), (6, 1)])
    def test_matches_per_state_loop_in_several_blocks(self, n, k, monkeypatch):
        # 2^(n+1) entries per block, the rule compile_circuit follows too: one
        # summed column at a time.  At n = 4 the plan fuses the prefix into one
        # dense window on qubits 0..3, whose nonzero entries mix only the helper
        # wire's bit; at n = 6 the Hadamards on that wire are windows of their own
        expected = unentangled_control_per_state(n)
        blocks = []

        def recording(c, extra=0):
            for inputs, block in _summed_blocks(c, extra):
                blocks.append((inputs.copy(), block.copy()))
                yield inputs, block

        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", 1 << (n + 1))
        monkeypatch.setattr(verify, "_summed_blocks", recording)
        r = run_check("unentangled_control", {"n": n})
        assert r.max_deviation == expected
        assert len(blocks) == 1 << k
        prefix = verify._control_prefix(n)
        for inputs, block in blocks:
            assert inputs.shape == (1, 1 << (n + 1 - k)) and block.shape == (1 << (n + 1), 1)
            summed = np.zeros(1 << (n + 1), dtype=complex)
            summed[inputs[0]] = 1
            out = run_circuit(prefix, StateVector(n + 1, summed)).amplitudes
            assert block[:, 0].tobytes() == out.tobytes()

    def test_twelve_qubit_row_runs_two_summed_columns(self, monkeypatch):
        shapes = []

        def recording(c, extra=0):
            for inputs, block in _summed_blocks(c, extra):
                shapes.append(block.shape)
                yield inputs, block

        monkeypatch.setattr(verify, "_summed_blocks", recording)
        r = run_check("unentangled_control", {"n": 12})
        assert r.passed and shapes == [(1 << 13, 2)]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_skipped_below_n_plus_one_qubits(self, n, lower_caps):
        lower_caps(dense=n - 1, l2=n - 1, state=n)
        with pytest.raises(CapExceededError):
            run_check("unentangled_control", {"n": n})
        [r] = [r for r in run_suite(filter="unentangled") if r.params == {"n": n}]
        assert r.skipped


def _prefix_steps(n, swapped=None):
    return parity_circuit(n, swapped).steps[:4]  # H, evolution, S-dagger, H


def _s_for_sdag(n):
    h, evolution, _, closing_h = _prefix_steps(n)
    return h, evolution, Step(standard_gate("S"), (n - 1,)), closing_h


# each breaks the claim: the control holds p xor r, unentangled, before the CNOT
CONTROL_PREFIX_MUTANTS = {
    "drop-closing-h": (lambda n: _prefix_steps(n)[:3], 0.5 ** 0.5),
    "s-for-sdag": (_s_for_sdag, 1.0),
    "other-order": (lambda n: _prefix_steps(n, not _use_swapped_evolution(n)), 1.0),
    "h-on-source-0": (lambda n: (Step(standard_gate("H"), (0,)),) + _prefix_steps(n), 0.5 ** 0.5),
}


class TestUnentangledControlMutants:
    """The row measures only the wrong-value mass: each input's second singular
    value across the control cut is at most that mass, as zeroing the
    wrong-value row leaves a rank-one matrix.  On a broken prefix the row
    still reports exactly the SVD-inclusive per-state deviation, and fails."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("mutant", list(CONTROL_PREFIX_MUTANTS))
    def test_mutant_gives_the_per_state_deviation(self, mutant, n, monkeypatch):
        steps, value = CONTROL_PREFIX_MUTANTS[mutant]
        prefix = Circuit(n + 1, steps(n))
        monkeypatch.setattr(verify, "_control_prefix", lambda n, swapped=None: prefix)
        r = run_check("unentangled_control", {"n": n})
        assert r.max_deviation == unentangled_control_per_state(n, prefix)
        assert r.max_deviation >= 0.5 and not r.passed
        assert r.max_deviation == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_entangled_control_is_caught_by_its_mass(self, n):
        # an H on source 0 first entangles the control with qubit 0: its
        # second singular value reaches the mass the row reports
        prefix = Circuit(n + 1, CONTROL_PREFIX_MUTANTS["h-on-source-0"][0](n))
        second_sv = max(
            schmidt_rank_one_deviation(run_circuit(prefix, StateVector.basis(n + 1, x)), n - 1)
            for x in range(1 << (n + 1))
        )
        assert second_sv == pytest.approx(0.5 ** 0.5, abs=1e-12)


BUILDS = {
    "parity": (parity_circuit, parity_reference, _parity_targets),
    "fanout": (fanout_circuit, fanout_reference, _fanout_targets),
    "fanout_simplified": (simplified_fanout_circuit, fanout_reference, _fanout_targets),
}


def compiled_comparison(build, reference, n, swapped):
    """Deviation and phase of the assembled unitary against the reference."""
    rep = equiv_up_to_global_phase(compile_circuit(build(n, swapped=swapped)), reference(n + 1))
    return rep.max_deviation, rep.phase


def with_order(build, order):
    """``build`` with its evolution order fixed to ``order``."""

    def fixed(n, swapped=None):
        return build(n, swapped=order)

    return fixed


def then_x01(build):
    """``build`` with an X on qubits 0 and 1 appended, which keeps the parity."""

    def with_x(n, swapped=None):
        c = build(n, swapped=swapped)
        x = standard_gate("X")
        return Circuit(c.n, c.steps + (Step(x, (0,)), Step(x, (1,))))

    return with_x


class TestColumnBlockComparison:
    """The reference rows compare the circuit one block of summed columns at a
    time and must report exactly the deviation and phase of comparing the
    compiled unitary with ``equiv_up_to_global_phase``."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize(
        "check_id", ["parity", "parity_negative_control", "fanout", "fanout_simplified"]
    )
    def test_run_check_matches_the_compiled_comparison(self, check_id, n):
        build, reference, _ = BUILDS[check_id.removesuffix("_negative_control")]
        swapped = not _use_swapped_evolution(n) if check_id.endswith("control") else None
        r = run_check(check_id, {"n": n})
        assert (r.max_deviation, r.phase) == compiled_comparison(build, reference, n, swapped)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("swapped", [None, True, False])
    @pytest.mark.parametrize("name", list(BUILDS))
    def test_every_evolution_order(self, name, swapped, n):
        build, reference, targets = BUILDS[name]
        run = _matches_reference(with_order(build, swapped), targets)
        assert run({"n": n}) == compiled_comparison(build, reference, n, swapped)

    @pytest.mark.parametrize(
        "check_id", ["parity", "parity_negative_control", "fanout", "fanout_simplified"]
    )
    def test_in_many_blocks(self, check_id, monkeypatch):
        # 2^10 entries per block: 2 of the 512 nine-qubit columns at a time;
        # the compile uses the same blocks, so its columns round the same
        build, reference, _ = BUILDS[check_id.removesuffix("_negative_control")]
        swapped = not _use_swapped_evolution(8) if check_id.endswith("control") else None
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", 1 << 10)
        expected = compiled_comparison(build, reference, 8, swapped)
        r = run_check(check_id, {"n": 8})
        assert (r.max_deviation, r.phase) == expected

    def test_nan_entry_gives_nan_deviation(self, monkeypatch):
        calls = []

        def with_nan(c, extra=0):
            for inputs, out in _summed_blocks(c, extra):
                if len(calls) == 2:  # the third of four blocks
                    out[7, 4] = np.nan
                calls.append(out.shape)
                yield inputs, out

        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", 1 << 8)  # 8 columns per block
        monkeypatch.setattr(verify, "_summed_blocks", with_nan)
        with np.errstate(invalid="ignore"):
            dev, phase = _matches_reference(fanout_circuit, _fanout_targets)({"n": 4})
        assert calls == [(32, 8)] * 4
        assert np.isnan(dev) and abs(abs(phase) - 1) < 1e-12

    @pytest.mark.parametrize(
        "check_id, n", [("unentangled_control", n) for n in (2, 4, 6)] + [("cz_from_ieq", None)]
    )
    def test_nan_term_gives_nan_deviation(self, check_id, n, monkeypatch):
        # a NaN step after the control prefix makes its wrong-value mass NaN,
        # and a NaN CNOT row is a NaN term of cz_from_ieq: each row keeps it
        prefix, nan = verify._control_prefix, DiagonalOperator(1, np.array([np.nan, 1]))
        monkeypatch.setattr(verify, "_control_prefix", lambda n, swapped=None: Circuit(
            n + 1, prefix(n, swapped).steps + (Step(GateDef("NAN", nan), (0,)),)))
        monkeypatch.setattr(verify, "_cnot_row", lambda params: (math.nan, 1 + 0j))
        with np.errstate(invalid="ignore"):
            r = run_check(check_id, {"n": n} if n else {})
        assert math.isnan(r.max_deviation) and not r.passed

    @pytest.mark.parametrize(
        "build, targets, leaves",
        [
            (with_order(parity_circuit, not _use_swapped_evolution(8)), _parity_targets, False),
            (parity_circuit, _fanout_targets, True),
            (then_x01(parity_circuit), _parity_targets, True),
        ],
        ids=["parity-wrong-variant", "fanout-targets", "parity-then-x01"],
    )
    def test_summed_columns_give_the_basis_column_comparison(self, build, targets, leaves):
        """``parity_circuit(8)`` mixes 2 of its 9 input bits.  Its comparison on
        summed columns equals, bit for bit, the dense comparison of its basis
        columns: in the wrong variant, and against targets that leave its
        support and so join the summed bits.  With X on qubits 0 and 1 after
        it, the parity targets leave the support: on its 2 mixed bits alone,
        each would fall on the circuit's nonzero entry, and it would pass."""
        n = 8
        c = build(n)
        mixed, owner = c._support
        assert mixed == 0b11 << (n - 1)
        rows = targets(n + 1)
        assert bool(np.bitwise_or.reduce(owner[rows] ^ np.arange(len(rows))) & ~mixed) == leaves
        basis = np.hstack([block.copy() for _, block in _summed_blocks(c, (1 << c.n) - 1)])
        reference = np.zeros_like(basis)
        reference[rows, np.arange(len(rows))] = 1
        rep = equiv_up_to_global_phase(DenseOperator(n + 1, basis), DenseOperator(n + 1, reference))
        assert _matches_reference(build, targets)({"n": n}) == (rep.max_deviation, rep.phase)

    def test_nine_qubit_fanout_never_assembles_its_unitary(self):
        run_check("fanout", {"n": 8})  # warm-up
        tracemalloc.start()
        try:
            run_check("fanout", {"n": 8})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block and its scratch are 2 MiB; a dense 9-qubit reference alone is 4 MiB
        assert peak < 3 << 20


def compiled_parity_like(n: int) -> float:
    """The ``parity_like`` deviation of the assembled unitary from the dense
    parity permutation, in modulus, over the inputs with qubit n-1 in |0>."""
    half = 1 << (n - 1)
    mat = compile_circuit(parity_like_circuit(n)).matrix[:, :half]
    return float(np.max(np.abs(np.abs(mat) - parity_reference(n).to_dense().matrix[:, :half].real)))


class TestParityLike:
    """The row compares the first half of the circuit's columns one column
    block at a time and must report exactly the deviation of the assembled
    unitary."""

    @pytest.mark.parametrize("entries", [1 << 16, 1 << 6], ids=["default", "2^6"])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_the_compiled_comparison(self, n, entries, monkeypatch):
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", entries)
        r = run_check("parity_like", {"n": n})
        assert r.passed and r.max_deviation == compiled_parity_like(n)

    def test_ten_qubit_row_never_assembles_its_unitary(self):
        run_check("parity_like", {"n": 10})  # warm-up
        tracemalloc.start()
        try:
            r = run_check("parity_like", {"n": 10})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.passed
        # a block and its scratch are 2 MiB; the 10-qubit unitary alone is 16 MiB
        assert peak < 4 << 20


def fig3_mutant(drop_h=None, retarget=None):
    """A builder of the Fig. 3 circuit on ``n + 1`` qubits with the Hadamard on
    qubit ``drop_h`` of the second layer left out, or the CNOT from source
    ``retarget[0]`` aimed at qubit ``retarget[1]`` instead of qubit n."""

    def build(n, swapped=None):
        steps = list(verify._fig3_circuit(n).steps)  # n + 1 H, n CNOT, n + 1 H
        if drop_h is not None:
            del steps[2 * n + 1 + drop_h]
        if retarget is not None:
            source, target = retarget
            steps[n + 1 + source] = Step(standard_gate("CNOT"), (source, target))
        return Circuit(n + 1, tuple(steps))

    return build


class TestFig3Row:
    """The Fig. 3 row runs H, parity by CNOTs and H on the block loop and
    compares them with the fanout permutation."""

    def test_the_circuit_is_the_figure(self):
        c = verify._fig3_circuit(3)
        names = [(s.gate.name, s.targets) for s in c.steps]
        layer = [("H", (q,)) for q in range(4)]
        assert names == layer + [("CNOT", (q, 3)) for q in range(3)] + layer
        assert c._real_prefix == len(c._plan)  # every block runs in float64

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_the_compiled_comparison(self, m):
        rep = equiv_up_to_global_phase(compile_circuit(verify._fig3_circuit(m - 1)), fanout_reference(m))
        r = run_check("fig3_conjugation", {"n_plus_1": m})
        assert r.passed and r.max_deviation == rep.max_deviation
        assert r.phase == rep.phase == 1

    @pytest.mark.parametrize("m", [3, 5, 8])
    @pytest.mark.parametrize(
        "mutant",
        [
            lambda n: {"drop_h": 0},
            lambda n: {"drop_h": n},
            lambda n: {"retarget": (0, 1)},
            lambda n: {"retarget": (n - 1, 0)},
        ],
        ids=["drop-first-h", "drop-last-h", "retarget-first-cnot", "retarget-last-cnot"],
    )
    def test_mutants_fail(self, mutant, m):
        n = m - 1
        dev, _ = _matches_reference(fig3_mutant(**mutant(n)), _fanout_targets)({"n": n})
        assert dev >= 0.5


class TestCzFromIeq:
    def test_cnot_row_equals_the_compiled_comparison(self):
        # the 2-qubit parity map is CNOT with control 0
        conj = compile_circuit(verify._cnot_from_cz(1))
        rep = equiv_up_to_global_phase(conj, standard_gate("CNOT").unitary, tol=1e-12)
        assert verify._cnot_row({"n": 1}) == (rep.max_deviation, rep.phase)

    def test_warm_row_builds_nothing(self, monkeypatch):
        assert run_check("cz_from_ieq").passed  # warm
        built = []

        def no_text(*args, **kwargs):
            raise AssertionError("from_text called")

        def recording(self):
            built.append(self)

        monkeypatch.setattr(verify, "from_text", no_text)
        monkeypatch.setattr(circuits, "from_text", no_text)
        monkeypatch.setattr(Circuit, "__post_init__", recording)
        assert run_check("cz_from_ieq").passed
        assert built == []


def _ids(check_id, key, values):
    return {(check_id, ((key, v),)) for v in values}


# the instances run_suite skips under dense=4, l2=4, state=6; parity_like
# n=6 and parity n=4 run, as their qubits fit the state cap and their blocks
# sum all but 1 and 2 bits
TIGHT_CAP_SKIPS = (
    _ids("fanout", "n", (4, 6, 8))
    | _ids("fanout_simplified", "n", (4, 6, 8))
    | _ids("fig3_conjugation", "n_plus_1", (5, 6, 7, 8))
    | _ids("kn_offset", "n", (7, 8, 9, 10))
    | _ids("parity", "n", (6, 8))
    | _ids("parity_dichotomy", "n", (8, 10))
    | _ids("parity_like", "n", (8,))
    | _ids("phase_formula", "n", (7, 8, 9, 10))
    | _ids("unentangled_control", "n", (6,))
    | _ids("unitary_pow4", "n", (7, 8, 9, 10))
)


def skipped_under_tight_caps():
    return {(r.check_id, tuple(sorted(r.params.items()))) for r in run_suite() if r.skipped}


def without_elapsed(results):
    return [dataclasses.replace(r, elapsed=0.0) for r in results]


class TestCircuitCache:
    """Each row's circuit is built once per process; a warm row must report
    and raise exactly what a cold one does."""

    def test_warm_suite_equals_cold_suite(self):
        verify._cached_circuit.cache_clear()
        cold = run_suite()
        assert verify._cached_circuit.cache_info().currsize > 0
        warm = run_suite()
        assert without_elapsed(warm) == without_elapsed(cold)
        assert check_results_json(warm) == check_results_json(cold)

    def test_cache_stays_small(self, monkeypatch):
        cached, qubits = verify._cached_circuit, []

        def recording(build, n, swapped):
            c = cached(build, n, swapped)
            qubits.append(c.n)
            return c

        monkeypatch.setattr(verify, "_cached_circuit", recording)
        cached.cache_clear()
        run_suite()
        assert cached.cache_info().currsize <= 32
        # 13 qubits, the smallest of its circuits over the dense cap of 12
        assert run_check("unentangled_control", {"n": 12}).passed
        assert cached.cache_info().currsize <= 32
        assert qubits and max(qubits) <= core.DENSE_CAP

    def test_hit_still_checks_the_state_cap(self, lower_caps):
        run_check("parity", {"n": 6})  # warm
        lower_caps(dense=12, l2=8, state=5)
        # the dense cap lets the 7-qubit row through; the cached circuit's
        # 7-qubit column blocks are over the state cap
        with pytest.raises(CapExceededError):
            run_check("parity", {"n": 6})

    def test_warm_suite_skips_the_same_under_tight_caps(self, lower_caps):
        run_suite()  # warm
        lower_caps(dense=4, l2=4, state=6)
        assert skipped_under_tight_caps() == TIGHT_CAP_SKIPS

    def test_negative_control_keeps_its_own_circuit(self):
        verify._cached_circuit.cache_clear()
        before = run_check("parity_negative_control", {"n": 4})
        assert run_check("parity", {"n": 4}).passed
        after = run_check("parity_negative_control", {"n": 4})
        assert without_elapsed([after]) == without_elapsed([before])
        assert not after.passed


@pytest.fixture(scope="module")
def results():
    return run_suite()


class TestRunSuite:
    def test_all_ok(self, results):
        assert suite_ok(results)

    def test_every_registered_check_present(self, results):
        assert set(r.check_id for r in results) == set(known_check_ids())

    def test_positive_checks_pass(self, results):
        for r in results:
            if not r.negative_control:
                assert r.passed, f"{r.check_id} {r.params}: dev={r.max_deviation}"

    def test_negative_controls_fail(self, results):
        negatives = [r for r in results if r.negative_control]
        assert negatives
        for r in negatives:
            assert not r.passed and r.max_deviation > 0.5

    def test_needs_no_svd_and_no_compiled_unitary(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called by the suite")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(circuits, "compile_circuit", forbidden)
        monkeypatch.setattr(verify, "compile_circuit", forbidden, raising=False)
        assert suite_ok(run_suite())

    def test_sorted_output(self, results):
        keys = [(r.check_id, sorted(r.params.items())) for r in results]
        assert keys == sorted(keys)

    def test_anchors_present(self, results):
        assert all(r.anchor for r in results)

    def test_filter(self):
        results = run_suite(filter="parity")
        assert results
        assert all(r.check_id.startswith("parity") for r in results)

    def test_tight_caps_mark_skipped(self, lower_caps):
        lower_caps(dense=4, l2=4, state=6)
        results = run_suite()
        skipped = [r for r in results if r.skipped]
        assert skipped
        assert any(r.check_id == "parity" and r.params == {"n": 6} for r in skipped)
        # skipped instances count as neither pass nor failure
        assert all(r.ok for r in skipped)

    def test_tight_caps_skip_exactly(self, lower_caps):
        lower_caps(dense=4, l2=4, state=6)
        assert skipped_under_tight_caps() == TIGHT_CAP_SKIPS

    def test_n_max_marks_skipped(self):
        results = run_suite(filter="phase_formula", n_max=4)
        ran = [r for r in results if not r.skipped]
        assert all(r.params["n"] <= 4 for r in ran)
        assert any(r.skipped for r in results)

    def test_skip_reason_tells_n_max_from_cap(self, lower_caps):
        # parity n=4 fits the caps but not n_max; n=6 and n=8 are over the dense cap
        lower_caps(dense=5, l2=5, state=6)
        results = run_suite(filter="parity", n_max=2)
        reasons = {r.params["n"]: r.skip_reason for r in results if r.check_id == "parity"}
        assert reasons == {2: "", 4: "n-max", 6: "n-max", 8: "n-max"}
        results = run_suite(filter="parity")
        reasons = {r.params["n"]: r.skip_reason for r in results if r.check_id == "parity"}
        assert reasons == {2: "", 4: "", 6: "cap", 8: "cap"}
        rows = check_results_table(results).splitlines()[2:]
        assert [row.split()[2] for row in rows if row.startswith("parity ")] == [
            "PASS", "PASS", "SKIP(cap)", "SKIP(cap)"
        ]
        # the reason stays out of the JSON report
        assert "n-max" not in check_results_json(run_suite(filter="parity", n_max=2))

    def test_determinism(self):
        a = run_suite(filter="parity")
        b = run_suite(filter="parity")
        for ra, rb in zip(a, b):
            assert ra.passed == rb.passed
            if not (math.isnan(ra.max_deviation) and math.isnan(rb.max_deviation)):
                assert abs(ra.max_deviation - rb.max_deviation) < 1e-13
        assert check_results_json(a) == check_results_json(b)


class TestDerivedFields:
    """``passed`` and ``skipped`` are read from the fields that decide them,
    so no result can contradict itself."""

    def test_not_stored(self):
        names = {f.name for f in dataclasses.fields(CheckResult)}
        assert not names & {"passed", "skipped"}
        assert "equivalent" not in {f.name for f in dataclasses.fields(EquivalenceReport)}

    @pytest.mark.parametrize("deviation", [0.5, math.nan])
    def test_passed_follows_the_deviation(self, deviation):
        ran = run_check("ieq")
        assert ran.passed and ran.max_deviation < ran.tolerance
        worse = dataclasses.replace(ran, max_deviation=deviation)
        assert not worse.passed and not worse.ok and not suite_ok([worse])
        assert json.loads(check_results_json([worse]))["passed"] is False
        assert "FAIL" in check_results_table([worse])

    def test_nan_deviation_fails_a_negative_control(self):
        # a negative control is ok only when it measures a failure
        r = run_check("parity_negative_control", {"n": 4})
        nan = dataclasses.replace(r, max_deviation=float("nan"))
        assert not nan.passed and not nan.ok and not suite_ok([nan])
        assert "NEG-BAD" in check_results_table([nan])
        at_tolerance = dataclasses.replace(r, max_deviation=r.tolerance)
        assert at_tolerance.ok and "NEG-OK" in check_results_table([at_tolerance])

    def test_skipped_follows_the_reason(self):
        ran = run_check("ieq")
        assert not ran.skipped and ran.skip_reason == ""
        skipped = dataclasses.replace(ran, skip_reason="n-max")
        assert skipped.skipped and skipped.ok
        assert "SKIP(n-max)" in check_results_table([skipped])

    @pytest.mark.parametrize("reason", ["n-max", "cap"])
    def test_a_skipped_instance_has_no_deviation(self, reason, lower_caps):
        if reason == "cap":
            lower_caps(dense=8, l2=8, state=20)
        n_max = 6 if reason == "n-max" else None
        [r] = [r for r in run_suite("fanout_simplified", n_max=n_max) if r.params == {"n": 8}]
        assert r.skipped and r.skip_reason == reason
        assert math.isnan(r.max_deviation) and not r.passed and r.ok

    def test_equivalent_follows_the_deviation(self):
        rep = equiv_up_to_global_phase(DiagonalOperator.identity(1), DiagonalOperator.identity(1))
        assert rep.equivalent
        assert not dataclasses.replace(rep, max_deviation=rep.tolerance).equivalent


class TestReportFormat:
    def test_json_lines_parse(self):
        results = run_suite(filter="ieq")
        text = check_results_json(results)
        rows = [json.loads(line) for line in text.strip().splitlines()]
        assert len(rows) == len(results)
        row = rows[0]
        assert list(row.keys()) == [
            "check_id", "params", "passed", "skipped", "negative_control",
            "max_deviation", "phase_re", "phase_im", "tolerance", "anchor",
        ]

    def test_empty_selection_emits_nothing(self):
        assert run_suite(filter="zzz") == []
        assert check_results_json([]) == ""
        text = check_results_json(run_suite(filter="parity"))
        assert text.endswith("}\n") and all(json.loads(line) for line in text.splitlines())

    def test_non_finite_floats_parse(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            r = dataclasses.replace(run_check("ieq"), max_deviation=bad)
            assert json.loads(check_results_json([r]))["max_deviation"] is None

    def test_string_fields_escaped(self):
        from spinfanout.explore import scan
        from spinfanout.hamiltonians import build_hn
        from spinfanout.report import scan_result_json

        odd = 'a"b\\c'
        r = dataclasses.replace(run_check("ieq"), check_id=odd, anchor=odd)
        row = json.loads(check_results_json([r]))
        assert row["check_id"] == odd and row["anchor"] == odd
        res = scan(build_hn(2), [math.pi / 4], hamiltonian_id=odd)
        assert json.loads(scan_result_json(res))["hamiltonian_id"] == odd

    def test_table_mentions_every_check(self):
        results = run_suite(filter="kn_offset")
        table = check_results_table(results)
        assert table.count("kn_offset") == len(results)
        assert "PASS" in table

    def test_table_shows_elapsed_ms(self):
        ran = dataclasses.replace(run_check("ieq"), elapsed=0.01234)
        skipped = dataclasses.replace(ran, check_id="skipped_one", skip_reason="cap")
        header, _, ran_row, skipped_row = check_results_table([ran, skipped]).splitlines()
        assert header.split()[4] == "elapsed_ms"
        assert ran_row.split()[4] == "12.3" and skipped_row.split()[4] == "-"
