import tracemalloc

import numpy as np
import pytest

from spinfanout import circuits
from spinfanout.core import (
    CapExceededError,
    DenseOperator,
    DiagonalOperator,
    StateVector,
    equiv_up_to_global_phase,
)
from spinfanout.circuits import (
    _FUSE_QUBITS,
    Circuit,
    Step,
    _MonomialOperator,
    _summed_blocks,
    compile_circuit,
    fanout_circuit,
    from_text,
    parity_circuit,
    parity_like_circuit,
    run_circuit,
    simplified_fanout_circuit,
    to_text,
)
from spinfanout.gates import GateDef, fanout_reference, parity_reference, standard_gate
from spinfanout.hamiltonians import un, un_dagger

from corpus import CORPUS, ENTRY_KINDS, kind, named
from helpers import kernel_loop_blocks, kernel_loop_matrix, kron_oracle_product, mixed_bits


class TestCompile:
    def test_single_cnot(self):
        c = Circuit(2, (Step(standard_gate("CNOT"), (0, 1)),))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1
        expected[3, 1] = expected[1, 3] = 1
        assert np.allclose(compile_circuit(c).matrix, expected)

    def test_hadamard_pair(self):
        h = standard_gate("H")
        c = Circuit(1, (Step(h, (0,)), Step(h, (0,))))
        assert np.max(np.abs(compile_circuit(c).matrix - np.eye(2))) < 1e-12

    def test_order_first_step_acts_first(self):
        x = standard_gate("X")
        cnot = standard_gate("CNOT")
        # X on the control then CNOT: |00> ends in |11>
        c = Circuit(2, (Step(x, (0,)), Step(cnot, (0, 1))))
        out = compile_circuit(c).matrix[:, 0]
        assert out[0b11] == pytest.approx(1)

    def test_invalid_step_targets(self):
        with pytest.raises(IndexError):
            Circuit(2, (Step(standard_gate("CNOT"), (0, 2)),))
        with pytest.raises(IndexError):
            Circuit(2, (Step(standard_gate("CNOT"), (0, 0)),))
        with pytest.raises(IndexError):
            Circuit(2, (Step(standard_gate("H"), (0, 1)),))


def is_real(entry):
    gate, _ = entry
    data = getattr(gate, "matrix", getattr(gate, "entries", getattr(gate, "phases", None)))
    return data is None or not np.iscomplex(data).any()


def moved_back_runs(c):
    """The runs of ``c``'s plan that hold a step which moved back past another
    run to join them: their steps are not consecutive in ``c.steps``."""
    index = {id(step): i for i, step in enumerate(c.steps)}
    assert len(index) == len(c.steps)  # every step a distinct object
    runs = circuits._runs(c.steps)
    return [run for run in runs if np.any(np.diff([index[id(s)] for s in run[3]]) != 1)]


def block_widths(c):
    """2^16 entries per block; and for a circuit of several steps on at most 8
    qubits (at 9, 2^16 entries are 4 blocks already), each of 2^10 and 2^4
    that gives it another number of columns per block than the larger ones."""
    widths = {}
    for e in (16, 10, 4) if len(c.steps) > 1 and c.n <= 8 else (16,):
        widths.setdefault(max(1, min(1 << c.n, (1 << e) >> c.n)), e)
    return list(widths.values())


class TestCorpus:
    """Each property of the planner and the kernel, over every case of the
    corpus (``corpus.py``): ``compile_circuit``, its column blocks and
    ``run_circuit`` against the Kronecker oracle, or byte for byte against
    the kernel loop."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_plan_shows_what_the_case_pins(self, name):
        """Every entry on the qubits ``lo .. lo + m - 1``, the one layout the
        kernel handles; the real prefix is the leading entries whose data are
        real; the kinds, mixed bits and real prefix are those the case pins."""
        case = CORPUS[name]
        c, real = case.circuit, case.circuit._real_prefix
        assert all(0 <= lo and lo + g.n <= c.n for g, lo in c._plan)
        assert all(map(is_real, c._plan[:real])) and not any(map(is_real, c._plan[real:real + 1]))
        assert case.kinds is None or tuple(kind(e) for e in c._plan) == case.kinds
        assert case.mixed is None or tuple(mixed_bits(c)) == case.mixed
        assert case.real_prefix in (None, real)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_compile_matches_the_oracle(self, name):
        case = CORPUS[name]
        assert np.max(np.abs(compile_circuit(case.circuit).matrix - case.oracle)) < 1e-12

    @pytest.mark.parametrize("name, entries", [
        pytest.param(name, 1 << e, id=f"{name}-2^{e}")
        for name, case in CORPUS.items() for e in block_widths(case.circuit)
    ])
    def test_blocks_and_compile_equal_the_kernel_loop(self, name, entries, monkeypatch):
        """``_summed_blocks`` on all n bits starts each block from its slice of
        the identity, and ``compile_circuit`` from its 2^k summed columns; each
        runs its real prefix on float64 blocks, and must equal the complex
        kernel loop byte for byte, signed zeros included, at every width."""
        c = CORPUS[name].circuit
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", entries)
        every = (1 << c.n) - 1
        if c._support[0] != every:  # else these are the blocks the compile runs
            got = [(int(inputs[0, 0]), b.tobytes()) for inputs, b in _summed_blocks(c, every)]
            assert got == [(start, b.tobytes()) for start, b in kernel_loop_blocks(c, every)]
        assert compile_circuit(c).matrix.tobytes() == kernel_loop_matrix(c).tobytes()

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_run_circuit_matches_the_oracle(self, name):
        """On every basis input, and on one random state."""
        case = CORPUS[name]
        c = case.circuit
        for x in range(1 << c.n):
            out = run_circuit(c, StateVector.basis(c.n, x)).amplitudes
            assert np.max(np.abs(case.oracle[:, x] - out)) < 1e-12
        rng = np.random.default_rng(c.n)
        amps = rng.normal(size=1 << c.n) + 1j * rng.normal(size=1 << c.n)
        amps /= np.linalg.norm(amps)
        out = run_circuit(c, StateVector(c.n, amps)).amplitudes
        assert np.max(np.abs(out - case.oracle @ amps)) < 1e-12

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_oracle_is_zero_outside_the_support(self, name):
        """Inputs that differ in a bit outside ``mixed`` never reach one row."""
        case = CORPUS[name]
        mixed, owner = case.circuit._support
        rows, inputs = np.nonzero(case.oracle)
        assert np.array_equal(inputs & ~mixed, owner[rows] & ~mixed)

    @pytest.mark.parametrize("name", [name for name, case in CORPUS.items() if case.writable])
    def test_text_round_trip(self, name):
        c = CORPUS[name].circuit
        text = to_text(c)
        parsed = from_text(text, n=c.n)
        assert to_text(parsed) == text  # the same names and targets, line by line
        assert np.array_equal(compile_circuit(parsed).matrix, compile_circuit(c).matrix)

    def test_cases_cover_every_kind_first_and_last(self):
        """Also last after a dense entry that mixes every input bit."""
        kinds = [(name, case.kinds) for name, case in CORPUS.items() if case.kinds]
        assert {k[0] for _, k in kinds} >= set(ENTRY_KINDS) <= {k[-1] for _, k in kinds}
        assert {k[-1] for name, k in kinds if name.endswith("on all")} >= set(ENTRY_KINDS)

    def test_seeded_circuits_cover_the_fusion_cases(self):
        """The seeded circuits of both families reach every kind of fused run."""
        seeded = named("seeded ")
        steps = [(c.n, s) for c in seeded for s in c.steps]
        plan = [(gate, lo) for c in seeded for gate, lo in c._plan]
        assert max(c.n for c in seeded) == 9
        assert max(len(c.steps) for c in seeded) >= 18
        # full-width diagonals, on more qubits than a dense window holds
        assert any(s.gate.unitary.n == n > _FUSE_QUBITS for n, s in steps)
        assert any(list(s.targets) != sorted(s.targets) for _, s in steps)
        assert any(max(s.targets) - min(s.targets) >= len(s.targets) for _, s in steps)
        dense_widths = {g.n for g, _ in plan if isinstance(g, DenseOperator)}
        assert set(range(1, _FUSE_QUBITS + 1)) <= dense_widths
        # real dense windows of every width: the kernel's real products
        real_widths = {
            g.n for g, _ in plan if isinstance(g, DenseOperator) and not g.matrix.imag.any()
        }
        assert set(range(1, _FUSE_QUBITS + 1)) <= real_widths
        # past the width: a dense step too wide to fuse, placed between two
        # gathers over its span, and wide diagonal runs
        triples = [t for c in seeded for t in zip(c._plan, c._plan[1:], c._plan[2:])]
        assert any(
            isinstance(a, _MonomialOperator) and a.n > _FUSE_QUBITS
            and isinstance(b, DenseOperator) and isinstance(z, _MonomialOperator)
            and lo_a == lo_b == lo_z
            for (a, lo_a), (b, lo_b), (z, lo_z) in triples
        )
        assert any(isinstance(g, DiagonalOperator) and g.n > _FUSE_QUBITS for g, _ in plan)
        # monomial runs, narrow and wide, with and without phases
        monomial = [g for g, _ in plan if isinstance(g, _MonomialOperator)]
        assert {g.n <= _FUSE_QUBITS for g in monomial} == {True, False}
        assert {g.phases is None for g in monomial} == {True, False}
        assert len(plan) < len(steps)
        # steps fused into a run they moved back past, in dense and in
        # monomial runs: runs whose steps are not consecutive in the circuit
        moved = [run for c in seeded for run in moved_back_runs(c)]
        assert {all_monomial for _, _, all_monomial, _ in moved} == {True, False}

    def test_seeded_circuits_reach_every_width(self):
        gaps = {c.n - len(mixed_bits(c)) for c in named("seeded ")}
        # every input bit mixed, all but one, all but four or more, and none
        assert {0, 1} <= gaps and max(gaps) >= 4
        assert any(not mixed_bits(c) for c in named("seeded "))


class TestBlockKernel:
    """compile_circuit and run_circuit share one kernel, ``_apply_to_block``."""

    @pytest.mark.parametrize("name", [name for name in CORPUS if name.startswith("lone wide")])
    def test_lone_dense_step_wider_than_the_window(self, name):
        """A lone dense step whose span is wider than ``_FUSE_QUBITS`` plans as a
        gather of its targets to the bottom of the span, the gate, and the
        gather back (their kinds pinned in the corpus)."""
        c = CORPUS[name].circuit
        [step] = c.steps
        lo, span = min(step.targets), max(step.targets) - min(step.targets) + 1
        assert span > _FUSE_QUBITS
        [(to_bottom, lo_a), (g, lo_b), (back, lo_c)] = c._plan
        assert g is step.gate.unitary and lo_a == lo_b == lo_c == lo
        assert to_bottom.n == back.n == span

    def test_compile_allocates_one_full_size_matrix(self):
        c = parity_like_circuit(10)
        c._plan  # built once per circuit, before the traced compile
        tracemalloc.start()
        try:
            u = compile_circuit(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 16 MiB result and two blocks; a full-size scratch array would be 2x
        assert peak < 1.25 * u.matrix.nbytes

    def test_fanout_compile_holds_the_result_and_one_block_pair(self):
        """At k = n the result is not zeroed and no flat index is built: the
        9-qubit fanout peaks at its 4 MiB result, the 2 MiB block pair, and
        the 128 KiB buffer numpy's multiply takes for a broadcast diagonal
        and a few small arrays; a scatter's flat index alone is 512 KiB."""
        c = fanout_circuit(8)
        c._plan, c._support  # built once per circuit, before the traced compile
        pair = 2 * circuits._BLOCK_ENTRIES * 16
        tracemalloc.start()
        try:
            result = compile_circuit(c).matrix.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < result + pair + (192 << 10)

    def test_fanout_blocks_are_written_into_their_column_slices(self, monkeypatch):
        """The 9-qubit fanout's plan ends in a dense window at lo = 0: in each
        block, that last product writes into the block's column slice of the
        result, whose first entry is ``(0, q0)``."""
        c = fanout_circuit(8)
        c._plan  # fused before the spy, by products of its own
        outs, matmul = [], circuits._matmul

        def spy(mat, operand, out):
            outs.append(out)
            matmul(mat, operand, out)

        monkeypatch.setattr(circuits, "_matmul", spy)
        u = compile_circuit(c).matrix
        assert kind(c._plan[-1]) == "real dense at lo = 0"
        dense = sum(isinstance(g, DenseOperator) for g, _ in c._plan)
        cols = circuits._BLOCK_ENTRIES >> c.n
        lasts = outs[dense - 1::dense]
        assert len(outs) == dense * len(lasts) and len(lasts) == (1 << c.n) // cols
        assert all(np.shares_memory(out, u) for out in lasts)
        assert [out.ctypes.data for out in lasts] == [
            u[:, q0:].ctypes.data for q0 in range(0, 1 << c.n, cols)
        ]

    def test_run_circuit_rejects_other_qubit_count(self):
        c = Circuit(2, (Step(standard_gate("H"), (0,)),))
        with pytest.raises(ValueError):
            run_circuit(c, StateVector.basis(3, 0))


class TestSummedColumns:
    """A plan whose dense entries mix k < n input bits compiles on 2^k summed
    columns: ``Circuit._support`` names the mixed bits and, for each row, the
    input that the plan's gathers bring there."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_parity_circuits_mix_two_bits_and_parity_like_one(self, n):
        # the helper wire n-1, and the accumulator n that the CNOT couples to
        # it; at n <= 4 the planner fuses the evolutions and the helper wire's
        # gates into one dense window, whose nonzero entries mix only that wire
        assert mixed_bits(parity_circuit(n)) == [n - 1, n]
        assert mixed_bits(parity_like_circuit(n)) == [n - 1]

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_fanout_circuits_mix_every_bit(self, n):
        assert mixed_bits(fanout_circuit(n)) == list(range(n + 1))

    def test_run_circuit_leaves_the_support_unbuilt(self):
        c = parity_circuit(8)
        run_circuit(c, StateVector.basis(c.n, 5))
        assert "_plan" in c.__dict__ and "_support" not in c.__dict__


class TestMonomialRuns:
    """Runs of basis-permuting steps fuse into one row gather and one phase
    scale."""

    def test_pure_permutation_run(self):
        # every phase is 1: one gather over qubits 0..5 and no scale
        c = from_text("X 0\nCNOT 5 1\nCNOT 0 4\nX 3\nCNOT 2 0\nCNOT 1 5\n", n=6)
        [(gate, lo)] = c._plan
        assert isinstance(gate, _MonomialOperator) and gate.phases is None
        assert (lo, gate.n) == (0, 6)
        total = kron_oracle_product(c)
        assert np.array_equal(compile_circuit(c).matrix, total)
        for x in range(1 << c.n):
            assert np.array_equal(run_circuit(c, StateVector.basis(c.n, x)).amplitudes, total[:, x])

    def test_phases_composing_to_one_are_dropped(self):
        # S and S-dagger scale the flipped qubit by i and -i, whose product is
        # exactly 1: one gather and no scale
        c = from_text("X 0\nS 0\nSDAG 0\n", n=2)
        [(gate, lo)] = c._plan
        assert isinstance(gate, _MonomialOperator) and gate.phases is None
        assert np.array_equal(compile_circuit(c).matrix, kron_oracle_product(c))

    @pytest.mark.parametrize("text", ["CNOT 0 8\n", "CNOT 8 0\n"])
    def test_lone_cnot_across_nine_qubits(self, text):
        c = from_text(text, n=9)
        [(gate, lo)] = c._plan
        assert isinstance(gate, _MonomialOperator) and (lo, gate.n) == (0, 9)
        total = kron_oracle_product(c)
        assert np.array_equal(compile_circuit(c).matrix, total)
        for x in (0, 1, 256, 257, 300, 511):
            assert np.array_equal(run_circuit(c, StateVector.basis(9, x)).amplitudes, total[:, x])

    def test_rows_in_place_fuse_to_a_diagonal(self):
        # X CZ X on qubit 0 moves no row: the run is the diagonal of CZ with
        # the control flipped
        c = from_text("X 0\nCZ 0 1\nX 0\n", n=2)
        [(gate, lo)] = c._plan
        assert isinstance(gate, DiagonalOperator) and (lo, gate.n) == (0, 2)
        assert np.array_equal(gate.entries, [1, 1, -1, 1])

    def test_monomial_is_read_from_the_matrix(self):
        # a gate named H with the matrix of Y joins the run of X and CZ; a
        # gate named X whose matrix has two nonzeros in one row (and a row
        # with none) does not
        y = GateDef("H", DenseOperator(1, np.array([[0, -1j], [1j, 0]])))
        lopsided = GateDef("X", DenseOperator(1, np.array([[1, 1], [0, 0]])))
        c = Circuit(6, (
            Step(standard_gate("X"), (0,)), Step(y, (5,)), Step(standard_gate("CZ"), (5, 0)),
            Step(lopsided, (3,)),
        ))
        assert [(type(g), lo, g.n) for g, lo in c._plan] == [
            (_MonomialOperator, 0, 6), (DenseOperator, 3, 1)
        ]
        total = kron_oracle_product(c)
        assert np.max(np.abs(compile_circuit(c).matrix - total)) < 1e-12

    def test_paper_circuits_keep_their_plans(self):
        # H breaks every run of the paper circuits before a CNOT joins one;
        # in the fanouts the closing Hadamard on the accumulator, qubit 8,
        # moves back past the evolution on qubits 0..7 into the CNOT's window,
        # and runs of H, S and S-dagger fuse into one pass per window, so the
        # 27 steps of the fanout take 8 passes
        assert len(fanout_circuit(8).steps) == 27
        for c, passes in (
            (fanout_circuit(8), 8), (simplified_fanout_circuit(8), 8), (parity_circuit(8), 5)
        ):
            assert len(c._plan) == passes
            assert c._plan is c._plan
            assert not any(isinstance(g, _MonomialOperator) for g, _ in c._plan)

    def test_step_moves_back_only_past_disjoint_runs(self):
        """``H 0`` moves back past ``CZ 1 5``, which it commutes with, into the
        first ``H 0``; past ``CZ 0 5``, which shares its qubit, it may not."""
        moved = from_text("H 0\nCZ 1 5\nH 0\n", n=6)
        kept = from_text("H 0\nCZ 0 5\nH 0\n", n=6)
        assert [(type(g), lo, g.n) for g, lo in moved._plan] == [
            (DenseOperator, 0, 1), (DiagonalOperator, 1, 5)
        ]
        assert [(type(g), lo, g.n) for g, lo in kept._plan] == [
            (DenseOperator, 0, 1), (DiagonalOperator, 0, 6), (DenseOperator, 0, 1)
        ]
        for c in (moved, kept):
            assert np.max(np.abs(compile_circuit(c).matrix - kron_oracle_product(c))) < 1e-12

    def test_monomial_step_takes_a_monomial_run_first(self):
        """``X 6`` reaches both the ``H 9`` window, within the fusion width, and
        the later run of ``UN 6``; it joins the monomial run, not the earliest,
        and leaves the window one real qubit wide."""
        c = from_text("H 9\nUN 6\nX 6\n", n=10)
        assert [(type(g), lo, g.n) for g, lo in c._plan] == [
            (DenseOperator, 9, 1), (_MonomialOperator, 0, 7)
        ]
        assert not c._plan[0][0].matrix.imag.any()
        assert np.max(np.abs(compile_circuit(c).matrix - kron_oracle_product(c))) < 1e-12

    def test_fused_sources_are_permutations(self):
        """The kernel gathers with ``mode="wrap"``, which checks no index: every
        fused source array must be a permutation of ``0..2^m-1``."""
        seeded = named("seeded ") + [from_text("CNOT 0 8\n", n=9)]
        fused = [g for c in seeded for g, _ in c._plan if isinstance(g, _MonomialOperator)]
        assert len(fused) >= 20
        for gate in fused:
            assert np.array_equal(np.sort(gate.source), np.arange(1 << gate.n))
            assert gate.phases is None or np.max(np.abs(np.abs(gate.phases) - 1)) < 1e-12


class TestParityCircuit:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_reference(self, n):
        rep = equiv_up_to_global_phase(
            compile_circuit(parity_circuit(n)), parity_reference(n + 1), tol=1e-9
        )
        assert rep.equivalent

    def test_wrong_variant_fails(self):
        rep = equiv_up_to_global_phase(
            compile_circuit(parity_circuit(4, swapped=False)), parity_reference(5)
        )
        assert not rep.equivalent
        assert rep.max_deviation > 0.5

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            parity_circuit(3)

    @pytest.mark.parametrize("n", [2, 6])
    def test_mid_circuit_state(self, n):
        # after the helper-wire Hadamard and the evolution, the state is
        # (1/sqrt2)|x>(i^p|0> + i^(1-p)(-1)^r|1>) x |b>, up to global phase
        circ = parity_circuit(n)
        prefix = Circuit(circ.n, circ.steps[:2])
        for x_in in range(1 << (n + 1)):
            state = run_circuit(prefix, StateVector.basis(n + 1, x_in))
            x = x_in & ((1 << (n - 1)) - 1)
            r = (x_in >> (n - 1)) & 1
            b = (x_in >> n) & 1
            p = x.bit_count() & 1
            expected = np.zeros(1 << (n + 1), dtype=complex)
            base = x | (b << n)
            expected[base] = (1j ** p) / np.sqrt(2)
            expected[base | (1 << (n - 1))] = (1j ** (1 - p)) * (-1) ** r / np.sqrt(2)
            phase = state.amplitudes[base] / expected[base]
            assert abs(abs(phase) - 1) < 1e-12
            assert np.max(np.abs(state.amplitudes - phase * expected)) < 1e-12


class TestParityLikeCircuit:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_contract(self, n):
        mat = compile_circuit(parity_like_circuit(n)).matrix
        for x in range(1 << (n - 1)):
            col = mat[:, x]
            p = x.bit_count() & 1
            target = x | (p << (n - 1))
            assert abs(abs(col[target]) - 1) < 1e-9
            rest = np.delete(np.abs(col), target)
            assert rest.max() < 1e-9

    def test_n2_basis_cases(self):
        mat = compile_circuit(parity_like_circuit(2)).matrix
        assert abs(abs(mat[0b00, 0b00]) - 1) < 1e-12
        assert abs(abs(mat[0b11, 0b01]) - 1) < 1e-12

    def test_n6_phase_pattern(self):
        # frozen from brute-force tabulation: the trailing Sdag cancels the
        # conditional i^p factor, so all 32 outputs carry one common phase
        mat = compile_circuit(parity_like_circuit(6)).matrix
        phases = []
        for x in range(32):
            p = x.bit_count() & 1
            phases.append(mat[x | (p << 5), x])
        phases = np.array(phases)
        assert np.max(np.abs(phases - phases[0])) < 1e-12
        assert abs(phases[0] - (-1j)) < 1e-9  # the single global phase for n=6


class TestFanoutCircuit:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_reference(self, n):
        rep = equiv_up_to_global_phase(
            compile_circuit(fanout_circuit(n)), fanout_reference(n + 1), tol=1e-9
        )
        assert rep.equivalent

    def test_control_zero_noop(self):
        mat = compile_circuit(fanout_circuit(2)).matrix
        ref = fanout_reference(3)
        phase = equiv_up_to_global_phase(compile_circuit(fanout_circuit(2)), ref).phase
        for x in range(4):  # control (qubit 2) clear
            col = mat[:, x] / phase
            assert abs(col[x] - 1) < 1e-9

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            fanout_circuit(5)


class TestSimplify:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_simplified_fanout_steps(self, n):
        r = n - 1
        evo, evo_inv = ("UNDAG", "UN") if n % 4 == 0 else ("UN", "UNDAG")
        layer = [("H", (q,)) for q in range(n + 1) if q != r]
        middle = [
            (evo, tuple(range(n))), ("SDAG", (r,)), ("H", (r,)), ("CNOT", (r, n)),
            ("H", (r,)), ("S", (r,)), (evo_inv, tuple(range(n))),
        ]
        simplified = simplified_fanout_circuit(n)
        assert simplified.n == n + 1
        assert [(s.gate.name, s.targets) for s in simplified.steps] == layer + middle + layer
        full = [(s.gate.name, s.targets) for s in fanout_circuit(n).steps]
        # the two H pairs on wire r where the Hadamard layers meet the parity block
        dropped = (r, n + 1, n + 9, 2 * n + 9)
        assert all(full[i] == ("H", (r,)) for i in dropped)
        assert [st for i, st in enumerate(full) if i not in dropped] == layer + middle + layer

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_simplified_fanout(self, n):
        simplified = simplified_fanout_circuit(n)
        assert len(simplified.steps) < len(fanout_circuit(n).steps)
        rep = equiv_up_to_global_phase(
            compile_circuit(simplified), fanout_reference(n + 1), tol=1e-9
        )
        assert rep.equivalent


class TestTextFormat:
    def test_seeded_text_round_trips(self):
        # the seeded 12-qubit circuit of the CI compile step
        text = ("H 6\nUN 5\nCNOT 0 2\nS 2\nX 6\nCZ 9 6\nSDAG 3\nH 1\nUNDAG 3\nZ 3\n"
                "CNOT 6 7\nUN 9\nH 9\nS 5\n")
        assert to_text(from_text(text, n=12)) == text

    @pytest.mark.parametrize("gate, line", [
        # from_text rejects the name
        (GateDef("G", standard_gate("H").unitary), "G 1"),
        # from_text reads back a Hadamard
        (GateDef("H", DenseOperator(1, np.array([[0, -1j], [1j, 0]]))), "H 1"),
        # from_text reads back a Z
        (GateDef("Z", standard_gate("S").unitary), "Z 1"),
    ])
    def test_gate_that_does_not_read_back_is_not_written(self, gate, line):
        c = Circuit(2, (Step(standard_gate("X"), (0,)), Step(gate, (1,))))
        with pytest.raises(ValueError, match=f"^step 1: '{line}' would not read back as its gate$"):
            to_text(c)

    @pytest.mark.parametrize("name, evolution", [("UN", un_dagger), ("UNDAG", un)])
    def test_evolution_that_does_not_read_back_is_not_written(self, name, evolution):
        c = Circuit(3, (Step(GateDef(name, evolution(3)), (0, 1, 2)),))
        message = f"^step 0: '{name} 3' would not read back as its gate$"
        with pytest.raises(ValueError, match=message):
            to_text(c)

    @pytest.mark.parametrize("gate", [
        GateDef("Z", DenseOperator(1, np.diag([1, -1]))),  # the matrix of Z, held dense
        GateDef("sdg", standard_gate("SDAG").unitary),  # a name from_text reads as SDAG
    ])
    def test_gate_that_reads_back_as_its_matrix_is_written(self, gate):
        c = Circuit(1, (Step(gate, (0,)),))
        parsed = from_text(to_text(c))
        assert np.array_equal(compile_circuit(parsed).matrix, compile_circuit(c).matrix)

    def test_format_lines(self):
        text = to_text(parity_circuit(2))
        lines = text.strip().splitlines()
        assert lines[0] == "H 1"
        assert "UN 2" in lines or "UNDAG 2" in lines
        assert any(line.startswith("CNOT 1 2") for line in lines)

    def test_comments_and_blanks_ignored(self):
        c = from_text("# a comment\n\nH 0\nCNOT 0 1  # inline\n")
        assert len(c.steps) == 2 and c.n == 2

    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="^line 2: unknown gate 'FOO'$"):
            from_text("H 0\nFOO 1\n")

    def test_bad_index(self):
        with pytest.raises(ValueError):
            from_text("H x\n")

    @pytest.mark.parametrize("name", ["UN", "UNDAG"])
    def test_evolution_over_state_cap_refused_before_parsing(self, name):
        # the cap is checked before the k targets are built: a ten-digit k
        # would not fit in memory
        with pytest.raises(CapExceededError):
            from_text(f"H 0\n{name} 10000000000\n")

    @pytest.mark.parametrize(
        "text", ["H 5\n", "H -1\n", "CNOT 1 1\n", "CNOT 0\n", "H 0 1\n", "UN 4\n"]
    )
    def test_malformed_line_names_line(self, text):
        with pytest.raises(ValueError, match="line 2"):
            from_text("H 0\n" + text, n=3)

    @pytest.mark.parametrize("name", ["UN", "UNDAG"])
    @pytest.mark.parametrize("args", ["0", "2 3", ""])
    def test_evolution_takes_one_positive_size(self, name, args):
        with pytest.raises(ValueError, match=f"^line 2: {name} takes one positive size$"):
            from_text(f"H 0\n{name} {args}\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_empty_text_needs_a_qubit_count(self, text):
        with pytest.raises(ValueError, match="^empty circuit with no qubit count given$"):
            from_text(text)
        assert from_text(text, n=2) == Circuit(2, ())

    @pytest.mark.parametrize("targets", [(1, 2), (1, 0)])
    def test_evolution_off_the_first_qubits_is_not_written(self, targets):
        c = Circuit(3, (Step(GateDef("UN", un(2)), targets),))
        with pytest.raises(ValueError, match="^evolution steps must act on qubits 0..k-1$"):
            to_text(c)

    @pytest.mark.parametrize("text", ["", "H 0\n"])
    @pytest.mark.parametrize("n", [0, -2])
    def test_qubit_count_below_one(self, text, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            from_text(text, n=n)
