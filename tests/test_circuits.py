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
    Circuit,
    Step,
    _MonomialOperator,
    _apply_to_block,
    _column_blocks,
    compile_circuit,
    fanout_circuit,
    from_text,
    parity_circuit,
    parity_like_circuit,
    run_circuit,
    simplified_fanout_circuit,
    to_text,
)
from spinfanout.gates import (
    _STANDARD,
    GateDef,
    fanout_reference,
    parity_reference,
    standard_gate,
)
from spinfanout.hamiltonians import un, un_dagger


class TestCompile:
    def test_empty(self):
        assert np.allclose(compile_circuit(Circuit(2, ())).matrix, np.eye(4))

    def test_single_cnot(self):
        c = Circuit(2, (Step(standard_gate("CNOT"), (0, 1)),))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1
        expected[3, 1] = expected[1, 3] = 1
        assert np.allclose(compile_circuit(c).matrix, expected)

    def test_global_phase_step(self):
        # a diagonal gate on no qubits multiplies every column by its one entry
        phase = GateDef("P", DiagonalOperator(0, np.array([1j])))
        c = Circuit(2, (Step(standard_gate("H"), (1,)), Step(phase, ())))
        expected = 1j * np.kron(standard_gate("H").unitary.matrix, np.eye(2))
        assert np.max(np.abs(compile_circuit(c).matrix - expected)) < 1e-12

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
            Circuit(2, (Step(standard_gate("H"), (0, 1)),))


def kernel_loop_blocks(c):
    """``(start, block)`` for each column block of ``c``'s unitary: the identity
    block, then ``_apply_to_block`` for each entry of ``c._plan``."""
    dim = 1 << c.n
    cols = max(1, min(dim, circuits._BLOCK_ENTRIES >> c.n))
    for start in range(0, dim, cols):
        block = np.zeros((dim, cols), dtype=complex)
        np.fill_diagonal(block[start:], 1)
        work = np.empty_like(block)
        for gate, lo in c._plan:
            block, work = _apply_to_block(block, gate, lo, c.n, work)
        yield start, block


def kind(entry):
    gate, lo = entry
    if isinstance(gate, DenseOperator):
        real = "real" if not gate.matrix.imag.any() else "complex"
        return f"{real} dense at lo {'> 0' if lo else '= 0'}"
    if isinstance(gate, _MonomialOperator):
        return "monomial" if gate.phases is None else "monomial with phases"
    return "diagonal"


# one text per kind of plan entry, on 7 qubits, and a step on another qubit
# that fuses with none of it
ENTRY_KINDS = {
    "diagonal": ("CZ 4 5\nS 5\n", "H 0\n"),
    "monomial with phases": ("X 4\nS 5\n", "H 0\n"),
    "monomial": ("CNOT 4 5\n", "H 0\n"),
    "real dense at lo = 0": ("H 0\nH 1\n", "H 6\n"),
    "complex dense at lo = 0": ("H 0\nS 1\nH 1\n", "H 6\n"),
    "real dense at lo > 0": ("H 4\nCNOT 4 5\n", "H 0\n"),
    "complex dense at lo > 0": ("H 1\nS 2\nH 2\n", "H 6\n"),
}


def entry_kind_circuits():
    """Each kind of plan entry alone, first and last; a wide dense gate placed
    between two gathers, alone, first and last; a global phase and no step."""
    h = standard_gate("H").unitary.matrix
    wide = Step(GateDef("G", DenseOperator(2, np.kron(h, h))), (5, 0))
    phase = Step(GateDef("P", DiagonalOperator(0, np.array([1j]))), ())
    cases = {"wide": (wide,), "global phase": (phase,), "empty": ()}
    for name, (text, other) in ENTRY_KINDS.items():
        steps, other = from_text(text, n=7).steps, from_text(other, n=7).steps
        cases[name] = steps
        cases[f"{name} first"] = steps + other
        cases[f"{name} last"] = other + steps
    h2 = from_text("H 2\n", n=7).steps
    cases["gather first"] = (wide,) + h2
    cases["gather last"] = h2 + (wide,)
    return {name: Circuit(7, steps) for name, steps in cases.items()}


class TestColumnBlocks:
    """``compile_circuit`` and ``_column_blocks`` start each block from the first
    plan entry's image and write a diagonal or monomial last entry straight
    into the result; both must equal the entry-by-entry kernel loop byte for
    byte, signed zeros included."""

    def test_cases_cover_every_kind_first_and_last(self):
        cases = entry_kind_circuits()
        kinds = set(ENTRY_KINDS)
        assert {kind(c._plan[0]) for name, c in cases.items() if name.endswith("first")} >= kinds
        assert {kind(c._plan[-1]) for name, c in cases.items() if name.endswith("last")} >= kinds
        for name in ENTRY_KINDS:
            assert [kind(e) for e in cases[name]._plan] == [name]
        for plan in (cases["wide"]._plan, cases["gather first"]._plan[:3], cases["gather last"]._plan[1:]):
            assert [kind(e) for e in plan] == ["monomial", "real dense at lo = 0", "monomial"]
        assert [kind(e) for e in cases["global phase"]._plan] == ["diagonal"]
        assert cases["empty"]._plan == ()

    @pytest.mark.parametrize("entries", [1 << 16, 1 << 4], ids=["default", "2^4"])
    @pytest.mark.parametrize("name", list(entry_kind_circuits()))
    def test_blocks_and_compile_equal_the_kernel_loop(self, name, entries, monkeypatch):
        c = entry_kind_circuits()[name]
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", entries)
        expected = list(kernel_loop_blocks(c))
        got = [(start, block.tobytes()) for start, block in _column_blocks(c)]
        assert got == [(start, block.tobytes()) for start, block in expected]
        matrix = np.empty((1 << c.n, 1 << c.n), dtype=complex)
        for start, block in expected:
            matrix[:, start:start + block.shape[1]] = block
        assert compile_circuit(c).matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("entries", [1 << 16, 1 << 4], ids=["default", "2^4"])
    @pytest.mark.parametrize(
        "build", [parity_circuit, parity_like_circuit, fanout_circuit, simplified_fanout_circuit]
    )
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_paper_circuits_equal_the_kernel_loop(self, n, build, entries, monkeypatch):
        c = build(n)
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", entries)
        matrix = np.hstack([block for _, block in kernel_loop_blocks(c)])
        assert compile_circuit(c).matrix.tobytes() == matrix.tobytes()


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

    def test_fused_plan_has_under_half_the_passes(self):
        # runs of H, S and S-dagger fuse into one pass per window of <= 4 qubits
        c = fanout_circuit(8)
        assert len(c.steps) == 27
        assert len(c._plan) < len(c.steps) / 2
        assert c._plan is c._plan


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
    @pytest.mark.parametrize("n", [2, 4])
    def test_round_trip(self, n):
        c = parity_circuit(n)
        text = to_text(c)
        parsed = from_text(text)
        assert parsed.n == c.n
        rep = equiv_up_to_global_phase(compile_circuit(parsed), compile_circuit(c), 1e-12)
        assert rep.equivalent and abs(rep.phase - 1) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        names = sorted(_STANDARD) + ["UN", "UNDAG"]
        steps = []
        for _ in range(12):
            name = names[rng.integers(len(names))]
            if name in ("UN", "UNDAG"):
                k = int(rng.integers(1, n + 1))
                evo = un(k) if name == "UN" else un_dagger(k)
                steps.append(Step(GateDef(name, evo), tuple(range(k))))
            else:
                gate = standard_gate(name)
                targets = rng.choice(n, size=gate.unitary.n, replace=False)
                steps.append(Step(gate, tuple(int(t) for t in targets)))
        c = Circuit(n, tuple(steps))
        parsed = from_text(to_text(c), n=n)
        assert [(s.gate.name, s.targets) for s in parsed.steps] == [
            (s.gate.name, s.targets) for s in c.steps
        ]
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

    @pytest.mark.parametrize("text", ["", "H 0\n"])
    @pytest.mark.parametrize("n", [0, -2])
    def test_qubit_count_below_one(self, text, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            from_text(text, n=n)
