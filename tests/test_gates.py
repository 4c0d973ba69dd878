import numpy as np
import pytest

from spinfanout.circuits import compile_circuit, from_text
from spinfanout.core import DenseOperator, DiagonalOperator, equiv_up_to_global_phase
from spinfanout.gates import (
    _fanout_targets,
    _parity_targets,
    fanout_reference,
    ieq_reference,
    parity_reference,
    standard_gate,
)
from spinfanout.hamiltonians import un
from spinfanout.verify import run_check


def is_permutation_matrix(mat):
    if not np.all((np.abs(mat) < 1e-14) | (np.abs(mat - 1) < 1e-14)):
        return False
    ones = np.abs(mat - 1) < 1e-14
    return bool(np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1))


class TestStandardGates:
    def test_s_sdag(self):
        prod = standard_gate("S").unitary.entries * standard_gate("Sdag").unitary.entries
        assert np.allclose(prod, 1.0)

    def test_hadamard_on_zero(self):
        h = standard_gate("H").unitary.matrix
        assert np.allclose(h @ [1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(h @ [0, 1], [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_cz(self):
        assert np.allclose(standard_gate("CZ").unitary.entries, [1, 1, 1, -1])

    def test_all_unitary(self):
        for name in ("H", "X", "Z", "S", "SDAG", "CNOT", "CZ"):
            u = standard_gate(name).unitary.to_dense().matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-12

    def test_unknown(self):
        with pytest.raises(KeyError):
            standard_gate("T")

    @pytest.mark.parametrize("name", ["SDG", "sdg", "S†"])
    def test_sdag_aliases(self, name):
        assert standard_gate(name) is standard_gate("SDAG")

    @pytest.mark.parametrize("reference, message", [
        (fanout_reference, "fanout needs at least 2 qubits"),
        (parity_reference, "parity needs at least 2 qubits"),
    ])
    def test_reference_on_one_qubit_refused(self, reference, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reference(1)


class TestFanoutReference:
    def test_two_qubits_is_cnot(self):
        # control defaults to the last qubit: CNOT with control 1, target 0
        f = fanout_reference(2)
        assert np.array_equal(f.matrix, np.eye(4)[[0, 1, 3, 2]])

    def test_control_zero_is_noop(self):
        f = fanout_reference(3).matrix
        for x in range(4):  # inputs with control (qubit 2) clear
            col = f[:, x]
            assert col[x] == 1 and np.sum(np.abs(col)) == 1

    def test_copy_branch(self):
        # |b=1, targets 00> -> |b=1, targets 11>
        f = fanout_reference(3).matrix
        src = 0b100
        assert f[0b111, src] == 1

    @pytest.mark.parametrize("m", range(2, 8))
    def test_permutation(self, m):
        assert is_permutation_matrix(fanout_reference(m).matrix)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_matches_loop_reference(self, m):
        dim = 1 << m
        control = m - 1
        mask = (dim - 1) ^ (1 << control)
        loop = np.zeros((dim, dim), dtype=complex)
        for x in range(dim):
            loop[x ^ (mask if (x >> control) & 1 else 0), x] = 1
        assert np.array_equal(fanout_reference(m).matrix, loop)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_index_map_is_the_row_of_each_columns_1(self, m):
        assert np.array_equal(_fanout_targets(m), np.argmax(fanout_reference(m).matrix, axis=0))


class TestParityReference:
    def test_two_qubits_is_cnot(self):
        p = parity_reference(2)
        assert np.array_equal(p.matrix, standard_gate("CNOT").unitary.matrix)

    def test_even_parity_fixed(self):
        p = parity_reference(4).matrix
        src = 0b0011  # two ones among the sources, accumulator clear
        assert p[src, src] == 1

    def test_odd_parity_flips_accumulator(self):
        p = parity_reference(4).matrix
        src = 0b1001  # one source bit set, accumulator set
        assert p[0b0001, src] == 1

    @pytest.mark.parametrize("m", range(2, 8))
    def test_permutation(self, m):
        assert is_permutation_matrix(parity_reference(m).matrix)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_matches_loop_reference(self, m):
        dim = 1 << m
        acc = m - 1
        loop = np.zeros((dim, dim), dtype=complex)
        for x in range(dim):
            p = (x & ~(1 << acc)).bit_count() & 1
            loop[x ^ (p << acc), x] = 1
        assert np.array_equal(parity_reference(m).matrix, loop)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_index_map_is_the_row_of_each_columns_1(self, m):
        targets = _parity_targets(m)
        assert np.array_equal(targets, np.argmax(parity_reference(m).matrix, axis=0))
        assert np.array_equal(targets[targets], np.arange(1 << m))  # an involution


class TestIeq:
    def test_entries(self):
        e = ieq_reference().entries
        assert e[0] == -1 and e[7] == -1
        assert np.all(e[1:7] == 1)

    def test_relative_sign(self):
        e = ieq_reference().entries
        assert e[0b010] / e[0] == -1

    def test_involution(self):
        e = ieq_reference().entries
        assert np.allclose(e * e, 1.0)

    def test_matches_three_qubit_evolution(self):
        rep = equiv_up_to_global_phase(ieq_reference(), un(3))
        assert rep.equivalent


class TestCzFromIeq:
    def test_restriction_is_cz(self):
        # the third qubit fixed to |1>: entries 4..7 of the equality gate
        restriction = DiagonalOperator(2, ieq_reference().entries[4:])
        rep = equiv_up_to_global_phase(restriction, standard_gate("CZ").unitary, tol=1e-12)
        assert rep.equivalent and rep.max_deviation < 1e-12

    def test_hadamard_conjugation_gives_cnot(self):
        result = run_check("cz_from_ieq")
        assert result.passed and result.max_deviation < 1e-12
        conj = compile_circuit(from_text("H 1\nCZ 0 1\nH 1\n"))
        rep = equiv_up_to_global_phase(conj, standard_gate("CNOT").unitary, tol=1e-12)
        assert rep.equivalent and abs(rep.phase - 1) < 1e-12

    def test_complementary_block(self):
        # fixing the third qubit to |0> leaves a sign flip on |00> only
        assert np.allclose(ieq_reference().entries[:4], [-1, 1, 1, 1])


class TestFig3Conjugation:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_hadamard_sandwich(self, m):
        h = standard_gate("H").unitary.matrix
        layer = np.ones((1, 1))
        for _ in range(m):
            layer = np.kron(layer, h)
        layer = DenseOperator(m, layer)
        conj = layer.matrix @ parity_reference(m).matrix @ layer.matrix
        assert np.max(np.abs(conj - fanout_reference(m).matrix)) < 1e-10
