import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinfanout.core import (
    CapExceededError,
    DenseOperator,
    DiagonalOperator,
    SizeCaps,
    StateVector,
    apply_gate,
    compose,
    equiv_up_to_global_phase,
    hamming_weight,
    popcounts,
    schmidt_rank_one_deviation,
)
from spinfanout.circuits import Circuit, Step, compile_circuit, run_circuit
from spinfanout.gates import GateDef, standard_gate
from spinfanout.hamiltonians import un


def kron_embed_oracle(gate_matrix, targets, n):
    """Independent full-matrix embedding, built entry by entry from bits."""
    m = len(targets)
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    rest_mask = (dim - 1) ^ sum(1 << t for t in targets)
    for col in range(dim):
        loc_in = sum(((col >> t) & 1) << j for j, t in enumerate(targets))
        for loc_out in range(1 << m):
            row = (col & rest_mask) | sum(
                ((loc_out >> j) & 1) << t for j, t in enumerate(targets)
            )
            full[row, col] = gate_matrix[loc_out, loc_in]
    return full


def random_unitary(n, rng):
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    q, r = np.linalg.qr(a)
    return DenseOperator(n, q * (np.diag(r) / np.abs(np.diag(r))))


class TestHammingWeight:
    def test_zero(self):
        assert hamming_weight(0) == 0

    def test_direct(self):
        assert hamming_weight(0b101) == 2

    @pytest.mark.parametrize("n", range(1, 12))
    def test_all_ones(self, n):
        assert hamming_weight((1 << n) - 1) == n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hamming_weight(-1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_popcounts_match_scalar(self, n):
        k = popcounts(n)
        assert k.dtype == np.int64
        assert k.tolist() == [hamming_weight(x) for x in range(1 << n)]


class TestApplyGate:
    def test_identity(self):
        state = StateVector.basis(3, 5)
        out = apply_gate(state, DiagonalOperator.identity(1), [1])
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_x_flips(self):
        out = apply_gate(StateVector.basis(1, 0), standard_gate("X").unitary, [0])
        assert np.allclose(out.amplitudes, [0, 1])

    def test_h_involution(self):
        h = standard_gate("H").unitary
        state = StateVector.basis(1, 0)
        out = apply_gate(apply_gate(state, h, [0]), h, [0])
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_duplicate_target_rejected(self):
        with pytest.raises(IndexError):
            apply_gate(StateVector.basis(2, 0), standard_gate("CNOT").unitary, [0, 0])

    def test_out_of_range_target_rejected(self):
        with pytest.raises(IndexError):
            apply_gate(StateVector.basis(2, 0), standard_gate("H").unitary, [2])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_kron_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        targets = list(rng.choice(n, size=m, replace=False))
        gate = random_unitary(m, rng)
        full = kron_embed_oracle(gate.matrix, targets, n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        out = apply_gate(state, gate, targets)
        assert np.max(np.abs(out.amplitudes - full @ amps)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(3, amps)
        out = apply_gate(state, random_unitary(2, rng), [2, 0])
        assert abs(out.norm - 1.0) < 1e-12


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(0)
        u = random_unitary(2, rng)
        out = compose(DiagonalOperator.identity(2), u)
        assert np.allclose(out.to_dense().matrix, u.matrix)

    def test_un_fourth_power_is_identity_up_to_phase(self):
        u = un(4)
        u4 = compose(compose(u, u), compose(u, u))
        rep = equiv_up_to_global_phase(u4, DiagonalOperator.identity(4), tol=1e-12)
        assert rep.equivalent

    def test_diagonal_product_stays_diagonal(self):
        rng = np.random.default_rng(1)
        d1 = DiagonalOperator(2, np.exp(1j * rng.normal(size=4)))
        d2 = DiagonalOperator(2, np.exp(1j * rng.normal(size=4)))
        out = compose(d1, d2)
        assert isinstance(out, DiagonalOperator)
        assert np.allclose(out.entries, d1.entries * d2.entries)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(DiagonalOperator.identity(2), DiagonalOperator.identity(3))


class TestEquivalence:
    def test_reflexive(self):
        u = random_unitary(3, np.random.default_rng(2))
        rep = equiv_up_to_global_phase(u, u)
        assert rep.equivalent
        assert abs(rep.phase - 1) < 1e-12
        assert rep.max_deviation == 0.0

    def test_scalar_multiple(self):
        u = random_unitary(2, np.random.default_rng(3))
        rep = equiv_up_to_global_phase(DenseOperator(2, 1j * u.matrix), u)
        assert rep.equivalent
        assert abs(rep.phase - 1j) < 1e-12

    def test_inequivalent(self):
        rng = np.random.default_rng(4)
        rep = equiv_up_to_global_phase(random_unitary(2, rng), random_unitary(2, rng))
        assert not rep.equivalent

    def test_zero_operator_degenerate_case(self):
        zero = DenseOperator(1, np.zeros((2, 2)))
        rep = equiv_up_to_global_phase(zero, zero, tol=1e-10)
        assert rep.equivalent and rep.phase == 1

    def test_unit_phase(self):
        rng = np.random.default_rng(5)
        u = random_unitary(2, rng)
        rep = equiv_up_to_global_phase(DenseOperator(2, np.exp(0.7j) * u.matrix), u)
        assert abs(abs(rep.phase) - 1) < 1e-12

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_transitive(self, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(2, rng)
        pa, pb = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        a = DenseOperator(2, pa * u.matrix)
        b = DenseOperator(2, pb * u.matrix)
        tol = 1e-10
        assert equiv_up_to_global_phase(a, u, tol).equivalent
        assert equiv_up_to_global_phase(u, a, tol).equivalent
        assert equiv_up_to_global_phase(a, b, 3 * tol).equivalent


class TestApplyAgreesWithCompose:
    @pytest.mark.parametrize("seed", range(100))
    def test_random_depth_10_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        total = DiagonalOperator.identity(n).to_dense()
        for _ in range(10):
            m = int(rng.integers(1, 3))
            targets = list(rng.choice(n, size=m, replace=False))
            gate = random_unitary(m, rng)
            state = apply_gate(state, gate, targets)
            full = DenseOperator(n, kron_embed_oracle(gate.matrix, targets, n))
            total = compose(full, total)
        once = total.matrix @ amps
        assert np.max(np.abs(state.amplitudes - once)) < 1e-12


def random_step(n, rng):
    """A dense or diagonal gate on 1..3 distinct qubits, in random order."""
    m = int(rng.integers(1, min(n, 3) + 1))
    targets = tuple(int(t) for t in rng.permutation(n)[:m])
    if rng.random() < 0.5:
        gate = random_unitary(m, rng)
    else:
        gate = DiagonalOperator(m, np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << m)))
    return Step(GateDef("G", m, gate), targets)


def random_circuit(rng):
    n = int(rng.integers(1, 7))
    depth = int(rng.integers(1, 9))
    return Circuit(n, tuple(random_step(n, rng) for _ in range(depth)))


class TestBlockKernel:
    """compile_circuit, run_circuit and apply_gate share one kernel;
    each is checked against an independent path."""

    @pytest.mark.parametrize("seed", range(30))
    def test_compile_matches_kron_oracle_product(self, seed):
        c = random_circuit(np.random.default_rng(seed))
        total = np.eye(1 << c.n, dtype=complex)
        for step in c.steps:
            gate = step.gate.unitary.to_dense().matrix
            total = kron_embed_oracle(gate, list(step.targets), c.n) @ total
        assert np.max(np.abs(compile_circuit(c).matrix - total)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_columns_match_run_circuit(self, seed):
        c = random_circuit(np.random.default_rng(seed))
        mat = compile_circuit(c).matrix
        for x in range(1 << c.n):
            out = run_circuit(c, StateVector.basis(c.n, x)).amplitudes
            assert np.max(np.abs(mat[:, x] - out)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_apply_gate_matches_embed(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        step = random_step(n, rng)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        out = apply_gate(StateVector(n, amps), step.gate.unitary, list(step.targets))
        full = kron_embed_oracle(step.gate.unitary.to_dense().matrix, list(step.targets), n)
        assert np.max(np.abs(out.amplitudes - full @ amps)) < 1e-12


    @pytest.mark.parametrize(
        "targets",
        [t for m in (1, 2, 3) for t in itertools.permutations(range(4), m)],
        ids=lambda t: "-".join(map(str, t)),
    )
    def test_every_target_order(self, targets):
        """Adjacent ascending, adjacent descending and non-adjacent targets."""
        n, m = 4, len(targets)
        rng = np.random.default_rng(list(targets))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        dense = random_unitary(m, rng)
        diagonal = DiagonalOperator(m, np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << m)))
        for gate in (dense, diagonal):
            full = kron_embed_oracle(gate.to_dense().matrix, list(targets), n)
            c = Circuit(n, (Step(GateDef("G", m, gate), targets),))
            assert np.max(np.abs(compile_circuit(c).matrix - full)) < 1e-12
            out = apply_gate(StateVector(n, amps), gate, list(targets)).amplitudes
            assert np.max(np.abs(out - full @ amps)) < 1e-12

    def test_run_circuit_rejects_other_qubit_count(self):
        c = Circuit(2, (Step(standard_gate("H"), (0,)),))
        with pytest.raises(ValueError):
            run_circuit(c, StateVector.basis(3, 0))

class TestSizeCaps:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SizeCaps(dense_cap=4, l2_cap=8, state_cap=20)

    def test_check_raises(self):
        caps = SizeCaps(dense_cap=4, l2_cap=4, state_cap=6)
        with pytest.raises(CapExceededError):
            caps.check_dense(5)
        with pytest.raises(CapExceededError):
            caps.check_l2(5)
        with pytest.raises(CapExceededError):
            caps.check_state(7)


class TestSchmidt:
    def test_product_state(self):
        state = StateVector.basis(3, 0b101)
        assert schmidt_rank_one_deviation(state, 1) < 1e-14

    def test_bell_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        assert schmidt_rank_one_deviation(StateVector(2, amps), 0) > 0.5
