import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinfanout.core import (
    CapExceededError,
    DenseOperator,
    DiagonalOperator,
    StateVector,
    _SLICE,
    _max_deviation,
    equiv_up_to_global_phase,
    popcounts,
)
from spinfanout import core
from spinfanout.circuits import (
    Circuit,
    _hadamard_layer,
    _summed_blocks,
    compile_circuit,
    fanout_circuit,
    from_text,
    parity_circuit,
    run_circuit,
)
from spinfanout.gates import (
    _fanout_targets,
    _parity_targets,
    _permutation,
    fanout_reference,
    parity_reference,
)
from spinfanout.hamiltonians import (
    CouplingMatrix,
    DenseHamiltonian,
    DiagonalHamiltonian,
    build_hn,
    build_kn,
    build_l2,
    build_ring,
    un,
    un_dagger,
)

from helpers import random_unitary, schmidt_rank_one_deviation


class TestHammingWeight:
    def test_zero(self):
        assert popcounts(3)[0] == 0

    def test_direct(self):
        assert popcounts(3)[0b101] == 2

    @pytest.mark.parametrize("n", range(1, 12))
    def test_all_ones(self, n):
        assert popcounts(n)[(1 << n) - 1] == n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_popcounts_match_scalar(self, n):
        k = popcounts(n)
        assert k.dtype == np.int64
        assert k.tolist() == [x.bit_count() for x in range(1 << n)]

    @pytest.mark.parametrize("n", range(0, 21))
    def test_popcounts_match_bit_planes(self, n):
        idx = np.arange(1 << n, dtype=np.int64)
        planes = np.zeros(1 << n, dtype=np.int64)
        for q in range(n):
            planes += (idx >> q) & 1
        k = popcounts(n)
        assert k.dtype == np.int64
        assert np.array_equal(k, planes)


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

    def test_u_vanishing_at_largest_entry_of_v(self):
        # v's largest entry is [0, 0], where u is zero or a rounding residue
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        v = DenseOperator(1, np.diag([1.0, 0.5]).astype(complex))
        for residue in (0.0, 1e-32 * np.exp(0.4j)):
            rep = equiv_up_to_global_phase(DenseOperator(1, x + residue * np.eye(2)), v)
            assert not rep.equivalent
            assert rep.phase == 1 + 0j
        rep = equiv_up_to_global_phase(
            DiagonalOperator(1, np.array([1e-32j, 1])), DiagonalOperator(1, np.array([1, 0.5]))
        )
        assert not rep.equivalent and rep.phase == 1 + 0j

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


def one_shot_equiv(ua, va, tol):
    """Phase and deviation computed over the whole operands at once."""
    flat_v = va.ravel()
    pos = int(np.argmax(np.abs(flat_v)))
    u_at = ua.ravel()[pos]
    if np.abs(flat_v[pos]) < 1e-300 or np.abs(u_at) < tol:
        phase = 1.0 + 0.0j
    else:
        phase = u_at / flat_v[pos]
        phase = phase / abs(phase)
    return complex(phase), float(np.max(np.abs(ua - phase * va)))


def random_complex(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSlicedEquivalence:
    """The comparison walks the operands in slices of ``_SLICE`` entries and
    must give bit for bit the phase and deviation of the one-shot oracle."""

    @staticmethod
    def assert_matches_oracle(u, v, tol=1e-10):
        rep = equiv_up_to_global_phase(u, v, tol)
        a, b = (u.matrix, v.matrix) if isinstance(u, DenseOperator) else (u.entries, v.entries)
        assert (rep.phase, rep.max_deviation) == one_shot_equiv(a, b, tol)
        return rep

    @pytest.mark.parametrize("n", range(1, 10))
    def test_dense_matches_oracle(self, n):
        rng = np.random.default_rng(n)
        v = random_complex((1 << n, 1 << n), rng)
        u = np.exp(0.9j) * v + 1e-12 * random_complex(v.shape, rng)
        self.assert_matches_oracle(DenseOperator(n, u), DenseOperator(n, v))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_diagonal_matches_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        v = random_complex(1 << n, rng)
        u = np.exp(-2.1j) * v + 1e-12 * random_complex(v.shape, rng)
        self.assert_matches_oracle(DiagonalOperator(n, u), DiagonalOperator(n, v))

    def test_slice_size_fits_the_cases(self):
        # one slice holds the smallest operands above, and the 16-qubit
        # diagonals below reach a third slice
        assert 4 <= _SLICE and 3 * _SLICE <= 1 << 16

    @pytest.mark.parametrize("dense", [False, True])
    def test_tie_across_slices_takes_lower_index(self, dense):
        n = 8 if dense else 16
        rng = np.random.default_rng(7)
        v = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << 16))
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << 16))
        lo, hi = 3, 2 * _SLICE + 5  # |v| = 1 exactly in the first and the third slice
        v[lo], v[hi] = 1j, -1.0
        u[lo], u[hi] = np.exp(0.2j), np.exp(2.0j)
        if dense:
            u, v = u.reshape(256, 256), v.reshape(256, 256)
            rep = self.assert_matches_oracle(DenseOperator(n, u), DenseOperator(n, v))
        else:
            rep = self.assert_matches_oracle(DiagonalOperator(n, u), DiagonalOperator(n, v))
        assert rep.phase == pytest.approx(np.exp(1j * (0.2 - np.pi / 2)), abs=1e-15)

    def test_u_zero_at_largest_entry_gives_phase_one(self):
        rng = np.random.default_rng(8)
        v = 0.5 * random_complex(1 << 15, rng) / 8
        u = random_complex(1 << 15, rng)
        peak = _SLICE + 11  # in the second slice
        v[peak], u[peak] = 2.0 * np.exp(0.4j), 0.0
        rep = self.assert_matches_oracle(DiagonalOperator(15, u), DiagonalOperator(15, v))
        assert rep.phase == 1 + 0j and type(rep.phase) is complex

    def test_nan_in_a_later_slice_is_kept(self):
        v = np.ones(1 << 15, dtype=complex)
        v[_SLICE + 1] = np.nan
        with np.errstate(invalid="ignore"):
            rep = equiv_up_to_global_phase(DiagonalOperator(15, v), DiagonalOperator(15, v))
            phase, dev = one_shot_equiv(v, v, 1e-10)
        assert np.isnan(rep.max_deviation) and np.isnan(dev)
        assert np.isnan(rep.phase) and np.isnan(phase)
        assert not rep.equivalent

    def test_no_operand_sized_temporaries(self):
        rng = np.random.default_rng(9)
        v = DenseOperator(9, random_complex((512, 512), rng))
        u = DenseOperator(9, np.exp(0.3j) * v.matrix)
        tracemalloc.start()
        try:
            equiv_up_to_global_phase(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # each operand is 4 MiB

    @pytest.mark.parametrize("start, cols", [(0, 1), (3, 5), (128, 128), (0, 512)])
    def test_column_slice_matches_contiguous(self, start, cols):
        rng = np.random.default_rng(10)
        v = random_complex((512, 512), rng)
        u = np.exp(0.3j) * v[:, start:start + cols] + 1e-12 * random_complex((512, cols), rng)
        phase = np.exp(0.3j)
        expected = float(np.max(np.abs(u - phase * v[:, start:start + cols])))
        contiguous = np.ascontiguousarray(v[:, start:start + cols])
        assert _max_deviation(u, v[:, start:start + cols], phase) == expected
        assert _max_deviation(u, contiguous, phase) == expected

    def test_column_slice_is_not_copied(self):
        rng = np.random.default_rng(11)
        v = random_complex((512, 512), rng)
        u = random_complex((512, 128), rng)  # 1 MiB, as one column block of 9 qubits
        tracemalloc.start()
        try:
            _max_deviation(u, v[:, 256:384], 1j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a copy of the slice alone is 1 MiB


def shuffled_reference(m):
    """A seeded permutation whose row 0 has its 1 off column 0, unlike the
    fanout and parity references."""
    targets = np.random.default_rng(m).permutation(1 << m)
    if targets[0] == 0:
        targets[[0, 1]] = targets[[1, 0]]
    return _permutation(m, targets)


PERMUTATION_REFERENCES = {
    "fanout": fanout_reference,
    "parity": parity_reference,
    "shuffled": shuffled_reference,
}


def compiled_circuit(m, name):
    """The paper's circuit for the reference at odd ``m``, and its CNOT ladder
    at even ``m``, compiled; the fanout one against the shuffled reference."""
    if m % 2:
        return compile_circuit((parity_circuit if name == "parity" else fanout_circuit)(m - 1))
    if name == "parity":
        return compile_circuit(from_text("".join(f"CNOT {q} {m - 1}\n" for q in range(m - 1))))
    return compile_circuit(from_text("".join(f"CNOT {m - 1} {q}\n" for q in range(m - 1))))


def near_reference(ref, seed):
    """``e^{i theta} P`` plus noise of 1e-11 per entry."""
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * ref.matrix + 1e-11 * random_complex(
        ref.matrix.shape, rng
    )


def permutation_operands(kind, m, name, ref):
    dim = 1 << m
    if kind == "compiled":
        return compiled_circuit(m, name)
    if kind == "random":
        return DenseOperator(m, random_complex((dim, dim), np.random.default_rng(m)))
    if kind == "diagonal":
        phases = np.exp(1j * np.random.default_rng(m).uniform(0, 2 * np.pi, dim))
        return DiagonalOperator(m, phases)
    u = near_reference(ref, m)
    last = dim - 1  # the last row: in the last row chunk, a later slice from m = 8 on
    if kind == "nan at a 1":
        u[last, ref.columns[last]] = np.nan
    elif kind == "nan off the 1s":
        u[last, (ref.columns[last] + 1) % dim] = np.nan
    elif kind == "inf at a 1":
        u[last, ref.columns[last]] = np.inf
    elif kind == "inf off the 1s":
        u[last, (ref.columns[last] + 1) % dim] = -np.inf
    elif kind == "zero at row 0's 1":
        u[0, ref.columns[0]] = 0
    return DenseOperator(m, u)


class TestPermutationEquivalence:
    """Against a permutation reference the comparison reads only ``u``, and
    must give bit for bit the phase and deviation of the general path on the
    same matrix as a plain ``DenseOperator``."""

    @pytest.mark.parametrize("kind", [
        "compiled", "near", "random", "nan at a 1", "nan off the 1s", "inf at a 1",
        "inf off the 1s", "zero at row 0's 1", "diagonal",
    ])
    @pytest.mark.parametrize("name", PERMUTATION_REFERENCES)
    @pytest.mark.parametrize("m", range(2, 11))
    def test_matches_the_general_path(self, m, name, kind):
        ref = PERMUTATION_REFERENCES[name](m)
        assert isinstance(ref, core._PermutationOperator)
        general = DenseOperator(m, ref.matrix)
        u = permutation_operands(kind, m, name, ref)
        for tol in (1e-12, 1e-10, 1e-9):
            rep = equiv_up_to_global_phase(u, ref, tol)
            # repr tells apart any two floats with different bits, NaNs aside
            assert repr(rep) == repr(equiv_up_to_global_phase(u, general, tol))
            if kind == "zero at row 0's 1":
                assert rep.phase == 1 + 0j
            if kind == "near":
                assert rep.equivalent == (tol >= 1e-10)
            if kind.startswith(("nan", "inf")):
                assert not rep.equivalent

    @pytest.mark.parametrize("name, build", [
        ("fanout", fanout_circuit), ("parity", parity_circuit),
    ])
    def test_reads_neither_the_reference_nor_the_general_path(self, name, build, monkeypatch):
        ref = PERMUTATION_REFERENCES[name](9)
        targets = (_fanout_targets if name == "fanout" else _parity_targets)(9)
        expected = np.zeros((512, 512), dtype=complex)
        expected[targets, np.arange(512)] = 1
        assert isinstance(ref, DenseOperator) and ref.matrix.tobytes() == expected.tobytes()
        assert not ref.matrix.flags.writeable and not ref.columns.flags.writeable
        assert np.array_equal(ref.columns, np.argmax(ref.matrix, axis=1))
        u = compile_circuit(build(8))

        def general_path(*args):
            raise AssertionError("the general path was taken")

        monkeypatch.setattr(core, "_peak", general_path)
        monkeypatch.setattr(core, "_max_deviation", general_path)
        tracemalloc.start()
        try:
            rep = equiv_up_to_global_phase(u, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.equivalent
        assert peak < 1 << 20  # each operand is 4 MiB


class TestSizeCaps:
    def test_check_raises(self, lower_caps):
        lower_caps(dense=4, l2=4, state=6)
        core.check_dense(4)
        core.check_l2(4)
        core.check_state(6)
        with pytest.raises(CapExceededError, match="n=5 exceeds dense cap 4"):
            core.check_dense(5)
        with pytest.raises(CapExceededError, match="n=5 exceeds dense-Hamiltonian cap 4"):
            core.check_l2(5)
        with pytest.raises(CapExceededError, match="n=7 exceeds state-vector cap 6"):
            core.check_state(7)

    @pytest.mark.parametrize("extra, raises", [(0, False), (1 << 4, True)])
    def test_summed_blocks_count_the_extra_bits(self, extra, raises, lower_caps):
        # Hadamards mix bits 0..3; a summed bit more is 5 over the dense cap of 4
        lower_caps(dense=4, l2=4, state=6)
        blocks = _summed_blocks(Circuit(5, _hadamard_layer(range(4))), extra)
        if raises:
            with pytest.raises(CapExceededError, match="n=5 exceeds dense cap 4"):
                next(blocks)
        else:
            inputs, _ = next(blocks)
            assert inputs.shape == (16, 2)

    def test_documented_values(self):
        assert (core.STATE_CAP, core.DENSE_CAP, core.L2_CAP) == (20, 12, 8)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: build_hn(21), id="build_hn"),
            pytest.param(lambda: build_kn(CouplingMatrix.uniform(21, 1.0)), id="build_kn"),
            pytest.param(lambda: un(21), id="un"),
            pytest.param(lambda: un_dagger(21), id="un_dagger"),
            pytest.param(lambda: from_text("UN 21\n"), id="from_text"),
            pytest.param(lambda: StateVector.basis(21, 0), id="basis"),
            # 1 << n alone is 32 MiB: the cap is checked before the index
            pytest.param(lambda: StateVector.basis(1 << 28, 0), id="basis_2^28"),
            pytest.param(lambda: DiagonalOperator.identity(21), id="identity"),
            pytest.param(lambda: build_l2(9), id="build_l2"),
            pytest.param(lambda: fanout_reference(13), id="fanout_reference"),
            pytest.param(lambda: parity_reference(13), id="parity_reference"),
            pytest.param(lambda: compile_circuit(Circuit(13, ())), id="compile_circuit"),
            pytest.param(lambda: DiagonalOperator.identity(13).to_dense(), id="to_dense"),
            pytest.param(lambda: _fanout_targets(21), id="_fanout_targets"),
            pytest.param(lambda: _parity_targets(21), id="_parity_targets"),
            # a Hadamard on each of 13 qubits mixes 13 bits: 2^13 summed columns
            pytest.param(lambda: next(_summed_blocks(Circuit(13, _hadamard_layer(range(13))))),
                         id="_summed_blocks"),
        ],
    )
    def test_one_over_the_real_cap_raises_before_it_allocates(self, call):
        # one over its cap, each call would allocate 4 MiB (build_l2) to 1 GiB
        # (dense), or run 2^13 summed columns of 2^13 entries (_summed_blocks)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda state: popcounts(7), id="popcounts"),
            pytest.param(lambda state: run_circuit(Circuit(7, ()), state), id="run_circuit"),
            pytest.param(lambda state: next(_summed_blocks(Circuit(7, ()))), id="_summed_blocks"),
            pytest.param(lambda state: build_ring(7, 1.0), id="build_ring"),
            pytest.param(lambda state: CouplingMatrix.uniform(7, 1.0), id="uniform"),
            pytest.param(lambda state: CouplingMatrix.from_pairs(7, {}), id="from_pairs"),
        ],
    )
    def test_one_over_a_lowered_state_cap_raises_before_it_allocates(self, call, lower_caps):
        # the function that allocates checks its own cap; no caller does it for it
        state = StateVector(7, np.zeros(1 << 7, complex))  # built without a cap check
        lower_caps(dense=4, l2=4, state=6)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="n=7 exceeds state-vector cap 6"):
                call(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


# each array-holding value type, the array it is given, and the words it
# refuses a wrong shape with
_WRONG_SHAPES = [
    pytest.param(StateVector, np.zeros(3, complex), "expected 4 amplitudes, got (3,)",
                 id="StateVector"),
    pytest.param(DiagonalOperator, np.zeros(3, complex), "expected 4 entries, got (3,)",
                 id="DiagonalOperator"),
    pytest.param(DenseOperator, np.zeros((4, 3), complex), "expected 4x4 matrix, got (4, 3)",
                 id="DenseOperator"),
    pytest.param(DiagonalHamiltonian, np.zeros(8), "expected 4 energies, got (8,)",
                 id="DiagonalHamiltonian"),
    pytest.param(DenseHamiltonian, np.zeros((2, 2), complex), "expected 4x4 matrix, got (2, 2)",
                 id="DenseHamiltonian"),
]


class TestInputChecks:
    @pytest.mark.parametrize("cls, array, message", _WRONG_SHAPES)
    def test_wrong_shape_is_refused_and_left_writable(self, cls, array, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(2, array)
        assert array.flags.writeable

    @pytest.mark.parametrize("cls, n, array, message", [
        pytest.param(StateVector, 10**8, np.zeros(2, complex),
                     "expected 2^100000000 amplitudes, got (2,)", id="StateVector-huge"),
        pytest.param(DiagonalHamiltonian, 10**8, np.zeros(2),
                     "expected 2^100000000 energies, got (2,)", id="DiagonalHamiltonian-huge"),
        pytest.param(StateVector, -1, np.zeros(2, complex),
                     "expected 2^-1 amplitudes, got (2,)", id="StateVector-negative"),
    ])
    def test_a_huge_or_negative_qubit_count_is_refused_before_any_shape_is_built(
            self, cls, n, array, message):
        # 1 << 10**8 alone would be a 12 MiB integer
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cls(n, array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_coupling_matrix_wrong_shape(self):
        with pytest.raises(ValueError, match="^expected 3x3 coupling array$"):
            CouplingMatrix(3, np.zeros((3, 2)))

    @pytest.mark.parametrize("cls, array", [
        pytest.param(DiagonalHamiltonian, np.array([0.0, np.nan]), id="diagonal_not_finite"),
        pytest.param(DenseHamiltonian, np.array([[0, np.inf], [np.inf, 0]], complex),
                     id="dense_not_finite"),
        pytest.param(DenseHamiltonian, np.array([[0, 1], [0, 0]], complex),
                     id="dense_not_hermitian"),
    ])
    def test_a_rejected_hamiltonian_leaves_its_array_writable(self, cls, array):
        with pytest.raises(ValueError):
            cls(1, array)
        assert array.flags.writeable

    @pytest.mark.parametrize("cls, array", [
        pytest.param(cls, array, id=cls.__name__) for cls, array in [
            (StateVector, np.array([1, 0], complex)),
            (DiagonalOperator, [1, 1j]),
            (DenseOperator, np.eye(2)),
            (DiagonalHamiltonian, [0, 1]),
            (DenseHamiltonian, np.eye(2, dtype=complex)),
            (CouplingMatrix, np.ones((1, 1))),
        ]
    ])
    def test_an_accepted_array_is_stored_read_only(self, cls, array):
        value = cls(1, array)
        stored = next(v for v in vars(value).values() if isinstance(v, np.ndarray))
        assert not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0

    @pytest.mark.parametrize("value", [-1, 4])
    def test_basis_index_out_of_range(self, value):
        with pytest.raises(IndexError, match=f"^basis index {value} out of range for 2 qubits$"):
            StateVector.basis(2, value)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_equivalence_tolerance_must_be_positive(self, tol):
        u = DiagonalOperator.identity(1)
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            equiv_up_to_global_phase(u, u, tol)

    def test_equivalence_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2 qubits$"):
            equiv_up_to_global_phase(DiagonalOperator.identity(1), DiagonalOperator.identity(2))


class TestSchmidt:
    def test_product_state(self):
        state = StateVector.basis(3, 0b101)
        assert schmidt_rank_one_deviation(state, 1) < 1e-14

    def test_bell_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        assert schmidt_rank_one_deviation(StateVector(2, amps), 0) > 0.5
