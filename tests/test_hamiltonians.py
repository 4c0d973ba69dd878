import tracemalloc
import warnings

import numpy as np
import pytest

from spinfanout.core import (
    CapExceededError,
    DenseOperator,
    DiagonalOperator,
    equiv_up_to_global_phase,
    popcounts,
)
from spinfanout.hamiltonians import (
    TIME_QUARTER,
    TIME_THREE_QUARTERS,
    CouplingMatrix,
    DenseHamiltonian,
    DiagonalHamiltonian,
    build_hn,
    build_kn,
    build_l2,
    build_ring,
    evolve,
    evolver,
    un,
    un_dagger,
)


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_on(axis, i, n):
    """Independent oracle: the Pauli ``axis`` on qubit i (bit i) of n, by np.kron."""
    return np.kron(np.kron(np.eye(1 << (n - 1 - i)), PAULI[axis]), np.eye(1 << i))


def l2_oracle(n):
    """Sum of the squared total-spin components (1/2) sum_i P_i."""
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for axis in "XYZ":
        s = 0.5 * sum(pauli_on(axis, i, n) for i in range(n))
        total += s @ s
    return total


def brute_force_zz_energy(x, n, J):
    """Independent oracle: sum over pairs of (-1)^(x_i xor x_j) couplings."""
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += J[i, j] * (1 if ((x >> i) & 1) == ((x >> j) & 1) else -1)
    return total


class TestBuildHn:
    def test_n3_energies(self):
        h = build_hn(3)
        assert h.energies[0b000] == pytest.approx(4.5)
        assert h.energies[0b001] == pytest.approx(0.5)

    def test_n2_energies(self):
        h = build_hn(2)
        assert h.energies[0b01] == pytest.approx(0.0)
        assert h.energies[0b00] == pytest.approx(2.0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_all_ones_equals_all_zeros(self, n):
        h = build_hn(n)
        assert h.energies[(1 << n) - 1] == pytest.approx(h.energies[0])
        assert h.energies[0] == pytest.approx(n * n / 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_hamming_weight_symmetry(self, n):
        h = build_hn(n)
        by_weight = {}
        for x in range(1 << n):
            by_weight.setdefault(x.bit_count(), set()).add(round(h.energies[x], 12))
        assert all(len(v) == 1 for v in by_weight.values())

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_hn(0)
        with pytest.raises(CapExceededError):
            build_hn(21)

    def test_diagonal_data_runs_to_state_cap(self):
        # 2^n energies are state-sized work, not a 2^n x 2^n matrix
        assert build_hn(14).energies.shape == (1 << 14,)
        assert np.max(np.abs(np.abs(un(14).entries) - 1.0)) < 1e-12


class TestBuildKn:
    def test_zero_couplings(self):
        kn = build_kn(CouplingMatrix.uniform(4, 0.0))
        assert np.all(kn.energies == 0)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_uniform_matches_hn_minus_offset(self, n):
        kn = build_kn(CouplingMatrix.uniform(n, 1.0))
        hn = build_hn(n)
        assert np.max(np.abs(hn.energies - kn.energies - n / 2)) < 1e-12

    def test_ring_n4_alternating(self):
        kn = build_kn(build_ring(4, 1.0))
        # all 4 ring bonds straddle unequal bits of 0101
        assert kn.energies[0b0101] == pytest.approx(-4.0)

    def test_cap_checked_before_allocation(self):
        # 21 sites is one past the state-vector cap; only the 21x21 couplings exist
        with pytest.raises(CapExceededError):
            build_kn(build_ring(21, 1.0))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        J = np.triu(rng.normal(size=(n, n)), k=1)
        kn = build_kn(CouplingMatrix(n, J))
        for x in rng.integers(0, 1 << n, size=8):
            assert kn.energies[x] == pytest.approx(brute_force_zz_energy(int(x), n, J))


def per_pair_energies(coupling):
    """``build_kn``'s energies as one sign array per pair, from the bits of
    each basis index: the summation order ``build_kn`` keeps."""
    idx = np.arange(1 << coupling.n)
    energies = np.zeros(1 << coupling.n)
    for i, j, jij in coupling.pairs():
        energies += jij * (1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1))
    return energies


class TestBuildKnSignTable:
    @pytest.mark.parametrize("n", [3, 7, 12, 14])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_per_pair_sums_byte_for_byte(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        J = np.triu(rng.normal(size=(n, n)), k=1)
        J[rng.random((n, n)) < 0.3] = 0
        J[0, 1], J[0, n - 1] = -1.25, 0.0  # a negative and a zero coupling at least
        coupling = CouplingMatrix(n, J)
        assert build_kn(coupling).energies.tobytes() == per_pair_energies(coupling).tobytes()

    def test_ring_at_the_state_cap_stays_small(self):
        ring = build_ring(20, -1.5)
        tracemalloc.start()
        try:
            energies = build_kn(ring).energies
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the energies are 8 MiB and the sign table 20 MiB
        assert peak < 64 << 20
        assert energies[:4].tolist() == [-30.0, -24.0, -24.0, -24.0]


class TestCouplingMatrix:
    @pytest.mark.parametrize("pairs", [
        {(0, 1): 0.5, (1, 0): 7.0},
        {(1, 0): 7.0, (0, 1): 0.5},
    ])
    def test_from_pairs_rejects_one_pair_named_twice(self, pairs):
        with pytest.raises(ValueError, match=r"both name pair \(0, 1\)"):
            CouplingMatrix.from_pairs(3, pairs)

    @pytest.mark.parametrize("pair", [(-1, 1), (1, -1), (3, 0), (0, 3)])
    def test_from_pairs_rejects_an_index_outside_the_qubits(self, pair):
        # a negative index once landed in the discarded lower triangle, and an
        # index >= n raised a bare numpy IndexError
        with pytest.raises(ValueError, match=rf"pair \({pair[0]}, {pair[1]}\).*0\.\.2"):
            CouplingMatrix.from_pairs(3, {pair: 1.0})

    def test_from_pairs_rejects_a_self_coupling(self):
        with pytest.raises(ValueError, match="^no self-coupling allowed$"):
            CouplingMatrix.from_pairs(3, {(1, 1): 1.0})

    def test_from_pairs_takes_either_order(self):
        J = CouplingMatrix.from_pairs(3, {(1, 0): 0.5, (2, 1): 7.0}).J
        assert J[0, 1] == 0.5 and J[1, 2] == 7.0 and J[1, 0] == 0.0

    @pytest.mark.parametrize("J", [
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],  # lower triangle only: once read as no pairs
        [[0, 1, 0], [2, 0, 0], [0, 0, 0]],  # not symmetric: once kept the 1
        [[0, 1, 0], [1, 0, 0], [0, 3, 0]],  # one pair mirrored, one below only
    ])
    def test_rejects_a_lower_triangle_that_does_not_mirror_the_upper(self, J):
        with pytest.raises(ValueError, match="below the diagonal"):
            CouplingMatrix(3, J)

    def test_keeps_the_upper_triangle_of_symmetric_or_upper_input(self):
        upper = [[0, 0.5, 2.0], [0, 0, -1.0], [0, 0, 0]]
        symmetric = np.array(upper) + np.transpose(upper) + np.diag([3.0, 4.0, 5.0])
        for J in (upper, symmetric):
            assert list(CouplingMatrix(3, J).pairs()) == [(0, 1, 0.5), (0, 2, 2.0), (1, 2, -1.0)]
        assert list(CouplingMatrix.uniform(3, 1.5).pairs()) == [
            (0, 1, 1.5), (0, 2, 1.5), (1, 2, 1.5)
        ]


class TestBuildRing:
    def test_n3_pairs(self):
        ring = build_ring(3, 2.5)
        assert sorted(ring.pairs()) == [(0, 1, 2.5), (0, 2, 2.5), (1, 2, 2.5)]

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_cycle_size(self, n):
        assert len(list(build_ring(n, 1.0).pairs())) == n

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_ring(2, 1.0)


class TestL2:
    def test_single_spin(self):
        assert np.allclose(build_l2(1).matrix, 0.75 * np.eye(2))

    def test_two_spin_spectrum(self):
        # singlet/triplet structure, frozen from an independent eigensolve
        eigs = np.sort(np.linalg.eigvalsh(build_l2(2).matrix))
        assert np.allclose(eigs, [0, 2, 2, 2], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_pauli_oracle(self, n):
        assert np.array_equal(build_l2(n).matrix, l2_oracle(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_commutes_with_z_total(self, n):
        l2 = build_l2(n).matrix
        zt = (n - 2 * popcounts(n)) / 2  # the diagonal of Z_tot
        assert np.max(np.abs(l2 * zt[None, :] - zt[:, None] * l2)) < 1e-10

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_l2(9)

    def test_no_qubits_refused(self):
        with pytest.raises(ValueError, match="^need at least one qubit, got n=0$"):
            build_l2(0)


class TestEvolve:
    def test_time_zero_is_identity(self):
        u = evolve(build_hn(4), 0.0)
        assert np.allclose(u.entries, 1.0)
        ud = evolve(build_l2(2), 0.0)
        assert np.allclose(ud.matrix, np.eye(4))

    def test_u3_diagonal(self):
        rep = equiv_up_to_global_phase(
            un(3), DiagonalOperator(3, np.array([1, -1, -1, -1, -1, -1, -1, 1], dtype=complex))
        )
        assert rep.equivalent

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fourth_power_identity_up_to_phase(self, n):
        u = un(n).entries
        u4 = DiagonalOperator(n, u * u * u * u)
        rep = equiv_up_to_global_phase(u4, DiagonalOperator.identity(n), tol=1e-12)
        assert rep.equivalent

    def test_diagonal_stays_diagonal(self):
        assert isinstance(evolve(build_hn(5), 0.3), DiagonalOperator)

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_group_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        h = DenseHamiltonian(n, (a + a.conj().T) / 2)
        s, t = rng.uniform(-2, 2, size=2)
        ust = evolve(h, s + t).matrix
        us_ut = evolve(h, s).matrix @ evolve(h, t).matrix
        assert np.max(np.abs(ust - us_ut)) < 1e-9
        round_trip = evolve(h, t).matrix @ evolve(h, -t).matrix
        assert np.max(np.abs(round_trip - np.eye(1 << n))) < 1e-9

    def test_dense_result_unitary(self):
        u = evolve(build_l2(3), 0.7).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10

    def test_evolver_kinds(self):
        assert isinstance(evolver(build_hn(3))(0.5), DiagonalOperator)
        assert isinstance(evolver(build_l2(3))(0.5), DenseOperator)

    def test_eigensolve_cap(self, lower_caps):
        h = build_l2(5)
        lower_caps(dense=4, l2=4, state=6)
        with pytest.raises(CapExceededError):
            evolver(h)
        with pytest.raises(CapExceededError):
            evolve(h, 0.1)
        # diagonal evolution needs no eigensolve
        assert isinstance(evolve(build_hn(6), 0.1), DiagonalOperator)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DenseHamiltonian(1, np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes the Hermitian check, since NaN > tol is false
        with pytest.raises(ValueError, match="finite"):
            DenseHamiltonian(1, np.array([[bad, 0], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            DiagonalHamiltonian(1, np.array([bad, 0.0]))

    def test_overflowing_couplings_rejected(self):
        # rejected by DiagonalHamiltonian, with no numpy overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                build_kn(build_ring(3, 1e308))

    @pytest.mark.parametrize("h", [build_hn(2), build_l2(2)], ids=["diagonal", "dense"])
    @pytest.mark.parametrize("t", [1e308, -1e308, np.inf, np.nan])
    def test_overflowing_time_rejected(self, h, t):
        with pytest.raises(ValueError, match="not finite"):
            evolve(h, t)

    def test_zero_hamiltonian_any_finite_time(self):
        h = DiagonalHamiltonian(2, np.zeros(4))
        assert np.all(evolve(h, 1e308).entries == 1)


class TestUnPair:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_equals_the_evolution_of_every_basis_energy(self, n):
        # un and un_dagger exponentiate the n + 1 weight levels once; evolve
        # exponentiates all 2^n energies: the same entries, bit for bit
        assert un(n).entries.tobytes() == evolve(build_hn(n), TIME_QUARTER).entries.tobytes()
        expected = evolve(build_hn(n), TIME_THREE_QUARTERS).entries
        assert un_dagger(n).entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_exact_inverse_for_even_n(self, n):
        prod = un(n).entries * un_dagger(n).entries
        assert np.max(np.abs(prod - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_inverse_up_to_phase_for_odd_n(self, n):
        # the kept n^2/2 energy constant leaves exactly a global phase
        prod = DiagonalOperator(n, un(n).entries * un_dagger(n).entries)
        rep = equiv_up_to_global_phase(prod, DiagonalOperator.identity(n), tol=1e-12)
        assert rep.equivalent

    def test_entry_values(self):
        d3 = un(3).entries / un(3).entries[0]
        assert abs(d3[0b011] - (1j ** 2)) < 1e-12  # k=2, i^(2*1) = -1
        d2 = un(2).entries / un(2).entries[0]
        assert abs(d2[0b01] - 1j) < 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_phase_formula(self, n):
        diag = un(n).entries / un(n).entries[0]
        for x in range(1 << n):
            k = x.bit_count()
            assert abs(diag[x] - 1j ** (k * (n - k))) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_parity_dichotomy(self, n):
        diag = un(n).entries / un(n).entries[0]
        odd_phase = 1j if n % 4 == 2 else -1j
        for x in range(1 << n):
            expected = odd_phase if x.bit_count() % 2 else 1
            assert abs(diag[x] - expected) < 1e-10
