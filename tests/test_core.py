import functools
import itertools
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
from spinfanout import circuits, core
from spinfanout.circuits import (
    _FUSE_QUBITS,
    Circuit,
    Step,
    _MonomialOperator,
    _run_steps,
    compile_circuit,
    fanout_circuit,
    from_text,
    parity_circuit,
    parity_like_circuit,
    run_circuit,
    simplified_fanout_circuit,
)
from spinfanout.gates import GateDef, fanout_reference, parity_reference, standard_gate
from spinfanout.hamiltonians import CouplingMatrix, build_hn, build_kn, build_l2, un, un_dagger

from helpers import schmidt_rank_one_deviation


def kron_embed_oracle(gate_matrix, targets, n):
    """Independent full-matrix embedding, built entry by entry from bits."""
    m = len(targets)
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    rest_mask = (dim - 1) ^ sum(1 << t for t in targets)
    for col in range(dim):
        loc_in = sum(((col >> t) & 1) << j for j, t in enumerate(targets))
        for loc_out in np.flatnonzero(gate_matrix[:, loc_in]):
            row = (col & rest_mask) | sum(
                ((loc_out >> j) & 1) << t for j, t in enumerate(targets)
            )
            full[row, col] = gate_matrix[loc_out, loc_in]
    return full


def random_unitary(n, rng):
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    q, r = np.linalg.qr(a)
    return DenseOperator(n, q * (np.diag(r) / np.abs(np.diag(r))))


def random_orthogonal(n, rng):
    """A real dense gate: the kernel multiplies it as a real matrix."""
    q, r = np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))
    return DenseOperator(n, q * np.sign(np.diag(r)))


def kernel_matrix(gate, targets, n):
    """``gate`` on ``targets``, compiled as a one-step circuit."""
    return compile_circuit(Circuit(n, (Step(GateDef("G", gate), tuple(targets)),))).matrix


def apply_step(state, gate, targets):
    """``state`` run through the one-step circuit of ``gate`` on ``targets``."""
    c = Circuit(state.n, (Step(GateDef("G", gate), tuple(targets)),))
    return run_circuit(c, state)


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


class TestApplyGate:
    def test_identity(self):
        state = StateVector.basis(3, 5)
        out = apply_step(state, DiagonalOperator.identity(1), [1])
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_x_flips(self):
        out = apply_step(StateVector.basis(1, 0), standard_gate("X").unitary, [0])
        assert np.allclose(out.amplitudes, [0, 1])

    def test_h_involution(self):
        h = standard_gate("H").unitary
        state = StateVector.basis(1, 0)
        out = apply_step(apply_step(state, h, [0]), h, [0])
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_duplicate_target_rejected(self):
        with pytest.raises(IndexError):
            Circuit(2, (Step(standard_gate("CNOT"), (0, 0)),))

    def test_out_of_range_target_rejected(self):
        with pytest.raises(IndexError):
            Circuit(2, (Step(standard_gate("H"), (2,)),))

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
        assert np.max(np.abs(kernel_matrix(gate, targets, n) - full)) < 1e-12
        out = apply_step(StateVector(n, amps), gate, targets)
        assert np.max(np.abs(out.amplitudes - full @ amps)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(3, amps)
        out = apply_step(state, random_unitary(2, rng), [2, 0])
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


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


class TestApplyAgreesWithCompose:
    """Gates applied one at a time agree with the product of their embedded matrices."""

    @pytest.mark.parametrize("seed", range(100))
    def test_random_depth_10_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        total = np.eye(1 << n, dtype=complex)
        for _ in range(10):
            m = int(rng.integers(1, 3))
            targets = list(rng.choice(n, size=m, replace=False))
            gate = random_unitary(m, rng)
            state = apply_step(state, gate, targets)
            total = kron_embed_oracle(gate.matrix, targets, n) @ total
        once = total @ amps
        assert np.max(np.abs(state.amplitudes - once)) < 1e-12


def random_diagonal(m, rng):
    return DiagonalOperator(m, np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << m)))


def random_step(n, rng):
    """A dense or diagonal gate on 1..3 distinct qubits, in random order."""
    m = int(rng.integers(1, min(n, 3) + 1))
    targets = tuple(int(t) for t in rng.permutation(n)[:m])
    gate = random_unitary(m, rng) if rng.random() < 0.5 else random_diagonal(m, rng)
    return Step(GateDef("G", gate), targets)


def fusion_step(n, rng):
    """A diagonal on all n qubits (sometimes, in ascending or random order),
    else a complex dense, real dense or diagonal gate on 1..3 qubits, in
    random order, of a window of 1..6 adjacent qubits: runs of these steps
    fuse below, at and past the fusion width."""
    if rng.random() < 0.1:
        targets = range(n) if rng.random() < 0.5 else rng.permutation(n)
        return Step(GateDef("D", random_diagonal(n, rng)), tuple(int(t) for t in targets))
    width = int(rng.integers(1, min(n, 6) + 1))
    lo = int(rng.integers(0, n - width + 1))
    m = int(rng.integers(1, min(width, 3) + 1))
    targets = tuple(lo + int(t) for t in rng.permutation(width)[:m])
    kind = rng.random()
    if kind < 0.3:
        gate = random_unitary(m, rng)
    elif kind < 0.6:
        gate = random_orthogonal(m, rng)
    else:
        gate = random_diagonal(m, rng)
    return Step(GateDef("G", gate), targets)


def random_circuit(rng):
    n = int(rng.integers(1, 10))
    depth = int(rng.integers(1, 21))
    return Circuit(n, tuple(fusion_step(n, rng) for _ in range(depth)))


def monomial_step(n, rng):
    """Mostly X, CNOT or CZ on any qubits in either order, else an evolution
    ``UN k`` or ``UNDAG k`` on qubits 0..k-1, or H: runs of these steps fuse
    into monomial runs of every span, broken by the Hadamards."""
    name = str(rng.choice(["X", "CNOT", "CZ", "X", "CNOT", "CZ", "UN", "UNDAG", "H"]))
    if name in ("UN", "UNDAG"):
        k = int(rng.integers(1, n + 1))
        return Step(GateDef(name, (un if name == "UN" else un_dagger)(k)), tuple(range(k)))
    gate = standard_gate(name if n > 1 or name == "H" else "X")
    return Step(gate, tuple(int(t) for t in rng.permutation(n)[:gate.unitary.n]))


def monomial_circuit(rng, seed):
    """A circuit of ``monomial_step`` on n = 1..9 qubits, cycling with the seed."""
    n = 1 + seed % 9
    depth = int(rng.integers(1, 21))
    return Circuit(n, tuple(monomial_step(n, rng) for _ in range(depth)))


def kron_oracle_product(c):
    """The product of the kron-embedded steps of ``c``."""
    total = np.eye(1 << c.n, dtype=complex)
    for step in c.steps:
        gate = step.gate.unitary.to_dense().matrix
        total = kron_embed_oracle(gate, list(step.targets), c.n) @ total
    return total


@functools.lru_cache(maxsize=None)
def random_circuit_and_oracle(seed):
    """``random_circuit(seed)`` and the product of its kron-embedded steps."""
    c = random_circuit(np.random.default_rng(seed))
    return c, kron_oracle_product(c)


@functools.lru_cache(maxsize=None)
def monomial_circuit_and_oracle(seed):
    """``monomial_circuit(seed)`` and the product of its kron-embedded steps."""
    c = monomial_circuit(np.random.default_rng(seed), seed)
    return c, kron_oracle_product(c)


def moved_back_runs(c):
    """The runs of ``c``'s plan that hold a step which moved back past another
    run to join them: their steps are not consecutive in ``c.steps``."""
    index = {id(step): i for i, step in enumerate(c.steps)}
    assert len(index) == len(c.steps)  # every step a distinct object
    runs = circuits._runs(c.steps)
    return [run for run in runs if np.any(np.diff([index[id(s)] for s in run[3]]) != 1)]


def monomial_matrix(gate):
    """The dense matrix of a ``_MonomialOperator``: ``phases[r]`` at ``(r, source[r])``."""
    dim = 1 << gate.n
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.arange(dim), gate.source] = 1 if gate.phases is None else gate.phases
    return mat


class TestBlockKernel:
    """compile_circuit and run_circuit share one kernel, ``_apply_to_block``;
    each is checked against an independent path."""

    @pytest.mark.parametrize("seed", range(30))
    def test_compile_matches_kron_oracle_product(self, seed):
        c, total = random_circuit_and_oracle(seed)
        assert np.max(np.abs(compile_circuit(c).matrix - total)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_columns_match_run_circuit(self, seed):
        c, total = random_circuit_and_oracle(seed)
        for x in range(1 << c.n):
            out = run_circuit(c, StateVector.basis(c.n, x)).amplitudes
            assert np.max(np.abs(total[:, x] - out)) < 1e-12

    def test_random_circuits_cover_the_fusion_cases(self):
        """The seeded circuits above and in ``TestMonomialRuns`` reach every kind
        of fused run."""
        circuits = [random_circuit_and_oracle(seed)[0] for seed in range(30)]
        circuits += [monomial_circuit_and_oracle(seed)[0] for seed in range(30)]
        steps = [(c.n, s) for c in circuits for s in c.steps]
        plan = [(gate, lo) for c in circuits for gate, lo in c._plan]
        # the one layout the kernel handles: every gate on qubits lo .. lo + gate.n - 1
        assert all(0 <= lo and lo + g.n <= c.n for c in circuits for g, lo in c._plan)
        assert max(c.n for c in circuits) == 9
        assert max(len(c.steps) for c in circuits) >= 18
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
        triples = [t for c in circuits for t in zip(c._plan, c._plan[1:], c._plan[2:])]
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
        moved = [run for c in circuits for run in moved_back_runs(c)]
        assert {all_monomial for _, _, all_monomial, _ in moved} == {True, False}

    @pytest.mark.parametrize(
        "targets", [(5, 0), (0, 5), (6, 1), (6, 1, 3), (0, 3, 6)],
        ids=lambda t: "-".join(map(str, t)),
    )
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_lone_dense_step_wider_than_the_window(self, targets, real):
        """A lone dense step whose span is wider than ``_FUSE_QUBITS`` plans as a
        gather of its targets to the bottom of the span, the gate, and the
        gather back."""
        n, m = 7, len(targets)
        rng = np.random.default_rng(list(targets))
        gate = (random_orthogonal if real else random_unitary)(m, rng)
        c = Circuit(n, (Step(GateDef("G", gate), targets),))
        lo, span = min(targets), max(targets) - min(targets) + 1
        assert span > _FUSE_QUBITS
        [(to_bottom, lo_a), (g, lo_b), (back, lo_c)] = c._plan
        assert g is gate and lo_a == lo_b == lo_c == lo
        for gather in (to_bottom, back):
            assert isinstance(gather, _MonomialOperator) and gather.phases is None
            assert gather.n == span
        full = kron_embed_oracle(gate.matrix, list(targets), n)
        assert np.max(np.abs(compile_circuit(c).matrix - full)) < 1e-12
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        out = run_circuit(c, StateVector(n, amps)).amplitudes
        assert np.max(np.abs(out - full @ amps)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_compile_in_many_blocks(self, seed, monkeypatch):
        """With blocks of 2^4 entries the seeded circuits on three qubits or
        more compile in several blocks, from four qubits one column at a time."""
        for c, total in (random_circuit_and_oracle(seed), monomial_circuit_and_oracle(seed)):
            eye = np.eye(1 << c.n, dtype=complex)
            one_block = _run_steps(c._plan, c.n, eye, np.empty_like(eye))[0]
            with monkeypatch.context() as patch:
                patch.setattr(circuits, "_BLOCK_ENTRIES", 1 << 4)
                blocked = compile_circuit(c).matrix
            assert np.max(np.abs(blocked - total)) < 1e-12
            assert np.max(np.abs(blocked - one_block)) < 1e-14

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

    @pytest.mark.parametrize("seed", range(30))
    def test_apply_gate_matches_embed(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        step = random_step(n, rng)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        gate, targets = step.gate.unitary, list(step.targets)
        full = kron_embed_oracle(gate.to_dense().matrix, targets, n)
        assert np.max(np.abs(kernel_matrix(gate, targets, n) - full)) < 1e-12
        out = run_circuit(Circuit(n, (step,)), StateVector(n, amps))
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
        real = random_orthogonal(m, rng)
        diagonal = DiagonalOperator(m, np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << m)))
        # a cycle through all 2^m rows, with phases: the plan gathers its rows
        perm = rng.permutation(1 << m)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << m))
        cycle = _MonomialOperator(m, perm[(np.argsort(perm) - 1) % (1 << m)], phases)
        monomial = DenseOperator(m, monomial_matrix(cycle))
        for gate in (dense, real, diagonal, monomial):
            full = kron_embed_oracle(gate.to_dense().matrix, list(targets), n)
            c = Circuit(n, (Step(GateDef("G", gate), targets),))
            if gate is monomial:
                assert isinstance(c._plan[0][0], _MonomialOperator)
            assert np.max(np.abs(compile_circuit(c).matrix - full)) < 1e-12
            out = run_circuit(c, StateVector(n, amps)).amplitudes
            assert np.max(np.abs(out - full @ amps)) < 1e-12

    def test_run_circuit_rejects_other_qubit_count(self):
        c = Circuit(2, (Step(standard_gate("H"), (0,)),))
        with pytest.raises(ValueError):
            run_circuit(c, StateVector.basis(3, 0))


class TestMonomialRuns:
    """Runs of basis-permuting steps fuse into one row gather and one phase
    scale; each is checked against the kron oracle and ``run_circuit``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_compile_matches_kron_oracle_product(self, seed):
        c, total = monomial_circuit_and_oracle(seed)
        assert np.max(np.abs(compile_circuit(c).matrix - total)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_columns_match_run_circuit(self, seed):
        c, total = monomial_circuit_and_oracle(seed)
        for x in range(1 << c.n):
            out = run_circuit(c, StateVector.basis(c.n, x)).amplitudes
            assert np.max(np.abs(total[:, x] - out)) < 1e-12

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
        # moves back past the evolution on qubits 0..7 into the CNOT's window
        for c, passes in (
            (fanout_circuit(8), 8), (simplified_fanout_circuit(8), 8), (parity_circuit(8), 5)
        ):
            assert len(c._plan) == passes
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
        circuits = [monomial_circuit_and_oracle(seed)[0] for seed in range(30)]
        circuits += [random_circuit_and_oracle(seed)[0] for seed in range(30)]
        circuits.append(from_text("CNOT 0 8\n", n=9))
        fused = [g for c in circuits for g, _ in c._plan if isinstance(g, _MonomialOperator)]
        assert len(fused) >= 20
        for gate in fused:
            assert np.array_equal(np.sort(gate.source), np.arange(1 << gate.n))
            assert gate.phases is None or np.max(np.abs(np.abs(gate.phases) - 1)) < 1e-12


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
            pytest.param(lambda: DiagonalOperator.identity(21), id="identity"),
            pytest.param(lambda: build_l2(9), id="build_l2"),
            pytest.param(lambda: fanout_reference(13), id="fanout_reference"),
            pytest.param(lambda: parity_reference(13), id="parity_reference"),
            pytest.param(lambda: compile_circuit(Circuit(13, ())), id="compile_circuit"),
            pytest.param(lambda: DiagonalOperator.identity(13).to_dense(), id="to_dense"),
        ],
    )
    def test_one_over_the_real_cap_raises_before_it_allocates(self, call):
        # one over its cap, each call would allocate 4 MiB (build_l2) to 1 GiB (dense)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSchmidt:
    def test_product_state(self):
        state = StateVector.basis(3, 0b101)
        assert schmidt_rank_one_deviation(state, 1) < 1e-14

    def test_bell_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        assert schmidt_rank_one_deviation(StateVector(2, amps), 0) > 0.5
