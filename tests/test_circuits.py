import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from spinfanout import circuits, verify
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
    _apply_to_block,
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
from spinfanout.gates import (
    _STANDARD,
    GateDef,
    fanout_reference,
    parity_reference,
    standard_gate,
)
from spinfanout.hamiltonians import un, un_dagger

from helpers import kernel_loop_blocks, random_unitary


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
            Circuit(2, (Step(standard_gate("CNOT"), (0, 0)),))
        with pytest.raises(IndexError):
            Circuit(2, (Step(standard_gate("H"), (0, 1)),))


def mixed_bits(c):
    """The input bits that ``c``'s plan mixes, ascending: k of them."""
    return [b for b in range(c.n) if c._support[0] >> b & 1]


def summed_loop_matrix(c):
    """``c``'s unitary as the kernel loop on summed columns gives it: each block
    of columns ``q`` starts from ``S0[r, q] = [bits_M(r) == q]``, where
    ``bits_M`` packs the mixed bits low to high, runs ``_apply_to_block`` for
    each entry of ``c._plan``, and its entry ``(r, q)`` goes to column
    ``(owner[r] & ~M) | deposit_M(q)`` of a zeroed matrix."""
    n, dim = c.n, 1 << c.n
    mixed, owner = c._support
    bits = mixed_bits(c)
    k = len(bits)
    rows, packed, deposit = np.arange(dim), np.zeros(dim, dtype=int), np.zeros(1 << k, dtype=int)
    for j, b in enumerate(bits):
        packed |= ((rows >> b) & 1) << j
        deposit |= ((np.arange(1 << k) >> j) & 1) << b
    cols = max(1, min(1 << k, circuits._BLOCK_ENTRIES >> n))
    matrix = np.zeros((dim, dim), dtype=complex)
    for start in range(0, 1 << k, cols):
        block = np.zeros((dim, cols), dtype=complex)
        here = (packed >= start) & (packed < start + cols)
        block[rows[here], packed[here] - start] = 1
        work = np.empty_like(block)
        for gate, lo in c._plan:
            block, work = _apply_to_block(block, gate, lo, n, work)
        columns = (owner & ~mixed)[:, None] | deposit[start:start + cols]
        matrix[rows[:, None], columns] = block
    return matrix


def kernel_loop_matrix(c):
    """``c``'s unitary from the kernel loop, as ``compile_circuit`` builds it: on
    the basis columns when the plan mixes all n input bits, and otherwise on
    the 2^k summed columns (:func:`summed_loop_matrix`)."""
    if len(mixed_bits(c)) < c.n:
        return summed_loop_matrix(c)
    return np.hstack([block for _, block in kernel_loop_blocks(c)])


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


def full_support_circuits():
    """Each case of :func:`entry_kind_circuits` after a Hadamard on all 7 qubits
    as one dense gate, which fuses with none of it: its plan mixes every
    input bit (k = n), and then runs the case's entries."""
    h7 = functools.reduce(np.kron, [standard_gate("H").unitary.matrix] * 7)
    layer = Step(GateDef("H7", DenseOperator(7, h7)), tuple(range(7)))
    return {
        f"{name} after H on all": Circuit(7, (layer,) + c.steps)
        for name, c in entry_kind_circuits().items()
    }


class TestColumnBlocks:
    """``compile_circuit`` and ``_summed_blocks`` on all n bits start each block
    from its slice of the identity and run the whole plan; both must equal
    the entry-by-entry kernel loop byte for byte, signed zeros included.  A
    plan that mixes k < n input bits compiles on 2^k summed columns, and its
    kernel loop does too."""

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

    def test_full_support_cases_mix_every_bit_and_keep_their_last_entry(self):
        cases = entry_kind_circuits()
        for name, c in full_support_circuits().items():
            assert c._support[0] == 127, name
            plan = cases[name.removesuffix(" after H on all")]._plan
            assert [kind(e) for e in c._plan] == ["real dense at lo = 0"] + [kind(e) for e in plan]
        assert {kind(c._plan[-1]) for name, c in full_support_circuits().items()} >= set(ENTRY_KINDS)

    @pytest.mark.parametrize("entries", [1 << 16, 1 << 4], ids=["default", "2^4"])
    @pytest.mark.parametrize("name", list(entry_kind_circuits()) + list(full_support_circuits()))
    def test_blocks_and_compile_equal_the_kernel_loop(self, name, entries, monkeypatch):
        c = {**entry_kind_circuits(), **full_support_circuits()}[name]
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", entries)
        expected = list(kernel_loop_blocks(c))
        blocks = _summed_blocks(c, (1 << c.n) - 1)
        got = [(int(inputs[0, 0]), block.tobytes()) for inputs, block in blocks]
        assert got == [(start, block.tobytes()) for start, block in expected]
        assert compile_circuit(c).matrix.tobytes() == kernel_loop_matrix(c).tobytes()

    @pytest.mark.parametrize("entries", [1 << 16, 1 << 4], ids=["default", "2^4"])
    @pytest.mark.parametrize(
        "build", [parity_circuit, parity_like_circuit, fanout_circuit, simplified_fanout_circuit]
    )
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_paper_circuits_equal_the_kernel_loop(self, n, build, entries, monkeypatch):
        c = build(n)
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", entries)
        assert compile_circuit(c).matrix.tobytes() == kernel_loop_matrix(c).tobytes()


# real plan entries of every kind: dense, monomial with real phases, diagonal
REAL_STEPS = "H 0\nH 1\nCNOT 1 6\nH 6\nCZ 0 6\nX 3\nZ 3\n"


def real_prefix_circuits():
    """7-qubit circuits whose plans start with several real entries and end
    at each kind of first complex entry, one with an empty real prefix, and
    the all-real Fig. 3 circuit: each with the length of its real prefix
    and the kind of its first complex entry."""
    texts = {
        "complex diagonal": (REAL_STEPS + "S 0\nCZ 0 6\n", 3, "diagonal"),
        "complex dense": (REAL_STEPS + "H 6\nS 6\nH 6\n", 4, "complex dense at lo > 0"),
        "monomial with complex phases": (REAL_STEPS + "CNOT 6 0\nS 0\n", 3, "monomial with phases"),
        "empty prefix": ("S 0\n" + REAL_STEPS, 0, "complex dense at lo = 0"),
    }
    cases = {name: (from_text(text, n=7), real, first) for name, (text, real, first) in texts.items()}
    fig3 = verify._fig3_circuit(6)
    cases["all real (Fig. 3)"] = (fig3, len(fig3._plan), None)
    return cases


def is_real(entry):
    gate, _ = entry
    data = getattr(gate, "matrix", getattr(gate, "entries", getattr(gate, "phases", None)))
    return data is None or not np.iscomplex(data).any()


class TestRealPrefix:
    """The leading plan entries whose data are real run on float64 blocks;
    every block must equal the complex kernel loop byte for byte, at every
    block width (a one-column block stays complex)."""

    @pytest.mark.parametrize("name", list(real_prefix_circuits()))
    def test_prefix_is_the_leading_real_entries(self, name):
        c, real, first = real_prefix_circuits()[name]
        assert c._real_prefix == real
        assert [is_real(e) for e in c._plan[:real]] == [True] * real
        assert first is None or (not is_real(c._plan[real]) and kind(c._plan[real]) == first)
        if first and real > 1:  # a real dense entry, a real monomial with phases (X 3, Z 3), ...
            assert {"real dense at lo = 0", "monomial with phases"} <= {kind(e) for e in c._plan[:real]}
        if name == "complex dense":  # ... and a real diagonal (CZ 0 6)
            assert kind(c._plan[3]) == "diagonal"

    @pytest.mark.parametrize("entries", [1 << 16, 1 << 10, 1 << 4], ids=["2^16", "2^10", "2^4"])
    @pytest.mark.parametrize("name", list(real_prefix_circuits()))
    def test_blocks_and_compile_equal_the_complex_kernel_loop(self, name, entries, monkeypatch):
        c = real_prefix_circuits()[name][0]
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", entries)
        expected = [(start, block.tobytes()) for start, block in kernel_loop_blocks(c)]
        got = [(int(inputs[0, 0]), block.tobytes())
               for inputs, block in _summed_blocks(c, (1 << c.n) - 1)]
        assert got == expected
        assert compile_circuit(c).matrix.tobytes() == kernel_loop_matrix(c).tobytes()


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


def kernel_matrix(gate, targets, n):
    """``gate`` on ``targets``, compiled as a one-step circuit."""
    return compile_circuit(Circuit(n, (Step(GateDef("G", gate), tuple(targets)),))).matrix


def apply_step(state, gate, targets):
    """``state`` run through the one-step circuit of ``gate`` on ``targets``."""
    c = Circuit(state.n, (Step(GateDef("G", gate), tuple(targets)),))
    return run_circuit(c, state)


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


def random_orthogonal(n, rng):
    """A real dense gate: the kernel multiplies it as a real matrix."""
    q, r = np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))
    return DenseOperator(n, q * np.sign(np.diag(r)))


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


# the seeded circuit families, 30 seeds each
FAMILIES = ("random", "monomial")


@functools.lru_cache(maxsize=None)
def seeded_circuit_and_oracle(family, seed):
    """The seeded ``random_circuit`` or ``monomial_circuit`` and the product of
    its kron-embedded steps."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng) if family == "random" else monomial_circuit(rng, seed)
    return c, kron_oracle_product(c)


def assert_columns_match_run_circuit(c, total):
    """Every basis column of ``run_circuit`` equals that column of ``total``."""
    for x in range(1 << c.n):
        out = run_circuit(c, StateVector.basis(c.n, x)).amplitudes
        assert np.max(np.abs(total[:, x] - out)) < 1e-12


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
        c, total = seeded_circuit_and_oracle("random", seed)
        assert np.max(np.abs(compile_circuit(c).matrix - total)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_columns_match_run_circuit(self, seed):
        assert_columns_match_run_circuit(*seeded_circuit_and_oracle("random", seed))

    @pytest.mark.parametrize("seed", range(30))
    def test_compile_in_many_blocks(self, seed, monkeypatch):
        """With blocks of 2^4 entries the seeded circuits on three qubits or
        more compile in several blocks, from four qubits one column at a time;
        the compile equals the kron product and, byte for byte, the kernel
        loop over the same blocks."""
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", 1 << 4)
        for family in FAMILIES:
            c, total = seeded_circuit_and_oracle(family, seed)
            blocked = compile_circuit(c).matrix
            assert np.max(np.abs(blocked - total)) < 1e-12
            assert blocked.tobytes() == kernel_loop_matrix(c).tobytes()

    def test_random_circuits_cover_the_fusion_cases(self):
        """The seeded circuits of both families reach every kind of fused run."""
        seeded = [seeded_circuit_and_oracle(f, seed)[0] for f in FAMILIES for seed in range(30)]
        steps = [(c.n, s) for c in seeded for s in c.steps]
        plan = [(gate, lo) for c in seeded for gate, lo in c._plan]
        # the one layout the kernel handles: every gate on qubits lo .. lo + gate.n - 1
        assert all(0 <= lo and lo + g.n <= c.n for c in seeded for g, lo in c._plan)
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


class TestSummedColumns:
    """A plan whose dense entries mix k < n input bits compiles on 2^k summed
    columns: ``Circuit._support`` names the mixed bits and, for each row, the
    input that the plan's gathers bring there."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_kron_product_is_zero_outside_the_support(self, family, seed):
        c, total = seeded_circuit_and_oracle(family, seed)
        mixed, owner = c._support
        rows, inputs = np.nonzero(total)
        assert np.array_equal(inputs & ~mixed, owner[rows] & ~mixed)
        assert np.max(np.abs(compile_circuit(c).matrix - total)) < 1e-12

    def test_seeded_circuits_reach_every_width(self):
        seeded = [seeded_circuit_and_oracle(f, seed)[0] for f in FAMILIES for seed in range(30)]
        gaps = {c.n - len(mixed_bits(c)) for c in seeded}
        # every input bit mixed, all but one, all but four or more, and none
        assert {0, 1} <= gaps and max(gaps) >= 4
        assert any(not mixed_bits(c) for c in seeded)

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
    scale; each is checked against the kron oracle and ``run_circuit``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_compile_matches_kron_oracle_product(self, seed):
        c, total = seeded_circuit_and_oracle("monomial", seed)
        assert np.max(np.abs(compile_circuit(c).matrix - total)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_columns_match_run_circuit(self, seed):
        assert_columns_match_run_circuit(*seeded_circuit_and_oracle("monomial", seed))

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
        seeded = [seeded_circuit_and_oracle(f, seed)[0] for f in FAMILIES for seed in range(30)]
        seeded.append(from_text("CNOT 0 8\n", n=9))
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

    @pytest.mark.parametrize("build", [
        parity_circuit, parity_like_circuit, fanout_circuit, simplified_fanout_circuit
    ])
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("swapped", [None, True, False])
    def test_paper_circuits_round_trip(self, build, n, swapped):
        c = build(n, swapped=swapped)
        text = to_text(c)
        parsed = from_text(text, n=c.n)
        assert to_text(parsed) == text
        assert np.array_equal(compile_circuit(parsed).matrix, compile_circuit(c).matrix)

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_monomial_circuits_round_trip(self, seed):
        c, _ = seeded_circuit_and_oracle("monomial", seed)
        parsed = from_text(to_text(c), n=c.n)
        assert [(s.gate.name, s.targets) for s in parsed.steps] == [
            (s.gate.name, s.targets) for s in c.steps
        ]
        assert np.array_equal(compile_circuit(parsed).matrix, compile_circuit(c).matrix)

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
