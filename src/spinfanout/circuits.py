"""Circuit data model and builders for the parity/fanout constructions.

A circuit is an ordered list of steps; the first listed step acts first.
The builders follow the qubit layout used throughout the package: for an
(n+1)-qubit parity or fanout circuit, the source wires are qubits
0..n-2, the rotated helper wire is qubit n-1, and the accumulator (the
fanout control) is qubit n.

A circuit holds its diagonal evolutions and one- and two-qubit gates, so
building one is bounded by the state cap (through :func:`un`); the dense
cap bounds the matrix of :func:`compile_circuit` and the summed columns
of :func:`_summed_blocks`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DenseOperator,
    DiagonalOperator,
    Operator,
    StateVector,
    check_dense,
    check_state,
)
from .gates import GateDef, _Gate, standard_gate
from .hamiltonians import un, un_dagger


# widest qubit window that a run of steps is fused into
_FUSE_QUBITS = 4

# entries per column block of a compiled unitary: a block of at most 2^16
# complex entries (1 MiB) and the kernel's scratch array of the same size
# fit together in a 2 MiB per-core L2 cache, and no second full-size
# matrix is allocated
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Step:
    gate: GateDef
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    n: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        for step in self.steps:
            targets, m = list(step.targets), step.gate.unitary.n
            if len(set(targets)) != len(targets):
                raise IndexError(f"duplicate targets in {targets}")
            if not all(0 <= t < self.n for t in targets):
                raise IndexError(f"targets {targets} out of range for {self.n} qubits")
            if m != len(targets):
                raise IndexError(f"gate acts on {m} qubits but {len(targets)} targets given")

    @cached_property
    def _plan(self) -> tuple[_Entry, ...]:
        """The steps as plan entries (see ``_Entry``), one fused run of
        :func:`_runs` after another."""
        return tuple(entry for run in _runs(self.steps) for entry in _fuse(*run))

    @cached_property
    def _real_prefix(self) -> int:
        """The number of leading plan entries whose data (matrix, entries or
        phases) are real: :func:`_summed_blocks` runs them on float64 blocks."""
        for i, (gate, _) in enumerate(self._plan):
            data = (gate.phases if isinstance(gate, _MonomialOperator)
                    else gate.entries if isinstance(gate, DiagonalOperator) else gate.matrix)
            if data is not None and data.imag.any():
                return i
        return len(self._plan)

    @cached_property
    def _support(self) -> tuple[int, np.ndarray]:
        """``(mixed, owner)``: the input bits that some dense plan entry mixes,
        and for each row, the input row whose value the plan's monomial
        gathers bring there.

        A dense entry ``G`` moves amplitude between local rows ``i`` and ``j``
        only where ``G[i, j] != 0``, so only in the local bits ``B``, the OR
        of those ``i ^ j``.  It mixes the bits in which the owners of two rows
        that differ only in ``B`` differ, taken here against the row of each
        such set that is 0 in ``B``.  So two inputs that differ in a bit
        outside ``mixed`` never reach one row: column ``x`` of the unitary is
        zero but at the rows ``r`` with ``owner[r] & ~mixed == x & ~mixed``
        (see :func:`_summed_blocks`)."""
        owner, mixed = np.arange(1 << self.n), 0
        for gate, lo in self._plan:
            view = owner.reshape(-1, 1 << gate.n, 1 << lo)
            if isinstance(gate, _MonomialOperator):
                owner = view[:, gate.source].reshape(-1)
            elif isinstance(gate, DenseOperator):
                local = np.arange(1 << gate.n)
                bits = np.bitwise_or.reduce((local[:, None] ^ local)[gate.matrix != 0])
                mixed |= int(np.bitwise_or.reduce(view ^ view[:, local & ~bits], axis=None))
        return mixed, owner


def _runs(steps: tuple[Step, ...]) -> list[tuple[int, int, bool, list[Step]]]:
    """The steps grouped into runs ``(lo, hi, all monomial, steps)`` to fuse.

    A step moves back past a later run only when its qubits are disjoint
    from that run's step qubits, as such gates commute exactly.  Of the runs
    it reaches so, it joins the earliest it can fuse with: both all
    monomial (see :func:`_monomial_form`), at any span, or a joint qubit
    span ``lo..hi`` within ``_FUSE_QUBITS``.  A monomial step takes an all
    monomial run before any other, as it composes into the run's one
    gather for free, where it would widen a dense run's product or make a
    real one complex.  A step that reaches no such run starts a new one.
    """
    runs: list[list] = []  # [lo, hi, all monomial, steps, qubits of its steps]
    for step in steps:
        lo, hi = min(step.targets, default=0), max(step.targets, default=0)
        monomial = _monomial_form(step.gate.unitary) is not None
        qubits = set(step.targets)
        join = free = None
        for run in reversed(runs):
            if monomial and run[2]:
                free = run
            elif max(hi, run[1]) - min(lo, run[0]) < _FUSE_QUBITS:
                join = run
            if qubits & run[4]:
                break
        join = free or join
        if join is None:
            runs.append([lo, hi, monomial, [step], qubits])
        else:
            join[:3] = min(lo, join[0]), max(hi, join[1]), monomial and join[2]
            join[3].append(step)
            join[4] |= qubits
    return [tuple(run[:4]) for run in runs]


@dataclass(frozen=True)
class _MonomialOperator:
    """Operator with one nonzero per row and column: row ``r`` of its product
    with a block is ``phases[r]`` times row ``source[r]`` of the block.
    ``phases`` is None when every phase is 1.  Only circuit plans hold one.
    """

    n: int
    source: np.ndarray
    phases: np.ndarray | None


# a plan entry ``(gate, lo)``: the gate on the qubits ``lo .. lo + gate.n - 1``
_Entry = tuple[_Gate | _MonomialOperator, int]


def _evolution_gate(name: str, n: int) -> GateDef:
    """``UN`` or ``UNDAG`` on ``n`` qubits."""
    return GateDef(name, (un if name == "UN" else un_dagger)(n))


def _monomial_form(gate: _Gate) -> tuple[np.ndarray | None, np.ndarray | None] | None:
    """``(source, phases)`` of a gate whose matrix has exactly one nonzero in
    each row and column: local row ``r`` of its output is ``phases[r]`` times
    local row ``source[r]`` of its input.  ``source`` is None for a diagonal,
    and ``phases`` is None for a dense gate whose every phase is 1 (X,
    CNOT).  None for any other gate."""
    if isinstance(gate, DiagonalOperator):
        return None, gate.entries
    dim = 1 << gate.n
    nonzero = gate.matrix != 0
    # 2^n nonzeros, none of its rows or columns without one: one in each
    if np.count_nonzero(nonzero) != dim or not (nonzero.any(0).all() and nonzero.any(1).all()):
        return None
    source = np.argmax(nonzero, axis=1)
    phases = gate.matrix[np.arange(dim), source]
    return source, None if np.all(phases == 1) else phases


def _local_index(targets: list[int], m: int) -> np.ndarray:
    """The local basis index formed from the target bits of each of the 2^m rows."""
    idx = np.arange(1 << m)
    if targets and targets == list(range(targets[0], targets[0] + len(targets))):
        return (idx >> targets[0]) & ((1 << len(targets)) - 1)
    local = np.zeros_like(idx)
    for j, t in enumerate(targets):
        local |= ((idx >> t) & 1) << j
    return local


def _set_target_bits(values: np.ndarray, targets: list[int], m: int) -> np.ndarray:
    """Each of the 2^m basis indices with its target bits set from ``values``:
    bit ``j`` of ``values[r]`` goes to qubit ``targets[j]`` of row ``r``."""
    rows = np.arange(1 << m) & ~sum(1 << t for t in targets)
    for j, t in enumerate(targets):
        rows |= ((values >> j) & 1) << t
    return rows


def _adjacent(gate: _Gate, targets: list[int]) -> list[_Entry]:
    """``gate`` on ``targets`` as plan entries on ascending adjacent qubits.

    Targets that already are give the gate itself.  Otherwise a gather
    brings the targets, in order, to the bottom of their span ``lo..hi``
    (the other qubits of the span above them, in ascending order), the gate
    acts there, and a second gather puts every qubit back.
    """
    lo = min(targets, default=0)
    if targets == list(range(lo, lo + len(targets))):
        return [(gate, lo)]
    order = [t - lo for t in targets]
    m = max(order) + 1
    order += [q for q in range(m) if q not in order]
    to_bottom = _MonomialOperator(m, _set_target_bits(np.arange(1 << m), order, m), None)
    back = _MonomialOperator(m, _local_index(order, m), None)
    return [(to_bottom, lo), (gate, lo), (back, lo)]


def _fuse(lo: int, hi: int, monomial: bool, steps: list[Step]) -> list[_Entry]:
    """Plan entries that apply ``steps`` in order, on ascending adjacent qubits.

    A monomial run composes its steps' source rows and phases, each left
    as None (rows in place, every phase 1) until a step sets it, into one
    gate on ``lo..hi``: a diagonal when its rows stay in place.  Any other
    run is one dense gate on ``lo..hi``, built by the kernel on the
    identity from its steps placed by :func:`_adjacent`.  A lone step that
    does not permute rows is kept when it is on ``lo..hi`` in order, and
    a lone dense step wider than ``_FUSE_QUBITS`` is placed by :func:`_adjacent`.
    """
    m = hi - lo + 1
    gate, targets = steps[0].gate.unitary, list(steps[0].targets)
    permutes = monomial and not isinstance(gate, DiagonalOperator)
    on_span = targets == list(range(lo, hi + 1))
    if len(steps) == 1 and not permutes and (on_span or not monomial and m > _FUSE_QUBITS):
        return _adjacent(gate, targets)
    if monomial:
        source = phases = None
        for step in steps:
            local = [t - lo for t in step.targets]
            step_source, step_phases = _monomial_form(step.gate.unitary)
            index = _local_index(local, m)
            if step_source is not None:
                rows = _set_target_bits(step_source[index], local, m)
                source = rows if source is None else source[rows]
                phases = None if phases is None else phases[rows]
            if step_phases is not None:
                step_phases = step_phases[index]
                phases = step_phases if phases is None else phases * step_phases
        if source is None or np.array_equal(source, np.arange(1 << m)):
            return [(DiagonalOperator(m, np.ones(1 << m) if phases is None else phases), lo)]
        if phases is not None and np.all(phases == 1):
            phases = None
        return [(_MonomialOperator(m, source, phases), lo)]
    block = np.eye(1 << m, dtype=complex)
    work = np.empty_like(block)
    for step in steps:
        for placed, at in _adjacent(step.gate.unitary, [t - lo for t in step.targets]):
            block, work = _apply_to_block(block, placed, at, m, work)
    return [(DenseOperator(m, block), lo)]


def _apply_to_block(
    block: np.ndarray, gate: _Gate | _MonomialOperator, lo: int, n: int, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``gate`` on the qubits ``lo .. lo + m - 1`` (``m = gate.n``) to
    every column of a ``(2^n, cols)`` block, as one operation on the middle
    axis of its ``(2^(n-lo-m), 2^m, cols)`` view: a diagonal scales it in
    place, a monomial gate gathers and scales it, and a dense gate is one
    batched matrix product.  A ``float64`` block takes only a gate whose
    data are real (see ``Circuit._real_prefix``).

    The one gate-application kernel: state vectors are blocks with one
    column, and a compiled unitary is filled one block of columns of the
    identity at a time.  ``block`` (C-contiguous) and ``work``, a scratch
    array of the same shape, are both overwritten, so a loop of calls
    allocates no large arrays.  Returns ``(result, scratch)``: the array
    that now holds the result, and the other one for the next call.
    """
    view = block.reshape(1 << (n - lo - gate.n), 1 << gate.n, -1)
    real = block.dtype == np.float64
    if isinstance(gate, DiagonalOperator):
        view *= (gate.entries.real if real else gate.entries).reshape(-1, 1)
        return block, work
    out = work.reshape(view.shape)
    if isinstance(gate, _MonomialOperator):
        # the source is in range by construction; mode="raise" would buffer `out`
        np.take(view, gate.source, axis=1, out=out, mode="wrap")
        if gate.phases is not None:
            out *= (gate.phases.real if real else gate.phases).reshape(-1, 1)
    else:
        _matmul(gate.matrix, view, out)
    return work, block


def _matmul(mat: np.ndarray, operand: np.ndarray, out: np.ndarray) -> None:
    """``mat @ operand`` into ``out``, over the last two axes of arrays whose
    last axis is contiguous.  A real ``mat`` multiplies the ``float64`` view,
    which for a complex operand interleaves the real and imaginary parts:
    half the work of a complex product, and the same sums."""
    if not mat.imag.any():
        mat = np.ascontiguousarray(mat.real)
        operand, out = operand.view(np.float64), out.view(np.float64)
    np.matmul(mat, operand, out=out)


def _run_steps(
    plan: tuple[_Entry, ...], n: int, block: np.ndarray, work: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The plan entries applied, in order, to the columns of a ``(2^n, cols)``
    block with ``work`` as scratch; returns whichever of the two holds the
    result.

    With ``out``, an array of the block's shape, the result lands in ``out``,
    which is returned.  A dense last entry at ``lo = 0`` on a block of
    ``out``'s dtype takes ``out`` as its scratch, so its product is written
    there: a column slice of a compiled unitary reshapes to that entry's view
    without a copy, and BLAS takes the slice's row stride.  Any other result
    is copied into ``out`` (cast, from a ``float64`` block): a gather into a
    strided ``out`` is buffered, and at ``lo > 0`` the view of a slice would
    be a copy."""
    direct = (out is not None and plan and plan[-1][1] == 0 and block.dtype == out.dtype
              and isinstance(plan[-1][0], DenseOperator))
    for i, (gate, lo) in enumerate(plan):
        last = direct and i == len(plan) - 1
        block, work = _apply_to_block(block, gate, lo, n, out if last else work)
    if out is None or block is out:
        return block
    np.copyto(out, block)
    return out


def _summed_inputs(n: int, mask: int) -> np.ndarray:
    """The inputs summed into each column on the bits ``mask``: row ``q`` holds,
    in ascending order, the 2^(n-k) inputs whose bits at the k set bits of
    ``mask``, packed low to high, are ``q``."""
    x = np.arange(1 << n)
    return x[(x & ~mask) == 0][:, None] | x[(x & mask) == 0]


def _summed_blocks(c: Circuit, extra: int = 0, result: np.ndarray | None = None):
    """``(inputs, block)`` for each block of the circuit's unitary on 2^k summed
    columns, in column order: column ``q`` is the plan applied to the sum of
    the basis inputs ``inputs[q]`` (see :func:`_summed_inputs`), those whose
    bits at the k set bits of ``mask``, the mixed bits of ``c._support`` and
    ``extra``, are ``q``.

    Those inputs differ only outside ``mask``, so no two reach one row:
    entry ``(r, q)`` is entry ``(r, (owner[r] & ~mask) | inputs[q, 0])`` of
    the unitary, and its other entries in those columns are exact zeros.
    At k = n the columns are the basis ones, and ``inputs[q, 0]`` is the
    basis input of column ``q``.  Each block starts from its sums (at k = n,
    a slice of the identity), runs the plan's real prefix on ``float64``
    sums, and the rest of the plan once made complex, in blocks of at most
    ``_BLOCK_ENTRIES`` entries (or one column).  Every block is overwritten
    by the next one.  At k = n, ``result``, if given, is the unitary: each
    block lands in its column slice ``result[:, q0:q0 + cols]`` (see
    :func:`_run_steps`), which is what is yielded.  The state cap bounds the
    2^n rows, and the dense cap the 2^k columns (at k = n, the dense
    unitary), before the first block.
    """
    check_state(c.n)
    n, dim = c.n, 1 << c.n
    mask = c._support[0] | extra
    check_dense(mask.bit_count())
    inputs = _summed_inputs(n, mask)
    cols = max(1, min(len(inputs), _BLOCK_ENTRIES >> n))
    # the block and its scratch are one array made once per loop: whether a
    # fresh 1 MiB array is mmapped or taken from the heap depends on glibc's
    # dynamic mmap threshold, which freeing a larger mmapped array raises, and
    # one taken from a trimmed heap faults its pages in anew each time
    pair = np.empty((2, dim, cols), dtype=complex)
    # the float64 pair shares the first complex block's bytes; one column stays
    # complex, as numpy's matrix-vector product rounds a float64 one differently
    head = c._plan[:c._real_prefix] if cols > 1 else ()
    tail = c._plan[len(head):]
    floats = pair[0].reshape(-1).view(np.float64).reshape(2, dim, cols)
    sums, work = floats if head else pair[::-1]
    for start in range(0, len(inputs), cols):
        out = None if result is None else result[:, start:start + cols]
        sums.fill(0)
        sums[inputs[start:start + cols], np.arange(cols)[:, None]] = 1
        # the real prefix lands, made complex, in the second complex block, or
        # in the slice when it is the whole plan (without one, sums is pair[1])
        block = _run_steps(head, n, sums, work, pair[1] if tail or out is None else out)
        yield inputs[start:start + cols], _run_steps(tail, n, block, pair[0], out)


def compile_circuit(c: Circuit) -> DenseOperator:
    """Circuit unitary: every step applied, in order, to the columns of the identity.

    The plan runs on the 2^k summed columns of :func:`_summed_blocks`, k the
    input bits its dense entries mix, in blocks of at most 2^16 entries, so a
    compile holds the result and two blocks.  At k < n each block is
    scattered into a zeroed result.  At k = n the columns are the basis
    ones, so every entry is written and the result is not zeroed: each block
    lands in its column slice, written there by a dense last plan entry at
    ``lo = 0`` and copied there otherwise.
    """
    check_dense(c.n)
    dim = 1 << c.n
    mixed, owner = c._support
    if mixed == dim - 1:
        matrix = np.empty((dim, dim), dtype=complex)
        for _ in _summed_blocks(c, result=matrix):
            pass
        return DenseOperator(c.n, matrix)
    matrix = np.zeros((dim, dim), dtype=complex)
    flat, index = matrix.reshape(-1), None
    for inputs, block in _summed_blocks(c):
        if index is None:
            # flat index of entry (r, q) of the first block; in a later
            # block, whose first column q0 is a multiple of its width,
            # the inputs of column q0 + j are inputs[q0, 0] | inputs[j, 0]
            index = (np.arange(0, dim * dim, dim) + (owner & ~mixed))[:, None] + inputs[:, 0]
        flat[inputs[0, 0]:][index] = block
    return DenseOperator(c.n, matrix)


def run_circuit(c: Circuit, state: StateVector) -> StateVector:
    """Apply the circuit's steps to a state, in order."""
    if state.n != c.n:
        raise ValueError(f"circuit on {c.n} qubits applied to a {state.n}-qubit state")
    check_state(c.n)
    amps = state.amplitudes[:, None].copy()
    return StateVector(c.n, _run_steps(c._plan, c.n, amps, np.empty_like(amps))[:, 0])


def _use_swapped_evolution(n: int) -> bool:
    """Whether the evolution and its adjoint trade places (n = 0 mod 4)."""
    return n % 4 == 0


def _parity_steps(n: int, swapped: bool | None) -> tuple[Step, ...]:
    """The nine steps of Fig. 4 on qubits 0..n; every circuit below is built from them."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"parity construction needs even n >= 2, got {n}")
    if swapped is None:
        swapped = _use_swapped_evolution(n)
    e = _evolution_gate("UNDAG" if swapped else "UN", n)
    e_inv = _evolution_gate("UN" if swapped else "UNDAG", n)
    h, s, sdag, cnot = (standard_gate(g) for g in ("H", "S", "SDAG", "CNOT"))
    all_n = tuple(range(n))
    r = n - 1  # the rotated helper wire
    return (
        Step(h, (r,)),
        Step(e, all_n),
        Step(sdag, (r,)),
        Step(h, (r,)),
        Step(cnot, (r, n)),  # control r, target accumulator
        Step(h, (r,)),
        Step(s, (r,)),
        Step(e_inv, all_n),
        Step(h, (r,)),
    )


def _hadamard_layer(qubits) -> tuple[Step, ...]:
    h = standard_gate("H")
    return tuple(Step(h, (q,)) for q in qubits)


def parity_circuit(n: int, swapped: bool | None = None) -> Circuit:
    """(n+1)-qubit circuit computing the parity of qubits 0..n-1 into qubit n.

    ``swapped`` selects which of the evolution/adjoint pair comes first
    (in every builder here); by default it follows the mod-4 rule that
    makes the identity hold. Forcing the wrong value is useful as a
    negative control.
    """
    return Circuit(n + 1, _parity_steps(n, swapped))


def parity_like_circuit(n: int, swapped: bool | None = None) -> Circuit:
    """n-qubit circuit with one evolution: parity lands on qubit n-1.

    For inputs with qubit n-1 in |0>, the output is a unit-phase multiple
    of the input with qubit n-1 replaced by the parity of the others.
    """
    steps = _parity_steps(n, swapped)[:4]
    return Circuit(n, steps + (Step(standard_gate("SDAG"), (n - 1,)),))


def fanout_circuit(n: int, swapped: bool | None = None) -> Circuit:
    """(n+1)-qubit fanout from the parity circuit conjugated by Hadamards.

    The fanout control is qubit n (the parity accumulator wire).
    """
    steps = _parity_steps(n, swapped)
    layer = _hadamard_layer(range(n + 1))
    return Circuit(n + 1, layer + steps + layer)


def simplified_fanout_circuit(n: int, swapped: bool | None = None) -> Circuit:
    """Fanout circuit with the two H pairs on the helper wire n-1 cancelled.

    Same unitary as :func:`fanout_circuit`, four fewer gates.
    """
    steps = _parity_steps(n, swapped)
    layer = _hadamard_layer(q for q in range(n + 1) if q != n - 1)
    return Circuit(n + 1, layer + steps[1:-1] + layer)


def to_text(c: Circuit) -> str:
    """Line-oriented serialization: one step per line, ``GATE q_i [q_j]``.

    Evolutions on qubits 0..k-1 serialize as ``UN k`` / ``UNDAG k``.  A step
    whose gate :func:`from_text` would not read back from its line (one that
    is not the standard gate of its name, or not ``un(k)`` or
    ``un_dagger(k)``) raises ``ValueError`` naming the step.
    """
    lines = []
    for i, step in enumerate(c.steps):
        name = step.gate.name
        if name in ("UN", "UNDAG"):
            k = step.gate.unitary.n
            if step.targets != tuple(range(k)):
                raise ValueError("evolution steps must act on qubits 0..k-1")
            line, read_back = f"{name} {k}", _evolution_gate(name, k)
        else:
            line = " ".join([name] + [str(t) for t in step.targets])
            try:
                read_back = standard_gate(name.upper())  # as from_text reads the name
            except KeyError:
                read_back = None
        if read_back is None or not _same_matrix(step.gate.unitary, read_back.unitary):
            raise ValueError(f"step {i}: {line!r} would not read back as its gate")
        lines.append(line)
    return "\n".join(lines) + "\n"


def _same_matrix(u: Operator, v: Operator) -> bool:
    """Whether ``u`` and ``v`` hold exactly the same matrix."""
    if isinstance(u, DiagonalOperator) and isinstance(v, DiagonalOperator):
        return np.array_equal(u.entries, v.entries)
    return u.n == v.n and np.array_equal(u.to_dense().matrix, v.to_dense().matrix)


def from_text(text: str, n: int | None = None) -> Circuit:
    """Parse the line format of :func:`to_text`.

    ``n`` defaults to one more than the highest qubit index mentioned.
    Malformed lines (an unknown gate, wrong number of qubits, a repeated
    qubit, a qubit outside ``0..n-1``) raise ``ValueError`` naming the
    line, as does a given ``n`` below 1.
    """
    if n is not None and n < 1:
        raise ValueError("n must be >= 1")
    raw_steps: list[tuple[int, str, tuple[int, ...]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name = parts[0].upper()
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad qubit index in {line!r}") from exc
        if name in ("UN", "UNDAG"):
            if len(args) != 1 or args[0] < 1:
                raise ValueError(f"line {lineno}: {name} takes one positive size")
            check_state(args[0])  # before the k targets are built
            raw_steps.append((lineno, name, tuple(range(args[0]))))
            continue
        try:
            arity = standard_gate(name).unitary.n
        except KeyError:
            raise ValueError(f"line {lineno}: unknown gate {parts[0]!r}") from None
        if len(args) != arity:
            raise ValueError(
                f"line {lineno}: {name} takes {arity} qubit(s), got {len(args)}"
            )
        if len(set(args)) != len(args):
            raise ValueError(f"line {lineno}: repeated qubit in {line!r}")
        raw_steps.append((lineno, name, tuple(args)))
    if not raw_steps and n is None:
        raise ValueError("empty circuit with no qubit count given")
    inferred = max((max(t) + 1 for _, _, t in raw_steps if t), default=1)
    n = inferred if n is None else n
    steps = []
    for lineno, name, targets in raw_steps:
        bad = [t for t in targets if not 0 <= t < n]
        if bad:
            raise ValueError(f"line {lineno}: qubit {bad[0]} out of range for {n} qubits")
        if name in ("UN", "UNDAG"):
            steps.append(Step(_evolution_gate(name, len(targets)), targets))
        else:
            steps.append(Step(standard_gate(name), targets))
    return Circuit(n, tuple(steps))
