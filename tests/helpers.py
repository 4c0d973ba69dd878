"""The oracles shared by the test modules, one definition each: the Kronecker
oracle builds a circuit's unitary from bits alone, with neither the planner
nor the kernel, and the kernel loop runs the plan one entry at a time."""
import numpy as np

from spinfanout import circuits
from spinfanout.circuits import _apply_to_block
from spinfanout.core import DenseOperator, DiagonalOperator, StateVector


def random_unitary(n, rng):
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    q, r = np.linalg.qr(a)
    return DenseOperator(n, q * (np.diag(r) / np.abs(np.diag(r))))


def random_orthogonal(n, rng):
    """A real dense gate: the kernel multiplies it as a real matrix."""
    q, r = np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))
    return DenseOperator(n, q * np.sign(np.diag(r)))


def schmidt_rank_one_deviation(state: StateVector, cut_qubit: int) -> float:
    """Second singular value across the (cut qubit)/(rest) bipartition.

    Zero (within solver noise) iff the state is a product state across
    the cut: the oracle for the ``unentangled_control`` check.
    """
    n = state.n
    mat = np.moveaxis(state.amplitudes.reshape((2,) * n), n - 1 - cut_qubit, 0)
    sv = np.linalg.svd(mat.reshape(2, -1), compute_uv=False)
    return float(sv[1]) if len(sv) > 1 else 0.0


def kron_embed_oracle(gate_matrix, targets, n):
    """``gate_matrix`` on the qubits ``targets`` of n, entry by entry from bits:
    column ``col`` holds the gate's entry ``(j, local(col))`` at the row that
    agrees with ``col`` on every other bit and has the target bits ``j``."""
    idx, local = np.arange(1 << n), np.zeros(1 << n, dtype=int)
    for j, t in enumerate(targets):
        local |= ((idx >> t) & 1) << j
    rest = idx & ~sum(1 << t for t in targets)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for j in range(1 << len(targets)):
        full[rest | sum(((j >> i) & 1) << t for i, t in enumerate(targets)), idx] = gate_matrix[j, local]
    return full


def kron_oracle_product(c):
    """The product of the embedded steps of ``c``, its first step acting first;
    an embedded diagonal scales the rows of the product."""
    total = np.eye(1 << c.n, dtype=complex)
    for step in c.steps:
        embedded = kron_embed_oracle(step.gate.unitary.to_dense().matrix, step.targets, c.n)
        diagonal = isinstance(step.gate.unitary, DiagonalOperator)
        total = embedded.diagonal()[:, None] * total if diagonal else embedded @ total
    return total


def mixed_bits(c):
    """The input bits that ``c``'s plan mixes, ascending: k of them."""
    return [b for b in range(c.n) if c._support[0] >> b & 1]


def kernel_loop_blocks(c, mask):
    """``(start, block)`` for each complex block of ``_BLOCK_ENTRIES`` entries
    (or one column) of ``c``'s unitary on the 2^k summed columns of the bits
    ``mask``: column ``q`` starts from ``[bits(r) == q]``, ``bits`` packing
    those of ``mask``, and runs ``_apply_to_block`` for each plan entry."""
    n, dim = c.n, 1 << c.n
    rows, packed = np.arange(dim), np.zeros(dim, dtype=int)
    for j, b in enumerate(b for b in range(n) if mask >> b & 1):
        packed |= ((rows >> b) & 1) << j
    summed = 1 << mask.bit_count()
    cols = max(1, min(summed, circuits._BLOCK_ENTRIES >> n))
    for start in range(0, summed, cols):
        block = np.zeros((dim, cols), dtype=complex)
        here = (packed >= start) & (packed < start + cols)
        block[rows[here], packed[here] - start] = 1
        work = np.empty_like(block)
        for gate, lo in c._plan:
            block, work = _apply_to_block(block, gate, lo, n, work)
        yield start, block


def kernel_loop_matrix(c):
    """``c``'s unitary from :func:`kernel_loop_blocks` on its mixed bits M:
    entry ``(r, q)`` goes to column ``(owner[r] & ~M) | deposit_M(q)`` of a
    zeroed matrix, ``deposit_M`` spreading the bits of ``q`` onto M."""
    mixed, owner = c._support
    dim, bits = 1 << c.n, mixed_bits(c)
    q, deposit = np.arange(1 << len(bits)), np.zeros(1 << len(bits), dtype=int)
    for j, b in enumerate(bits):
        deposit |= ((q >> j) & 1) << b
    matrix = np.zeros((dim, dim), dtype=complex)
    for start, block in kernel_loop_blocks(c, mixed):
        columns = (owner & ~mixed)[:, None] | deposit[start:start + block.shape[1]]
        matrix[np.arange(dim)[:, None], columns] = block
    return matrix
