"""Oracles and generators shared by several test modules."""
import numpy as np

from spinfanout import circuits
from spinfanout.circuits import _apply_to_block
from spinfanout.core import DenseOperator, StateVector


def random_unitary(n, rng):
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    q, r = np.linalg.qr(a)
    return DenseOperator(n, q * (np.diag(r) / np.abs(np.diag(r))))


def schmidt_rank_one_deviation(state: StateVector, cut_qubit: int) -> float:
    """Second singular value across the (cut qubit)/(rest) bipartition.

    Zero (within solver noise) iff the state is a product state across
    the cut: the oracle for the ``unentangled_control`` check.
    """
    n = state.n
    mat = np.moveaxis(state.amplitudes.reshape((2,) * n), n - 1 - cut_qubit, 0)
    sv = np.linalg.svd(mat.reshape(2, -1), compute_uv=False)
    return float(sv[1]) if len(sv) > 1 else 0.0


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
