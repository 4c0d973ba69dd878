"""Oracles and generators shared by several test modules."""
import numpy as np

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
