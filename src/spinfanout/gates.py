"""Standard gates and exact reference unitaries for the multi-qubit gates.

Two-qubit gates put the control on the first listed target (local bit 0).
The multi-qubit references put the fanout control and the parity accumulator
on the last qubit: that is the wire the circuit builders treat as special.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DenseOperator,
    DiagonalOperator,
    Operator,
    _PermutationOperator,
    check_dense,
    check_state,
    popcounts,
)

_SQRT2_INV = 1 / np.sqrt(2)

_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
_X = np.array([[0, 1], [1, 0]], dtype=complex)

# control = local bit 0, target = local bit 1
_CNOT = np.zeros((4, 4), dtype=complex)
_CNOT[0, 0] = _CNOT[2, 2] = 1
_CNOT[3, 1] = _CNOT[1, 3] = 1


@dataclass(frozen=True)
class GateDef:
    name: str
    unitary: Operator


_STANDARD = {
    "H": GateDef("H", DenseOperator(1, _H)),
    "X": GateDef("X", DenseOperator(1, _X)),
    "Z": GateDef("Z", DiagonalOperator(1, np.array([1, -1], dtype=complex))),
    "S": GateDef("S", DiagonalOperator(1, np.array([1, 1j]))),
    "SDAG": GateDef("SDAG", DiagonalOperator(1, np.array([1, -1j]))),
    "CNOT": GateDef("CNOT", DenseOperator(2, _CNOT)),
    "CZ": GateDef("CZ", DiagonalOperator(2, np.array([1, 1, 1, -1], dtype=complex))),
}


def standard_gate(name: str) -> GateDef:
    """Look up a named one- or two-qubit gate."""
    key = name.upper().replace("†", "DAG")
    if key == "SDG":
        key = "SDAG"
    if key not in _STANDARD:
        raise KeyError(f"unknown gate {name!r}")
    return _STANDARD[key]


def _fanout_targets(m: int) -> np.ndarray:
    """Row of the 1 in each column of :func:`fanout_reference` on ``m`` qubits."""
    check_state(m)
    x = np.arange(1 << m)
    return x ^ ((x >> (m - 1)) * ((1 << (m - 1)) - 1))


def _parity_targets(m: int) -> np.ndarray:
    """Row of the 1 in each column of :func:`parity_reference` on ``m`` qubits."""
    check_state(m)
    return np.arange(1 << m) ^ (np.tile(popcounts(m - 1) & 1, 2) << (m - 1))


def _permutation(m: int, targets: np.ndarray) -> DenseOperator:
    """The ``m``-qubit permutation whose column ``x`` has its 1 in row ``targets[x]``,
    holding the inverse map, the column of each row's 1, for the comparison
    (by a scatter: a first ``np.argsort`` call adds 0.3 MiB to peak RSS)."""
    x = np.arange(1 << m)
    mat = np.zeros((1 << m, 1 << m), dtype=complex)
    mat[targets, x] = 1
    columns = np.empty_like(x)
    columns[targets] = x
    return _PermutationOperator(m, mat, columns)


def fanout_reference(n_plus_1: int) -> DenseOperator:
    """Permutation XORing the last qubit's value into every other qubit."""
    if n_plus_1 < 2:
        raise ValueError("fanout needs at least 2 qubits")
    check_dense(n_plus_1)
    return _permutation(n_plus_1, _fanout_targets(n_plus_1))


def parity_reference(n_plus_1: int) -> DenseOperator:
    """Permutation XORing the parity of the other qubits into the last qubit."""
    if n_plus_1 < 2:
        raise ValueError("parity needs at least 2 qubits")
    check_dense(n_plus_1)
    return _permutation(n_plus_1, _parity_targets(n_plus_1))


def ieq_reference() -> DiagonalOperator:
    """3-qubit inversion-on-equality gate: sign flip exactly on |000> and |111>."""
    entries = np.ones(8, dtype=complex)
    entries[0] = entries[7] = -1
    return DiagonalOperator(3, entries)
