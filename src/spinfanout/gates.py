"""Standard gates and exact reference unitaries for the multi-qubit gates.

Two-qubit gates put the control on the first listed target (local bit 0).
The multi-qubit reference constructors take an explicit control/accumulator
position, defaulting to the last qubit index: that is the wire the circuit
builders treat as special.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_CAPS,
    DenseOperator,
    DiagonalOperator,
    EquivalenceReport,
    Operator,
    SizeCaps,
    equiv_up_to_global_phase,
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
    arity: int
    unitary: Operator


_STANDARD = {
    "H": GateDef("H", 1, DenseOperator(1, _H)),
    "X": GateDef("X", 1, DenseOperator(1, _X)),
    "Z": GateDef("Z", 1, DiagonalOperator(1, np.array([1, -1], dtype=complex))),
    "S": GateDef("S", 1, DiagonalOperator(1, np.array([1, 1j]))),
    "SDAG": GateDef("SDAG", 1, DiagonalOperator(1, np.array([1, -1j]))),
    "CNOT": GateDef("CNOT", 2, DenseOperator(2, _CNOT)),
    "CZ": GateDef("CZ", 2, DiagonalOperator(2, np.array([1, 1, 1, -1], dtype=complex))),
}


def standard_gate(name: str) -> GateDef:
    """Look up a named one- or two-qubit gate."""
    key = name.upper().replace("†", "DAG")
    if key == "SDG":
        key = "SDAG"
    if key not in _STANDARD:
        raise KeyError(f"unknown gate {name!r}")
    return _STANDARD[key]


def fanout_reference(n_plus_1: int, control: int | None = None,
                     caps: SizeCaps = DEFAULT_CAPS) -> DenseOperator:
    """Permutation XORing the control qubit's value into every other qubit."""
    if n_plus_1 < 2:
        raise ValueError("fanout needs at least 2 qubits")
    caps.check_dense(n_plus_1)
    if control is None:
        control = n_plus_1 - 1
    if not 0 <= control < n_plus_1:
        raise IndexError(f"control {control} out of range")
    dim = 1 << n_plus_1
    target_mask = (dim - 1) ^ (1 << control)
    x = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[x ^ (((x >> control) & 1) * target_mask), x] = 1
    return DenseOperator(n_plus_1, mat)


def parity_reference(n_plus_1: int, accumulator: int | None = None,
                     caps: SizeCaps = DEFAULT_CAPS) -> DenseOperator:
    """Permutation XORing the parity of the other qubits into the accumulator."""
    if n_plus_1 < 2:
        raise ValueError("parity needs at least 2 qubits")
    caps.check_dense(n_plus_1)
    if accumulator is None:
        accumulator = n_plus_1 - 1
    if not 0 <= accumulator < n_plus_1:
        raise IndexError(f"accumulator {accumulator} out of range")
    dim = 1 << n_plus_1
    x = np.arange(dim)
    parity = popcounts(n_plus_1)[x & ~(1 << accumulator)] & 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[x ^ (parity << accumulator), x] = 1
    return DenseOperator(n_plus_1, mat)


def ieq_reference() -> DiagonalOperator:
    """3-qubit inversion-on-equality gate: sign flip exactly on |000> and |111>."""
    entries = np.ones(8, dtype=complex)
    entries[0] = entries[7] = -1
    return DiagonalOperator(3, entries)


def ieq_restriction(bit: int) -> DiagonalOperator:
    """2-qubit diagonal obtained by fixing the third qubit of the equality gate."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    entries = ieq_reference().entries
    sub = np.array([entries[(bit << 2) | local] for local in range(4)])
    return DiagonalOperator(2, sub)


def cz_from_ieq(tol: float = 1e-12) -> EquivalenceReport:
    """Equality-gate restriction with the third qubit set to |1> versus CZ."""
    return equiv_up_to_global_phase(
        ieq_restriction(1), standard_gate("CZ").unitary, tol=tol
    )
