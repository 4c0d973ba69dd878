"""Spin Hamiltonians and their time evolution.

Units follow the convention hbar = J/2 = 1, so the squared-total-spin
Hamiltonian carries J = 2 and the diagonal energy of a basis state with
``k`` ones out of ``n`` is ``n**2/2 - 2*k*(n-k)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DenseOperator,
    DiagonalOperator,
    Operator,
    _store_array,
    check_l2,
    check_state,
    popcounts,
)

TIME_QUARTER = np.pi / 4
TIME_THREE_QUARTERS = 3 * np.pi / 4

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Hamiltonian diagonal in the computational basis; energies are real."""

    n: int
    energies: np.ndarray

    def __post_init__(self):
        _store_array(self, "energies", float, 1,
                     (lambda e: np.isfinite(e).all(), "Hamiltonian energies must be finite"))


@dataclass(frozen=True)
class DenseHamiltonian:
    """Hermitian 2^n x 2^n Hamiltonian."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        _store_array(self, "matrix", complex, 2,
                     (lambda m: np.isfinite(m).all(), "Hamiltonian matrix entries must be finite"),
                     (lambda m: np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL,
                      "matrix is not Hermitian within tolerance"))


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric pair couplings J_{i,j}, stored for i < j (0-indexed)."""

    n: int
    J: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if J.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} coupling array")
        J, lower = np.triu(J, k=1), np.tril(J, k=-1)
        if lower.any() and not np.array_equal(lower, J.T, equal_nan=True):
            raise ValueError("couplings below the diagonal must be zero or mirror those above")
        object.__setattr__(self, "J", J)
        J.setflags(write=False)

    @classmethod
    def from_pairs(cls, n: int, pairs: dict[tuple[int, int], float]) -> "CouplingMatrix":
        """Couplings from ``{(i, j): J_ij}``; ``(i, j)`` and ``(j, i)`` name one pair,
        so a dict holding both raises ``ValueError``, as does an index outside
        ``0..n-1``."""
        check_state(n)
        J = np.zeros((n, n))
        given: dict[tuple[int, int], tuple[int, int]] = {}
        for (i, j), val in pairs.items():
            if i == j:
                raise ValueError("no self-coupling allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair {(i, j)} has an index outside 0..{n - 1}")
            key = (min(i, j), max(i, j))
            if key in given:
                raise ValueError(f"keys {given[key]} and {(i, j)} both name pair {key}")
            given[key] = (i, j)
            J[key] = val
        return cls(n, J)

    @classmethod
    def uniform(cls, n: int, value: float) -> "CouplingMatrix":
        check_state(n)
        return cls(n, np.full((n, n), value))

    def pairs(self):
        """Nonzero couplings as (i, j, J_ij) with i < j."""
        for i, j in zip(*np.nonzero(self.J)):
            yield int(i), int(j), float(self.J[i, j])


def _hn_levels(n: int) -> np.ndarray:
    """Energy ``n**2/2 - 2*k*(n-k)`` of the squared-spin-z Hamiltonian on ``n``
    qubits at each Hamming weight ``k = 0 .. n``, once ``n`` is checked."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    check_state(n)
    k = np.arange(n + 1)
    return n * n / 2 - 2 * k * (n - k)


def build_hn(n: int) -> DiagonalHamiltonian:
    """Squared-total-spin-z Hamiltonian on ``n`` qubits.

    The energy of a basis state with Hamming weight ``k`` is
    ``n**2/2 - 2*k*(n-k)``; the constant ``n**2/2`` term is kept.
    """
    return DiagonalHamiltonian(n, _hn_levels(n)[popcounts(n)])


def build_kn(coupling: CouplingMatrix) -> DiagonalHamiltonian:
    """Pairwise ZZ-coupling Hamiltonian sum_{i<j} J_ij Z_i Z_j."""
    n = coupling.n
    check_state(n)
    spins = np.empty((n, 1 << n), dtype=np.int8)  # row q: Z_q on each basis state
    for q in range(n):
        spins[q].reshape(-1, 2, 1 << q)[:] = ((1,), (-1,))
    energies = np.zeros(1 << n)
    with np.errstate(over="ignore", invalid="ignore"):  # DiagonalHamiltonian rejects inf/NaN
        for i, j, jij in coupling.pairs():
            energies += jij * (spins[i] * spins[j])  # jij * (+-1) is exact
    return DiagonalHamiltonian(n, energies)


def build_ring(n: int, J: float) -> CouplingMatrix:
    """Nearest-neighbour couplings on a cycle of ``n`` sites, all equal to J."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 sites, got n={n}")
    check_state(n)
    pairs = {(i, (i + 1) % n): J for i in range(n)}
    return CouplingMatrix.from_pairs(n, pairs)


def _swap_sum(n: int, offset: float, pairs) -> np.ndarray:
    """``offset * I + sum SWAP_ij`` over ``(i, j)`` in ``pairs``, by index arithmetic."""
    x = np.arange(1 << n)
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    mat[x, x] = offset
    for i, j in pairs:
        differ = ((x >> i) ^ (x >> j)) & 1
        mat[x ^ (differ * ((1 << i) | (1 << j))), x] += 1.0
    return mat


def build_l2(n: int) -> DenseHamiltonian:
    """Squared total spin ``(3n/4 - n(n-1)/4) I + sum_{i<j} SWAP_ij``.

    The sum of the squared spin components, rewritten with Dirac's
    exchange identity ``XX + YY + ZZ = 2 SWAP - I``.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    check_l2(n)
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    return DenseHamiltonian(n, _swap_sum(n, 3 * n / 4 - n * (n - 1) / 4, pairs))


def spectral_phases(w: np.ndarray) -> Callable[[float | np.ndarray], np.ndarray]:
    """The map ``t -> exp(-i w t)`` over the real spectrum ``w``; a 1-D
    array of times maps to a ``(times, spectrum)`` array, one row per time.

    A time whose product with the spectral radius ``max|w|`` is not
    finite raises ``ValueError``: its phases would be NaN.
    """
    radius = float(np.max(np.abs(w)))

    def phases_at(t: float | np.ndarray) -> np.ndarray:
        times = np.asarray(t, dtype=float)
        for s in times.reshape(-1).tolist():
            if not math.isfinite(s * radius):
                raise ValueError(f"time {s:g} times spectral radius {radius:g} is not finite")
        # one array per call: the product is exponentiated in place
        phases = np.multiply.outer(times, -1j * w)
        return np.exp(phases, out=phases)

    return phases_at


def evolver(h: DiagonalHamiltonian | DenseHamiltonian) -> Callable[[float], Operator]:
    """The map ``t -> exp(-i H t)``.

    Diagonal Hamiltonians stay diagonal.  A dense one is diagonalized
    once, under the eigensolve cap, and every call exponentiates its
    spectrum.  A time whose product with the spectral radius is not
    finite raises ``ValueError``: its phases would be NaN.
    """
    if isinstance(h, DiagonalHamiltonian):
        phases_at = spectral_phases(h.energies)
        return lambda t: DiagonalOperator(h.n, phases_at(t))
    check_l2(h.n)
    w, v = np.linalg.eigh(h.matrix)
    phases_at, v_dagger = spectral_phases(w), v.conj().T
    return lambda t: DenseOperator(h.n, (v * phases_at(t)) @ v_dagger)


def evolve(h: DiagonalHamiltonian | DenseHamiltonian, t: float) -> Operator:
    """Time-evolution operator exp(-i H t); see :func:`evolver`."""
    return evolver(h)(t)


def _hn_evolution(n: int, t: float) -> DiagonalOperator:
    """``exp(-i H t)`` for ``H = build_hn(n)``, from the phases of its ``n + 1``
    weight levels: entry for entry what :func:`evolve` gives, with one
    exponential per level rather than per basis state."""
    phases = spectral_phases(_hn_levels(n))(t)
    return DiagonalOperator(n, phases[popcounts(n)])


def un(n: int) -> DiagonalOperator:
    """Evolution of the squared-spin-z Hamiltonian for time pi/4."""
    return _hn_evolution(n, TIME_QUARTER)


def un_dagger(n: int) -> DiagonalOperator:
    """Inverse of :func:`un`, obtained by evolving for time 3*pi/4.

    The two compose to the identity exactly for even ``n``; for odd ``n``
    the kept ``n**2/2`` energy constant leaves a global phase.
    """
    return _hn_evolution(n, TIME_THREE_QUARTERS)
