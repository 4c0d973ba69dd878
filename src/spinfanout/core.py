"""State vectors, operator representations, and global-phase equivalence.

Conventions used throughout the package:

* Qubits are 0-indexed.  Basis index bit ``i`` (value ``2**i``) holds the
  classical value of qubit ``i``.
* A gate acting on targets ``[t0, ..., tm-1]`` uses ``t0`` as the *least*
  significant bit of its local basis index, ``t1`` as the next bit, and
  so on.  A 2-qubit controlled gate therefore has its control on the
  first listed target.
* Diagonal operators and permutations are stored as arrays of length
  ``2**n`` (the entries, or the row of each column's 1) and become
  matrices only through ``to_dense``.
* Each representation has one qubit-count cap, a module constant read at
  call time: ``STATE_CAP`` for length-2^n data (state vectors, diagonal
  operators and Hamiltonians), ``DENSE_CAP`` for 2^n x 2^n matrices (and
  for the 2^k summed columns of a block loop, at k = n the dense unitary)
  and ``L2_CAP`` for dense Hermitian eigensolves.  The function that allocates
  a representation calls its check (``check_state``, ``check_dense`` or
  ``check_l2``) first, which raises ``CapExceededError`` over the cap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EQUIV_TOL = 1e-10

# entries per slice when two operators are compared, so that no temporary
# grows with the operands
_SLICE = 1 << 14


class CapExceededError(Exception):
    """A requested qubit count exceeds its representation's size cap."""


# the size caps, in qubits (see the module docstring)
STATE_CAP = 20
DENSE_CAP = 12
L2_CAP = 8


def check_state(n: int) -> None:
    if n > STATE_CAP:
        raise CapExceededError(f"n={n} exceeds state-vector cap {STATE_CAP}")


def check_dense(n: int) -> None:
    if n > DENSE_CAP:
        raise CapExceededError(f"n={n} exceeds dense cap {DENSE_CAP}")


def check_l2(n: int) -> None:
    if n > L2_CAP:
        raise CapExceededError(f"n={n} exceeds dense-Hamiltonian cap {L2_CAP}")


def popcounts(n: int) -> np.ndarray:
    """Hamming weights of the basis labels ``0 .. 2**n - 1`` (int64)."""
    check_state(n)
    # int64, so that products such as k * (n - k) cannot wrap
    return np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)


def _store_array(obj, field: str, dtype: type, ndim: int, *checks) -> None:
    """Store ``obj.field`` as a read-only ``dtype`` array with ``ndim`` axes of
    length ``2**obj.n`` on the frozen ``obj``, once each ``test(array)`` of
    ``checks``, ``(test, message)`` pairs, holds; else raise ``ValueError``
    and leave the given array writable."""
    arr = np.asarray(getattr(obj, field), dtype=dtype)
    # no axis is 2^64 long: a larger or negative n is named, never computed
    dim = 1 << obj.n if 0 <= obj.n < 64 else f"2^{obj.n}"
    if arr.shape != (dim,) * ndim:
        raise ValueError(f"expected {'x'.join([str(dim)] * ndim)} {field}, got {arr.shape}")
    for test, message in checks:
        if not test(arr):
            raise ValueError(message)
    object.__setattr__(obj, field, arr)
    arr.setflags(write=False)


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``n`` qubits as 2^n complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _store_array(self, "amplitudes", complex, 1)

    @classmethod
    def basis(cls, n: int, value: int) -> "StateVector":
        check_state(n)
        if not 0 <= value < (1 << n):
            raise IndexError(f"basis index {value} out of range for {n} qubits")
        amps = np.zeros(1 << n, dtype=complex)
        amps[value] = 1.0
        return cls(n, amps)


@dataclass(frozen=True)
class DiagonalOperator:
    """Operator that is diagonal in the computational basis."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        _store_array(self, "entries", complex, 1)

    @classmethod
    def identity(cls, n: int) -> "DiagonalOperator":
        check_state(n)
        return cls(n, np.ones(1 << n, dtype=complex))

    def to_dense(self) -> "DenseOperator":
        check_dense(self.n)
        return DenseOperator(self.n, np.diag(self.entries))


@dataclass(frozen=True)
class DenseOperator:
    """Operator as a full 2^n x 2^n complex matrix (row-major)."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        _store_array(self, "matrix", complex, 2)

    def to_dense(self) -> "DenseOperator":
        return self


@dataclass(frozen=True)
class PermutationOperator:
    """Permutation of the basis states as its index map, read-only: column
    ``x`` has its 1 in row ``rows[x]``, and every other entry is 0."""

    n: int
    rows: np.ndarray

    def __post_init__(self):
        _store_array(self, "rows", np.intp, 1,
                     (lambda r: np.all((r >= 0) & (r < len(r))), "rows is not a permutation"),
                     (lambda r: np.all(np.bincount(r, minlength=len(r)) == 1),
                      "rows is not a permutation"))

    def to_dense(self) -> "DenseOperator":
        check_dense(self.n)
        dim = 1 << self.n
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[self.rows, np.arange(dim)] = 1
        return DenseOperator(self.n, matrix)


Operator = DiagonalOperator | DenseOperator | PermutationOperator


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a global-phase-equivalence check between two operators."""

    phase: complex
    max_deviation: float
    tolerance: float

    @property
    def equivalent(self) -> bool:
        return self.max_deviation < self.tolerance


def equiv_up_to_global_phase(
    u: Operator, v: Operator, tol: float = EQUIV_TOL
) -> EquivalenceReport:
    """Check ``u = e^{i theta} v`` and extract the phase.

    The phase is taken from the largest-magnitude entry of ``v`` (ties
    broken by lowest row-major index).  If ``v`` is numerically zero
    everywhere the phase defaults to 1 and the check degenerates to
    ``|u| < tol`` elementwise.  If ``u`` is below ``tol`` at that entry
    the phase also defaults to 1, rather than the phase of a rounding
    residue.  Against a :class:`PermutationOperator` only ``u`` is read:
    see :func:`_permutation_deviation`.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if u.n != v.n:
        raise ValueError(f"dimension mismatch: {u.n} vs {v.n} qubits")
    if isinstance(v, PermutationOperator):
        ua = u.to_dense().matrix
        # the first largest |v| in row-major order is row 0's 1, in the
        # column that the bijection maps to 0, its least row
        phase = _phase(ua[0, np.argmin(v.rows)], 1.0 + 0.0j, tol)
        max_dev = _permutation_deviation(ua, v.rows, phase)
    else:
        if isinstance(u, DiagonalOperator) and isinstance(v, DiagonalOperator):
            ua, va = u.entries[:, None], v.entries[:, None]
        else:
            ua, va = u.to_dense().matrix, v.to_dense().matrix
        pos = _peak(va)
        phase = _phase(ua.flat[pos], va.flat[pos], tol)
        max_dev = _max_deviation(ua, va, phase)
    return EquivalenceReport(phase=complex(phase), max_deviation=max_dev, tolerance=tol)


def _peak(v: np.ndarray) -> int:
    """Row-major index of the first largest ``|v|`` entry of a contiguous array."""
    v_flat = v.ravel()
    # the first largest |v| of each slice; np.argmax over the slice maxima
    # then keeps the lowest row-major index on a tie, as over the whole
    peaks = []
    for s in range(0, v_flat.size, _SLICE):
        mag = np.abs(v_flat[s:s + _SLICE])
        k = int(np.argmax(mag))
        peaks.append((mag[k], s + k))
    return peaks[int(np.argmax([m for m, _ in peaks]))][1]


def _phase(u_at: complex, v_at: complex, tol: float) -> complex:
    """The unit phase taking ``v_at`` to ``u_at``, or 1 when ``|v_at|`` is
    numerically zero or ``|u_at| < tol`` (rather than the phase of a
    rounding residue)."""
    if np.abs(v_at) < 1e-300 or np.abs(u_at) < tol:
        return 1.0 + 0.0j
    phase = u_at / v_at
    return phase / abs(phase)


def _max_deviation(u: np.ndarray, v: np.ndarray, phase: complex) -> float:
    """``max |u - phase * v|`` over two 2-D arrays of one shape whose rows are
    contiguous (either may be a column slice of a wider array), a chunk of
    at most ``_SLICE`` entries (or one row) at a time."""
    rows = max(1, _SLICE // u.shape[1])
    # np.max over the chunk maxima keeps a NaN, as one np.max over all would
    return float(np.max([np.max(np.abs(u[r:r + rows] - phase * v[r:r + rows]))
                         for r in range(0, u.shape[0], rows)]))


def _permutation_deviation(u: np.ndarray, rows: np.ndarray, phase: complex) -> float:
    """``max |u - phase * P|`` for the 0/1 array ``P`` of ``u``'s shape with a 1
    in column ``c`` at row ``rows[c]``, or at each of the rows ``rows[c, :]``,
    reading ``u`` once, a chunk of at most ``_SLICE`` entries (or one row) at
    a time, and never writing it; ``P`` is not made.

    It is bit for bit :func:`_max_deviation` against the dense ``P``: as
    ``phase * 0`` and ``phase * 1`` are exact (up to the sign of a zero, which
    ``|.|`` drops), ``|u - phase * P|`` is ``|u|`` off the 1s and ``|u - phase|``
    on them, and the maximum of the same values is the same value, a NaN
    included.  So each chunk's ``|u|`` goes into one reused buffer, with the
    chunk's 1s overwritten by their ``|u - phase|``."""
    height, width = u.shape
    step = max(1, _SLICE // width)
    at = rows.reshape(width, -1)
    if step >= height:  # one chunk: no sort and no buffer
        ones = at.ravel(), np.repeat(np.arange(width), at.shape[1])
        mag = np.abs(u)
        mag[ones] = np.abs(u[ones] - phase)
        return float(np.max(mag))
    # the row-major positions of the 1s, in order: each chunk's are a run
    pos = np.sort((at * width + np.arange(width)[:, None]).ravel())
    on_ones = np.abs(u[np.divmod(pos, width)] - phase)
    size = step * width
    cuts = [*np.searchsorted(pos, np.arange(0, height * width, size)).tolist(), len(pos)]
    local = pos % size  # the position in its chunk
    buf, worst = np.empty((step, width)), []
    for i, r in enumerate(range(0, height, step)):
        mag = np.abs(u[r:r + step], out=buf[:height - r])
        buf.reshape(-1)[local[cuts[i]:cuts[i + 1]]] = on_ones[cuts[i]:cuts[i + 1]]
        worst.append(np.max(mag))
    return float(np.max(worst))
