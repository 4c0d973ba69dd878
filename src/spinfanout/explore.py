"""Numerical exploration: which Hamiltonians yield a parity-usable evolution?

An evolution is "parity-usable" when it is diagonal in the computational
basis, its phases are constant on each parity class, and the two classes
differ by exactly +-pi/2.  That is precisely the property the parity
circuit construction consumes: the two helper-qubit states it produces
for even and odd parity are orthogonal iff the relative phase is +-pi/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CAPS, DiagonalOperator, Operator, SizeCaps, popcounts
from .hamiltonians import DenseHamiltonian, DiagonalHamiltonian, evolver

SCAN_TOL = 1e-8


@dataclass(frozen=True)
class ParityDiagonalVerdict:
    is_diagonal: bool
    off_diag_max: float
    phase_even: complex
    phase_odd: complex
    relative_phase: float
    parity_usable: bool
    # distance-to-usable score used to rank scan points; 0 when usable
    score: float


@dataclass(frozen=True)
class ScanResult:
    hamiltonian_id: str
    times: tuple[float, ...]
    verdicts: tuple[ParityDiagonalVerdict, ...]
    best: int  # index into times/verdicts

    @property
    def best_time(self) -> float:
        return self.times[self.best]

    @property
    def best_verdict(self) -> ParityDiagonalVerdict:
        return self.verdicts[self.best]


def classify_parity_diagonal(u: Operator, tol: float = SCAN_TOL) -> ParityDiagonalVerdict:
    """Measure how far a unitary is from the parity-usable form."""
    n = u.n
    if isinstance(u, DiagonalOperator):
        diag = u.entries
        off_max = 0.0
    else:
        mat = u.matrix
        diag = np.diag(mat).copy()
        off = mat - np.diag(diag)
        off_max = float(np.max(np.abs(off)))
    is_diagonal = off_max < tol
    # a unitary far from diagonal can have a vanishing first diagonal entry
    norm = diag / diag[0] if abs(diag[0]) > 1e-12 else diag.copy()
    odd = (popcounts(n) & 1).astype(bool)
    phase_even = complex(norm[~odd][0])  # index 0, so 1 by construction
    phase_odd = complex(norm[odd][0])
    spread_even = float(np.max(np.abs(norm[~odd] - phase_even)))
    spread_odd = float(np.max(np.abs(norm[odd] - phase_odd)))
    rel = phase_odd / phase_even
    relative_phase = float(math.atan2(rel.imag, rel.real))
    quarter_turn_dist = min(abs(rel - 1j), abs(rel + 1j))
    usable = (
        is_diagonal
        and spread_even < tol
        and spread_odd < tol
        and quarter_turn_dist < tol
    )
    score = off_max + spread_even + spread_odd + quarter_turn_dist
    return ParityDiagonalVerdict(
        is_diagonal=is_diagonal,
        off_diag_max=off_max,
        phase_even=phase_even,
        phase_odd=phase_odd,
        relative_phase=relative_phase,
        parity_usable=usable,
        score=score,
    )


def scan(
    h: DiagonalHamiltonian | DenseHamiltonian,
    time_grid: list[float],
    tol: float = SCAN_TOL,
    hamiltonian_id: str = "hamiltonian",
    caps: SizeCaps = DEFAULT_CAPS,
) -> ScanResult:
    """Evolve at every grid time and classify each resulting unitary."""
    evolved = evolver(h, caps)
    times = tuple(float(t) for t in time_grid)
    verdicts = tuple(classify_parity_diagonal(evolved(t), tol=tol) for t in times)
    best = int(np.argmin([vd.score for vd in verdicts]))
    return ScanResult(hamiltonian_id, times, verdicts, best)


def default_time_grid() -> list[float]:
    """Rational multiples p*pi/q (q <= 16) plus 512 uniform points on (0, 2*pi]."""
    points: list[float] = []
    for q in range(1, 17):
        for p in range(1, 2 * q):
            points.append(p * math.pi / q)
    points.extend(2 * math.pi * m / 512 for m in range(1, 513))
    points.sort()
    dedup = [points[0]]
    for t in points[1:]:
        if t - dedup[-1] > 1e-12:
            dedup.append(t)
    return dedup
