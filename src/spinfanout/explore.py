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

from .core import DiagonalOperator, Operator, popcounts
from .hamiltonians import DenseHamiltonian, DiagonalHamiltonian, evolver, spectral_phases

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
    if isinstance(u, DiagonalOperator):
        diag = u.entries
        off_max = 0.0
    else:
        mat = u.matrix
        diag = np.diag(mat).copy()
        off = mat - np.diag(diag)
        off_max = float(np.max(np.abs(off)))
    return _verdict(diag, _odd_parity(u.n), off_max, tol)


def _odd_parity(n: int) -> np.ndarray:
    """Mask of the basis labels with odd Hamming weight."""
    if n < 1:
        raise ValueError(f"parity needs at least one qubit, got n={n}")
    return (popcounts(n) & 1).astype(bool)


def _verdict(
    diag: np.ndarray, odd: np.ndarray, off_max: float, tol: float
) -> ParityDiagonalVerdict:
    """The verdict on diagonal entries ``diag``: entry 0 is the even reference, entry 1 the odd."""
    is_diagonal = off_max < tol
    # a unitary far from diagonal can have a vanishing first diagonal entry
    norm = diag / diag[0] if abs(diag[0]) > 1e-12 else diag
    phase_even = complex(norm[0])  # 1 by construction
    phase_odd = complex(norm[1])
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


def _energy_levels(h: DiagonalHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Energies 0 and 1, then the distinct energies of each parity class, and the odd mask.

    A verdict over the levels equals the verdict over all 2^n energies:
    equal energies give equal phases, its spreads are maxima over a parity
    class, and the references stay basis states 0 (even) and 1 (odd).
    """
    odd = _odd_parity(h.n)
    even_levels = np.unique(h.energies[~odd])
    odd_levels = np.unique(h.energies[odd])
    levels = np.concatenate([h.energies[:2], even_levels, odd_levels])
    level_odd = np.repeat([False, True, False, True], [1, 1, even_levels.size, odd_levels.size])
    return levels, level_odd


def scan(
    h: DiagonalHamiltonian | DenseHamiltonian,
    time_grid: list[float],
    tol: float = SCAN_TOL,
    hamiltonian_id: str = "hamiltonian",
) -> ScanResult:
    """Classify the evolution at every grid time.

    A diagonal Hamiltonian is reduced to its energy levels once and each
    time is classified over the levels only; a dense one is evolved and
    classified by :func:`classify_parity_diagonal`.
    """
    times = tuple(float(t) for t in time_grid)
    if not times:
        raise ValueError("empty time grid")
    if isinstance(h, DiagonalHamiltonian):
        levels, odd = _energy_levels(h)
        phases_at = spectral_phases(levels)
        verdicts = tuple(_verdict(phases_at(t), odd, 0.0, tol) for t in times)
    else:
        evolved = evolver(h)
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
