"""Numerical exploration: which Hamiltonians yield a parity-usable evolution?

An evolution is "parity-usable" when it is diagonal in the computational
basis, its phases are constant on each parity class, and the two classes
differ by exactly +-pi/2.  That is precisely the property the parity
circuit construction consumes: the two helper-qubit states it produces
for even and odd parity are orthogonal iff the relative phase is +-pi/2.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DiagonalOperator, Operator, _SLICE, popcounts
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

    @functools.cached_property
    def best(self) -> int:
        """Index into times/verdicts of the first score within ``SCAN_TOL`` of the
        lowest, so rounding does not pick between tied times; or of the first NaN."""
        scores = np.array([vd.score for vd in self.verdicts])
        return int(np.argmax((scores <= np.min(scores) + SCAN_TOL) | np.isnan(scores)))

    @property
    def best_time(self) -> float:
        return self.times[self.best]

    @property
    def best_verdict(self) -> ParityDiagonalVerdict:
        return self.verdicts[self.best]


def classify_parity_diagonal(u: Operator, tol: float = SCAN_TOL) -> ParityDiagonalVerdict:
    """Measure how far a unitary is from the parity-usable form."""
    if isinstance(u, DiagonalOperator):
        diag, off_max = u.entries.copy(), 0.0
    else:
        matrix = u.to_dense().matrix
        diag, off = np.diag(matrix).copy(), np.abs(matrix)
        np.fill_diagonal(off, np.abs(diag - diag))  # 0, or NaN where an entry is not finite
        off_max = float(np.max(off))
    return _verdicts(diag[None], _parity_classes(u.n), off_max, tol)[0]


def _parity_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis labels of even and of odd Hamming weight, in ascending order."""
    if n < 1:
        raise ValueError(f"parity needs at least one qubit, got n={n}")
    odd = (popcounts(n) & 1).astype(bool)
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def _verdicts(
    diag: np.ndarray, classes: tuple[np.ndarray, np.ndarray], off_max: float, tol: float
) -> list[ParityDiagonalVerdict]:
    """The verdicts on the rows of a ``(times, levels)`` array ``diag`` of
    diagonal entries, which it overwrites: ``classes`` holds the columns of
    each parity class, and in each row entry 0 is the even reference and
    entry 1 the odd."""
    is_diagonal = off_max < tol
    # a unitary far from diagonal can have a vanishing first diagonal entry;
    # such a row is left as it is, and nothing is divided by that entry
    keep = np.array([abs(d) > 1e-12 for d in diag[:, 0].tolist()])[:, None]
    norm = np.divide(diag, diag[:, :1].copy(), out=diag, where=keep)
    spreads = [
        np.max(np.abs(norm[:, cls] - norm[:, ref:ref + 1]), axis=1).tolist()
        for ref, cls in enumerate(classes)
    ]
    verdicts = []
    for phase_even, phase_odd, spread_even, spread_odd in zip(
        norm[:, 0].tolist(), norm[:, 1].tolist(), *spreads
    ):
        if phase_even:
            rel = phase_odd / phase_even
            relative_phase = math.atan2(rel.imag, rel.real)
            quarter_turn_dist = min(abs(rel - 1j), abs(rel + 1j))
        else:  # no phase relative to an entry 0 of exactly 0: never usable
            relative_phase, quarter_turn_dist = math.nan, math.inf
        usable = (
            is_diagonal
            and spread_even < tol
            and spread_odd < tol
            and quarter_turn_dist < tol
        )
        verdicts.append(ParityDiagonalVerdict(
            is_diagonal=is_diagonal,
            off_diag_max=off_max,
            phase_even=phase_even,
            phase_odd=phase_odd,
            relative_phase=relative_phase,
            parity_usable=usable,
            score=off_max + spread_even + spread_odd + quarter_turn_dist,
        ))
    return verdicts


def _energy_levels(h: DiagonalHamiltonian) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Energies 0 and 1, then the distinct energies of each parity class, and
    the levels of each class (see :func:`_parity_classes`).

    A verdict over the levels equals the verdict over all 2^n energies:
    equal energies give equal phases, its spreads are maxima over a parity
    class, and the references stay basis states 0 (even) and 1 (odd).
    """
    even, odd = _parity_classes(h.n)
    even_levels = np.unique(h.energies[even])
    odd_levels = np.unique(h.energies[odd])
    levels = np.concatenate([h.energies[:2], even_levels, odd_levels])
    first_odd = 2 + even_levels.size
    return levels, (np.r_[0, 2:first_odd], np.r_[1, first_odd:levels.size])


def scan(
    h: DiagonalHamiltonian | DenseHamiltonian,
    time_grid: list[float],
    tol: float = SCAN_TOL,
    hamiltonian_id: str = "hamiltonian",
) -> ScanResult:
    """Classify the evolution at every grid time.

    A diagonal Hamiltonian is reduced to its energy levels once, and its
    times are classified over the levels only, in chunks of at most
    ``_SLICE`` phases (or one time); a dense one is evolved and classified
    by :func:`classify_parity_diagonal`.
    """
    times = tuple(float(t) for t in time_grid)
    if not times:
        raise ValueError("empty time grid")
    if isinstance(h, DiagonalHamiltonian):
        levels, classes = _energy_levels(h)
        phases_at = spectral_phases(levels)
        rows = max(1, _SLICE // len(levels))  # times per chunk
        verdicts = tuple(
            vd
            for s in range(0, len(times), rows)
            for vd in _verdicts(phases_at(times[s:s + rows]), classes, 0.0, tol)
        )
    else:
        evolved = evolver(h)
        verdicts = tuple(classify_parity_diagonal(evolved(t), tol=tol) for t in times)
    return ScanResult(hamiltonian_id, times, verdicts)


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
