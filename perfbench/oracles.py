"""Expected outputs computed without spinfanout.

These are the benchmark's own references: the classical basis-index map
of fanout, a small state-vector simulator for the circuit text
format, and a level-based parity-usability classifier for the
squared-spin Hamiltonian.  They use numpy only, so a defect in spinfanout cannot hide
in its own reference.
"""
from __future__ import annotations

import math

import numpy as np

SCAN_TOL = 1e-8


def popcount(x: np.ndarray) -> np.ndarray:
    """Set-bit count of each non-negative integer in ``x``."""
    x = np.asarray(x, dtype=np.int64)
    count = np.zeros_like(x)
    while np.any(x):
        count += x & 1
        x = x >> 1
    return count


def fanout_index(x: int, n_plus_1: int) -> int:
    """Output basis index of fanout controlled by the top qubit."""
    control = n_plus_1 - 1
    if (x >> control) & 1:
        return x ^ ((1 << control) - 1)
    return x


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PHASE = {"S": 1j, "SDAG": -1j, "Z": -1.0}


def _un_phases(k: int, n: int, time: float) -> np.ndarray:
    w = popcount(np.arange(1 << n) & ((1 << k) - 1))
    return np.exp(-1j * time * (k * k / 2 - 2 * w * (k - w)))


def simulate_text(text: str, n: int, x: int) -> np.ndarray:
    """Output amplitudes of a circuit in the ``GATE q ...`` line format."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[x] = 1.0
    idx = np.arange(1 << n)
    for line in text.splitlines():
        name, *args = line.split()
        q = [int(a) for a in args]
        if name == "H":
            t = q[0]
            view = psi.reshape(1 << (n - t - 1), 2, 1 << t)
            psi = np.einsum("ab,ibj->iaj", _H, view).reshape(-1)
        elif name == "X":
            psi = psi[idx ^ (1 << q[0])]
        elif name in _PHASE:
            psi = psi * np.where((idx >> q[0]) & 1, _PHASE[name], 1.0)
        elif name == "CNOT":
            c, t = q
            psi = psi[np.where((idx >> c) & 1, idx ^ (1 << t), idx)]
        elif name == "CZ":
            a, b = q
            psi = psi * np.where((idx >> a) & (idx >> b) & 1, -1.0, 1.0)
        elif name == "UN":
            psi = psi * _un_phases(q[0], n, math.pi / 4)
        elif name == "UNDAG":
            psi = psi * _un_phases(q[0], n, 3 * math.pi / 4)
        else:
            raise ValueError(f"oracle has no gate {name!r}")
    return psi


def hn_energies(n: int) -> np.ndarray:
    w = popcount(np.arange(1 << n))
    return n * n / 2 - 2 * w * (n - w)


def parity_usable(energies: np.ndarray, times: list[float], tol: float = SCAN_TOL) -> list[bool]:
    """Whether exp(-i E t) is parity-usable, one flag per time.

    Works on the distinct (energy, parity) levels: the phases of a
    diagonal evolution only depend on them.  Index 0 (even) and index 1
    (odd) are the reference states.
    """
    n = int(energies.size).bit_length() - 1
    parity = popcount(np.arange(1 << n)) & 1
    levels = np.unique(np.stack([energies, parity]), axis=1)
    e_even = levels[0][levels[1] == 0]
    e_odd = levels[0][levels[1] == 1]
    flags = []
    for t in times:
        ref = np.exp(-1j * energies[0] * t)
        even = np.exp(-1j * e_even * t) / ref
        odd = np.exp(-1j * e_odd * t) / ref
        phase_odd = np.exp(-1j * energies[1] * t) / ref
        flags.append(
            float(np.max(np.abs(even - 1.0))) < tol
            and float(np.max(np.abs(odd - phase_odd))) < tol
            and min(abs(phase_odd - 1j), abs(phase_odd + 1j)) < tol
        )
    return flags
