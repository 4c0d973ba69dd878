"""Named, reportable checks for every identity the package reproduces.

Each check is registered with the anchor of the claim it verifies and a
tolerance.  Every builder a check calls checks its own size cap (see
:mod:`spinfanout.core`) and raises ``CapExceededError`` before it
allocates.  ``run_suite`` executes the whole registry (or a filtered
subset) and records results; failures are recorded, never raised, and
instances over a cap are recorded as skipped.  Each circuit a check
runs is built once per process (see :func:`_circuit`).  A few checks are
deliberate negative controls: they are *expected* to fail, and the suite
treats a failing negative control as the designed outcome.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .core import (
    EQUIV_TOL,
    CapExceededError,
    DiagonalOperator,
    _SLICE,
    _phase,
    check_state,
    equiv_up_to_global_phase,
    popcounts,
)
from .gates import _fanout_targets, _parity_targets, ieq_reference, standard_gate
from .hamiltonians import (
    TIME_QUARTER, CouplingMatrix, _hn_levels, build_hn, build_kn, spectral_phases, un,
)
from .circuits import (
    Circuit,
    Step,
    _hadamard_layer,
    _summed_blocks,
    _use_swapped_evolution,
    fanout_circuit,
    from_text,
    parity_circuit,
    parity_like_circuit,
    simplified_fanout_circuit,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict
    max_deviation: float
    phase: complex
    elapsed: float
    tolerance: float
    anchor: str
    negative_control: bool = False
    skip_reason: str = ""  # "cap" or "n-max" for a skipped instance

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance

    @property
    def skipped(self) -> bool:
        return bool(self.skip_reason)

    @property
    def ok(self) -> bool:
        """True when the check behaved as designed: a positive check passes and a
        negative control fails, by a deviation at or above its tolerance (not NaN)."""
        failed = self.max_deviation >= self.tolerance
        return self.skipped or (failed if self.negative_control else self.passed)


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    anchor: str
    tolerance: float
    run: Callable[[dict], tuple[float, complex]]
    default_params: tuple[dict, ...]
    negative_control: bool = False


def _circuit(build: Callable[..., Circuit], n: int, swapped: bool | None = None) -> Circuit:
    """``build(n, swapped=swapped)``, built once per process: a circuit is
    immutable and keeps its plan and support, so a later row only runs it.

    Circuits on more qubits than the dense cap, which the ``parity``,
    ``parity_like`` and ``unentangled_control`` rows past it build, are
    built afresh each time, so the cache holds at most 32 small circuits.
    """
    if n >= core.DENSE_CAP:  # the builders here make at most n + 1 qubits
        return build(n, swapped=swapped)
    return _cached_circuit(build, n, swapped)


@functools.lru_cache(maxsize=32)
def _cached_circuit(build: Callable[..., Circuit], n: int, swapped: bool | None) -> Circuit:
    return build(n, swapped=swapped)


def _fig3_circuit(n: int, swapped: bool | None = None) -> Circuit:
    """Fig. 3 on ``n + 1`` qubits: a Hadamard on each, the parity of qubits
    0..n-1 into qubit n by CNOTs, and a Hadamard on each (``swapped`` is not
    used)."""
    layer, cnot = _hadamard_layer(range(n + 1)), standard_gate("CNOT")
    return Circuit(n + 1, layer + tuple(Step(cnot, (q, n)) for q in range(n)) + layer)


def _cnot_from_cz(n: int, swapped: bool | None = None) -> Circuit:
    """CNOT, control 0, as CZ between Hadamards on qubit 1 (no parameter is used)."""
    return from_text("H 1\nCZ 0 1\nH 1\n")


def _control_prefix(n: int, swapped: bool | None = None) -> Circuit:
    """Everything of ``parity_circuit(n, swapped)`` before its CNOT."""
    circ = _circuit(parity_circuit, n, swapped)
    return Circuit(circ.n, circ.steps[:4])


def _un_levels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The phases of U_N at the Hamming weights ``k = 0 .. n``, which :func:`un`
    gathers by popcount, and those weights: every entry of its diagonal is
    one of them, so a maximum over them is the maximum over the diagonal."""
    return spectral_phases(_hn_levels(n))(TIME_QUARTER), np.arange(n + 1, dtype=np.int64)


def _check_phase_formula(params: dict) -> tuple[float, complex]:
    n = params["n"]
    phases, k = _un_levels(n)
    expected = 1j ** (k * (n - k))
    return float(np.max(np.abs(phases / phases[0] - expected))), complex(1)


def _check_parity_dichotomy(params: dict) -> tuple[float, complex]:
    n = params["n"]
    phases, k = _un_levels(n)
    diag = phases / phases[0]
    odd_phase = 1j if n % 4 == 2 else -1j
    expected = np.where(k % 2 == 0, 1, odd_phase)
    return float(np.max(np.abs(diag - expected))), complex(odd_phase)


def _check_ieq(params: dict) -> tuple[float, complex]:
    rep = equiv_up_to_global_phase(un(3), ieq_reference())
    return rep.max_deviation, rep.phase


def _check_cz_from_ieq(params: dict) -> tuple[float, complex]:
    restriction = DiagonalOperator(2, ieq_reference().entries[4:])  # third qubit in |1>
    cz_rep = equiv_up_to_global_phase(restriction, standard_gate("CZ").unitary, tol=1e-12)
    return float(np.max([cz_rep.max_deviation, _cnot_row({"n": 1})[0]])), cz_rep.phase


def _permutation_deviation(block: np.ndarray, rows: np.ndarray, phase: complex) -> float:
    """``max |block - phase * P|``, overwriting ``block``, where ``P`` has a 1 in
    column ``c`` at row ``rows[c]``, or at each of the rows ``rows[c, :]``:
    bit for bit :func:`core._max_deviation` against the dense ``P``, for the
    reason :func:`core._permutation_deviation` gives, in its row chunks, so a
    NaN is kept."""
    cols = block.shape[1]
    block[rows.reshape(cols, -1), np.arange(cols)[:, None]] -= phase
    step = max(1, _SLICE // cols)
    return float(np.max([np.max(np.abs(block[r:r + step])) for r in range(0, len(block), step)]))


def _reference_blocks(c: Circuit, rows: np.ndarray, extra: int = 0):
    """:func:`circuits._summed_blocks` of ``c`` with each target ``(rows[x], x)``
    of the index map ``rows`` in the support of its column: the bits in which
    an input differs from the owner of its target row, and ``extra``, join
    the mixed ones.  Then every entry of the unitary and of the permutation
    outside the support is an exact zero, and a deviation over the summed
    columns, minus the phase at ``rows[inputs]``, is the dense one."""
    extra |= int(np.bitwise_or.reduce(c._support[1][rows] ^ np.arange(len(rows))))
    return _summed_blocks(c, extra)


def _matches_reference(
    build: Callable[..., Circuit],
    targets: Callable[[int], np.ndarray],
    wrong_variant: bool = False,
) -> Callable[[dict], tuple[float, complex]]:
    """Check: ``build(n)`` equals the permutation with index map ``targets(n + 1)``
    up to a global phase, with the phase and deviation that
    :func:`equiv_up_to_global_phase` gives for the dense matrices, but one
    block of summed columns of the circuit at a time (see
    :func:`_reference_blocks`), so neither matrix is assembled, and only
    the state cap and the dense cap on the 2^k summed columns bound the row.
    ``wrong_variant`` builds the other evolution order than the mod-4 rule
    picks, for a negative control."""

    def run(params: dict) -> tuple[float, complex]:
        n = params["n"]
        swapped = not _use_swapped_evolution(n) if wrong_variant else None
        rows = targets(n + 1)
        assert rows[0] == 0  # a GF(2)-linear map: the dense reference peaks at (0, 0)
        phase, devs = None, []
        for inputs, block in _reference_blocks(_circuit(build, n, swapped), rows):
            if phase is None:  # entry (0, 0) of the unitary, as input 0 is its target's owner
                phase = _phase(block[0, 0], 1.0 + 0.0j, EQUIV_TOL)
            devs.append(_permutation_deviation(block, rows[inputs], phase))
        return float(np.max(devs)), complex(phase)

    return run


def _check_parity_like(params: dict) -> tuple[float, complex]:
    n = params["n"]
    # each input with the last qubit in |0> goes to a unit-phase multiple of
    # its column of the parity permutation; with that qubit the top summed
    # bit, those inputs fill the first half of the summed columns
    half, rows, devs = 1 << (n - 1), _parity_targets(n), []
    for inputs, block in _reference_blocks(_circuit(parity_like_circuit, n), rows, extra=half):
        cols = int(np.count_nonzero(inputs[:, 0] < half))
        if cols == 0:
            break
        devs.append(_permutation_deviation(np.abs(block[:, :cols]), rows[inputs[:cols]], 1.0))
    return float(np.max(devs)), complex(1)


_fig3_row = _matches_reference(_fig3_circuit, _fanout_targets)
_cnot_row = _matches_reference(_cnot_from_cz, _parity_targets)  # 2-qubit parity is CNOT 0 1


def _check_fig3_conjugation(params: dict) -> tuple[float, complex]:
    # the circuit is real and its entry (0, 0) positive, so the phase is 1
    return _fig3_row({"n": params["n_plus_1"] - 1})


def _check_kn_offset(params: dict) -> tuple[float, complex]:
    n = params["n"]
    hn = build_hn(n).energies
    kn = build_kn(CouplingMatrix.uniform(n, 1.0)).energies
    dev = float(np.max(np.abs((hn - kn) - n / 2)))
    return dev, complex(1)


def _check_unitary_pow4(params: dict) -> tuple[float, complex]:
    u2 = _un_levels(params["n"])[0] ** 2
    u4 = u2 * u2
    phase = _phase(u4[0], 1.0 + 0.0j, 1e-12)  # against the identity's entry 0
    return float(np.max(np.abs(u4 - phase))), complex(phase)


def _check_unentangled_control(params: dict) -> tuple[float, complex]:
    n = params["n"]
    check_state(n + 1)  # before the 2^(n+1)-entry row maps
    prefix = _circuit(_control_prefix, n)
    mixed, owner = prefix._support
    # the mass of the control qubit n - 1 must sit entirely on |p xor r>, the
    # parity of input bits 0..n-1 (p of the sources 0..n-2, r of bit n-1);
    # it bounds the second singular value across the cut too (Eckart-Young).
    # Row r of summed column q holds input (owner[r] & ~mixed) | inputs[q, 0]
    # (see _summed_blocks): the rows of one input, ascending, are a row of
    # `rows`, the same in every column, and its control value is wrong where
    # the row's control bit differs from the parity of the input's bits 0..n-1
    unmixed, parity, low = owner & ~mixed, popcounts(n) & 1, (1 << n) - 1
    rows = np.argsort(unmixed, kind="stable").reshape(-1, 1 << mixed.bit_count())
    flip = ((rows >> (n - 1)) & 1) ^ parity[unmixed[rows] & low]
    devs = []
    for inputs, out in _summed_blocks(prefix):
        wrong = flip[:, :, None] != parity[inputs[:, 0] & low]
        devs.append(np.max(np.linalg.norm(np.where(wrong, out[rows], 0), axis=1)))
    return float(np.max(devs)), complex(1)


_REGISTRY: tuple[CheckDef, ...] = (
    CheckDef(
        "phase_formula", "Eq. (1)", 1e-10, _check_phase_formula,
        tuple({"n": n} for n in range(1, 11)),
    ),
    CheckDef(
        "parity_dichotomy", "Eq. (2) / closing display of Sec. 2.3", 1e-10,
        _check_parity_dichotomy, tuple({"n": n} for n in (2, 4, 6, 8, 10)),
    ),
    CheckDef("ieq", "Sec. 2.2", 1e-10, _check_ieq, ({},)),
    CheckDef("cz_from_ieq", "Sec. 1", 1e-12, _check_cz_from_ieq, ({},)),
    CheckDef(
        "parity", "Fig. 4", 1e-9, _matches_reference(parity_circuit, _parity_targets),
        tuple({"n": n} for n in (2, 4, 6, 8)),
    ),
    CheckDef(
        "parity_negative_control", "Fig. 4 (wrong mod-4 variant)", 1e-9,
        _matches_reference(parity_circuit, _parity_targets, wrong_variant=True),
        ({"n": 4},), negative_control=True,
    ),
    CheckDef(
        "parity_like", "Fig. 5", 1e-9, _check_parity_like,
        tuple({"n": n} for n in (2, 4, 6, 8)),
    ),
    CheckDef(
        "fanout", "Fig. 6", 1e-9, _matches_reference(fanout_circuit, _fanout_targets),
        tuple({"n": n} for n in (2, 4, 6, 8)),
    ),
    CheckDef(
        "fanout_simplified", "Fig. 6 (simplified)", 1e-9,
        _matches_reference(simplified_fanout_circuit, _fanout_targets),
        tuple({"n": n} for n in (2, 4, 6, 8)),
    ),
    CheckDef(
        "fig3_conjugation", "Fig. 3", 1e-10, _check_fig3_conjugation,
        tuple({"n_plus_1": m} for m in range(2, 9)),
    ),
    CheckDef(
        "kn_offset", "Sec. 1 (identity offset)", 1e-12, _check_kn_offset,
        tuple({"n": n} for n in range(2, 11)),
    ),
    CheckDef(
        "unitary_pow4", "Sec. 2.3 (fourth power)", 1e-12, _check_unitary_pow4,
        tuple({"n": n} for n in range(1, 11)),
    ),
    CheckDef(
        "unentangled_control", "Sec. 2.3 (control before CNOT)", 1e-9,
        _check_unentangled_control, tuple({"n": n} for n in (2, 4, 6)),
    ),
)

_BY_ID = {c.check_id: c for c in _REGISTRY}


def known_check_ids() -> tuple[str, ...]:
    return tuple(c.check_id for c in _REGISTRY)


def run_check(check_id: str, params: dict | None = None) -> CheckResult:
    """Execute one named check.

    Raises ``KeyError`` on an unknown id and ``CapExceededError`` when a
    builder the check calls finds its size above its cap.
    """
    if check_id not in _BY_ID:
        raise KeyError(f"unknown check {check_id!r}; known: {known_check_ids()}")
    defn = _BY_ID[check_id]
    params = dict(params or (defn.default_params[0] if defn.default_params else {}))
    start = time.perf_counter()
    max_dev, phase = defn.run(params)
    return _result(defn, params, max_dev, phase, time.perf_counter() - start)


def _result(defn: CheckDef, params: dict, max_dev: float = float("nan"), phase: complex = 1 + 0j,
            elapsed: float = 0.0, skip_reason: str = "") -> CheckResult:
    """The result of ``defn`` on ``params``, or, with a ``skip_reason``, of
    an instance that was not run."""
    return CheckResult(defn.check_id, dict(params), max_dev, phase, elapsed,
                       defn.tolerance, defn.anchor, defn.negative_control, skip_reason)


def run_suite(filter: str | None = None, n_max: int | None = None) -> list[CheckResult]:
    """Run every registered check instance (optionally id-prefix filtered).

    Instances that exceed a size cap, or whose main size parameter exceeds
    ``n_max``, are reported as skipped rather than silently dropped.
    Results are ordered by check id, then parameters.
    """
    results = []
    for defn in _REGISTRY:
        if filter and not defn.check_id.startswith(filter):
            continue
        for params in defn.default_params:
            size = next(iter(params.values())) if params else 0
            if n_max is not None and params and size > n_max:
                results.append(_result(defn, params, skip_reason="n-max"))
                continue
            try:
                results.append(run_check(defn.check_id, params))
            except CapExceededError:
                results.append(_result(defn, params, skip_reason="cap"))
    results.sort(key=lambda r: (r.check_id, sorted(r.params.items())))
    return results


def suite_ok(results: list[CheckResult]) -> bool:
    """True iff every positive check passed and every negative control failed."""
    return all(r.ok for r in results)
