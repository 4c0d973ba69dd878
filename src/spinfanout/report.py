"""Stable machine- and human-readable report emission.

The machine format is JSON lines with a fixed field order and floats
printed with 15 significant digits, so identical inputs produce
byte-identical reports.  String fields are escaped by ``json.dumps``.
"""
from __future__ import annotations

import json
import math

from .explore import ScanResult
from .verify import CheckResult


def fmt_float(x: float) -> str:
    # JSON has no NaN or infinity
    if not math.isfinite(x):
        return "null"
    return f"{x:.15g}"


def _fmt_params(params: dict) -> str:
    items = ", ".join(f"{json.dumps(k)}: {v}" for k, v in sorted(params.items()))
    return "{" + items + "}"


def check_results_json(results: list[CheckResult]) -> str:
    """One JSON object per check, one per line, byte-stable; no results, no lines."""
    lines = []
    for r in results:
        fields = [
            f'"check_id": {json.dumps(r.check_id)}',
            f'"params": {_fmt_params(r.params)}',
            f'"passed": {str(r.passed).lower()}',
            f'"skipped": {str(r.skipped).lower()}',
            f'"negative_control": {str(r.negative_control).lower()}',
            f'"max_deviation": {fmt_float(r.max_deviation)}',
            f'"phase_re": {fmt_float(r.phase.real)}',
            f'"phase_im": {fmt_float(r.phase.imag)}',
            f'"tolerance": {fmt_float(r.tolerance)}',
            f'"anchor": {json.dumps(r.anchor)}',
        ]
        lines.append("{" + ", ".join(fields) + "}")
    return "".join(line + "\n" for line in lines)


def check_results_table(results: list[CheckResult]) -> str:
    header = (f"{'check':<26} {'params':<16} {'status':<11} {'max_dev':<12} "
              f"{'elapsed_ms':>10}  {'anchor'}")
    lines = [header, "-" * len(header)]
    for r in results:
        if r.skipped:
            status = f"SKIP({r.skip_reason})"
        elif r.negative_control:
            status = "NEG-OK" if r.ok else "NEG-BAD"
        else:
            status = "PASS" if r.passed else "FAIL"
        params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items())) or "-"
        dev = "-" if math.isnan(r.max_deviation) else f"{r.max_deviation:.3e}"
        ms = "-" if r.skipped else f"{r.elapsed * 1e3:.1f}"
        lines.append(f"{r.check_id:<26} {params:<16} {status:<11} {dev:<12} {ms:>10}  {r.anchor}")
    return "\n".join(lines) + "\n"


def scan_result_json(res: ScanResult) -> str:
    """Per-time rows in the same JSON-lines style as the check report; no times, no lines."""
    lines = []
    for i, (t, v) in enumerate(zip(res.times, res.verdicts)):
        fields = [
            f'"hamiltonian_id": {json.dumps(res.hamiltonian_id)}',
            f'"time": {fmt_float(t)}',
            f'"is_diagonal": {str(v.is_diagonal).lower()}',
            f'"off_diag_max": {fmt_float(v.off_diag_max)}',
            f'"phase_even_re": {fmt_float(v.phase_even.real)}',
            f'"phase_even_im": {fmt_float(v.phase_even.imag)}',
            f'"phase_odd_re": {fmt_float(v.phase_odd.real)}',
            f'"phase_odd_im": {fmt_float(v.phase_odd.imag)}',
            f'"relative_phase": {fmt_float(v.relative_phase)}',
            f'"parity_usable": {str(v.parity_usable).lower()}',
            f'"score": {fmt_float(v.score)}',
            f'"best": {str(i == res.best).lower()}',
        ]
        lines.append("{" + ", ".join(fields) + "}")
    return "".join(line + "\n" for line in lines)


def _pi_label(t: float) -> str:
    # label rational multiples of pi when the grid time is one
    frac = t / math.pi
    for q in range(1, 17):
        p = round(frac * q)
        if p >= 1 and abs(frac - p / q) < 1e-12:
            num = "pi" if p == 1 else f"{p}*pi"
            return num if q == 1 else f"{num}/{q}"
    return f"{t:.6f}"


def scan_result_summary(res: ScanResult) -> str:
    usable = [
        (t, v) for t, v in zip(res.times, res.verdicts) if v.parity_usable
    ]
    lines = [
        f"scan of {res.hamiltonian_id}: {len(res.times)} times, "
        f"{len(usable)} parity-usable"
    ]
    for t, v in usable:
        sign = "+" if v.relative_phase > 0 else "-"
        lines.append(f"  usable at t = {_pi_label(t)}  (relative phase {sign}pi/2)")
    bv = res.best_verdict
    lines.append(
        f"best candidate: t = {_pi_label(res.best_time)}  score {bv.score:.3e}  "
        f"{'parity-usable' if bv.parity_usable else 'not usable'}"
    )
    return "\n".join(lines) + "\n"
