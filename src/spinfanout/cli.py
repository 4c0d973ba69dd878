"""Command-line interface: batch verification, matrix emission, exploration.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 size cap exceeded.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .core import CapExceededError, DenseOperator, DiagonalOperator, Operator
from .circuits import (
    compile_circuit,
    fanout_circuit,
    from_text,
    parity_circuit,
    parity_like_circuit,
    simplified_fanout_circuit,
)
from .explore import default_time_grid, scan
from .gates import fanout_reference, ieq_reference, parity_reference
from .hamiltonians import (
    CouplingMatrix,
    build_hn,
    build_kn,
    build_l2,
    build_ring,
    evolve,
    un,
    un_dagger,
)
from .report import (
    check_results_json,
    check_results_table,
    scan_result_json,
    scan_result_summary,
)
from .verify import known_check_ids, run_suite, suite_ok

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def finite_float(text: str) -> float:
    """``float(text)`` that refuses infinities and NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def positive_float(text: str) -> float:
    value = finite_float(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not > 0")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not > 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfanout",
        description="Parity/fanout-from-Hamiltonian simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity check suite")
    p_verify.add_argument("--filter", help="only run checks whose id starts with this")
    p_verify.add_argument("--n-max", type=positive_int, help="skip check instances above this size")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")

    p_matrix = sub.add_parser("matrix", help="print an operator's entries")
    p_matrix.add_argument(
        "--what",
        required=True,
        choices=[
            "un", "undag", "ieq", "hn", "l2",
            "parity_ref", "fanout_ref",
            "parity_circuit", "parity_like_circuit",
            "fanout_circuit", "simplified_fanout_circuit",
            "circuit-file",
        ],
    )
    p_matrix.add_argument("--n", type=int, help="qubit count / circuit size parameter")
    p_matrix.add_argument(
        "--t", type=finite_float, help="evolution time for hn/l2 (default: print H itself)"
    )
    p_matrix.add_argument("--format", choices=["text", "csv"], default="text")
    p_matrix.add_argument("--file", help="circuit file for --what circuit-file")

    p_explore = sub.add_parser("explore", help="scan a Hamiltonian for parity-usable times")
    p_explore.add_argument(
        "--hamiltonian", required=True, choices=["hn", "ring", "l2", "kn-file"]
    )
    p_explore.add_argument("--n", type=int, required=True)
    p_explore.add_argument(
        "--j", type=finite_float, help="ring coupling strength (default: 1)"
    )
    p_explore.add_argument("--coupling-file", help="lines 'i j J_ij' (1-indexed) for kn-file")
    p_explore.add_argument("--grid", help="comma-separated times; suffix 'pi' scales by pi")
    p_explore.add_argument("--tol", type=positive_float, default=1e-8)
    p_explore.add_argument("--json", action="store_true")
    return parser


def _cmd_verify(args) -> int:
    known = known_check_ids()
    if args.filter and not any(c.startswith(args.filter) for c in known):
        raise ValueError(
            f"--filter {args.filter!r} matches no check; known: {', '.join(known)}"
        )
    results = run_suite(filter=args.filter, n_max=args.n_max)
    if args.json:
        sys.stdout.write(check_results_json(results))
    else:
        sys.stdout.write(check_results_table(results))
    return EXIT_OK if suite_ok(results) else EXIT_CHECK_FAILED


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _print_operator(op: Operator, fmt: str) -> None:
    """Print ``op`` one row at a time (a diagonal: one entry per row), each row
    divided by the global phase that makes the (0,0) entry real and >= 0,
    unless that entry is 0."""
    diagonal = isinstance(op, DiagonalOperator)
    rows = op.entries[:, None] if diagonal else op.matrix
    first = rows[0, 0]
    phase = first / abs(first) if abs(first) >= 1e-300 else None
    sep = "," if fmt == "csv" else "  "
    if fmt == "text":
        sys.stdout.write(f"{'diagonal' if diagonal else 'dense'} operator on {op.n} qubits\n")
    for i, row in enumerate(rows):
        label = f"{i:>6}  " if diagonal and fmt == "text" else ""
        row = row if phase is None else row / phase
        sys.stdout.write(label + sep.join(_fmt_complex(z) for z in row) + "\n")


def _require_n(args, parser) -> int:
    if args.n is None or args.n < 1:
        parser.error("--n must be a positive integer for this target")
    return args.n


def _cmd_matrix(args, parser) -> int:
    what = args.what
    # refuse an option the target would silently ignore
    if args.t is not None and what not in ("hn", "l2"):
        parser.error(f"--t does not apply to --what {what}")
    if args.file is not None and what != "circuit-file":
        parser.error(f"--file does not apply to --what {what}")
    if args.n is not None and what == "ieq":
        parser.error("--n does not apply to --what ieq")
    if what == "circuit-file":
        if not args.file:
            parser.error("--what circuit-file requires --file")
        with open(args.file) as fh:
            circ = from_text(fh.read(), n=args.n)
        op: Operator = compile_circuit(circ)
    elif what == "un":
        op = un(_require_n(args, parser))
    elif what == "undag":
        op = un_dagger(_require_n(args, parser))
    elif what == "ieq":
        op = ieq_reference()
    elif what == "hn":
        h = build_hn(_require_n(args, parser))
        op = evolve(h, args.t) if args.t is not None else DiagonalOperator(
            h.n, h.energies.astype(complex)
        )
    elif what == "l2":
        h = build_l2(_require_n(args, parser))
        op = evolve(h, args.t) if args.t is not None else DenseOperator(h.n, h.matrix)
    elif what == "parity_ref":
        op = parity_reference(_require_n(args, parser))
    elif what == "fanout_ref":
        op = fanout_reference(_require_n(args, parser))
    else:
        builders = {
            "parity_circuit": parity_circuit,
            "parity_like_circuit": parity_like_circuit,
            "fanout_circuit": fanout_circuit,
            "simplified_fanout_circuit": simplified_fanout_circuit,
        }
        op = compile_circuit(builders[what](_require_n(args, parser)))
    _print_operator(op, args.format)
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    times = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.endswith("pi"):
            prefix = part[:-2].rstrip("*")
            t = (float(prefix) if prefix else 1.0) * math.pi
        else:
            t = float(part)
        if not math.isfinite(t):
            raise ValueError(f"grid time {part!r} is not finite")
        times.append(t)
    if not times:
        raise ValueError("empty time grid")
    return times


def _load_coupling_file(path: str, n: int) -> CouplingMatrix:
    pairs: dict[tuple[int, int], float] = {}
    first_line: dict[tuple[int, int], int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'i j J_ij'")
            try:
                i, j, coupling = int(parts[0]), int(parts[1]), finite_float(parts[2])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"line {lineno}: indices must be distinct, 1..{n}")
            key = (min(i, j) - 1, max(i, j) - 1)
            if key in first_line:
                raise ValueError(f"line {lineno}: pair {i} {j} repeats line {first_line[key]}")
            first_line[key] = lineno
            pairs[key] = coupling
    return CouplingMatrix.from_pairs(n, pairs)


def _cmd_explore(args, parser) -> int:
    n = args.n
    if n < 1:
        parser.error("--n must be positive")
    # refuse an option the Hamiltonian would silently ignore
    if args.j is not None and args.hamiltonian != "ring":
        parser.error(f"--j does not apply to --hamiltonian {args.hamiltonian}")
    if args.coupling_file is not None and args.hamiltonian != "kn-file":
        parser.error(f"--coupling-file does not apply to --hamiltonian {args.hamiltonian}")
    grid = default_time_grid() if args.grid is None else _parse_grid(args.grid)
    if args.hamiltonian == "hn":
        h = build_hn(n)
        ham_id = f"hn(n={n})"
    elif args.hamiltonian == "ring":
        j = 1.0 if args.j is None else args.j
        h = build_kn(build_ring(n, j))
        ham_id = f"ring(n={n},J={j:g})"
    elif args.hamiltonian == "l2":
        h = build_l2(n)
        ham_id = f"l2(n={n})"
    else:
        if not args.coupling_file:
            parser.error("--hamiltonian kn-file requires --coupling-file")
        h = build_kn(_load_coupling_file(args.coupling_file, n))
        ham_id = f"kn(n={n},file={args.coupling_file})"
    res = scan(h, grid, tol=args.tol, hamiltonian_id=ham_id)
    if args.json:
        sys.stdout.write(scan_result_json(res))
    else:
        sys.stdout.write(scan_result_summary(res))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "matrix":
            return _cmd_matrix(args, parser)
        return _cmd_explore(args, parser)
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
