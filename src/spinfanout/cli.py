"""Command-line interface: batch verification, matrix emission, exploration.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 size cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .core import CapExceededError, DenseOperator, DiagonalOperator, Operator
from .circuits import (
    Circuit,
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
    p_matrix.add_argument("--what", required=True, choices=list(_MATRIX_TARGETS))
    p_matrix.add_argument("--n", type=int, help="qubit count / circuit size parameter")
    p_matrix.add_argument(
        "--t", type=finite_float, help="evolution time for hn/l2 (default: print H itself)"
    )
    p_matrix.add_argument("--format", choices=["text", "csv"], default="text")
    p_matrix.add_argument("--file", help="circuit file for --what circuit-file")

    p_explore = sub.add_parser("explore", help="scan a Hamiltonian for parity-usable times")
    p_explore.add_argument("--hamiltonian", required=True, choices=list(_HAMILTONIANS))
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


def _print_operator(op: Operator, fmt: str) -> None:
    """Print ``op`` one row at a time (a diagonal: one entry per row), each row
    divided by the global phase that makes the (0,0) entry real and >= 0,
    unless that entry is 0."""
    diagonal = isinstance(op, DiagonalOperator)
    rows = op.entries[:, None] if diagonal else op.matrix
    first = rows[0, 0]
    phase = first / abs(first) if abs(first) >= 1e-300 else None
    sep = "," if fmt == "csv" else "  "
    # one format for a whole row, applied to its interleaved real and imaginary parts
    row_format = sep.join(["%.15g%+.15gj"] * rows.shape[1]) + "\n"
    if fmt == "text":
        sys.stdout.write(f"{'diagonal' if diagonal else 'dense'} operator on {op.n} qubits\n")
    for i, row in enumerate(rows):
        label = f"{i:>6}  " if diagonal and fmt == "text" else ""
        row = row if phase is None else row / phase
        parts = np.ascontiguousarray(row).view(np.float64).tolist()
        sys.stdout.write(label + row_format % tuple(parts))


def _checked_builder(parser, args, flag: str, table: dict, options: tuple[str, ...]):
    """The builder of the ``table`` row that ``--flag`` names, bound to the options
    it reads, once each of ``options`` (refused in this order) that it does not
    read is absent and each it requires is given: ``--n`` positive, any other nonempty."""
    name = getattr(args, flag)
    build, required, optional = table[name]
    for dest in options:
        if getattr(args, dest) is not None and dest not in required + optional:
            parser.error(f"--{dest.replace('_', '-')} does not apply to --{flag} {name}")
    for dest in required:
        value = getattr(args, dest)
        if dest == "n" and (value is None or value < 1):
            parser.error("--n must be a positive integer for this target")
        if not value:
            parser.error(f"--{flag} {name} requires --{dest.replace('_', '-')}")
    return functools.partial(build, *(getattr(args, dest) for dest in required + optional))


def _hn_matrix(n: int, t: float | None) -> Operator:
    h = build_hn(n)
    return DiagonalOperator(n, h.energies) if t is None else evolve(h, t)


def _l2_matrix(n: int, t: float | None) -> Operator:
    h = build_l2(n)
    return DenseOperator(n, h.matrix) if t is None else evolve(h, t)


def _circuit_file(path: str, n: int | None) -> Circuit:
    with open(path) as fh:
        return from_text(fh.read(), n=n)


# each --what target: the builder of its operator or circuit, the options of
# _MATRIX_OPTIONS it requires and those it may read, passed to the builder in
# this order; it refuses the rest
_MATRIX_TARGETS = {
    "un": (un, ("n",), ()),
    "undag": (un_dagger, ("n",), ()),
    "ieq": (ieq_reference, (), ()),
    "hn": (_hn_matrix, ("n",), ("t",)),
    "l2": (_l2_matrix, ("n",), ("t",)),
    "parity_ref": (parity_reference, ("n",), ()),
    "fanout_ref": (fanout_reference, ("n",), ()),
    "parity_circuit": (parity_circuit, ("n",), ()),
    "parity_like_circuit": (parity_like_circuit, ("n",), ()),
    "fanout_circuit": (fanout_circuit, ("n",), ()),
    "simplified_fanout_circuit": (simplified_fanout_circuit, ("n",), ()),
    "circuit-file": (_circuit_file, ("file",), ("n",)),
}
_MATRIX_OPTIONS = ("t", "file", "n")


def _cmd_matrix(args, parser) -> int:
    build = _checked_builder(parser, args, "what", _MATRIX_TARGETS, _MATRIX_OPTIONS)
    op = build()
    _print_operator(compile_circuit(op) if isinstance(op, Circuit) else op, args.format)
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


def _ring(n: int, j: float | None):
    j = 1.0 if j is None else j
    return build_kn(build_ring(n, j)), f"ring(n={n},J={j:g})"


def _kn_file(n: int, path: str):
    return build_kn(_load_coupling_file(path, n)), f"kn(n={n},file={path})"


# each --hamiltonian: the builder of it and its report id, the options it
# requires (--n, which _cmd_explore checks first) and those of _EXPLORE_OPTIONS
# it may read, passed to the builder in this order; it refuses the rest
_HAMILTONIANS = {
    "hn": (lambda n: (build_hn(n), f"hn(n={n})"), ("n",), ()),
    "ring": (_ring, ("n",), ("j",)),
    "l2": (lambda n: (build_l2(n), f"l2(n={n})"), ("n",), ()),
    "kn-file": (_kn_file, ("n", "coupling_file"), ()),
}
_EXPLORE_OPTIONS = ("j", "coupling_file")


def _cmd_explore(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be positive")
    build = _checked_builder(parser, args, "hamiltonian", _HAMILTONIANS, _EXPLORE_OPTIONS)
    grid = default_time_grid() if args.grid is None else _parse_grid(args.grid)
    h, ham_id = build()
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
