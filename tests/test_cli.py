import dataclasses
import json

import numpy as np
import pytest

from spinfanout import verify
from spinfanout.cli import _HAMILTONIANS, _MATRIX_TARGETS, _print_operator, main
from spinfanout.core import DenseOperator, DiagonalOperator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the options each --what target requires, and all it reads; it refuses the rest
MATRIX_REQUIRES = {
    "un": ("--n",), "undag": ("--n",), "ieq": (), "hn": ("--n",), "l2": ("--n",),
    "parity_ref": ("--n",), "fanout_ref": ("--n",), "parity_circuit": ("--n",),
    "parity_like_circuit": ("--n",), "fanout_circuit": ("--n",),
    "simplified_fanout_circuit": ("--n",), "circuit-file": ("--file",),
}
MATRIX_READS = {
    **MATRIX_REQUIRES, "hn": ("--n", "--t"), "l2": ("--n", "--t"),
    "circuit-file": ("--file", "--n"),
}
# the options each --hamiltonian reads besides --n; it refuses the rest
EXPLORE_READS = {"hn": (), "ring": ("--j",), "l2": (), "kn-file": ("--coupling-file",)}


def print_per_entry(op, fmt):
    """The output of ``_print_operator``, one f-string per entry."""
    diagonal = isinstance(op, DiagonalOperator)
    rows = op.entries[:, None] if diagonal else op.matrix
    first = rows[0, 0]
    phase = first / abs(first) if abs(first) >= 1e-300 else None
    sep = "," if fmt == "csv" else "  "
    lines = [f"{'diagonal' if diagonal else 'dense'} operator on {op.n} qubits\n"] * (fmt == "text")
    for i, row in enumerate(rows):
        label = f"{i:>6}  " if diagonal and fmt == "text" else ""
        row = row if phase is None else row / phase
        lines.append(label + sep.join(f"{z.real:.15g}{z.imag:+.15g}j" for z in row) + "\n")
    return "".join(lines)


def test_tables_cover_every_choice():
    assert list(MATRIX_READS) == list(_MATRIX_TARGETS)
    assert list(EXPLORE_READS) == list(_HAMILTONIANS)


def matrix_args(tmp_path, *options):
    path = tmp_path / "circ.txt"
    path.write_text("H 0\nCNOT 0 1\n")
    values = {"--n": "2", "--t": "0.5", "--file": str(path)}
    return [arg for option in options for arg in (option, values[option])]


def explore_args(tmp_path, *options):
    path = tmp_path / "J.txt"
    path.write_text("1 2 1.0\n")
    values = {"--j": "2", "--coupling-file": str(path)}
    return [arg for option in options for arg in (option, values[option])]


class TestVerifyCommand:
    def test_filtered_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--filter", "ieq", "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 1
        assert rows[0]["check_id"] == "ieq" and rows[0]["passed"]

    def test_full_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "PASS" in out and "NEG-OK" in out and "FAIL" not in out

    def test_n_max_skips(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert code == 0
        # every instance fits the default caps: each skip is an n-max skip
        assert "SKIP(n-max)" in out and "SKIP(cap)" not in out

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_exits_2(self, capsys, n_max):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", n_max])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --n-max: invalid positive_int value: {n_max!r}" in err

    def test_negative_control_with_a_nan_deviation_exits_1(self, capsys, monkeypatch):
        defn = verify._BY_ID["parity_negative_control"]
        nan_run = dataclasses.replace(defn, run=lambda params: (float("nan"), 1 + 0j))
        monkeypatch.setitem(verify._BY_ID, "parity_negative_control", nan_run)
        code, out, err = run_cli(capsys, "verify", "--filter", "parity_negative")
        assert code == 1 and err == ""
        assert "NEG-BAD" in out and "NEG-OK" not in out

    def test_json_byte_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--filter", "kn_offset", "--json")
        _, out2, _ = run_cli(capsys, "verify", "--filter", "kn_offset", "--json")
        assert out1 == out2

    def test_filter_matching_nothing_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--filter", "zzz", "--json")
        assert code == 2
        assert out == ""
        assert "'zzz'" in err and "parity_negative_control" in err

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bogus"])
        assert exc.value.code == 2


class TestMatrixCommand:
    def test_un3_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--what", "un", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        values = [line.split()[1] for line in lines[1:]]
        # phase-normalized: entry 0 is +1, middle six entries are -1
        assert values[0].startswith("1")
        assert all(v.startswith("-1") for v in values[1:7])
        assert values[7].startswith("1")

    def test_parity_circuit_is_permutation(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "--what", "parity_circuit", "--n", "2", "--format", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 8 and all(len(r) == 8 for r in rows)
        ones = sum(1 for r in rows for z in r if z.startswith("1"))
        assert ones == 8

    def test_invalid_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--what", "un", "--n", "0"])
        assert exc.value.code == 2

    def test_non_finite_time_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--what", "hn", "--n", "2", "--t", "nan"])
        assert exc.value.code == 2
        assert "argument --t: invalid finite_float value: 'nan'" in capsys.readouterr().err

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "--what", "l2", "--n", "9")
        assert code == 3
        assert "cap" in err

    def test_circuit_file(self, capsys, tmp_path):
        path = tmp_path / "circ.txt"
        path.write_text("H 0\nUN 2\nCNOT 0 1\n")
        code, out, _ = run_cli(capsys, "matrix", "--what", "circuit-file", "--file", str(path))
        assert code == 0
        assert "dense operator on 2 qubits" in out

    @pytest.mark.parametrize("text", ["H 5\n", "CNOT 1 1\n", "H -1\n", "CNOT 0\n"])
    def test_malformed_circuit_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "circ.txt"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "matrix", "--what", "circuit-file", "--n", "3", "--file", str(path)
        )
        assert code == 2
        assert out == "" and err.startswith("error: line 1:")

    def test_unknown_gate_in_circuit_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "circ.txt"
        path.write_text("H 0\nFOO 1\n")
        code, out, err = run_cli(capsys, "matrix", "--what", "circuit-file", "--file", str(path))
        assert code == 2
        assert out == "" and err == "error: line 2: unknown gate 'FOO'\n"

    @pytest.mark.parametrize("text", ["", "H 0\n"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_circuit_file_qubit_count_below_one_exits_2(self, capsys, tmp_path, text, n):
        path = tmp_path / "circ.txt"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "matrix", "--what", "circuit-file", "--n", n, "--file", str(path)
        )
        assert code == 2
        assert out == "" and err == "error: n must be >= 1\n"

    def test_overflowing_time_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "matrix", "--what", "hn", "--n", "2", "--t", "1e308")
        assert code == 2
        assert out == "" and "is not finite" in err

    def test_circuit_file_over_state_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "circ.txt"
        path.write_text("UN 10000000000\n")
        code, out, err = run_cli(capsys, "matrix", "--what", "circuit-file", "--file", str(path))
        assert code == 3
        assert out == "" and "state-vector cap" in err

    @pytest.mark.parametrize("what, option, value", [
        (what, option, value) for what, reads in MATRIX_READS.items()
        for option, values in (("--n", ("2", "0")), ("--t", ("1", "0")), ("--file", ("c.txt", "")))
        if option not in reads for value in values
    ])
    def test_option_the_target_ignores_exits_2(self, capsys, tmp_path, what, option, value):
        # a given option is refused, even at a value that reads as false
        argv = matrix_args(tmp_path, *MATRIX_REQUIRES[what]) + [option, value]
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--what", what, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {option} does not apply to --what {what}\n")

    @pytest.mark.parametrize("what, given", [
        (what, given) for what, reads in MATRIX_READS.items()
        for given in dict.fromkeys([MATRIX_REQUIRES[what], reads])
    ])
    def test_options_the_target_uses_are_accepted(self, capsys, tmp_path, what, given):
        code, out, err = run_cli(capsys, "matrix", "--what", what, *matrix_args(tmp_path, *given))
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("what", [what for what, req in MATRIX_REQUIRES.items() if req])
    def test_target_without_an_option_it_requires_exits_2(self, capsys, what):
        message = ("--n must be a positive integer for this target" if what != "circuit-file"
                   else "--what circuit-file requires --file")
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--what", what])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"error: {message}\n")

    def test_undag_is_the_inverse_of_un(self, capsys):
        entries = {}
        for what in ("un", "undag"):
            code, out, _ = run_cli(capsys, "matrix", "--what", what, "--n", "2")
            assert code == 0
            header, *lines = out.splitlines()
            assert header == "diagonal operator on 2 qubits"
            entries[what] = np.array([complex(line.split()[1]) for line in lines])
        # U_2 is diag(1, i, i, 1) after normalization
        assert np.max(np.abs(entries["un"] - [1, 1j, 1j, 1])) < 1e-15
        assert np.max(np.abs(entries["un"] * entries["undag"] - 1)) < 1e-15

    @pytest.mark.parametrize("what, rows", [
        ("parity_ref", [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]),
        ("fanout_ref", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    ])
    def test_references(self, capsys, what, rows):
        code, out, _ = run_cli(capsys, "matrix", "--what", what, "--n", "2", "--format", "csv")
        assert code == 0
        assert [[complex(z) for z in line.split(",")] for line in out.splitlines()] == rows

    def test_diagonal_csv_is_one_entry_per_line(self, capsys):
        _, text, _ = run_cli(capsys, "matrix", "--what", "un", "--n", "2")
        code, out, _ = run_cli(capsys, "matrix", "--what", "un", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [line.split()[1] for line in text.splitlines()[1:]]

    def test_operator_with_a_zero_first_entry_is_printed_unnormalized(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("X 0\n")
        code, out, err = run_cli(capsys, "matrix", "--what", "circuit-file", "--file", str(path))
        assert code == 0 and err == ""
        assert out == "dense operator on 1 qubits\n0+0j  1+0j\n1+0j  0+0j\n"

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("first", [0.6 - 0.8j, 0.0, 1e-310, complex("nan"), -0.0])
    def test_rows_print_as_their_entries_one_at_a_time(self, capsys, fmt, first):
        # each row is one format applied to its interleaved floats; the text
        # must equal an entry-by-entry formatting, non-finite entries included
        inf, nan = float("inf"), float("nan")
        matrix = np.array([
            [first, -0.0, complex(-0.0, -0.0), 5e-324j],
            [complex(inf, -inf), complex(nan, 1), 1e300 + 1e-300j, -1 / 3],
            [complex(-inf, nan), 2.5e-310, 1 + 1j, 0.1j],
            [123456789.123456789, -1e-5j, 0, 1],
        ])
        for op in (DenseOperator(2, matrix), DiagonalOperator(2, matrix[:, 0]),
                   DiagonalOperator(2, matrix[0])):
            with np.errstate(invalid="ignore"):  # inf divided by the phase
                _print_operator(op, fmt)
                expected = print_per_entry(op, fmt)
            assert capsys.readouterr().out == expected

    def test_missing_circuit_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "matrix", "--what", "circuit-file", "--file", str(tmp_path / "nope")
        )
        assert code == 2


class TestExploreCommand:
    def test_hn6_flags_quarter_pi(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--hamiltonian", "hn", "--n", "6")
        assert code == 0
        assert "usable at t = pi/4" in out

    def test_ring_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--hamiltonian", "ring", "--n", "4",
            "--grid", "0.25pi,0.5pi", "--json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 2
        assert all(r["is_diagonal"] for r in rows)

    def test_l2_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--hamiltonian", "l2", "--n", "4", "--grid", "0.25pi,1.5"
        )
        assert code == 0
        assert "best candidate" in out

    def test_hn_runs_to_state_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--hamiltonian", "hn", "--n", "14", "--grid", "0.25pi", "--json"
        )
        assert code == 0
        assert json.loads(out)["parity_usable"]
        code, _, err = run_cli(
            capsys, "explore", "--hamiltonian", "hn", "--n", "21", "--grid", "0.25pi"
        )
        assert code == 3
        assert "state-vector cap" in err

    def test_l2_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "explore", "--hamiltonian", "l2", "--n", "9")
        assert code == 3

    def test_coupling_file(self, capsys, tmp_path):
        path = tmp_path / "J.txt"
        path.write_text("1 2 1.0\n2 3 1.0\n3 4 1.0\n4 1 1.0\n")
        code, out, _ = run_cli(
            capsys, "explore", "--hamiltonian", "kn-file", "--n", "4",
            "--coupling-file", str(path), "--grid", "0.25pi",
        )
        assert code == 0

    def test_json_escapes_coupling_file_name(self, capsys, tmp_path):
        path = tmp_path / 'J"x\\y.txt'
        path.write_text("1 2 1.0\n2 3 1.0\n")
        code, out, _ = run_cli(
            capsys, "explore", "--hamiltonian", "kn-file", "--n", "3",
            "--coupling-file", str(path), "--grid", "1pi", "--json",
        )
        assert code == 0
        row = json.loads(out)
        assert row["hamiltonian_id"] == f"kn(n=3,file={path})"

    def test_malformed_coupling_file(self, capsys, tmp_path):
        path = tmp_path / "J.txt"
        path.write_text("1 2\n")
        code, _, err = run_cli(
            capsys, "explore", "--hamiltonian", "kn-file", "--n", "4",
            "--coupling-file", str(path),
        )
        assert code == 2
        assert "i j J_ij" in err

    @pytest.mark.parametrize("grid", ["1e400", "nan", "0.25pi,1e308pi", "infpi"])
    def test_non_finite_grid_exits_2(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", "hn", "--n", "3", "--grid", grid
        )
        assert code == 2
        assert out == "" and "is not finite" in err

    @pytest.mark.parametrize("grid", ["", ",", " , "])
    def test_empty_grid_exits_2(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", "hn", "--n", "3", "--grid", grid
        )
        assert code == 2
        assert out == "" and "empty time grid" in err

    def test_non_finite_coupling_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--hamiltonian", "ring", "--n", "3", "--j", "nan"])
        assert exc.value.code == 2
        assert "argument --j: invalid finite_float value: 'nan'" in capsys.readouterr().err

    def test_overflowing_ring_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", "ring", "--n", "3", "--j", "1e308", "--grid", "1"
        )
        assert code == 2
        assert out == "" and err == "error: Hamiltonian energies must be finite\n"

    def test_overflowing_coupling_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "J.txt"
        path.write_text("1 2 1e308\n2 3 1e308\n3 1 1e308\n")
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", "kn-file", "--n", "3",
            "--coupling-file", str(path), "--grid", "1", "--json",
        )
        assert code == 2
        assert out == "" and err == "error: Hamiltonian energies must be finite\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--hamiltonian", "hn", "--n", "3", "--tol", tol])
        assert exc.value.code == 2
        assert f"argument --tol: invalid positive_float value: {tol!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("1 2 nan", "line 2: 'nan' is not a finite number"),
            ("1 2 inf", "line 2: 'inf' is not a finite number"),
            ("1 2 abc", "line 2: could not convert"),
            ("x 2 1.0", "line 2: invalid literal"),
            ("0 2 1.0", "line 2: indices must be distinct"),
            ("1 5 1.0", "line 2: indices must be distinct"),
            ("3 3 1.0", "line 2: indices must be distinct"),
        ],
    )
    def test_bad_coupling_line_exits_2(self, capsys, tmp_path, line, message):
        path = tmp_path / "J.txt"
        path.write_text("1 2 1.0\n" + line + "\n")
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", "kn-file", "--n", "4",
            "--coupling-file", str(path), "--grid", "0.25pi",
        )
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize("first,second", [("1 2", "1 2"), ("1 2", "2 1"), ("2 1", "1 2")])
    def test_repeated_coupling_pair_exits_2(self, capsys, tmp_path, first, second):
        path = tmp_path / "J.txt"
        path.write_text(f"{first} 0.5\n{second} 7\n")
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", "kn-file", "--n", "3",
            "--coupling-file", str(path), "--grid", "0.25pi",
        )
        assert code == 2
        assert out == "" and err == f"error: line 2: pair {second} repeats line 1\n"

    def test_tolerance_is_accepted(self, capsys):
        # 1e-7 past pi/4 the score is 2e-7: usable at --tol 1e-6, not at the default 1e-8
        usable = []
        for tol in ((), ("--tol", "1e-6")):
            code, out, err = run_cli(
                capsys, "explore", "--hamiltonian", "hn", "--n", "2", "--grid", "0.7853982634",
                *tol, "--json",
            )
            assert code == 0 and err == ""
            usable.append(json.loads(out)["parity_usable"])
        assert usable == [False, True]

    def test_coupling_file_comments_and_blank_lines_are_skipped(self, capsys, tmp_path):
        outputs = []
        for name, text in (("plain", "1 2 1.0\n2 3 0.5\n"),
                           ("commented", "# a chain\n\n1 2 1.0  # first bond\n\n2 3 0.5\n")):
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run_cli(
                capsys, "explore", "--hamiltonian", "kn-file", "--n", "3",
                "--coupling-file", str(path), "--grid", "0.25pi,1", "--json",
            )
            assert code == 0 and err == ""
            outputs.append(out.replace(str(path), "J"))
        assert outputs[0] == outputs[1]

    def test_malformed_coupling_file_over_cap_exits_2(self, capsys, tmp_path, lower_caps):
        # the file is read before the coupling matrix checks the cap
        path = tmp_path / "J.txt"
        path.write_text("1 2\n")
        lower_caps(dense=4, l2=4, state=6)
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", "kn-file", "--n", "7",
            "--coupling-file", str(path), "--grid", "1",
        )
        assert code == 2
        assert out == "" and err == "error: line 1: expected 'i j J_ij'\n"

    @pytest.mark.parametrize("hamiltonian", ["ring", "kn-file"])
    def test_coupling_over_state_cap_exits_3(self, capsys, tmp_path, hamiltonian):
        # an n x n coupling at this size would exceed the address space
        path = tmp_path / "J.txt"
        path.write_text("1 2 1.0\n")
        file_args = ("--coupling-file", str(path)) if hamiltonian == "kn-file" else ()
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", hamiltonian, "--n", str(10**7),
            *file_args, "--grid", "1",
        )
        assert code == 3
        assert out == "" and "state-vector cap" in err

    @pytest.mark.parametrize("hamiltonian, option, value", [
        (hamiltonian, option, value) for hamiltonian, reads in EXPLORE_READS.items()
        for option, values in (("--j", ("5", "0")), ("--coupling-file", ("/nonexistent", "")))
        if option not in reads for value in values
    ])
    def test_option_the_hamiltonian_ignores_exits_2(
        self, capsys, tmp_path, hamiltonian, option, value
    ):
        argv = explore_args(tmp_path, *EXPLORE_READS[hamiltonian]) + [option, value]
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--hamiltonian", hamiltonian, "--n", "3", *argv, "--grid", "0.25pi"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"{option} does not apply to --hamiltonian {hamiltonian}"
        assert captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("hamiltonian, given", [
        (hamiltonian, given) for hamiltonian, reads in EXPLORE_READS.items()
        for given in dict.fromkeys([reads, tuple(o for o in reads if o != "--j")])
    ])
    def test_options_the_hamiltonian_uses_are_accepted(self, capsys, tmp_path, hamiltonian, given):
        argv = explore_args(tmp_path, *given)
        code, out, err = run_cli(
            capsys, "explore", "--hamiltonian", hamiltonian, "--n", "3", *argv,
            "--grid", "0.25pi", "--json",
        )
        assert code == 0 and out and err == ""

    def test_no_qubits_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--hamiltonian", "hn", "--n", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--n must be positive" in captured.err

    def test_kn_file_needs_a_coupling_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--hamiltonian", "kn-file", "--n", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--hamiltonian kn-file requires --coupling-file" in captured.err

    def test_ring_coupling_defaults_to_one(self, capsys):
        args = ("explore", "--hamiltonian", "ring", "--n", "4", "--grid", "0.25pi", "--json")
        _, default, _ = run_cli(capsys, *args)
        _, explicit, _ = run_cli(capsys, *args, "--j", "1")
        assert default == explicit and '"ring(n=4,J=1)"' in default

    def test_deterministic_json(self, capsys):
        args = ("explore", "--hamiltonian", "ring", "--n", "4", "--json",
                "--grid", "0.25pi,0.5pi,0.75pi")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
