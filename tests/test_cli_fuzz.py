"""A seeded fuzz guard for the CLI's input handling.

Random circuit files, coupling files and ``--grid`` specs, built from tokens
that have broken parsers before (NUL, a byte-order mark, non-ASCII digits,
sizes over every cap, ``UN``/``UNDAG``, nan, inf, 1e400, ``1e308pi``,
``*pi``, empty parts), go through :func:`spinfanout.cli.main`.  None may
raise: each run exits 0, 2 (bad input) or 3 (over a size cap), and a nonzero
exit writes a message.  Qubit indices stay small or go over the dense cap,
so no run builds a large matrix.
"""
import numpy as np
import pytest

from spinfanout.cli import main

JUNK = ["\x00", "\ufeff", "#", "", " ", "\t", "pi", "*", "é"]
# each gate token and the number of qubits it takes (an evolution: one size)
GATES = {"H": 1, "X": 1, "Z": 1, "S": 1, "SDAG": 1, "sdg": 1, "S†": 1, "CNOT": 2, "cz": 2,
         "UN": 1, "UNDAG": 1, "undag": 1, "T": 1, "H\x00": 1, "\ufeffH": 1}
QUBITS = ["0", "1", "2", "3", "4", "-1", "+2", "1.0", "٣", "１", "13", "21",
          "10000000000", "0x1", "1e3", "nan", ""]
INDICES = ["1", "2", "3", "4", "0", "5", "-1", "1.0", "٢", "３", "", "21"]
COUPLINGS = ["1", "-0.5", "2.5e-3", "0", "nan", "-inf", "inf", "1e400", "1e308", "-1e308",
             "1e-320", "1+2j", "0x10", "", "pi", "1_0"]
TIMES = ["0.25pi", "pi", "*pi", "2*pi", "0.5*pi", "1e308pi", "-1e308pi", "1e400", "1e-400",
         "nan", "inf", "-inf", "", " ", "1", "-1", "0", "1.5", "pi pi", "\x00", "\ufeff1",
         "0x1", "1_0", "١"]


def pick(rng, tokens):
    return tokens[int(rng.integers(len(tokens)))]


def garble(rng, line):
    """``line`` with a junk token put in at a random place, one time in ten."""
    if rng.random() >= 0.1:
        return line
    at = int(rng.integers(len(line) + 1))
    return line[:at] + pick(rng, JUNK) + line[at:]


def circuit_text(rng):
    lines = []
    for _ in range(int(rng.integers(0, 6))):
        name = pick(rng, list(GATES))
        if rng.random() < 0.8:  # a well-formed line, on at most 5 qubits
            low = 1 if name.upper() in ("UN", "UNDAG") else 0
            qubits = [str(q) for q in rng.choice(range(low, 5 + low), GATES[name], replace=False)]
        else:
            qubits = [pick(rng, QUBITS) for _ in range(int(rng.integers(4)))]
        lines.append(garble(rng, " ".join([name, *qubits])))
    return "\n".join(lines) + "\n" * int(rng.integers(2))


def coupling_text(rng):
    lines = []
    for _ in range(int(rng.integers(0, 5))):
        i, j = (pick(rng, INDICES) for _ in range(2))
        parts = [i, j, pick(rng, COUPLINGS)][:int(rng.choice([1, 2, 3, 3, 3, 4]))]
        lines.append(garble(rng, " ".join(parts)))
    return "\n".join(lines) + "\n"


def grid_spec(rng):
    return ",".join(pick(rng, TIMES) for _ in range(int(rng.integers(1, 4))))


def exit_code(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # the usage errors argparse raises
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code)
    assert code == 0 or err, argv
    return code


def test_circuit_files(capsys, tmp_path):
    rng, path, codes = np.random.default_rng(2024), tmp_path / "c.txt", set()
    for _ in range(150):
        path.write_text(circuit_text(rng), encoding="utf-8")
        n = ["--n", pick(rng, ["1", "3", "5", "0", "-2", "13", "25"])] if rng.random() < 0.2 else []
        fmt = pick(rng, ["text", "csv"])
        codes.add(exit_code(capsys, ["matrix", "--what", "circuit-file", "--file", str(path),
                                     "--format", fmt, *n]))
    assert codes == {0, 2, 3}  # the inputs reach each outcome


def test_coupling_files(capsys, tmp_path):
    rng, path, codes = np.random.default_rng(2025), tmp_path / "J.txt", set()
    for _ in range(100):
        path.write_text(coupling_text(rng), encoding="utf-8")
        n = pick(rng, ["2", "3", "4", "4", "21"])
        codes.add(exit_code(capsys, ["explore", "--hamiltonian", "kn-file", "--n", n,
                                     "--coupling-file", str(path), "--grid", "0.25pi,1"]))
    assert codes == {0, 2, 3}


@pytest.mark.parametrize("hamiltonian", ["hn", "ring", "l2"])
def test_grid_specs(capsys, hamiltonian):
    rng, codes = np.random.default_rng(len(hamiltonian)), set()
    for _ in range(50):
        n = pick(rng, ["3", "3", "3", "21" if hamiltonian != "l2" else "9"])
        codes.add(exit_code(capsys, ["explore", "--hamiltonian", hamiltonian, "--n", n,
                                     f"--grid={grid_spec(rng)}", "--json"]))
    assert codes == {0, 2, 3}
