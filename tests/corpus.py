"""The named circuits of the kernel and planner tests, and what each must show.

``CORPUS`` maps a name to a :class:`Case`: a circuit, its oracle, and, where
the case pins them, the kind of each plan entry (:func:`kind`), the input
bits the plan mixes and the length of its real prefix.  The groups below
each build some of the cases; ``test_circuits.py`` runs every property over
all of them.
"""
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from spinfanout import verify
from spinfanout.circuits import (
    Circuit,
    Step,
    _MonomialOperator,
    fanout_circuit,
    from_text,
    parity_circuit,
    parity_like_circuit,
    simplified_fanout_circuit,
)
from spinfanout.core import DenseOperator, DiagonalOperator
from spinfanout.gates import _STANDARD, GateDef, standard_gate
from spinfanout.hamiltonians import un, un_dagger

from helpers import kron_oracle_product, random_orthogonal, random_unitary


@dataclass(frozen=True)
class Case:
    circuit: Circuit
    kinds: tuple[str, ...] | None = None
    mixed: tuple[int, ...] | None = None
    real_prefix: int | None = None

    @functools.cached_property
    def oracle(self):
        return kron_oracle_product(self.circuit)

    @property
    def writable(self):
        """Whether every step is a standard gate or an evolution, as ``to_text`` writes."""
        return all(s.gate.name in ("UN", "UNDAG") or s.gate is _STANDARD.get(s.gate.name)
                   for s in self.circuit.steps)


def kind(entry):
    gate, lo = entry
    if isinstance(gate, DenseOperator):
        real = "real" if not gate.matrix.imag.any() else "complex"
        return f"{real} dense at lo {'> 0' if lo else '= 0'}"
    if isinstance(gate, _MonomialOperator):
        return "monomial" if gate.phases is None else "monomial with phases"
    return "diagonal"


# one text per kind of plan entry, on 7 qubits, and a step on another qubit
# that fuses with none of it
ENTRY_KINDS = {
    "diagonal": ("CZ 4 5\nS 5\n", "H 0\n"),
    "monomial with phases": ("X 4\nS 5\n", "H 0\n"),
    "monomial": ("CNOT 4 5\n", "H 0\n"),
    "real dense at lo = 0": ("H 0\nH 1\n", "H 6\n"),
    "complex dense at lo = 0": ("H 0\nS 1\nH 1\n", "H 6\n"),
    "real dense at lo > 0": ("H 4\nCNOT 4 5\n", "H 0\n"),
    "complex dense at lo > 0": ("H 1\nS 2\nH 2\n", "H 6\n"),
}
GATHERED = ("monomial", "real dense at lo = 0", "monomial")


def hadamard_on_all():
    """A Hadamard on all 7 qubits as one dense gate, which fuses with no
    other step: a plan that starts with it mixes every input bit (k = n)."""
    h7 = functools.reduce(np.kron, [standard_gate("H").unitary.matrix] * 7)
    return Step(GateDef("H7", DenseOperator(7, h7)), tuple(range(7)))


def entry_kind_cases():
    """Each kind of plan entry alone, first and last; a wide dense gate placed
    between two gathers, alone, first and last; a global phase and no step.
    Each again after a Hadamard on all 7 qubits as one dense gate, which
    fuses with none of it: its plan mixes every input bit (k = n)."""
    h = standard_gate("H").unitary.matrix
    wide = Step(GateDef("G", DenseOperator(2, np.kron(h, h))), (5, 0))
    phase = Step(GateDef("P", DiagonalOperator(0, np.array([1j]))), ())
    h2 = from_text("H 2\n", n=7).steps
    cases = {
        "wide": ((wide,), GATHERED), "global phase": ((phase,), ("diagonal",)), "empty": ((), ()),
        "gather first": ((wide,) + h2, GATHERED + ("real dense at lo > 0",)),
        "gather last": (h2 + (wide,), ("real dense at lo > 0",) + GATHERED),
    }
    for name, (text, other) in ENTRY_KINDS.items():
        steps, other = from_text(text, n=7).steps, from_text(other, n=7).steps
        other_kind = f"real dense at lo {'> 0' if other[0].targets[0] else '= 0'}"
        cases[name] = (steps, (name,))
        cases[f"{name} first"] = (steps + other, (name, other_kind))
        cases[f"{name} last"] = (other + steps, (other_kind, name))
    layer = hadamard_on_all()
    for name, (steps, kinds) in list(cases.items()):
        cases[f"{name} after H on all"] = ((layer,) + steps, ("real dense at lo = 0",) + kinds)
    return {
        name: Case(Circuit(7, steps), kinds, tuple(range(7)) if name.endswith("on all") else None)
        for name, (steps, kinds) in cases.items()
    }


# last plan entries at lo = 0 in complex plans after a Hadamard on all 7 qubits
# (k = n), which the compile runs into the block and copies into their column
# slices, where a dense one is written in place: the text, its kinds after the
# layer's, and the real prefix.  An all-real plan is cast into its slices
# whatever its last entry, as "real dense at lo = 0 last after H on all" is
SLICE_ENDS = {
    "complex diagonal": ("S 0\nCZ 0 1\n", ("diagonal",), 1),
    "real diagonal in a complex plan": ("H 6\nS 6\nH 6\nCZ 0 1\n",
                                        ("complex dense at lo > 0", "diagonal"), 1),
    "monomial in a complex plan": ("H 6\nS 6\nH 6\nCNOT 0 1\n",
                                   ("complex dense at lo > 0", "monomial"), 1),
    "monomial with complex phases": ("X 0\nS 1\n", ("monomial with phases",), 1),
}


def slice_end_cases():
    """Each of ``SLICE_ENDS`` after the Hadamard on all 7 qubits."""
    return {
        f"k = n ends in a {name} at lo = 0": Case(
            Circuit(7, (hadamard_on_all(),) + from_text(text, n=7).steps),
            ("real dense at lo = 0",) + kinds, tuple(range(7)), real)
        for name, (text, kinds, real) in SLICE_ENDS.items()
    }


# real plan entries of every kind: dense, monomial with real phases, diagonal
REAL_STEPS = "H 0\nH 1\nCNOT 1 6\nH 6\nCZ 0 6\nX 3\nZ 3\n"
REAL_KINDS = ("real dense at lo = 0", "monomial with phases", "real dense at lo > 0")


def real_prefix_cases():
    """7-qubit circuits whose plans start with several real entries and end
    at each kind of first complex entry, one with an empty real prefix, and
    the all-real Fig. 3 circuit."""
    texts = {
        "complex diagonal": (REAL_STEPS + "S 0\nCZ 0 6\n", 3, REAL_KINDS + ("diagonal",)),
        "complex dense": (REAL_STEPS + "H 6\nS 6\nH 6\n", 4,
                          REAL_KINDS + ("diagonal", "complex dense at lo > 0")),
        "monomial with complex phases": (REAL_STEPS + "CNOT 6 0\nS 0\n", 3,
                                         REAL_KINDS + ("monomial with phases",)),
        "empty prefix": ("S 0\n" + REAL_STEPS, 0,
                         ("complex dense at lo = 0",) + REAL_KINDS[1:] + ("diagonal",)),
    }
    cases = {name: Case(from_text(text, n=7), kinds, real_prefix=real)
             for name, (text, real, kinds) in texts.items()}
    fig3 = ("real dense at lo = 0", "real dense at lo > 0", "monomial")
    cases["all real (Fig. 3)"] = Case(verify._fig3_circuit(6), fig3 + fig3[:2], real_prefix=5)
    return cases


def paper_cases():
    """Each builder at n = 2, 4 and 6, which run U_N first at n = 2 and 6 and
    its adjoint at n = 4: the parity circuits mix the helper wire n-1 and the
    accumulator n (parity_like only the helper), the fanouts every bit."""
    mixed = {parity_circuit: (-2, -1), parity_like_circuit: (-1,)}
    cases = {}
    for build in (parity_circuit, parity_like_circuit, fanout_circuit, simplified_fanout_circuit):
        for n in (2, 4, 6):
            c = build(n)
            bits = tuple(c.n + b for b in mixed[build]) if build in mixed else tuple(range(c.n))
            cases[f"{build.__name__}({n})"] = Case(c, mixed=bits)
    return cases


def random_diagonal(m, rng):
    return DiagonalOperator(m, np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << m)))


def one_step_cases():
    """A dense, a real dense, a diagonal and a monomial gate (a cycle through
    all its rows, with phases: the plan gathers its rows) alone on 4 qubits,
    on adjacent ascending, adjacent descending and non-adjacent targets; and
    a lone dense step whose span is wider than ``_FUSE_QUBITS``, which plans
    as a gather of its targets to the bottom of the span, the gate, and the
    gather back."""
    cases = {}

    def add(name, n, gate, targets, kinds):
        steps = (Step(GateDef("G", gate), targets),)
        cases[f"{name} on {'-'.join(map(str, targets))}"] = Case(Circuit(n, steps), kinds)

    for targets in (t for m in (1, 2, 3) for t in itertools.permutations(range(4), m)):
        m, rng = len(targets), np.random.default_rng(targets)
        at = "at lo > 0" if min(targets) else "at lo = 0"
        perm, cycle = rng.permutation(1 << m), np.zeros((1 << m, 1 << m), dtype=complex)
        cycle[np.arange(1 << m), perm[(np.argsort(perm) - 1) % (1 << m)]] = np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=1 << m))
        add("dense", 4, random_unitary(m, rng), targets, (f"complex dense {at}",))
        add("real dense", 4, random_orthogonal(m, rng), targets, (f"real dense {at}",))
        add("diagonal", 4, random_diagonal(m, rng), targets, ("diagonal",))
        add("monomial", 4, DenseOperator(m, cycle), targets, ("monomial with phases",))
    for targets in [(5, 0), (0, 5), (6, 1), (6, 1, 3), (0, 3, 6)]:
        m, rng = len(targets), np.random.default_rng(targets)
        at = "at lo > 0" if min(targets) else "at lo = 0"
        add("lone wide dense", 7, random_unitary(m, rng), targets,
            ("monomial", f"complex dense {at}", "monomial"))
        add("lone wide real dense", 7, random_orthogonal(m, rng), targets,
            ("monomial", f"real dense {at}", "monomial"))
    return cases


def fusion_step(n, rng):
    """A diagonal on all n qubits (sometimes, in ascending or random order),
    else a complex dense, real dense or diagonal gate on 1..3 qubits, in
    random order, of a window of 1..6 adjacent qubits: runs of these steps
    fuse below, at and past the fusion width."""
    if rng.random() < 0.1:
        targets = range(n) if rng.random() < 0.5 else rng.permutation(n)
        return Step(GateDef("D", random_diagonal(n, rng)), tuple(int(t) for t in targets))
    width = int(rng.integers(1, min(n, 6) + 1))
    lo = int(rng.integers(0, n - width + 1))
    m = int(rng.integers(1, min(width, 3) + 1))
    targets = tuple(lo + int(t) for t in rng.permutation(width)[:m])
    kind = rng.random()
    if kind < 0.3:
        gate = random_unitary(m, rng)
    elif kind < 0.6:
        gate = random_orthogonal(m, rng)
    else:
        gate = random_diagonal(m, rng)
    return Step(GateDef("G", gate), targets)


def random_circuit(rng):
    n = int(rng.integers(1, 10))
    depth = int(rng.integers(1, 21))
    return Circuit(n, tuple(fusion_step(n, rng) for _ in range(depth)))


def monomial_step(n, rng):
    """Mostly X, CNOT or CZ on any qubits in either order, else an evolution
    ``UN k`` or ``UNDAG k`` on qubits 0..k-1, or H: runs of these steps fuse
    into monomial runs of every span, broken by the Hadamards."""
    name = str(rng.choice(["X", "CNOT", "CZ", "X", "CNOT", "CZ", "UN", "UNDAG", "H"]))
    if name in ("UN", "UNDAG"):
        k = int(rng.integers(1, n + 1))
        return Step(GateDef(name, (un if name == "UN" else un_dagger)(k)), tuple(range(k)))
    gate = standard_gate(name if n > 1 or name == "H" else "X")
    return Step(gate, tuple(int(t) for t in rng.permutation(n)[:gate.unitary.n]))


def monomial_circuit(rng, seed):
    """A circuit of ``monomial_step`` on n = 1..9 qubits, cycling with the seed."""
    n = 1 + seed % 9
    depth = int(rng.integers(1, 21))
    return Circuit(n, tuple(monomial_step(n, rng) for _ in range(depth)))


def seeded_cases():
    """30 seeds each of the random and the monomial circuit family."""
    cases = {}
    for seed in range(30):
        cases[f"seeded random {seed}"] = Case(random_circuit(np.random.default_rng(seed)))
        cases[f"seeded monomial {seed}"] = Case(monomial_circuit(np.random.default_rng(seed), seed))
    return cases


GROUPS = (entry_kind_cases(), slice_end_cases(), real_prefix_cases(), paper_cases(),
          one_step_cases(), seeded_cases())
CORPUS = {name: case for group in GROUPS for name, case in group.items()}
assert len(CORPUS) == sum(map(len, GROUPS))  # no name given twice


def named(prefix):
    """The circuits of the cases whose names start with ``prefix``."""
    return [case.circuit for name, case in CORPUS.items() if name.startswith(prefix)]
