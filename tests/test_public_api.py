import spinfanout

# The public surface: what the CLI jobs and the benchmark call, plus the
# types they return and the submodules.  A name added here, or one that
# drops out, is an API change.
PUBLIC = [
    "CapExceededError", "CheckResult", "Circuit", "CouplingMatrix",
    "DenseHamiltonian", "DenseOperator", "DiagonalHamiltonian", "DiagonalOperator",
    "EquivalenceReport", "ParityDiagonalVerdict", "PermutationOperator", "ScanResult",
    "StateVector", "Step", "build_hn", "build_kn", "build_l2",
    "build_ring", "circuits", "classify_parity_diagonal", "compile_circuit", "core",
    "default_time_grid", "equiv_up_to_global_phase", "evolve", "evolver", "explore",
    "fanout_circuit", "fanout_reference", "from_text", "gates", "hamiltonians",
    "ieq_reference", "parity_circuit", "parity_like_circuit", "parity_reference",
    "popcounts", "run_check", "run_circuit", "run_suite", "scan",
    "simplified_fanout_circuit", "standard_gate", "suite_ok", "to_text", "un",
    "un_dagger", "verify",
]


def test_public_surface():
    assert sorted(spinfanout.__all__) == PUBLIC
