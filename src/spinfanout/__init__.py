"""Parity and fanout gates from diagonal spin-Hamiltonian evolution."""

from .core import (
    CapExceededError,
    DenseOperator,
    DiagonalOperator,
    EquivalenceReport,
    StateVector,
    equiv_up_to_global_phase,
    popcounts,
)
from .hamiltonians import (
    CouplingMatrix,
    DenseHamiltonian,
    DiagonalHamiltonian,
    build_hn,
    build_kn,
    build_l2,
    build_ring,
    evolve,
    evolver,
    un,
    un_dagger,
)
from .gates import (
    fanout_reference,
    ieq_reference,
    parity_reference,
    standard_gate,
)
from .circuits import (
    Circuit,
    Step,
    compile_circuit,
    fanout_circuit,
    from_text,
    parity_circuit,
    parity_like_circuit,
    run_circuit,
    simplified_fanout_circuit,
    to_text,
)
from .explore import (
    ParityDiagonalVerdict,
    ScanResult,
    classify_parity_diagonal,
    default_time_grid,
    scan,
)
from .verify import CheckResult, run_check, run_suite, suite_ok

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
