"""State-vector simulation: backends, branching measurement, results.

The paper describes two simulation engines sharing one API: QCLAB's
MATLAB reference (sparse ``I (x) U (x) I`` operators, Section 3.2) and
QCLAB++'s optimized kernels.  This package reproduces that split with
two interchangeable backends (``sparse`` and the default ``kernel``)
and implements the full measurement model of Section 3.3:
branching mid-circuit measurements, arbitrary bases, shot sampling
(``counts``) and reduced states.
"""

from repro.simulation.backends import (
    Backend,
    KernelBackend,
    SparseKronBackend,
    available_backends,
    default_backend,
    get_backend,
    get_engine,
    register_backend,
    register_engine,
)
from repro.simulation.options import (
    SimulationOptions,
    resolve_simulation_options,
)
from repro.simulation.plan import (
    CompiledPlan,
    PlanStats,
    PlanStep,
    circuit_signature,
    clear_plan_cache,
    compile_circuit,
    get_plan,
    plan_cache_info,
)
from repro.simulation.density import (
    density_matrix,
    fidelity,
    purity,
    trace_distance,
)
from repro.simulation.density_sim import (
    DensitySimulation,
    simulate_density,
)
from repro.simulation.observables import (
    PauliSum,
    expectation,
    pauli_matrix,
    variance,
)
from repro.simulation.reduced import partial_trace, reducedStatevector
from repro.simulation.simulate import Simulation, apply_operation, simulate
from repro.simulation.sweep import SweepResult, sweep
from repro.simulation.mps import MPSState, mps_counts, simulate_mps
from repro.simulation.stabilizer import (
    StabilizerState,
    simulate_stabilizer,
    stabilizer_counts,
)
from repro.simulation.state import basis_state, initial_state, random_state

__all__ = [
    "Backend",
    "KernelBackend",
    "SparseKronBackend",
    "get_backend",
    "default_backend",
    "available_backends",
    "register_backend",
    "register_engine",
    "get_engine",
    "SimulationOptions",
    "resolve_simulation_options",
    "CompiledPlan",
    "PlanStep",
    "PlanStats",
    "compile_circuit",
    "circuit_signature",
    "get_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "simulate",
    "Simulation",
    "apply_operation",
    "sweep",
    "SweepResult",
    "initial_state",
    "basis_state",
    "random_state",
    "reducedStatevector",
    "partial_trace",
    "density_matrix",
    "trace_distance",
    "fidelity",
    "purity",
    "expectation",
    "variance",
    "pauli_matrix",
    "PauliSum",
    "simulate_density",
    "DensitySimulation",
    "StabilizerState",
    "simulate_stabilizer",
    "stabilizer_counts",
    "MPSState",
    "simulate_mps",
    "mps_counts",
]
