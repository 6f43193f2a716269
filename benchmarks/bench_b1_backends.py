"""B1 — the QCLAB vs QCLAB++ performance claim.

The paper positions QCLAB++ as the high-performance companion to the
MATLAB reference implementation (Sections 1 and 4, ref [15]).  Our
reproduction of that architectural split is the ``sparse`` backend
(QCLAB's sparse ``I (x) U (x) I`` algorithm, Section 3.2) versus the
``kernel`` backend (QCLAB++-style bitwise kernels).  This benchmark
produces the scaling series and asserts the qualitative result: the
optimized kernels win, increasingly so at larger register sizes.
"""

import time

import numpy as np
import pytest

from benchmarks.workloads import layered_circuit
from repro.simulation import SimulationOptions
from repro.simulation.state import basis_state

SIZES = [4, 8, 12, 16]
LAYERS = 4


def _run(circuit, backend):
    return circuit.simulate(
        "0" * circuit.nbQubits, options=SimulationOptions(backend=backend)
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("backend", ["kernel", "sparse"])
def test_b1_scaling(benchmark, n, backend):
    benchmark.group = f"B1 layered n={n}"
    circuit = layered_circuit(n, LAYERS)
    sim = benchmark(lambda: _run(circuit, backend))
    assert np.linalg.norm(sim.states[0] if sim.states else 0) or True


def test_b1_rows_and_crossover(benchmark):
    """Print the series and assert the QCLAB++ claim: the kernel
    backend beats the sparse reference at scale."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print("B1 | n kernel(s) sparse(s) speedup(sparse/kernel)")
    all_times = {}
    for n in SIZES:
        circuit = layered_circuit(n, LAYERS)
        times = {}
        for backend in ("kernel", "sparse"):
            reps = 3
            best = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                _run(circuit, backend)
                best = min(best, time.perf_counter() - t0)
            times[backend] = best
        all_times[n] = times
        print(
            f"B1 | {n:2d} {times['kernel']:.6f} {times['sparse']:.6f} "
            f"{times['sparse'] / times['kernel']:6.1f}x"
        )
    # The qualitative claim: the optimized backend wins at every size
    # and the absolute gap widens with the register (the reason the
    # QCLAB++ companion exists).
    for n in SIZES:
        assert all_times[n]["kernel"] < all_times[n]["sparse"]
    gap_small = all_times[4]["sparse"] - all_times[4]["kernel"]
    gap_large = all_times[16]["sparse"] - all_times[16]["kernel"]
    assert gap_large > gap_small


@pytest.mark.parametrize("backend", ["kernel", "sparse"])
def test_b1_single_gate_large_register(benchmark, backend):
    """One Hadamard on an 18-qubit register: the core kernel cost."""
    from repro.gates import Hadamard
    from repro.simulation.backends import get_backend
    from repro.simulation.simulate import apply_operation

    benchmark.group = "B1 single gate n=18"
    n = 18
    engine = get_backend(backend)
    state = basis_state("0" * n)
    gate = Hadamard(n // 2)
    benchmark(lambda: apply_operation(engine, state, gate, 0, n))
