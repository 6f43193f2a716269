"""E1 — the paper's running example (circuit (1), Sections 2-3).

Regenerates the printed rows: results {'00','11'} with probabilities
0.5/0.5, and benchmarks circuit construction + simulation.
"""

import numpy as np
import pytest

from benchmarks.workloads import bell_circuit
from repro.simulation import SimulationOptions


def _check(sim):
    assert sim.results == ["00", "11"]
    np.testing.assert_allclose(sim.probabilities, [0.5, 0.5])


def test_e1_rows(benchmark):
    """Regenerate the paper's reported rows."""
    sim = benchmark.pedantic(
        lambda: bell_circuit().simulate("00"), rounds=1, iterations=1
    )
    _check(sim)
    print()
    print("E1 circuit (1) | result probability")
    for result, p in zip(sim.results, sim.probabilities):
        print(f"E1 circuit (1) | {result!r:>4} {p:.4f}")


@pytest.mark.parametrize("backend", ["kernel", "sparse"])
def test_e1_simulate(benchmark, backend):
    circuit = bell_circuit()
    opts = SimulationOptions(backend=backend)
    sim = benchmark(lambda: circuit.simulate("00", options=opts))
    _check(sim)


def test_e1_construction(benchmark):
    circuit = benchmark(bell_circuit)
    assert len(circuit) == 4


def test_e1_vector_start(benchmark):
    circuit = bell_circuit()
    start = np.array([1, 0, 0, 0], dtype=complex)
    sim = benchmark(lambda: circuit.simulate(start))
    _check(sim)
