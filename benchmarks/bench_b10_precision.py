"""B10 — working-precision ablation (QCLAB++'s template parameter T).

QCLAB++ instantiates its kernels for float and double; our dtype
parameter mirrors that.  This bench measures the complex64 vs
complex128 split on the optimized backend and checks that single
precision stays accurate at the expected 1e-6 scale.
"""

import numpy as np
import pytest

from benchmarks.workloads import layered_circuit
from repro.algorithms import teleportation_circuit
from repro.simulation import SimulationOptions


def test_b10_rows(benchmark):
    benchmark.pedantic(
        lambda: layered_circuit(12, 4).simulate(
            "0" * 12, options=SimulationOptions(dtype=np.complex64)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print("B10 | precision check: teleportation in complex64")
    qtc = teleportation_circuit()
    v = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)], dtype=np.complex64)
    bell = (np.array([1, 0, 0, 1]) / np.sqrt(2)).astype(np.complex64)
    init = np.kron(v, bell)
    s32 = qtc.simulate(
        init, options=SimulationOptions(dtype=np.complex64)
    )
    init64 = init.astype(np.complex128)
    init64 /= np.linalg.norm(init64)
    s64 = qtc.simulate(init64)
    worst = max(
        np.abs(a.astype(np.complex128) - b).max()
        for a, b in zip(s32.states, s64.states)
    )
    print(f"B10 | max |complex64 - complex128| deviation: {worst:.2e}")
    assert worst < 1e-6
    for state in s32.states:
        assert state.dtype == np.complex64


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                         ids=["complex64", "complex128"])
@pytest.mark.parametrize("n", [10, 14])
def test_b10_simulate(benchmark, dtype, n):
    benchmark.group = f"B10 n={n}"
    circuit = layered_circuit(n, 4)
    sim = benchmark(
        lambda: circuit.simulate(
            "0" * n, options=SimulationOptions(dtype=dtype)
        )
    )
    assert sim.states[0].dtype == dtype
