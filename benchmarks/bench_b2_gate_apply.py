"""B2 — per-gate-class application cost (paper Section 3.2).

Benchmarks the apply kernels for every structural gate class the paper
implements: plain one-qubit, diagonal, controlled, multi-controlled,
SWAP and two-qubit rotations — on both the optimized and reference
backends.
"""

import numpy as np
import pytest

from repro.gates import (
    CNOT,
    CPhase,
    CZ,
    Hadamard,
    MCX,
    PauliZ,
    RotationX,
    RotationZ,
    RotationZZ,
    SWAP,
)
from repro.simulation.backends import get_backend
from repro.simulation.simulate import apply_operation
from repro.simulation.state import random_state

N = 14

GATES = {
    "h-1q": Hadamard(7),
    "rx-1q": RotationX(7, 0.5),
    "z-diagonal": PauliZ(7),
    "rz-diagonal": RotationZ(7, 0.5),
    "cnot-adjacent": CNOT(6, 7),
    "cnot-distant": CNOT(0, 13),
    "cz-diagonal": CZ(3, 10),
    "cphase": CPhase(2, 11, 0.3),
    "swap": SWAP(4, 9),
    "rzz": RotationZZ(5, 8, 0.7),
    "mcx-2ctrl": MCX([2, 7], 12),
    "mcx-4ctrl": MCX([1, 4, 8, 11], 6),
}


@pytest.mark.parametrize("name", list(GATES), ids=list(GATES))
@pytest.mark.parametrize("backend", ["kernel", "sparse"])
def test_b2_apply(benchmark, name, backend):
    benchmark.group = f"B2 {name}"
    gate = GATES[name]
    engine = get_backend(backend)
    state = random_state(N, rng=0)
    out = benchmark(
        lambda: apply_operation(engine, state.copy(), gate, 0, N)
    )
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_b2_rows(benchmark):
    """Correctness of every benchmarked gate against the dense
    reference on a smaller register."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print("B2 | gate backends-agree")
    n = 8
    state = random_state(n, rng=1)
    small = {
        name: gate
        for name, gate in GATES.items()
        if max(gate.qubits) < n
    }
    for name, gate in small.items():
        outs = [
            apply_operation(get_backend(b), state.copy(), gate, 0, n)
            for b in ("kernel", "sparse")
        ]
        agree = np.allclose(outs[0], outs[1], atol=1e-12)
        print(f"B2 | {name} {agree}")
        assert agree


def _layered_1q_circuit(n, layers):
    """Deep 1q-heavy workload: alternating RY/RZ layers with a CZ
    ladder every few layers to keep it non-trivial."""
    from repro.circuit import QCircuit

    c = QCircuit(n)
    for layer in range(layers):
        for q in range(n):
            c.push_back(RotationX(q, 0.1 * (layer + 1) + 0.01 * q))
        for q in range(n):
            c.push_back(RotationZ(q, 0.2 * (layer + 1) - 0.01 * q))
        if layer % 4 == 3:
            for q in range(0, n - 1, 2):
                c.push_back(CZ(q, q + 1))
    return c


def test_b2_plan_vs_unplanned(benchmark):
    """Planned execution vs a per-gate ``apply_operation`` walk of the
    op tree on the same backend, on a deep 1q-heavy circuit (paper
    Section 3.2 workload shape); emits ``BENCH_plan.json``."""
    from repro.simulation import SimulationOptions, clear_plan_cache, simulate
    from repro.simulation.plan import get_plan
    from repro.simulation.state import initial_state

    try:
        from benchmarks.harness import emit_json, timed_run
    except ImportError:  # run directly from the benchmarks/ directory
        from harness import emit_json, timed_run

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n, layers, reps = 12, 12, 5
    circuit = _layered_1q_circuit(n, layers)
    start = "0" * n

    opts = SimulationOptions()
    engine = get_backend(opts.backend)

    def walk():
        state = initial_state(start, n)
        for gate, offset in circuit.operations():
            state = apply_operation(engine, state, gate, offset, n)
        return state

    clear_plan_cache()
    unplanned = timed_run(walk, repeats=reps, warmup=0)
    get_plan(circuit)  # pay compilation outside the timed region
    planned = timed_run(
        lambda: simulate(circuit, start, options=opts),
        repeats=reps,
        warmup=0,
    )
    assert np.allclose(
        planned.value.states[0], unplanned.value, atol=1e-12
    )

    plan, stats = get_plan(circuit)
    payload = {
        "benchmark": "B2-plan",
        "nb_qubits": n,
        "nb_source_gates": stats.nb_source_ops,
        "nb_plan_steps": stats.nb_steps,
        "nb_fused_1q": stats.nb_fused_1q,
        "nb_diag_merged": stats.nb_diag_merged,
        "unplanned_seconds": unplanned.best,
        "planned_seconds": planned.best,
        "speedup": unplanned.best / planned.best,
    }
    emit_json("plan", payload)
    print()
    print(
        f"B2-plan | {stats.nb_source_ops} gates -> {stats.nb_steps} "
        f"steps | planned {planned.best * 1e3:.2f} ms vs unplanned "
        f"{unplanned.best * 1e3:.2f} ms | speedup "
        f"{payload['speedup']:.2f}x"
    )
    assert payload["speedup"] >= 1.5
