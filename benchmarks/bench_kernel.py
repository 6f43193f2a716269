"""The default ``kernel`` engine against the ``sparse`` reference.

The BENCH_plan workload — the deep 1q-heavy 12-qubit circuit of
``bench_b2_gate_apply`` — executed through a warm compiled plan on the
two statevector backends:

* **sparse** — the paper's Section 3.2 algorithm, one sparse
  ``I (x) U (x) I`` operator per plan step (QCLAB),
* **kernel** — the table-free strided engine, the package default
  (QCLAB++).

Emits ``BENCH_kernel.json`` with per-backend planned wall times and the
``speedup_kernel_vs_sparse`` ratio; ``tools/bench_regress.py`` gates
that ratio and ``kernel_planned_seconds``.  Run directly
(``python benchmarks/bench_kernel.py``) or through pytest.
"""

import numpy as np

try:
    from benchmarks.bench_b2_gate_apply import _layered_1q_circuit
    from benchmarks.harness import emit_json, timed_run
except ImportError:  # direct execution from the benchmarks/ directory
    from bench_b2_gate_apply import _layered_1q_circuit
    from harness import emit_json, timed_run
from repro.simulation import SimulationOptions, clear_plan_cache, simulate
from repro.simulation.plan import get_plan

#: The BENCH_plan workload shape (12 qubits, 12 RX/RZ+CZ layers).
N_QUBITS = 12
N_LAYERS = 12
REPEATS = 7
BACKENDS = ("sparse", "kernel")


def run_engines(repeats=REPEATS):
    """Time the planned workload per backend; returns the
    ``BENCH_kernel.json`` payload."""
    circuit = _layered_1q_circuit(N_QUBITS, N_LAYERS)
    start = "0" * N_QUBITS
    clear_plan_cache()
    results = {}
    for name in BACKENDS:
        # compile, and build sparse's per-step operators, untimed
        get_plan(circuit, name)
        opts = SimulationOptions(backend=name)
        runs = timed_run(
            lambda: simulate(circuit, start, options=opts),
            repeats=repeats,
            warmup=1,
        )
        results[name] = runs
        print(
            f"BENCH-kernel | {name:>8}: {runs.best * 1e3:7.3f} ms best "
            f"({runs.median * 1e3:.3f} ms median)"
        )
    diff = np.abs(
        results["kernel"].value.states[0] - results["sparse"].value.states[0]
    ).max()
    assert diff <= 1e-10, f"kernel diverged from sparse by {diff:.2e}"
    payload = {
        "benchmark": "kernel-vs-sparse",
        "workload": f"layered_1q_{N_QUBITS}q_{N_LAYERS}l",
        "nb_qubits": N_QUBITS,
        "backends": list(BACKENDS),
        "speedup_kernel_vs_sparse": (
            results["sparse"].best / results["kernel"].best
        ),
    }
    for name, runs in results.items():
        payload[f"{name}_planned_seconds"] = runs.best
        payload.update(runs.as_dict(f"{name}_"))
    return payload


def test_kernel_engine_emit_json():
    payload = run_engines()
    path = emit_json("kernel", payload)
    print(f"BENCH-kernel | wrote {path}")
    # the optimized engine must beat the reference it replaces
    assert payload["speedup_kernel_vs_sparse"] > 1.0


if __name__ == "__main__":
    payload = run_engines()
    path = emit_json("kernel", payload)
    print(
        f"kernel speedup over sparse "
        f"{payload['speedup_kernel_vs_sparse']:.2f}x | wrote {path}"
    )
