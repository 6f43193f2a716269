"""B11 — batched trajectory engine throughput (serial vs batched vs
multi-worker shots/sec).

The B4 noise workload (measured Bell pair under 1% depolarizing noise)
sampled three ways:

* **serial** — the historical per-shot Python loop over
  :func:`run_trajectory` (one plan replay per shot),
* **batched** — :func:`run_trajectories_batched` in-process
  (one ``(B, 2^n)`` array per batch, every plan step applied once
  across the batch),
* **workers** — the same batched engine fanned out over a process
  pool.

Emits ``BENCH_batch.json`` with shots/sec per mode at 1k and 10k
shots, the batched/serial speedups, and a seed-reproducibility check
across worker counts.  Run directly (``python
benchmarks/bench_b11_batched.py``) or through pytest-benchmark; the
``BENCH_B11_SHOTS`` environment variable shrinks the shot grid for CI
smoke runs.
"""

import os

import numpy as np

try:
    from benchmarks.harness import emit_json, timed_run
except ImportError:  # direct execution: python benchmarks/bench_b11_...
    from harness import emit_json, timed_run
from repro.circuit import Measurement, QCircuit
from repro.gates import CNOT, Hadamard
from repro.noise import (
    Depolarizing,
    NoiseModel,
    run_trajectories_batched,
    run_trajectory,
)
from repro.simulation import SimulationOptions

#: Worker fan-out benchmarked (and used for the invariance check).
WORKERS = 4


def b4_workload():
    """The B4 noise workload: measured Bell pair, 1% depolarizing."""
    c = QCircuit(2)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(Measurement(0))
    c.push_back(Measurement(1))
    return c, NoiseModel(gate_noise=Depolarizing(0.01))


def serial_counts(circuit, noise, shots, seed):
    """The pre-batching implementation: one plan replay per shot."""
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(int(shots)):
        r = run_trajectory(circuit, noise, rng=rng).result
        counts[r] = counts.get(r, 0) + 1
    return counts


def batched_counts(circuit, noise, shots, seed, max_workers=1):
    opts = SimulationOptions(max_workers=max_workers)
    if max_workers > 1:
        # one batch per worker and no per-worker shot floor, so the job
        # really fans out at these shot counts
        opts = SimulationOptions(
            max_workers=max_workers,
            batch_size=max(1, shots // max_workers),
            min_shots_per_worker=1,
        )
    return run_trajectories_batched(
        circuit, noise, shots=shots, seed=seed, options=opts
    ).counts


def run_grid(shot_grid, repeats=3):
    """Benchmark all three modes over the shot grid; returns the
    ``BENCH_batch.json`` payload."""
    circuit, noise = b4_workload()
    rows = []
    for shots in shot_grid:
        serial = timed_run(
            lambda: serial_counts(circuit, noise, shots, seed=1),
            repeats=repeats,
        )
        batched = timed_run(
            lambda: batched_counts(circuit, noise, shots, seed=1),
            repeats=repeats,
        )
        fanned = timed_run(
            lambda: batched_counts(
                circuit, noise, shots, seed=1, max_workers=WORKERS
            ),
            repeats=repeats,
        )
        assert serial.value == batched.value == fanned.value
        row = {
            "shots": shots,
            "serial_shots_per_sec": shots / serial.best,
            "batched_shots_per_sec": shots / batched.best,
            "workers_shots_per_sec": shots / fanned.best,
            "batched_speedup": serial.best / batched.best,
            "workers_speedup": serial.best / fanned.best,
            **serial.as_dict("serial_"),
            **batched.as_dict("batched_"),
            **fanned.as_dict(f"workers{WORKERS}_"),
        }
        rows.append(row)
        print(
            f"B11 | shots={shots:>6} "
            f"serial={row['serial_shots_per_sec']:>9.0f}/s "
            f"batched={row['batched_shots_per_sec']:>9.0f}/s "
            f"({row['batched_speedup']:.1f}x) "
            f"workers={row['workers_shots_per_sec']:>9.0f}/s "
            f"({row['workers_speedup']:.1f}x)"
        )
    reproducible = (
        batched_counts(circuit, noise, shot_grid[0], seed=1)
        == batched_counts(
            circuit, noise, shot_grid[0], seed=1, max_workers=WORKERS
        )
    )
    return {
        "workload": "b4_bell_depolarizing_0.01",
        "workers": WORKERS,
        "seed_reproducible_across_workers": reproducible,
        "rows": rows,
    }


def _shot_grid():
    env = os.environ.get("BENCH_B11_SHOTS")
    if env:
        return [int(s) for s in env.split(",")]
    return [1000, 10000]


def test_b11_batched_throughput(benchmark):
    circuit, noise = b4_workload()
    shots = _shot_grid()[0]
    counts = benchmark(
        lambda: batched_counts(circuit, noise, shots, seed=1)
    )
    assert sum(counts.values()) == shots


def test_b11_emit_json():
    payload = run_grid(_shot_grid())
    path = emit_json("batch", payload)
    print(f"B11 | wrote {path}")
    assert payload["seed_reproducible_across_workers"]


if __name__ == "__main__":
    payload = run_grid(_shot_grid())
    path = emit_json("batch", payload)
    print(f"wrote {path}")
