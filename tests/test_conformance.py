"""The conformance harness (``repro.conformance``).

The load-bearing properties:

* the generator is deterministic — one seed, one circuit — and covers
  the full gate universe;
* a conformance run over a small seed budget passes clean on the real
  engines (the same invariant CI smoke enforces);
* a deliberately injected backend bug (transposed kernels) is caught
  by the differential oracle and shrunk to a small reproducer quickly;
* shrunk failures serialize to a JSON report that replays.
"""

import json
from time import perf_counter

import numpy as np
import pytest

from repro.circuit import QCircuit
from repro.conformance import (
    CHECKED_PASSES,
    CheckFailure,
    ConformanceReport,
    GeneratorConfig,
    OracleConfig,
    counts_deviation,
    generate_case,
    run_conformance,
    run_oracle,
    shrink,
    tolerance_for,
)
from repro.conformance.cli import main as conformance_main
from repro.gates.base import QGate
from repro.io import loads_circuit
from repro.simulation import available_backends
from repro.simulation.backends import (
    _ENGINES,
    _REGISTRY,
    KernelBackend,
    register_backend,
)

QUICK = GeneratorConfig(max_qubits=3, max_ops=10)
LIGHT = OracleConfig(trajectory_shots=6, sampling_shots=96)


# ---------------------------------------------------------------------------
# generator


def test_generator_deterministic():
    a = generate_case(7, QUICK)
    b = generate_case(7, QUICK)
    assert a.circuit.nbQubits == b.circuit.nbQubits
    assert [repr(op) for op in a.circuit] == [repr(op) for op in b.circuit]
    assert (a.noise is None) == (b.noise is None)
    assert a.clifford == b.clifford and a.qasm_safe == b.qasm_safe


def test_generator_seeds_differ():
    drawings = {generate_case(s, QUICK).circuit.draw() for s in range(8)}
    assert len(drawings) > 1


def test_generator_respects_bounds():
    for seed in range(20):
        case = generate_case(seed, QUICK)
        assert 2 <= case.circuit.nbQubits <= 3
        # measure_at_end may append final measurements past max_ops
        assert 1 <= len(case.circuit) <= 10 + case.circuit.nbQubits


def test_generator_universe_coverage():
    """Over a modest seed range every op category must appear."""
    config = GeneratorConfig(max_qubits=4, max_ops=18)
    kinds = set()
    for seed in range(120):
        case = generate_case(seed, config)
        for op in case.circuit:
            kinds.add(type(op).__name__)
        if case.noise is not None:
            kinds.add("__noise__")
        if case.clifford:
            kinds.add("__clifford__")
    for required in (
        "Measurement",
        "Reset",
        "Barrier",
        "MatrixGate",
        "__noise__",
        "__clifford__",
    ):
        assert required in kinds, f"{required} never generated"
    assert any(k not in ("Measurement", "Reset", "Barrier") for k in kinds)


def test_generator_validates_config():
    with pytest.raises(ValueError):
        GeneratorConfig(min_qubits=0)
    with pytest.raises(ValueError):
        GeneratorConfig(min_ops=9, max_ops=3)
    with pytest.raises(ValueError):
        GeneratorConfig(p_measure=1.5)


# ---------------------------------------------------------------------------
# tolerances


def test_tolerance_families():
    assert tolerance_for("statevector:sparse/fused") == tolerance_for(
        "statevector"
    )
    assert tolerance_for("pass.fuse_1q") == tolerance_for("pass")
    assert tolerance_for("trajectory:kernel/batched") == 0.0
    assert tolerance_for("statevector", {"statevector": 1e-3}) == 1e-3
    with pytest.raises(KeyError):
        tolerance_for("nonsense")


def test_counts_deviation_scales():
    expected = {"00": 0.5, "11": 0.5}
    good = {"00": 50, "11": 50}
    assert counts_deviation(good, expected, 100) < 1.0
    bad = {"00": 100}
    assert counts_deviation(bad, expected, 100) > 1.0
    # an outcome with zero expected probability is an instant failure
    assert counts_deviation({"01": 1}, expected, 1) > 1.0


# ---------------------------------------------------------------------------
# oracle on the real engines


def test_oracle_clean_on_real_engines():
    for seed in range(12):
        case = generate_case(seed, QUICK)
        failures, nb_checks = run_oracle(case, LIGHT)
        assert not failures, failures[0].message
        assert nb_checks >= 3


def test_run_conformance_report():
    report = run_conformance(
        seeds=6, generator=QUICK, oracle=LIGHT
    )
    assert report.ok
    assert report.nb_circuits == 6
    assert report.nb_checks >= 6
    assert report.circuits_per_second > 0
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert payload["nb_failures"] == 0
    # seed 3 is a brickwork circuit, so plan fusion built blocks
    assert payload["nb_block_merged"] == report.nb_block_merged > 0
    assert "OK" in report.summary()


def test_brickwork_family_entangles_adjacent_qubits():
    case = generate_case(3, QUICK)
    assert case.universe == "brickwork"
    pairs = [op.qubits for op in case.circuit if len(op.qubits) == 2]
    assert pairs and all(b - a == 1 for a, b in map(sorted, pairs))


def test_run_conformance_metrics(monkeypatch):
    from repro.observability import (
        CONFORMANCE_CHECKS,
        CONFORMANCE_CIRCUITS,
        MetricsRegistry,
    )

    registry = MetricsRegistry()
    report = run_conformance(
        seeds=3, generator=QUICK, oracle=LIGHT, metrics=registry
    )
    assert report.ok
    snap = registry.snapshot()
    assert snap[CONFORMANCE_CIRCUITS]["series"][0]["value"] == 3
    assert snap[CONFORMANCE_CHECKS]["series"][0]["value"] == report.nb_checks


# ---------------------------------------------------------------------------
# the injected bug: a backend with transposed kernels must be caught


class _TransposedKernelBackend(KernelBackend):
    """KernelBackend applying every planned kernel transposed."""

    name = "buggy-transposed"

    def apply_planned(self, state, step, nb_qubits, out=None):
        return self.apply(
            state,
            np.ascontiguousarray(step.kernel.T),
            step.targets,
            nb_qubits,
            step.controls,
            step.control_states,
            step.diagonal,
        )


@pytest.fixture
def buggy_backend():
    register_backend(_TransposedKernelBackend)
    try:
        yield _TransposedKernelBackend.name
    finally:
        _REGISTRY.pop(_TransposedKernelBackend.name, None)
        _ENGINES.pop(_TransposedKernelBackend.name, None)


def test_injected_bug_is_caught_and_shrunk(buggy_backend):
    assert buggy_backend in available_backends("statevector")
    oracle = OracleConfig(
        backends=(buggy_backend,),
        trajectory_shots=4,
        sampling_shots=64,
        check_mps=False,
        check_stabilizer=False,
        check_passes=False,
        check_roundtrips=False,
    )
    t0 = perf_counter()
    report = run_conformance(
        seeds=30,
        generator=GeneratorConfig(max_qubits=3, max_ops=12),
        oracle=oracle,
        shrink_budget=10.0,
        fail_fast=True,
    )
    elapsed = perf_counter() - t0
    assert not report.ok, "transposed kernels were not detected"
    assert elapsed < 60.0, f"catch+shrink took {elapsed:.1f}s"
    failure = report.failures[0]
    assert buggy_backend in failure.check
    assert failure.deviation > failure.tolerance
    # the reproducer is minimal-ish and still complete
    assert failure.nb_ops_shrunk <= failure.nb_ops_original
    assert failure.nb_ops_shrunk <= 4
    assert failure.circuit.nbQubits <= 3
    payload = failure.to_dict()
    assert payload["seed"] == failure.seed
    # the serialized reproducer loads back into the same circuit
    replayed = loads_circuit(json.dumps(payload["circuit"]))
    assert replayed.draw() == failure.circuit.draw()


def test_clean_backend_not_flagged():
    """Sanity for the fixture pattern: kernel vs kernel cannot fail."""
    oracle = OracleConfig(
        backends=("kernel",),
        check_density=False,
        check_trajectory=False,
        check_mps=False,
        check_stabilizer=False,
        check_passes=False,
        check_roundtrips=False,
    )
    report = run_conformance(seeds=5, generator=QUICK, oracle=oracle)
    assert report.ok


# ---------------------------------------------------------------------------
# shrinker


def test_shrinker_minimizes_to_planted_op():
    """A failure defined as 'contains a SWAP' must shrink to ~1 op."""
    from repro.gates import CNOT, Hadamard, PauliX, RotationY, SWAP

    circuit = QCircuit(3)
    circuit.push_back(Hadamard(0))
    circuit.push_back(CNOT(0, 1))
    circuit.push_back(RotationY(2, 0.3))
    circuit.push_back(SWAP(1, 2))
    circuit.push_back(PauliX(0))
    circuit.push_back(Hadamard(2))

    def replay(candidate, noise):
        has_swap = any(type(op).__name__ == "SWAP" for op in candidate)
        return 1.0 if has_swap else 0.0

    failure = CheckFailure(
        check="synthetic:swap",
        seed=0,
        deviation=1.0,
        tolerance=0.5,
        message="planted",
        replay=replay,
    )
    shrunk = shrink(circuit, None, failure, time_budget=10.0)
    assert shrunk.nb_ops_shrunk == 1
    assert type(list(shrunk.circuit)[0]).__name__ == "SWAP"
    assert shrunk.circuit.nbQubits <= 2
    assert shrunk.deviation == 1.0


def test_shrinker_respects_budget():
    circuit = generate_case(3, QUICK).circuit

    def slow_replay(candidate, noise):
        return 1.0  # always fails; the budget must still bound work

    failure = CheckFailure(
        check="synthetic:slow",
        seed=3,
        deviation=1.0,
        tolerance=0.5,
        message="planted",
        replay=slow_replay,
    )
    t0 = perf_counter()
    shrunk = shrink(circuit, None, failure, time_budget=0.5)
    assert perf_counter() - t0 < 5.0
    assert shrunk.nb_ops_shrunk >= 1


# ---------------------------------------------------------------------------
# pass coverage + CLI


def test_checked_passes_are_registered():
    from repro.ir import available_passes

    for name in CHECKED_PASSES:
        assert name in available_passes()


def test_cli_smoke(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = conformance_main(
        [
            "--seeds", "3",
            "--qubits", "3",
            "--depth", "8",
            "--shots", "64",
            "--quiet",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "conformance: OK" in out
    payload = json.loads(report_path.read_text())
    assert payload["ok"] is True
    assert payload["nb_circuits"] == 3


def test_cli_artifacts_on_failure(tmp_path, buggy_backend, capsys):
    artifacts = tmp_path / "shrunk"
    code = conformance_main(
        [
            "--seeds", "20",
            "--qubits", "3",
            "--backends", buggy_backend,
            "--skip", "density,trajectory,mps,stabilizer,passes,roundtrips",
            "--fail-fast",
            "--quiet",
            "--shrink-budget", "5",
            "--artifacts", str(artifacts),
        ]
    )
    assert code == 1
    files = list(artifacts.glob("seed*.json"))
    assert files
    payload = json.loads(files[0].read_text())
    assert payload["check"].startswith("statevector:")
    assert payload["qasm"] is None or "OPENQASM" in payload["qasm"]
