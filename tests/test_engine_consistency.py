"""Grand cross-engine consistency: the same circuits through every
simulation engine the package ships.

For a given circuit the five engines — the three state-vector backends
(kernel / sparse), the exact density-matrix simulator, the
Monte-Carlo trajectory sampler, the MPS engine and (for Clifford
circuits) the stabilizer tableau — must tell the same physical story.
This is the strongest end-to-end invariant in the test suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Measurement, QCircuit
from repro.gates import (
    CNOT,
    CPhase,
    CZ,
    Hadamard,
    PauliX,
    RotationY,
    S,
    SWAP,
    T,
)
from repro.noise import noisy_counts
from repro.simulation import SimulationOptions, simulate_density
from repro.simulation.mps import simulate_mps
from repro.simulation.stabilizer import stabilizer_counts


def random_circuit(n, nb_gates, rng, clifford_only=False):
    c = QCircuit(n)
    for _ in range(nb_gates):
        roll = int(rng.integers(0, 6))
        q = int(rng.integers(0, n))
        t = int((q + 1 + rng.integers(0, n - 1)) % n)
        if roll == 0:
            c.push_back(Hadamard(q))
        elif roll == 1:
            c.push_back(S(q) if clifford_only else T(q))
        elif roll == 2:
            c.push_back(
                PauliX(q)
                if clifford_only
                else RotationY(q, float(rng.normal()))
            )
        elif roll == 3:
            c.push_back(CNOT(q, t))
        elif roll == 4:
            c.push_back(CZ(q, t))
        else:
            c.push_back(
                SWAP(q, t)
                if clifford_only
                else CPhase(q, t, float(rng.normal()))
            )
    for q in range(n):
        c.push_back(Measurement(q))
    return c


def tvd(p, q):
    """Total variation distance between two outcome distributions."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_all_engines_agree_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    circuit = random_circuit(n, 10, rng)

    # exact references
    sv = circuit.simulate("0" * n)
    exact = dict(zip(sv.results, sv.probabilities))
    ds = simulate_density(circuit)
    assert tvd(exact, ds.outcome_distribution()) < 1e-9

    # sampling engines, statistically
    shots = 4000
    for sampled in (
        noisy_counts(circuit, shots=shots, seed=seed),
        {
            k: v
            for k, v in _mps_counts(circuit, shots=400, seed=seed).items()
        },
    ):
        total = sum(sampled.values())
        freq = {k: v / total for k, v in sampled.items()}
        assert set(freq) <= set(exact)
        assert tvd(exact, freq) < 0.12


def _mps_counts(circuit, shots, seed):
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(shots):
        result, _state = simulate_mps(circuit, rng=rng)
        counts[result] = counts.get(result, 0) + 1
    return counts


@pytest.mark.parametrize("seed", [0, 1])
def test_clifford_circuits_add_the_stabilizer_engine(seed):
    rng = np.random.default_rng(seed)
    n = 3
    circuit = random_circuit(n, 12, rng, clifford_only=True)
    sv = circuit.simulate("0" * n)
    exact = dict(zip(sv.results, sv.probabilities))

    shots = 4000
    stab = stabilizer_counts(circuit, shots=shots, seed=seed)
    freq = {k: v / shots for k, v in stab.items()}
    assert set(freq) <= set(exact)
    assert tvd(exact, freq) < 0.08

    ds = simulate_density(circuit)
    assert tvd(exact, ds.outcome_distribution()) < 1e-9


def test_backend_trio_identical_branches():
    rng = np.random.default_rng(7)
    circuit = random_circuit(3, 12, rng)
    reference = circuit.simulate(
        "000", options=SimulationOptions(backend="kernel")
    )
    for backend in ("sparse",):
        other = circuit.simulate(
            "000", options=SimulationOptions(backend=backend)
        )
        assert other.results == reference.results
        np.testing.assert_allclose(
            other.probabilities, reference.probabilities, atol=1e-11
        )
        for a, b in zip(other.states, reference.states):
            np.testing.assert_allclose(a, b, atol=1e-11)
