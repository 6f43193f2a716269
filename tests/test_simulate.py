"""Tests for the simulation driver: branching, bases, counts, reduced
states, resets — the full Section 3 measurement model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Measurement, QCircuit, Reset
from repro.exceptions import SimulationError, StateError
from repro.gates import CNOT, CZ, Hadamard, PauliX, RotationY
from repro.simulation import SimulationOptions
from repro.simulation.state import basis_state, initial_state, random_state


def bell_circuit(measure=True):
    c = QCircuit(2)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    if measure:
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
    return c


class TestInitialStates:
    def test_bitstring(self):
        np.testing.assert_array_equal(
            initial_state("10", 2), [0, 0, 1, 0]
        )

    def test_vector_copy_is_owned(self):
        v = np.array([1.0, 0.0])
        out = initial_state(v, 1)
        out[0] = 0
        assert v[0] == 1.0

    def test_rejects_wrong_bitstring_length(self):
        with pytest.raises(StateError):
            initial_state("0", 2)

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(StateError):
            initial_state([1, 0, 0], 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(StateError):
            initial_state([1, 1, 0, 0], 2)

    def test_basis_state(self):
        np.testing.assert_array_equal(basis_state("01"), [0, 1, 0, 0])

    def test_random_state_normalized(self):
        s = random_state(4, rng=0)
        assert np.linalg.norm(s) == pytest.approx(1.0)


class TestPaperListing:
    """Section 3.3's example: both qubits of a Bell state measured."""

    def test_results_and_probabilities(self):
        sim = bell_circuit().simulate("00")
        assert sim.results == ["00", "11"]
        np.testing.assert_allclose(sim.probabilities, [0.5, 0.5])

    def test_collapsed_states(self):
        sim = bell_circuit().simulate("00")
        np.testing.assert_allclose(sim.states[0], [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(sim.states[1], [0, 0, 0, 1], atol=1e-12)

    def test_vector_initial_state_equivalent(self):
        sim = bell_circuit().simulate([1, 0, 0, 0])
        assert sim.results == ["00", "11"]

    def test_metadata(self):
        sim = bell_circuit().simulate("00")
        assert sim.nbQubits == 2
        assert sim.nbBranches == 2
        assert sim.nbMeasurements == 2
        assert sim.measuredQubits == [0, 1]
        assert sim.backend == "kernel"
        assert "Simulation" in repr(sim)


class TestBranching:
    def test_branch_order_lexicographic(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Hadamard(1))
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
        sim = c.simulate("00")
        assert sim.results == ["00", "01", "10", "11"]
        np.testing.assert_allclose(sim.probabilities, [0.25] * 4)

    def test_zero_probability_branch_pruned(self):
        c = QCircuit(1)
        c.push_back(Measurement(0))
        sim = c.simulate("0")
        assert sim.results == ["0"]
        np.testing.assert_allclose(sim.probabilities, [1.0])

    def test_mid_circuit_evolution_per_branch(self):
        # measure, then flip conditioned via branch states directly
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        c.push_back(CNOT(0, 1))
        sim = c.simulate("00")
        assert sim.results == ["0", "1"]
        np.testing.assert_allclose(sim.states[0], basis_state("00"))
        np.testing.assert_allclose(sim.states[1], basis_state("11"))

    def test_repeated_measurement_same_qubit_consistent(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        c.push_back(Measurement(0))
        sim = c.simulate("0")
        # second measurement deterministic per branch
        assert sim.results == ["00", "11"]
        np.testing.assert_allclose(sim.probabilities, [0.5, 0.5])

    def test_probability_conservation(self):
        rng = np.random.default_rng(5)
        c = QCircuit(3)
        c.push_back(RotationY(0, rng.normal()))
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0))
        c.push_back(RotationY(2, rng.normal()))
        c.push_back(Measurement(2))
        c.push_back(Measurement(1))
        sim = c.simulate("000")
        assert sim.probabilities.sum() == pytest.approx(1.0)
        for s in sim.states:
            assert np.linalg.norm(s) == pytest.approx(1.0)

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_property_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = QCircuit(n)
        for _ in range(6):
            q = int(rng.integers(0, n))
            roll = rng.integers(0, 4)
            if roll == 0:
                c.push_back(Hadamard(q))
            elif roll == 1:
                c.push_back(RotationY(q, float(rng.normal())))
            elif roll == 2 and n > 1:
                t = int((q + 1) % n)
                c.push_back(CNOT(q, t))
            else:
                c.push_back(Measurement(q, "xyz"[rng.integers(0, 3)]))
        sim = c.simulate(random_state(n, rng=rng))
        assert sim.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        for s in sim.states:
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-9)


class TestBases:
    def test_x_basis_on_zero_is_fifty_fifty(self):
        c = QCircuit(1)
        c.push_back(Measurement(0, "x"))
        sim = c.simulate("0")
        np.testing.assert_allclose(sim.probabilities, [0.5, 0.5])

    def test_x_basis_on_plus_is_deterministic(self):
        c = QCircuit(1)
        c.push_back(Measurement(0, "x"))
        plus = np.array([1, 1]) / np.sqrt(2)
        sim = c.simulate(plus)
        assert sim.results == ["0"]
        # the post-measurement state is restored to the X eigenvector
        np.testing.assert_allclose(sim.states[0], plus, atol=1e-12)

    def test_y_basis_on_plus_i_is_deterministic(self):
        c = QCircuit(1)
        c.push_back(Measurement(0, "y"))
        plus_i = np.array([1, 1j]) / np.sqrt(2)
        sim = c.simulate(plus_i)
        assert sim.results == ["0"]
        np.testing.assert_allclose(sim.states[0], plus_i, atol=1e-12)

    def test_custom_basis_equals_builtin_x(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        c1 = QCircuit(1)
        c1.push_back(Measurement(0, h))
        c2 = QCircuit(1)
        c2.push_back(Measurement(0, "x"))
        v = random_state(1, rng=2)
        s1 = c1.simulate(v)
        s2 = c2.simulate(v)
        np.testing.assert_allclose(s1.probabilities, s2.probabilities)

    def test_basis_revert_preserves_unmeasured_entanglement(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0, "x"))
        sim = c.simulate("00")
        np.testing.assert_allclose(sim.probabilities, [0.5, 0.5])
        for s in sim.states:
            assert np.linalg.norm(s) == pytest.approx(1.0)


class TestCounts:
    def test_deterministic_with_seed(self):
        sim = bell_circuit().simulate("00")
        a = sim.counts(1000, seed=1)
        b = sim.counts(1000, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_shape_and_total(self):
        sim = bell_circuit().simulate("00")
        counts = sim.counts(1000, seed=0)
        assert counts.shape == (4,)
        assert counts.sum() == 1000
        # only 00 and 11 can occur
        assert counts[1] == 0 and counts[2] == 0

    def test_statistics_roughly_match(self):
        sim = bell_circuit().simulate("00")
        counts = sim.counts(100_000, seed=123)
        assert abs(counts[0] / 100_000 - 0.5) < 0.01

    def test_counts_dict(self):
        sim = bell_circuit().simulate("00")
        d = sim.counts_dict(1000, seed=1)
        assert set(d) <= {"00", "11"}
        assert sum(d.values()) == 1000

    def test_single_qubit_two_element_vector(self):
        """The paper's tomography convention: counts is [n0, n1]."""
        c = QCircuit(1)
        c.push_back(Measurement(0, "x"))
        v = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
        counts = c.simulate(v).counts(1000, seed=1)
        assert counts.shape == (2,)
        assert counts.sum() == 1000

    def test_requires_measurements(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        with pytest.raises(SimulationError):
            c.simulate("0").counts(10)
        with pytest.raises(SimulationError):
            c.simulate("0").counts_dict(10)

    def test_generator_seed(self):
        sim = bell_circuit().simulate("00")
        rng = np.random.default_rng(5)
        a = sim.counts(100, seed=rng)
        rng = np.random.default_rng(5)
        b = sim.counts(100, seed=rng)
        np.testing.assert_array_equal(a, b)


class TestReducedStates:
    def test_none_for_mid_circuit_only(self):
        """Teleportation-style: measured qubits touched afterwards."""
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        c.push_back(CZ(0, 1))  # touches q0 after its measurement
        sim = c.simulate("00")
        assert sim.reducedStates is None

    def test_none_when_all_qubits_measured(self):
        sim = bell_circuit().simulate("00")
        assert sim.reducedStates is None

    def test_subset_end_measurement(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0))
        sim = c.simulate("00")
        reduced = sim.reducedStates
        assert len(reduced) == 2
        np.testing.assert_allclose(reduced[0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(reduced[1], [0, 1], atol=1e-12)

    def test_non_z_end_measurement(self):
        c = QCircuit(2)
        c.push_back(Hadamard(1))
        c.push_back(Measurement(0, "x"))
        plus = np.array([1, 1]) / np.sqrt(2)
        sim = c.simulate(np.kron(plus, np.array([1.0, 0.0])))
        reduced = sim.reducedStates
        assert sim.results == ["0"]
        np.testing.assert_allclose(reduced[0], plus, atol=1e-12)


class TestReset:
    def test_reset_zero_is_noop(self):
        c = QCircuit(1)
        c.push_back(Reset(0))
        sim = c.simulate("0")
        assert sim.nbBranches == 1
        np.testing.assert_allclose(sim.states[0], [1, 0])

    def test_reset_one_flips(self):
        c = QCircuit(1)
        c.push_back(PauliX(0))
        c.push_back(Reset(0))
        sim = c.simulate("0")
        np.testing.assert_allclose(sim.states[0], [1, 0])

    def test_reset_superposition_creates_mixture(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Reset(0))
        sim = c.simulate("0")
        assert sim.nbBranches == 2
        for s in sim.states:
            np.testing.assert_allclose(s, [1, 0], atol=1e-12)
        assert sim.probabilities.sum() == pytest.approx(1.0)
        # unrecorded: no outcome characters
        assert sim.results == ["", ""]

    def test_recorded_reset(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Reset(0, record=True))
        sim = c.simulate("0")
        assert sim.results == ["0", "1"]
        assert sim.nbMeasurements == 1

    def test_reset_entangled_qubit(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Reset(0))
        sim = c.simulate("00")
        assert sim.nbBranches == 2
        # q0 is |0> in both branches; q1 carries the mixture
        np.testing.assert_allclose(sim.states[0], basis_state("00"),
                                   atol=1e-12)
        np.testing.assert_allclose(sim.states[1], basis_state("01"),
                                   atol=1e-12)

    def test_qubit_reuse_workflow(self):
        """Reset enables reuse: |1> -> reset -> H -> measure."""
        c = QCircuit(1)
        c.push_back(PauliX(0))
        c.push_back(Reset(0))
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        sim = c.simulate("0")
        np.testing.assert_allclose(sim.probabilities, [0.5, 0.5])


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["kernel", "sparse", "einsum"])
    def test_full_simulation_matches(self, backend):
        c = QCircuit(3)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0, "y"))
        c.push_back(CNOT(1, 2))
        c.push_back(Measurement(2))
        ref = c.simulate(
            "000", options=SimulationOptions(backend="kernel")
        )
        sim = c.simulate("000", options=SimulationOptions(backend=backend))
        assert sim.results == ref.results
        np.testing.assert_allclose(
            sim.probabilities, ref.probabilities, atol=1e-12
        )
        for a, b in zip(sim.states, ref.states):
            np.testing.assert_allclose(a, b, atol=1e-12)
