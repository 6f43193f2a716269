"""Integration tests: every listing in the paper, end to end.

Each test reproduces one concrete artifact from the paper — the printed
simulation outputs of Sections 3 and 5, the QASM listing of Section 4
and the circuit diagrams — using only the public API, written to mirror
the MATLAB listings line by line.
"""

import numpy as np
import pytest

import repro as qclab
from repro.simulation import SimulationOptions


V = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])


class TestSection2And3_Circuit1:
    """The running example: H, CNOT, two measurements."""

    def build(self):
        circuit = qclab.QCircuit(2)
        circuit.push_back(qclab.qgates.Hadamard(0))
        circuit.push_back(qclab.qgates.CNOT(0, 1))
        circuit.push_back(qclab.Measurement(0))
        circuit.push_back(qclab.Measurement(1))
        return circuit

    def test_simulate_from_bitstring(self):
        simulation = self.build().simulate("00")
        assert simulation.results == ["00", "11"]
        np.testing.assert_allclose(simulation.probabilities, [0.5, 0.5])

    def test_simulate_from_vector(self):
        simulation = self.build().simulate([1, 0, 0, 0])
        assert simulation.results == ["00", "11"]

    def test_collapsed_states_listing(self):
        states = self.build().simulate("00").states
        np.testing.assert_allclose(states[0], [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(states[1], [0, 0, 0, 1], atol=1e-12)


class TestSection4_IO:
    def test_qasm_listing(self):
        """Section 4 shows the exact QASM of circuit (1)."""
        circuit = qclab.QCircuit(2)
        circuit.push_back(qclab.qgates.Hadamard(0))
        circuit.push_back(qclab.qgates.CNOT(0, 1))
        circuit.push_back(qclab.Measurement(0))
        circuit.push_back(qclab.Measurement(1))
        body = [
            line
            for line in circuit.toQASM().splitlines()
            if not line.startswith(("OPENQASM", "include", "qreg", "creg"))
        ]
        assert body == [
            "h q[0];",
            "cx q[0],q[1];",
            "measure q[0] -> c[0];",
            "measure q[1] -> c[1];",
        ]

    def test_draw_produces_musical_score(self):
        circuit = qclab.QCircuit(2)
        circuit.push_back(qclab.qgates.Hadamard(0))
        circuit.push_back(qclab.qgates.CNOT(0, 1))
        text = circuit.draw()
        assert "H" in text and "●" in text and "⊕" in text

    def test_totex_executable_source(self):
        circuit = qclab.QCircuit(2)
        circuit.push_back(qclab.qgates.Hadamard(0))
        tex = circuit.toTex()
        assert "\\documentclass" in tex
        assert "\\gate{H}" in tex


class TestSection51_Teleportation:
    def build(self):
        qtc = qclab.QCircuit(3)
        qtc.push_back(qclab.qgates.CNOT(0, 1))
        qtc.push_back(qclab.qgates.Hadamard(0))
        qtc.push_back(qclab.Measurement(0))
        qtc.push_back(qclab.Measurement(1))
        qtc.push_back(qclab.qgates.CNOT(1, 2))
        qtc.push_back(qclab.qgates.CZ(0, 2))
        return qtc

    def simulate(self):
        bell = np.array([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        initial_state = np.kron(V, bell)
        return self.build().simulate(initial_state)

    def test_four_outcomes(self):
        simulation = self.simulate()
        assert simulation.results == ["00", "01", "10", "11"]
        np.testing.assert_allclose(simulation.probabilities, [0.25] * 4)
        assert len(simulation.states) == 4
        assert all(s.shape == (8,) for s in simulation.states)

    def test_final_state_for_00_listing(self):
        """The paper prints the '00' state: (0.5, 0.5i, 0, ...)."""
        simulation = self.simulate()
        state = simulation.states[0]
        want = np.zeros(8, dtype=complex)
        want[0] = 1 / np.sqrt(2)
        want[1] = 1j / np.sqrt(2)
        np.testing.assert_allclose(state, want, atol=1e-12)

    def test_reduced_statevector_listing(self):
        """reducedStatevector(states(1), [0,1], results(1)) = |v>."""
        simulation = self.simulate()
        reduced = qclab.reducedStatevector(
            simulation.states[0], [0, 1], simulation.results[0]
        )
        np.testing.assert_allclose(
            reduced, [0.7071, 0.7071j], atol=5e-5
        )

    def test_reduced_states_not_applicable(self):
        """'In this example, this is not applicable since we only have
        mid-circuit measurements.'"""
        assert self.simulate().reducedStates is None


class TestSection52_Tomography:
    def test_counts_workflow(self):
        meas_x = qclab.QCircuit(1)
        meas_x.push_back(qclab.Measurement(0, "x"))
        res_x = meas_x.simulate(V)
        shots = 1000
        counts_x = res_x.counts(shots, seed=1)  # rng(1)
        assert counts_x.sum() == shots
        # P_x(0) = 0.5 exactly; counts fluctuate around 500
        assert 400 < counts_x[0] < 600

    def test_full_reconstruction_close_to_truth(self):
        from repro.algorithms import single_qubit_tomography

        result = single_qubit_tomography(V, shots=1000, seed=1)
        rho_true = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(result.rho_true, rho_true)
        # the paper's reconstruction achieved 0.006; shot noise at 1000
        # shots puts any correct implementation in the same decade
        assert result.distance < 0.06


class TestSection53_Grover:
    def test_listing(self):
        oracle = qclab.QCircuit(2)
        oracle.push_back(qclab.qgates.CZ(0, 1))

        diffuser = qclab.QCircuit(2)
        diffuser.push_back(qclab.qgates.Hadamard(0))
        diffuser.push_back(qclab.qgates.Hadamard(1))
        diffuser.push_back(qclab.qgates.PauliZ(0))
        diffuser.push_back(qclab.qgates.PauliZ(1))
        diffuser.push_back(qclab.qgates.CZ(0, 1))
        diffuser.push_back(qclab.qgates.Hadamard(0))
        diffuser.push_back(qclab.qgates.Hadamard(1))

        oracle.asBlock("oracle")
        diffuser.asBlock("diffuser")

        gc = qclab.QCircuit(2)
        gc.push_back(qclab.qgates.Hadamard(0))
        gc.push_back(qclab.qgates.Hadamard(1))
        gc.push_back(oracle)
        gc.push_back(diffuser)
        gc.push_back(qclab.Measurement(0))
        gc.push_back(qclab.Measurement(1))

        simulation = gc.simulate("00")
        assert simulation.results == ["11"]
        np.testing.assert_allclose(simulation.probabilities, [1.0])


class TestSection54_QEC:
    def test_listing(self):
        qec = qclab.QCircuit(5)
        qec.push_back(qclab.qgates.CNOT(0, 1))
        qec.push_back(qclab.qgates.CNOT(0, 2))
        qec.push_back(qclab.qgates.PauliX(0))
        qec.push_back(qclab.qgates.CNOT(0, 3))
        qec.push_back(qclab.qgates.CNOT(1, 3))
        qec.push_back(qclab.qgates.CNOT(0, 4))
        qec.push_back(qclab.qgates.CNOT(2, 4))
        qec.push_back(qclab.Measurement(3))
        qec.push_back(qclab.Measurement(4))
        qec.push_back(qclab.qgates.MCX([3, 4], 2, [0, 1]))
        qec.push_back(qclab.qgates.MCX([3, 4], 1, [1, 0]))
        qec.push_back(qclab.qgates.MCX([3, 4], 0, [1, 1]))

        rest = np.zeros(16)
        rest[0] = 1.0
        simulation = qec.simulate(np.kron(V, rest))

        # "The measurement result '11' indicates that the third
        # correcting multi-controlled X-gate was executed."
        assert simulation.results == ["11"]
        state = simulation.states[0]
        expected = np.zeros(32, dtype=complex)
        expected[0b00011] = V[0]
        expected[0b11111] = V[1]
        np.testing.assert_allclose(state, expected, atol=1e-12)


class TestQCLABppTransition:
    """Section 4: 'the consistent programming interface' — the same
    circuit must produce identical results on the reference (sparse,
    QCLAB-style) and optimized (kernel, QCLAB++-style) backends."""

    def test_identical_results_across_backends(self):
        qtc = qclab.QCircuit(3)
        qtc.push_back(qclab.qgates.CNOT(0, 1))
        qtc.push_back(qclab.qgates.Hadamard(0))
        qtc.push_back(qclab.Measurement(0))
        qtc.push_back(qclab.Measurement(1))
        qtc.push_back(qclab.qgates.CNOT(1, 2))
        qtc.push_back(qclab.qgates.CZ(0, 2))
        bell = np.array([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        initial = np.kron(V, bell)
        reference = qtc.simulate(
            initial, options=SimulationOptions(backend="sparse")
        )
        optimized = qtc.simulate(
            initial, options=SimulationOptions(backend="kernel")
        )
        assert reference.results == optimized.results
        np.testing.assert_allclose(
            reference.probabilities, optimized.probabilities, atol=1e-12
        )
        for a, b in zip(reference.states, optimized.states):
            np.testing.assert_allclose(a, b, atol=1e-12)
