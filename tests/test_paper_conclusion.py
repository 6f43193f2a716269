"""The paper's Section 6 feature claims, as executable assertions.

The conclusion lists what sets QCLAB apart from MATLAB's built-in
quantum package; each differentiator must be demonstrably present in
this reproduction.
"""

import numpy as np

import repro as qclab
from repro.simulation import SimulationOptions


class TestSection6Claims:
    def test_object_oriented_custom_gates(self):
        """'enabling users to implement own functionalities such as
        custom quantum gates'"""

        class SqrtZ(qclab.qgates.QGate):  # user-defined gate
            def __init__(self, qubit):
                self._qubit = qubit

            @property
            def qubits(self):
                return (self._qubit,)

            @property
            def matrix(self):
                return np.diag([1.0, np.exp(0.25j * np.pi)])

            def ctranspose(self):
                raise NotImplementedError

            def draw_spec(self):
                from repro.gates.base import DrawElement, DrawSpec

                return DrawSpec(
                    elements={self._qubit: DrawElement("box", "√Z")}
                )

        c = qclab.QCircuit(1)
        c.push_back(SqrtZ(0))
        c.push_back(SqrtZ(0))
        np.testing.assert_allclose(
            c.matrix, qclab.qgates.S(0).matrix, atol=1e-12
        )

    def test_mid_circuit_measurements(self):
        """'supports mid-circuit ... measurements'"""
        c = qclab.QCircuit(2)
        c.push_back(qclab.qgates.Hadamard(0))
        c.push_back(qclab.Measurement(0))
        c.push_back(qclab.qgates.CNOT(0, 1))  # evolution continues
        sim = c.simulate("00")
        assert sim.nbBranches == 2

    def test_partial_measurements(self):
        """'... and partial measurements' — reduced states of the
        unmeasured qubits are available."""
        c = qclab.QCircuit(2)
        c.push_back(qclab.qgates.Hadamard(1))
        c.push_back(qclab.Measurement(0))
        sim = c.simulate("00")
        reduced = sim.reducedStates
        assert reduced is not None
        np.testing.assert_allclose(
            reduced[0], np.array([1, 1]) / np.sqrt(2), atol=1e-12
        )

    def test_measurements_in_arbitrary_bases(self):
        """'measurements in arbitrary bases'"""
        rng = np.random.default_rng(0)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        basis, _ = np.linalg.qr(m)
        c = qclab.QCircuit(1)
        c.push_back(qclab.Measurement(0, basis))
        # preparing the basis' 0-eigenvector gives a deterministic 0
        b0 = basis.conj().T[:, 0]
        sim = c.simulate(b0)
        assert sim.results == ["0"]

    def test_latex_export(self):
        """'offers LaTeX export for circuit diagrams'"""
        c = qclab.QCircuit(1)
        c.push_back(qclab.qgates.Hadamard(0))
        tex = c.toTex()
        assert "\\documentclass" in tex and "quantikz" in tex

    def test_qclabpp_translation(self):
        """'seamlessly translates to QCLAB++' — here: the optimized
        kernel backend produces identical physics to the reference."""
        c = qclab.QCircuit(2)
        c.push_back(qclab.qgates.Hadamard(0))
        c.push_back(qclab.qgates.CNOT(0, 1))
        c.push_back(qclab.Measurement(0))
        ref = c.simulate(
            "00", options=SimulationOptions(backend="sparse")
        )
        opt = c.simulate(
            "00", options=SimulationOptions(backend="kernel")
        )
        assert ref.results == opt.results
        np.testing.assert_allclose(
            ref.probabilities, opt.probabilities, atol=1e-12
        )

    def test_open_qasm_bridge(self):
        """'compatibility with OpenQASM ... allows users to test their
        quantum circuits on real quantum computers'"""
        c = qclab.QCircuit(2)
        c.push_back(qclab.qgates.Hadamard(0))
        c.push_back(qclab.qgates.CNOT(0, 1))
        text = c.toQASM()
        assert text.startswith("OPENQASM 2.0;")
        from repro.io import fromQASM

        np.testing.assert_allclose(
            fromQASM(text).matrix, c.matrix, atol=1e-12
        )
