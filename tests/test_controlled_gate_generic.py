"""Tests for the generic multi-qubit ControlledGate and CSwap (Fredkin),
plus complex64 (QCLAB++ template-T) simulation support."""

import numpy as np
import pytest

from repro.circuit import Measurement, QCircuit
from repro.exceptions import GateError
from repro.gates import (
    CNOT,
    CSwap,
    ControlledGate,
    Hadamard,
    MCX,
    RotationZZ,
    SWAP,
    iSWAP,
)
from repro.simulation import SimulationOptions


class TestControlledGateGeneric:
    def test_controlled_swap_matrix(self):
        g = ControlledGate(SWAP(1, 2), 0)
        want = np.eye(8)
        want[[5, 6]] = want[[6, 5]]
        np.testing.assert_allclose(g.matrix.real, want)

    def test_open_control(self):
        g = ControlledGate(SWAP(1, 2), 0, control_state=0)
        want = np.eye(8)
        want[[1, 2]] = want[[2, 1]]
        np.testing.assert_allclose(g.matrix.real, want)

    def test_control_between_targets(self):
        g = ControlledGate(SWAP(0, 2), 1)
        # swap q0,q2 when q1 = 1: |011> <-> |110>
        want = np.eye(8)
        want[[0b011, 0b110]] = want[[0b110, 0b011]]
        np.testing.assert_allclose(g.matrix.real, want)

    def test_controlled_iswap(self):
        g = ControlledGate(iSWAP(1, 2), 0)
        m = g.matrix
        assert m[5, 6] == 1j and m[6, 5] == 1j
        assert m[0, 0] == 1

    def test_structure_accessors(self):
        g = ControlledGate(RotationZZ(1, 3, 0.5), 2)
        assert g.qubits == (1, 2, 3)
        assert g.controls() == (2,)
        assert g.target_qubits() == (1, 3)
        assert g.is_diagonal  # RZZ is diagonal
        assert not g.is_fixed

    def test_ctranspose(self):
        g = ControlledGate(iSWAP(1, 2), 0)
        inv = g.ctranspose()
        np.testing.assert_allclose(
            inv.matrix @ g.matrix, np.eye(8), atol=1e-14
        )

    def test_rejects_overlapping_control(self):
        with pytest.raises(GateError):
            ControlledGate(SWAP(0, 1), 1)

    def test_rejects_double_controlling(self):
        with pytest.raises(GateError):
            ControlledGate(CNOT(0, 1), 2)

    def test_rejects_bad_state(self):
        with pytest.raises(GateError):
            ControlledGate(SWAP(1, 2), 0, control_state=2)

    def test_draw_spec(self):
        g = ControlledGate(SWAP(1, 2), 0)
        spec = g.draw_spec()
        assert spec.elements[0].kind == "ctrl1"
        assert spec.connect

    def test_no_generic_qasm(self):
        from repro.exceptions import QASMError

        with pytest.raises(QASMError):
            ControlledGate(iSWAP(1, 2), 0).toQASM()

    def test_simulates_correctly(self):
        c = QCircuit(3)
        c.push_back(ControlledGate(SWAP(1, 2), 0))
        np.testing.assert_allclose(
            c.matrix, CSwap(0, 1, 2).matrix
        )


class TestCSwap:
    def test_fredkin_truth_table(self):
        m = CSwap(0, 1, 2).matrix.real
        # identity unless control=1; then swap targets
        for i in range(4):
            assert m[i, i] == 1
        assert m[0b101, 0b110] == 1
        assert m[0b110, 0b101] == 1
        assert m[0b111, 0b111] == 1

    def test_matches_toffoli_sandwich(self):
        """CSWAP = CNOT(t1,t0) . Toffoli . CNOT(t1,t0)."""
        c = QCircuit(3)
        c.push_back(CNOT(2, 1))
        c.push_back(MCX([0, 1], 2))
        c.push_back(CNOT(2, 1))
        np.testing.assert_allclose(
            c.matrix, CSwap(0, 1, 2).matrix, atol=1e-14
        )

    def test_self_inverse(self):
        g = CSwap(1, 0, 2)
        np.testing.assert_allclose(
            g.ctranspose().matrix @ g.matrix, np.eye(8), atol=1e-14
        )

    def test_qasm_and_import_roundtrip(self):
        from repro.io.qasm_import import fromQASM

        c = QCircuit(3)
        c.push_back(CSwap(0, 1, 2))
        back = fromQASM(c.toQASM())
        np.testing.assert_allclose(back.matrix, c.matrix)

    def test_qasm_open_control(self):
        lines = CSwap(0, 1, 2, control_state=0).toQASM().splitlines()
        assert lines[0] == "x q[0];"
        assert lines[-1] == "x q[0];"

    def test_draw_crosses_and_dot(self):
        c = QCircuit(3)
        c.push_back(CSwap(0, 1, 2))
        text = c.draw()
        assert text.count("×") == 2
        assert "●" in text


class TestComplex64Support:
    def test_simulate_dtype_preserved(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0))
        sim = c.simulate(
            "00", options=SimulationOptions(dtype=np.complex64)
        )
        for state in sim.states:
            assert state.dtype == np.complex64

    @pytest.mark.parametrize("backend", ["kernel", "sparse", "einsum"])
    def test_single_precision_agrees(self, backend):
        from repro.algorithms import teleportation_circuit

        qtc = teleportation_circuit()
        v = np.array([0.6, 0.8j])
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        init = np.kron(v, bell)
        s64 = qtc.simulate(
            init.astype(np.complex64),
            options=SimulationOptions(backend=backend, dtype=np.complex64),
        )
        s128 = qtc.simulate(
            init, options=SimulationOptions(backend=backend)
        )
        assert s64.results == s128.results
        np.testing.assert_allclose(
            s64.probabilities, s128.probabilities, atol=1e-5
        )
        for a, b in zip(s64.states, s128.states):
            assert a.dtype == np.complex64
            np.testing.assert_allclose(a, b, atol=1e-5)

    def test_rejects_non_complex_dtype_state(self):
        # real starts are upcast to the requested complex dtype
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        sim = c.simulate(
            np.array([1.0, 0.0]),
            options=SimulationOptions(dtype=np.complex64),
        )
        assert sim.states[0].dtype == np.complex64
