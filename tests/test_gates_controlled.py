"""Unit tests for controlled and two-qubit gates."""

import math

import numpy as np
import pytest

from repro.exceptions import GateError
from repro.gates import (
    CH,
    CNOT,
    CPhase,
    CRotationX,
    CRotationY,
    CRotationZ,
    CX,
    CY,
    CZ,
    ControlledGate1,
    Hadamard,
    MatrixGate,
    PauliX,
    SWAP,
    iSWAP,
)
from repro.utils.linalg import is_unitary

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
I2 = np.eye(2)


class TestCNOT:
    def test_standard_matrix(self):
        want = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        np.testing.assert_array_equal(CNOT(0, 1).matrix.real, want)

    def test_reversed_matrix(self):
        # control on the higher qubit: I (x) P0 + X (x) P1
        want = np.kron(I2, P0) + np.kron(PauliX(0).matrix, P1)
        np.testing.assert_allclose(CNOT(1, 0).matrix, want)

    def test_open_control(self):
        want = np.kron(P0, PauliX(0).matrix) + np.kron(P1, I2)
        np.testing.assert_allclose(CNOT(0, 1, control_state=0).matrix, want)

    def test_cx_alias(self):
        assert CX is CNOT

    def test_accessors(self):
        g = CNOT(2, 0)
        assert g.control == 2
        assert g.target == 0
        assert g.control_state == 1
        assert g.qubits == (0, 2)
        assert g.controls() == (2,)
        assert g.control_states() == (1,)
        assert g.target_qubits() == (0,)

    def test_ctranspose_self_inverse(self):
        g = CNOT(0, 1)
        np.testing.assert_allclose(
            g.ctranspose().matrix @ g.matrix, np.eye(4)
        )

    def test_rejects_equal_qubits(self):
        with pytest.raises(GateError):
            CNOT(1, 1)

    def test_rejects_bad_control_state(self):
        with pytest.raises(GateError):
            CNOT(0, 1, control_state=2)

    def test_qasm(self):
        assert CNOT(0, 1).toQASM() == "cx q[0],q[1];"
        assert CNOT(1, 0).toQASM(offset=1) == "cx q[2],q[1];"

    def test_qasm_open_control_wraps_x(self):
        lines = CNOT(0, 1, control_state=0).toQASM().splitlines()
        assert lines == ["x q[0];", "cx q[0],q[1];", "x q[0];"]

    def test_draw_spec(self):
        spec = CNOT(0, 2).draw_spec()
        assert spec.connect
        assert spec.elements[0].kind == "ctrl1"
        assert spec.elements[2].kind == "oplus"
        spec0 = CNOT(0, 2, control_state=0).draw_spec()
        assert spec0.elements[0].kind == "ctrl0"


class TestNamedControlled:
    @pytest.mark.parametrize(
        "cls,base",
        [
            (CY, np.array([[0, -1j], [1j, 0]])),
            (CZ, np.diag([1, -1])),
            (CH, np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
        ],
    )
    def test_matrix(self, cls, base):
        want = np.kron(P0, I2) + np.kron(P1, base)
        np.testing.assert_allclose(cls(0, 1).matrix, want, atol=1e-15)

    def test_cz_symmetric(self):
        np.testing.assert_allclose(CZ(0, 1).matrix, CZ(1, 0).matrix)

    def test_cz_diagonal(self):
        assert CZ(0, 1).is_diagonal
        assert not CNOT(0, 1).is_diagonal
        assert not CH(0, 1).is_diagonal

    @pytest.mark.parametrize("cls", [CY, CZ, CH])
    def test_ctranspose(self, cls):
        g = cls(1, 0)
        inv = g.ctranspose()
        assert type(inv) is cls
        np.testing.assert_allclose(
            inv.matrix @ g.matrix, np.eye(4), atol=1e-14
        )


class TestCPhase:
    def test_matrix(self):
        got = CPhase(0, 1, math.pi / 2).matrix
        np.testing.assert_allclose(got, np.diag([1, 1, 1, 1j]), atol=1e-15)

    def test_diagonal(self):
        assert CPhase(0, 1, 0.7).is_diagonal

    def test_theta_accessors(self):
        g = CPhase(0, 1, 0.4)
        assert g.theta == pytest.approx(0.4)
        with pytest.warns(DeprecationWarning):
            g.theta = 0.9
        assert g.theta == pytest.approx(0.9)
        assert g.angle.theta == pytest.approx(0.9)

    def test_ctranspose(self):
        g = CPhase(0, 1, 0.6, control_state=0)
        inv = g.ctranspose()
        assert inv.control_state == 0
        np.testing.assert_allclose(
            inv.matrix @ g.matrix, np.eye(4), atol=1e-14
        )

    def test_qasm(self):
        assert CPhase(0, 1, 0.5).toQASM() == "cu1(0.5) q[0],q[1];"


class TestControlledRotations:
    @pytest.mark.parametrize(
        "cls,qasm", [
            (CRotationX, "crx"), (CRotationY, "cry"), (CRotationZ, "crz"),
        ]
    )
    def test_matrix_and_qasm(self, cls, qasm):
        g = cls(0, 1, 0.8)
        base = g.gate.matrix
        want = np.kron(P0, I2) + np.kron(P1, base)
        np.testing.assert_allclose(g.matrix, want, atol=1e-15)
        assert g.toQASM() == f"{qasm}(0.8) q[0],q[1];"

    def test_crz_diagonal(self):
        assert CRotationZ(0, 1, 0.5).is_diagonal
        assert not CRotationX(0, 1, 0.5).is_diagonal

    @pytest.mark.parametrize("cls", [CRotationX, CRotationY, CRotationZ])
    def test_ctranspose(self, cls):
        g = cls(1, 0, 1.1)
        inv = g.ctranspose()
        assert inv.theta == pytest.approx(-1.1)
        np.testing.assert_allclose(
            inv.matrix @ g.matrix, np.eye(4), atol=1e-14
        )

    def test_theta_setter(self):
        g = CRotationX(0, 1, 0.4)
        with pytest.warns(DeprecationWarning):
            g.theta = 0.5
        assert g.rotation.theta == pytest.approx(0.5)


class TestGenericControlled:
    def test_wraps_any_one_qubit_gate(self):
        g = ControlledGate1(Hadamard(1), 0)
        np.testing.assert_allclose(g.matrix, CH(0, 1).matrix)

    def test_wraps_matrix_gate(self):
        u = np.array([[0, 1j], [1j, 0]])
        g = ControlledGate1(MatrixGate(1, u), 0)
        want = np.kron(P0, I2) + np.kron(P1, u)
        np.testing.assert_allclose(g.matrix, want)

    def test_rejects_multi_qubit_gate(self):
        with pytest.raises(GateError):
            ControlledGate1(SWAP(1, 2), 0)

    def test_ctranspose(self):
        from repro.gates import S, Sdg

        g = ControlledGate1(S(1), 0)
        inv = g.ctranspose()
        assert isinstance(inv.gate, Sdg)

    def test_equality(self):
        assert CNOT(0, 1) == CNOT(0, 1)
        assert CNOT(0, 1) != CNOT(0, 1, control_state=0)
        assert CNOT(0, 1) != CZ(0, 1)


class TestSWAP:
    def test_matrix(self):
        want = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )
        np.testing.assert_array_equal(SWAP(0, 1).matrix.real, want)

    def test_qubits_sorted(self):
        assert SWAP(3, 1).qubits == (1, 3)

    def test_self_inverse(self):
        g = SWAP(0, 1)
        np.testing.assert_allclose(
            g.ctranspose().matrix @ g.matrix, np.eye(4)
        )

    def test_swap_as_three_cnots(self):
        want = CNOT(0, 1).matrix @ CNOT(1, 0).matrix @ CNOT(0, 1).matrix
        np.testing.assert_allclose(SWAP(0, 1).matrix, want)

    def test_draw_spec(self):
        spec = SWAP(0, 2).draw_spec()
        assert spec.elements[0].kind == "cross"
        assert spec.elements[2].kind == "cross"

    def test_qasm(self):
        assert SWAP(1, 0).toQASM() == "swap q[0],q[1];"


class TestISWAP:
    def test_matrix(self):
        want = np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]
        )
        np.testing.assert_array_equal(iSWAP(0, 1).matrix, want)

    def test_unitary_and_inverse(self):
        g = iSWAP(0, 1)
        assert is_unitary(g.matrix)
        np.testing.assert_allclose(
            g.ctranspose().matrix @ g.matrix, np.eye(4)
        )
        # double ctranspose round-trips
        back = g.ctranspose().ctranspose()
        np.testing.assert_allclose(back.matrix, g.matrix)

    def test_iswap_qelib_decomposition(self):
        """The QASM gate definition emitted for iswap must be correct:
        iswap = (S (x) S) . H_a . CX_ab . CX_ba . H_b (circuit order)."""
        from repro.circuit import QCircuit
        from repro.gates import S as SGate, Hadamard as H

        c = QCircuit(2)
        c.push_back(SGate(0))
        c.push_back(SGate(1))
        c.push_back(H(0))
        c.push_back(CNOT(0, 1))
        c.push_back(CNOT(1, 0))
        c.push_back(H(1))
        np.testing.assert_allclose(
            c.matrix, iSWAP(0, 1).matrix, atol=1e-14
        )
