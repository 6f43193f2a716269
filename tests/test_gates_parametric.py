"""Unit and property tests for parameterized gates."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.angle import QAngle, QRotation
from repro.exceptions import GateError
from repro.gates import (
    Phase,
    RotationX,
    RotationXX,
    RotationY,
    RotationYY,
    RotationZ,
    RotationZZ,
    U2,
    U3,
)
from repro.gates.parametric import turnover_gates
from repro.utils.linalg import is_unitary

angles = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_PAULI = {"x": _X, "y": _Y, "z": _Z}


class TestPhase:
    def test_matrix(self):
        p = Phase(0, math.pi / 2)
        np.testing.assert_allclose(p.matrix, np.diag([1, 1j]), atol=1e-15)

    def test_from_cos_sin(self):
        p = Phase(0, 0.0, 1.0)  # cos=0, sin=1 -> theta = pi/2
        assert p.theta == pytest.approx(math.pi / 2)

    def test_from_qangle(self):
        assert Phase(0, QAngle(0.7)).theta == pytest.approx(0.7)

    def test_theta_setter(self):
        p = Phase(0)
        with pytest.warns(DeprecationWarning):
            p.theta = 1.3
        assert p.theta == pytest.approx(1.3)
        p.angle = QAngle(0.4)
        assert p.theta == pytest.approx(0.4)

    def test_fuse(self):
        p = Phase(0, 0.3)
        p.fuse(Phase(0, 0.4))
        assert p.theta == pytest.approx(0.7)

    def test_fuse_rejects_other_types(self):
        with pytest.raises(GateError):
            Phase(0, 0.3).fuse(RotationZ(0, 0.3))

    def test_ctranspose(self):
        p = Phase(0, 0.9)
        np.testing.assert_allclose(
            p.ctranspose().matrix @ p.matrix, np.eye(2), atol=1e-15
        )

    def test_diagonal_and_not_fixed(self):
        assert Phase(0, 1.0).is_diagonal
        assert not Phase(0, 1.0).is_fixed

    def test_equality_uses_angle(self):
        assert Phase(0, 0.5) == Phase(0, 0.5)
        assert Phase(0, 0.5) != Phase(0, 0.6)

    def test_label(self):
        assert Phase(0, 0.5).label == "P(0.5)"


class TestRotations1Q:
    @pytest.mark.parametrize("cls,axis", [
        (RotationX, "x"), (RotationY, "y"), (RotationZ, "z"),
    ])
    @pytest.mark.parametrize("theta", [-2.0, 0.0, 0.5, math.pi, 4.0])
    def test_matrix_matches_expm(self, cls, axis, theta):
        got = cls(0, theta).matrix
        want = scipy.linalg.expm(-0.5j * theta * _PAULI[axis])
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("cls", [RotationX, RotationY, RotationZ])
    def test_unitary_and_inverse(self, cls):
        g = cls(2, 1.234)
        assert is_unitary(g.matrix)
        inv = g.ctranspose()
        np.testing.assert_allclose(
            inv.matrix @ g.matrix, np.eye(2), atol=1e-14
        )
        assert inv.theta == pytest.approx(-1.234)

    def test_constructors(self):
        r1 = RotationX(0, 0.8)
        r2 = RotationX(0, QRotation(0.8))
        r3 = RotationX(0, math.cos(0.4), math.sin(0.4))
        for r in (r2, r3):
            np.testing.assert_allclose(r.matrix, r1.matrix, atol=1e-15)

    def test_theta_setter_and_accessors(self):
        r = RotationY(0)
        assert r.theta == 0.0
        with pytest.warns(DeprecationWarning):
            r.theta = 0.6
        assert r.cos == pytest.approx(math.cos(0.3))
        assert r.sin == pytest.approx(math.sin(0.3))
        r.rotation = QRotation(0.2)
        assert r.theta == pytest.approx(0.2)
        assert r.axis == "y"

    @given(angles, angles)
    @settings(max_examples=50)
    def test_fuse_matches_matrix_product(self, t1, t2):
        r = RotationZ(0, t1)
        other = RotationZ(0, t2)
        product = other.matrix @ r.matrix
        r.fuse(other)
        np.testing.assert_allclose(r.matrix, product, atol=1e-12)

    def test_fuse_rejects_cross_axis(self):
        with pytest.raises(GateError):
            RotationX(0, 0.1).fuse(RotationY(0, 0.1))

    def test_rz_diagonal(self):
        assert RotationZ(0, 0.5).is_diagonal
        assert not RotationX(0, 0.5).is_diagonal
        assert not RotationY(0, 0.5).is_diagonal

    def test_qasm(self):
        assert RotationX(1, 0.5).toQASM() == "rx(0.5) q[1];"
        assert RotationZ(0, 0.25).toQASM(offset=3) == "rz(0.25) q[3];"

    def test_label(self):
        assert RotationX(0, 0.5).label == "RX(0.5)"


class TestU2U3:
    @given(angles, angles)
    @settings(max_examples=50)
    def test_u2_unitary(self, phi, lam):
        assert is_unitary(U2(0, phi, lam).matrix)

    @given(angles, angles, angles)
    @settings(max_examples=50)
    def test_u3_unitary(self, t, phi, lam):
        assert is_unitary(U3(0, t, phi, lam).matrix)

    def test_u3_special_cases(self):
        np.testing.assert_allclose(U3(0).matrix, np.eye(2), atol=1e-15)
        # u3(pi, 0, pi) = X
        np.testing.assert_allclose(
            U3(0, math.pi, 0.0, math.pi).matrix, _X, atol=1e-15
        )

    def test_u2_equals_u3_halfpi(self):
        np.testing.assert_allclose(
            U2(0, 0.3, 0.7).matrix,
            U3(0, math.pi / 2, 0.3, 0.7).matrix,
            atol=1e-15,
        )

    @given(angles, angles, angles)
    @settings(max_examples=50)
    def test_u3_ctranspose(self, t, phi, lam):
        g = U3(0, t, phi, lam)
        np.testing.assert_allclose(
            g.ctranspose().matrix @ g.matrix, np.eye(2), atol=1e-12
        )

    @given(angles, angles)
    @settings(max_examples=50)
    def test_u2_ctranspose(self, phi, lam):
        g = U2(0, phi, lam)
        np.testing.assert_allclose(
            g.ctranspose().matrix @ g.matrix, np.eye(2), atol=1e-12
        )

    def test_equality(self):
        assert U3(0, 1, 2, 3) == U3(0, 1, 2, 3)
        assert U3(0, 1, 2, 3) != U3(0, 1, 2, 3.01)
        assert U2(0, 1, 2) == U2(0, 1, 2)


class TestRotations2Q:
    @pytest.mark.parametrize("cls,axis", [
        (RotationXX, "x"), (RotationYY, "y"), (RotationZZ, "z"),
    ])
    @pytest.mark.parametrize("theta", [0.0, 0.7, -1.5, math.pi])
    def test_matrix_matches_expm(self, cls, axis, theta):
        got = cls(0, 1, theta).matrix
        pauli2 = np.kron(_PAULI[axis], _PAULI[axis])
        want = scipy.linalg.expm(-0.5j * theta * pauli2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_qubits_sorted(self):
        g = RotationXX(3, 1, 0.5)
        assert g.qubits == (1, 3)

    def test_rzz_diagonal(self):
        assert RotationZZ(0, 1, 0.4).is_diagonal
        assert not RotationXX(0, 1, 0.4).is_diagonal

    def test_fuse(self):
        g = RotationZZ(0, 1, 0.3)
        g.fuse(RotationZZ(0, 1, 0.4))
        assert g.theta == pytest.approx(0.7)

    def test_fuse_rejects_mismatched(self):
        with pytest.raises(GateError):
            RotationZZ(0, 1, 0.3).fuse(RotationZZ(0, 2, 0.4))
        with pytest.raises(GateError):
            RotationZZ(0, 1, 0.3).fuse(RotationXX(0, 1, 0.4))

    def test_ctranspose(self):
        g = RotationYY(0, 2, 0.9)
        np.testing.assert_allclose(
            g.ctranspose().matrix @ g.matrix, np.eye(4), atol=1e-14
        )

    def test_theta_setter(self):
        g = RotationXX(0, 1, 0.1)
        with pytest.warns(DeprecationWarning):
            g.theta = 0.9
        assert g.theta == pytest.approx(0.9)
        g.rotation = QRotation(0.2)
        assert g.theta == pytest.approx(0.2)

    def test_qasm(self):
        assert RotationZZ(2, 0, 0.5).toQASM() == "rzz(0.5) q[0],q[2];"

    def test_draw_spec_connects(self):
        spec = RotationXX(0, 2, 0.5).draw_spec()
        assert spec.connect
        assert set(spec.elements) == {0, 2}


class TestTurnoverGates:
    @pytest.mark.parametrize("mid_cls,out_cls", [
        (RotationX, RotationY),
        (RotationY, RotationZ),
        (RotationZ, RotationX),
    ])
    def test_one_qubit_turnover(self, mid_cls, out_cls):
        rng = np.random.default_rng(3)
        t1, t2, t3 = rng.uniform(-3, 3, size=3)
        g1, g2, g3 = mid_cls(0, t1), out_cls(0, t2), mid_cls(0, t3)
        n1, n2, n3 = turnover_gates(g1, g2, g3)
        assert isinstance(n1, out_cls) and isinstance(n2, mid_cls)
        lhs = g3.matrix @ g2.matrix @ g1.matrix
        rhs = n3.matrix @ n2.matrix @ n1.matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_two_qubit_turnover(self):
        g1 = RotationZZ(0, 1, 0.4)
        g2 = RotationXX(0, 1, -0.8)
        g3 = RotationZZ(0, 1, 1.1)
        n1, n2, n3 = turnover_gates(g1, g2, g3)
        lhs = g3.matrix @ g2.matrix @ g1.matrix
        rhs = n3.matrix @ n2.matrix @ n1.matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_same_axis(self):
        with pytest.raises(GateError):
            turnover_gates(
                RotationX(0, 1.0), RotationX(0, 1.0), RotationX(0, 1.0)
            )

    def test_rejects_mismatched_qubits(self):
        with pytest.raises(GateError):
            turnover_gates(
                RotationX(0, 1.0), RotationY(1, 1.0), RotationX(0, 1.0)
            )

    def test_rejects_non_rotations(self):
        from repro.gates import Hadamard

        with pytest.raises(GateError):
            turnover_gates(Hadamard(0), Hadamard(0), Hadamard(0))
