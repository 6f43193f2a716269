"""Exact two-qubit unitary decomposition (quantum Shannon / CSD).

Compiles an arbitrary ``4 x 4`` unitary into one- and two-qubit
*native* gates, exactly (including global phase):

1. the cosine–sine decomposition splits ``U`` into two single-select
   multiplexed one-qubit unitaries around a multiplexed RY;
2. each multiplexed unitary demultiplexes as ``(I (x) V) . D . (I (x) W)``
   with the diagonal ``D (+) D^dagger`` realized by native RZ and RZZ
   rotations;
3. the multiplexed RY compiles through the shared Gray-code multiplexor.

The result enables OpenQASM export of two-qubit
:class:`~repro.gates.MatrixGate` instances and feeds any engine that
only understands structured gates.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.circuit import QCircuit
from repro.compilers.multiplexor import append_multiplexed_rotation
from repro.exceptions import CircuitError
from repro.gates import MatrixGate, RotationZ, RotationZZ
from repro.gates.base import validate_unitary

__all__ = ["decompose_two_qubit"]


def _demultiplex(w0: np.ndarray, w1: np.ndarray):
    """Factor the select-multiplexed pair ``w0 (+) w1`` as
    ``(I (x) V) . (D (+) D^dagger) . (I (x) W)``.

    Returns ``(V, delta, W)`` with ``D = diag(exp(i delta))``.
    """
    product = w0 @ w1.conj().T
    # product is unitary; eigendecompose via Schur for orthonormal vectors
    lam, v = scipy.linalg.schur(product, output="complex")
    eigs = np.diag(lam)
    delta = np.angle(eigs) / 2.0
    d = np.exp(1j * delta)
    w = np.diag(d) @ v.conj().T @ w1
    return v, delta, w


def _push_1q(circuit: QCircuit, qubit: int, matrix: np.ndarray, label: str):
    if not np.allclose(matrix, np.eye(2), atol=1e-14):
        circuit.push_back(MatrixGate(qubit, matrix, label=label))


def _push_select_diagonal(
    circuit: QCircuit, select: int, target: int, delta: np.ndarray
):
    """Append ``D (+) D^dagger`` (selected by ``select``, phases on
    ``target``) as native RZ/RZZ rotations.

    With ``D = diag(e^{i a}, e^{i b})`` the combined diagonal splits as
    ``exp(i z Z_select) exp(i w Z Z)`` with ``z = (a+b)/2`` and
    ``w = (a-b)/2``.
    """
    a, b = float(delta[0]), float(delta[1])
    z = (a + b) / 2.0
    w = (a - b) / 2.0
    if abs(z) > 1e-14:
        circuit.push_back(RotationZ(select, -2.0 * z))
    if abs(w) > 1e-14:
        lo, hi = sorted((select, target))
        sign = 1.0
        circuit.push_back(RotationZZ(lo, hi, -2.0 * w))
        del sign  # ZZ is symmetric in its qubits


def decompose_two_qubit(
    matrix: np.ndarray, qubit0: int = 0, qubit1: int = 1
) -> QCircuit:
    """Compile a two-qubit unitary into native 1q/RZ/RZZ/multiplexed-RY
    gates, exactly (global phase included).

    Parameters
    ----------
    matrix:
        ``4 x 4`` unitary with ``qubit0`` as the most significant
        sub-index bit.
    qubit0, qubit1:
        The qubits the resulting circuit acts on (distinct).
    """
    u = validate_unitary(matrix, "two-qubit gate")
    if u.shape != (4, 4):
        raise CircuitError(
            f"decompose_two_qubit expects a 4x4 unitary, got {u.shape}"
        )
    if qubit0 == qubit1:
        raise CircuitError("qubits must be distinct")
    n = max(qubit0, qubit1) + 1
    circuit = QCircuit(n)

    # CSD: U = (u1 (+) u2) . Theta . (v1h (+) v2h), blocks over qubit0
    (u1, u2), theta, (v1h, v2h) = scipy.linalg.cossin(
        u, p=2, q=2, separate=True
    )

    # right multiplexor (acts first): v1h (+) v2h on qubit1, select qubit0
    v_r, delta_r, w_r = _demultiplex(v1h, v2h)
    _push_1q(circuit, qubit1, w_r, "W")
    _push_select_diagonal(circuit, qubit0, qubit1, delta_r)
    _push_1q(circuit, qubit1, v_r, "V")

    # middle: multiplexed RY on qubit0 selected by qubit1
    append_multiplexed_rotation(
        circuit, 2.0 * np.asarray(theta), [qubit1], qubit0, axis="y"
    )

    # left multiplexor (acts last): u1 (+) u2 on qubit1, select qubit0
    v_l, delta_l, w_l = _demultiplex(u1, u2)
    _push_1q(circuit, qubit1, w_l, "W")
    _push_select_diagonal(circuit, qubit0, qubit1, delta_l)
    _push_1q(circuit, qubit1, v_l, "V")

    return circuit
