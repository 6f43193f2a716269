"""Named two-qubit gates: the controlled family and SWAP/iSWAP.

Constructors follow QCLAB's ``(control, target)`` signature from the
paper — ``CNOT(0, 1)`` is a CNOT with control ``q0`` and target ``q1``
(an optional ``control_state`` selects open controls).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.gates.base import DrawElement, DrawSpec, QGate
from repro.gates.controlled import ControlledGate, ControlledGate1
from repro.gates.fixed import Hadamard, PauliX, PauliY, PauliZ
from repro.gates.parametric import Phase, RotationX, RotationY, RotationZ
from repro.utils.validation import check_qubits

__all__ = [
    "CNOT",
    "CX",
    "CY",
    "CZ",
    "CH",
    "CPhase",
    "CRotationX",
    "CRotationY",
    "CRotationZ",
    "SWAP",
    "iSWAP",
    "CSwap",
]


class CNOT(ControlledGate1):
    """Controlled-NOT: flips ``target`` when ``control`` matches its state."""

    _QASM = "cx"

    def __init__(self, control: int, target: int, control_state: int = 1):
        super().__init__(PauliX(target), control, control_state)


#: ``CX`` is an alias of :class:`CNOT` (both names appear in the QCLAB docs).
CX = CNOT


class CY(ControlledGate1):
    """Controlled Pauli-Y."""

    _QASM = "cy"

    def __init__(self, control: int, target: int, control_state: int = 1):
        super().__init__(PauliY(target), control, control_state)


class CZ(ControlledGate1):
    """Controlled Pauli-Z (symmetric in control and target)."""

    _QASM = "cz"

    def __init__(self, control: int, target: int, control_state: int = 1):
        super().__init__(PauliZ(target), control, control_state)


class CH(ControlledGate1):
    """Controlled Hadamard."""

    _QASM = "ch"

    def __init__(self, control: int, target: int, control_state: int = 1):
        super().__init__(Hadamard(target), control, control_state)


class CPhase(ControlledGate1):
    """Controlled phase gate ``diag(1, 1, 1, e^{i theta})`` (for state-1
    control with control < target)."""

    _QASM = "cu1"

    def __init__(
        self, control: int, target: int, *args, control_state: int = 1
    ):
        super().__init__(Phase(target, *args), control, control_state)

    @property
    def theta(self) -> float:
        """The phase angle in radians."""
        return self.gate.theta

    @property
    def angle(self):
        """The phase angle as a :class:`~repro.angle.QAngle`."""
        return self.gate.angle


class _CRotation(ControlledGate1):
    """Shared implementation of the controlled rotations."""

    _ROT = None

    def __init__(
        self, control: int, target: int, *args, control_state: int = 1
    ):
        super().__init__(self._ROT(target, *args), control, control_state)

    @property
    def theta(self) -> float:
        """The rotation angle in radians."""
        return self.gate.theta

    @property
    def rotation(self):
        """The rotation as a :class:`~repro.angle.QRotation`."""
        return self.gate.rotation


class CRotationX(_CRotation):
    """Controlled ``RX(theta)``."""

    _QASM = "crx"
    _ROT = RotationX


class CRotationY(_CRotation):
    """Controlled ``RY(theta)``."""

    _QASM = "cry"
    _ROT = RotationY


class CRotationZ(_CRotation):
    """Controlled ``RZ(theta)``."""

    _QASM = "crz"
    _ROT = RotationZ


class SWAP(QGate):
    """The SWAP gate: exchanges two qubits."""

    _MATRIX = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    )

    def __init__(self, qubit0: int, qubit1: int):
        qs = check_qubits([qubit0, qubit1])
        self._qubits = tuple(sorted(qs))

    @property
    def qubits(self) -> tuple:
        """The two exchanged qubits, in ascending order."""
        return self._qubits

    @property
    def matrix(self) -> np.ndarray:
        """The 4x4 SWAP unitary."""
        return self._MATRIX

    def ctranspose(self) -> "SWAP":
        """The inverse gate (SWAP is self-inverse)."""
        return SWAP(*self._qubits)

    def draw_spec(self) -> DrawSpec:
        """Drawing layout: a connected cross on each qubit."""
        el = DrawElement("cross")
        return DrawSpec(elements={q: el for q in self._qubits}, connect=True)

    def toQASM(self, offset: int = 0) -> str:
        """The OpenQASM 2.0 statement, qubits shifted by ``offset``."""
        a, b = (q + offset for q in self._qubits)
        return f"swap q[{a}],q[{b}];"

    def shifted(self, offset: int):
        """A copy of the gate acting ``offset`` qubits lower down."""
        out = copy.copy(self)
        out._qubits = tuple(q + int(offset) for q in self._qubits)
        return out

    def __repr__(self) -> str:
        return f"SWAP({self._qubits[0]}, {self._qubits[1]})"


class iSWAP(QGate):
    """The iSWAP gate: exchanges two qubits with an ``i`` phase on the
    swapped amplitudes."""

    _MATRIX = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    )

    def __init__(self, qubit0: int, qubit1: int):
        qs = check_qubits([qubit0, qubit1])
        self._qubits = tuple(sorted(qs))

    @property
    def qubits(self) -> tuple:
        """The two exchanged qubits, in ascending order."""
        return self._qubits

    @property
    def matrix(self) -> np.ndarray:
        """The 4x4 iSWAP unitary (``i`` on the swapped amplitudes)."""
        return self._MATRIX

    def ctranspose(self) -> "_iSWAPdg":
        """The inverse gate (iSWAP-dagger, ``-i`` phases)."""
        return _iSWAPdg(*self._qubits)

    def draw_spec(self) -> DrawSpec:
        """Drawing layout: a connected ``iSW`` box on each qubit."""
        el = DrawElement("box", "iSW")
        return DrawSpec(elements={q: el for q in self._qubits}, connect=True)

    def toQASM(self, offset: int = 0) -> str:
        """The OpenQASM 2.0 statement, qubits shifted by ``offset``."""
        a, b = (q + offset for q in self._qubits)
        return f"iswap q[{a}],q[{b}];"

    def shifted(self, offset: int):
        """A copy of the gate acting ``offset`` qubits lower down."""
        out = copy.copy(self)
        out._qubits = tuple(q + int(offset) for q in self._qubits)
        return out

    def __repr__(self) -> str:
        return f"iSWAP({self._qubits[0]}, {self._qubits[1]})"


class _iSWAPdg(QGate):
    """The inverse of :class:`iSWAP`."""

    _MATRIX = np.array(
        [[1, 0, 0, 0], [0, 0, -1j, 0], [0, -1j, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    )

    def __init__(self, qubit0: int, qubit1: int):
        qs = check_qubits([qubit0, qubit1])
        self._qubits = tuple(sorted(qs))

    @property
    def qubits(self) -> tuple:
        return self._qubits

    @property
    def matrix(self) -> np.ndarray:
        return self._MATRIX

    def ctranspose(self) -> "iSWAP":
        return iSWAP(*self._qubits)

    def draw_spec(self) -> DrawSpec:
        el = DrawElement("box", "iSW†")
        return DrawSpec(elements={q: el for q in self._qubits}, connect=True)

    def toQASM(self, offset: int = 0) -> str:
        a, b = (q + offset for q in self._qubits)
        return f"iswapdg q[{a}],q[{b}];"

    def shifted(self, offset: int):
        out = copy.copy(self)
        out._qubits = tuple(q + int(offset) for q in self._qubits)
        return out


class CSwap(ControlledGate):
    """The Fredkin gate: a controlled SWAP.

    ``CSwap(control, target0, target1)`` exchanges the two targets when
    the control matches its state (``qelib1``'s ``cswap``).
    """

    _QASM = "cswap"

    def __init__(
        self, control: int, target0: int, target1: int,
        control_state: int = 1,
    ):
        super().__init__(SWAP(target0, target1), control, control_state)
