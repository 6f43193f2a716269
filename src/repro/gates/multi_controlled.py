"""Multi-controlled gates with per-control control states.

The paper's QEC example (Section 5.4) uses
``qclab.qgates.MCX([3,4], 2, [0,1])`` — a multi-controlled X whose
controls ``q3``/``q4`` must read ``0``/``1`` respectively.  The same
constructor signature is used here: ``MCX(controls, target,
control_states)``, with the control-state vector defaulting to all ones.
"""

from __future__ import annotations

from repro.exceptions import GateError
from repro.gates.base import QGate
from repro.gates.controlled import _Controlled
from repro.gates.fixed import PauliX, PauliY, PauliZ
from repro.gates.parametric import Phase, RotationX, RotationY, RotationZ
from repro.utils.validation import check_control_states, check_qubits

__all__ = [
    "MCGate",
    "MCX",
    "MCY",
    "MCZ",
    "MCPhase",
    "MCRotationX",
    "MCRotationY",
    "MCRotationZ",
]


class MCGate(_Controlled):
    """A one-qubit gate with any number of controls.

    Parameters
    ----------
    gate:
        The target one-qubit gate (its ``qubit`` is the target).
    controls:
        Control qubit indices (distinct from each other and the target).
    control_states:
        One ``0``/``1`` entry per control; defaults to all ones.
    """

    def __init__(self, gate, controls, control_states=None):
        if not isinstance(gate, QGate) or gate.nbQubits != 1:
            raise GateError(
                "MCGate requires a one-qubit target gate, got "
                f"{type(gate).__name__}"
            )
        ctrls = check_qubits(list(controls))
        if not ctrls:
            raise GateError("MCGate requires at least one control qubit")
        if gate.qubit in ctrls:
            raise GateError(
                f"target qubit {gate.qubit} appears among controls {ctrls}"
            )
        if control_states is None:
            control_states = [1] * len(ctrls)
        states = check_control_states(control_states, len(ctrls))
        # store controls sorted, permuting states alongside
        order = sorted(range(len(ctrls)), key=lambda i: ctrls[i])
        self._gate = gate
        self._controls = tuple(ctrls[i] for i in order)
        self._control_states = tuple(states[i] for i in order)

    @property
    def target(self) -> int:
        """The target qubit."""
        return self._gate.qubit

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(controls={list(self._controls)!r}, "
            f"target={self.target}, "
            f"control_states={list(self._control_states)!r})"
        )


class MCX(MCGate):
    """Multi-controlled X (generalized Toffoli), paper signature
    ``MCX(controls, target, control_states)``."""

    def __init__(self, controls, target: int, control_states=None):
        super().__init__(PauliX(target), controls, control_states)


class MCY(MCGate):
    """Multi-controlled Pauli-Y."""

    def __init__(self, controls, target: int, control_states=None):
        super().__init__(PauliY(target), controls, control_states)


class MCZ(MCGate):
    """Multi-controlled Pauli-Z (diagonal)."""

    def __init__(self, controls, target: int, control_states=None):
        super().__init__(PauliZ(target), controls, control_states)


class MCPhase(MCGate):
    """Multi-controlled phase gate (diagonal)."""

    def __init__(self, controls, target: int, *args, control_states=None):
        super().__init__(Phase(target, *args), controls, control_states)

    @property
    def theta(self) -> float:
        """The phase angle in radians."""
        return self.gate.theta


class _MCRotation(MCGate):
    """Shared implementation of the multi-controlled rotations."""

    _ROT = None

    def __init__(self, controls, target: int, *args, control_states=None):
        super().__init__(self._ROT(target, *args), controls, control_states)

    @property
    def theta(self) -> float:
        """The rotation angle in radians."""
        return self.gate.theta


class MCRotationX(_MCRotation):
    """Multi-controlled ``RX(theta)``."""

    _ROT = RotationX


class MCRotationY(_MCRotation):
    """Multi-controlled ``RY(theta)``."""

    _ROT = RotationY


class MCRotationZ(_MCRotation):
    """Multi-controlled ``RZ(theta)`` (diagonal)."""

    _ROT = RotationZ
