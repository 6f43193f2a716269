"""Controlled gates: one wrapper body for every control layout.

A controlled gate is a target gate plus control qubits, each with a
*control state* (``1`` = filled dot, the default; ``0`` = open dot, i.e.
the gate fires when that control is ``|0>``).  :class:`_Controlled`
holds that pair once — the wrapped gate, the sorted controls and their
states — and implements the whole gate interface over it.  The public
wrappers only validate their constructor arguments:

* :class:`ControlledGate1` — a one-qubit gate with one control; the
  named two-qubit gates in :mod:`repro.gates.two_qubit` (CNOT, CZ,
  CPhase, ...) specialize it;
* :class:`ControlledGate` — a multi-qubit gate with one control
  (e.g. :class:`~repro.gates.CSwap`);
* :class:`~repro.gates.MCGate` — a one-qubit gate with any number of
  controls (:mod:`repro.gates.multi_controlled`).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.exceptions import GateError
from repro.gates.base import (
    DrawElement,
    DrawSpec,
    QGate,
    controlled_matrix,
)
from repro.gates.fixed import PauliX
from repro.utils.validation import check_qubit

__all__ = ["ControlledGate1", "ControlledGate"]


class _Controlled(QGate):
    """A wrapped target gate applied when every control matches its state.

    Subclass constructors validate their arguments and set ``_gate``,
    ``_controls`` (a tuple sorted ascending) and ``_control_states``
    (a parallel tuple of 0/1 entries).
    """

    _QASM = None  # OpenQASM name for named subclasses (e.g. "cx")

    # -- structure ----------------------------------------------------------

    @property
    def gate(self) -> QGate:
        """The wrapped target gate."""
        return self._gate

    @property
    def qubits(self) -> tuple:
        return tuple(sorted(self._controls + self._gate.qubits))

    def controls(self) -> tuple:
        return self._controls

    def control_states(self) -> tuple:
        return self._control_states

    def target_qubits(self) -> tuple:
        return self._gate.qubits

    def target_matrix(self) -> np.ndarray:
        return self._gate.matrix

    @property
    def matrix(self) -> np.ndarray:
        return controlled_matrix(
            self._gate.matrix,
            self.qubits,
            self._controls,
            self._control_states,
            self._gate.qubits,
        )

    @property
    def is_diagonal(self) -> bool:
        return self._gate.is_diagonal

    @property
    def is_fixed(self) -> bool:
        return self._gate.is_fixed

    # -- the wrapped gate's parameter slot -----------------------------------

    @property
    def is_bound(self) -> bool:
        """Whether the wrapped gate's angle is concrete."""
        return self._gate.is_bound

    @property
    def parameter(self):
        """The wrapped gate's unresolved slot, or ``None``."""
        return self._gate.parameter

    @property
    def parameter_expression(self):
        """Slot expression of the wrapped gate, or ``None``."""
        return getattr(self._gate, "parameter_expression", None)

    def kernel_values(self, thetas) -> np.ndarray:
        """Stacked *target* kernels for a batch of angle values
        (controls are index structure, not part of the kernel)."""
        return self._gate.kernel_values(thetas)

    def bind_parameters(self, values) -> "_Controlled":
        """A copy whose wrapped gate has its slot resolved from
        ``values`` (``self`` when already bound)."""
        if self._gate.is_bound:
            return self
        return self._with_gate(self._gate.bind_parameters(values))

    def _param_signature(self):
        # a wrapper's identity is its inner gate's identity
        return self._gate.signature()

    # -- behaviour ----------------------------------------------------------

    def _with_gate(self, gate: QGate) -> "_Controlled":
        out = copy.copy(self)
        out._gate = gate
        return out

    def ctranspose(self) -> "_Controlled":
        """The same controls around the inverted target gate."""
        return self._with_gate(self._gate.ctranspose())

    def draw_spec(self) -> DrawSpec:
        elements = {
            c: DrawElement("ctrl1" if s else "ctrl0")
            for c, s in zip(self._controls, self._control_states)
        }
        if type(self._gate) is PauliX:
            elements[self._gate.qubit] = DrawElement("oplus")
        else:
            elements.update(self._gate.draw_spec().elements)
        return DrawSpec(elements=elements, connect=True)

    def toQASM(self, offset: int = 0) -> str:
        if self._QASM is None:
            from repro.io.qasm_export import multi_controlled_qasm

            return multi_controlled_qasm(self, offset)
        # named gate: open controls are conjugated by X
        flips = [
            f"x q[{c + offset}];"
            for c, s in zip(self._controls, self._control_states)
            if not s
        ]
        params = "" if self._gate.is_fixed else f"({self._gate.theta!r})"
        args = ",".join(
            f"q[{q + offset}]" for q in self._controls + self._gate.qubits
        )
        return "\n".join(flips + [f"{self._QASM}{params} {args};"] + flips)

    def shifted(self, offset: int) -> "_Controlled":
        out = self._with_gate(self._gate.shifted(offset))
        out._controls = tuple(c + int(offset) for c in self._controls)
        return out

    def __eq__(self, other):
        if not isinstance(other, _Controlled):
            return NotImplemented
        return (
            self._controls == other._controls
            and self._control_states == other._control_states
            and self._gate == other._gate
        )

    __hash__ = QGate.__hash__


class ControlledGate1(_Controlled):
    """A one-qubit gate with a single control qubit.

    Parameters
    ----------
    gate:
        The target one-qubit gate; its ``qubit`` is the target.
    control:
        The control qubit (distinct from the target).
    control_state:
        ``1`` (default) applies the gate when the control is ``|1>``;
        ``0`` when it is ``|0>``.
    """

    def __init__(self, gate, control: int, control_state: int = 1):
        if not isinstance(gate, QGate) or gate.nbQubits != 1:
            raise GateError(
                "ControlledGate1 requires a one-qubit target gate, got "
                f"{type(gate).__name__}"
            )
        control = check_qubit(control)
        if control == gate.qubit:
            raise GateError(
                f"control qubit {control} equals target qubit {gate.qubit}"
            )
        if control_state not in (0, 1):
            raise GateError(f"control state {control_state!r} is not 0 or 1")
        self._gate = gate
        self._controls = (control,)
        self._control_states = (int(control_state),)

    @property
    def control(self) -> int:
        """The control qubit."""
        return self._controls[0]

    @property
    def target(self) -> int:
        """The target qubit."""
        return self._gate.qubit

    @property
    def control_state(self) -> int:
        """The control state (0 or 1)."""
        return self._control_states[0]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(control={self.control}, "
            f"target={self.target}, control_state={self.control_state})"
        )


class ControlledGate(_Controlled):
    """A k-qubit gate with a single control qubit (generic wrapper).

    Generalizes :class:`ControlledGate1` to multi-qubit target gates —
    e.g. a controlled SWAP (Fredkin, :class:`~repro.gates.CSwap`) wraps
    ``SWAP`` with one control.
    """

    def __init__(self, gate: QGate, control: int, control_state: int = 1):
        if not isinstance(gate, QGate):
            raise GateError(
                f"ControlledGate requires a gate, got {type(gate).__name__}"
            )
        control = check_qubit(control)
        if control in gate.qubits:
            raise GateError(
                f"control qubit {control} overlaps target qubits "
                f"{gate.qubits}"
            )
        if gate.controls():
            raise GateError(
                "ControlledGate cannot wrap an already-controlled gate; "
                "use MCGate for multiple controls of a one-qubit gate"
            )
        if control_state not in (0, 1):
            raise GateError(f"control state {control_state!r} is not 0 or 1")
        self._gate = gate
        self._controls = (control,)
        self._control_states = (int(control_state),)

    @property
    def control(self) -> int:
        """The control qubit."""
        return self._controls[0]

    @property
    def control_state(self) -> int:
        """The control state (0 or 1)."""
        return self._control_states[0]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(control={self.control}, "
            f"gate={self._gate!r}, control_state={self.control_state})"
        )
