"""Parameterized gates: phase, one-qubit rotations, U2/U3 and the
two-qubit coupling rotations RotationXX/YY/ZZ.

All rotation gates store their parameter as a numerically stable
:class:`~repro.angle.QRotation` (cosine/sine of the half angle) and the
phase gate as a :class:`~repro.angle.QAngle`; see :mod:`repro.angle` for
why.  An angle is fixed at construction: ``theta``, ``angle`` and
``rotation`` are read-only, and a circuit built over a
:class:`~repro.parameter.Parameter` slot changes its angles through
``QCircuit.bind`` or ``sweep``.  The one in-place angle change is
``fuse`` (e.g. :meth:`RotationGate1.fuse`), which merges a same-axis
rotation or a phase into the receiver, mirroring QCLAB's fusion API
used by its derived compilers.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.angle import QAngle, QRotation, turnover
from repro.exceptions import GateError, UnboundParameterError
from repro.gates.base import (
    DrawElement,
    DrawSpec,
    QGate,
    bump_mutation_epoch,
)
from repro.gates.qgate1 import QGate1
from repro.parameter import Parameter, ParameterExpression, as_expression
from repro.utils.validation import check_qubits

__all__ = [
    "Phase",
    "RotationGate1",
    "RotationX",
    "RotationY",
    "RotationZ",
    "RotationGate2",
    "RotationXX",
    "RotationYY",
    "RotationZZ",
    "U2",
    "U3",
    "turnover_gates",
]


def _as_rotation(*args):
    """Coerce ``(theta)``, ``(QRotation)``, ``(QAngle)``, ``(cos, sin)``
    or a symbolic ``(Parameter)`` to a QRotation / ParameterExpression."""
    if len(args) == 1:
        if isinstance(args[0], QRotation):
            return args[0]
        if isinstance(args[0], QAngle):
            return QRotation(args[0].theta)
        if isinstance(args[0], (Parameter, ParameterExpression)):
            return as_expression(args[0])
    return QRotation(*args)


def _as_angle(*args):
    """Coerce ``(theta)``, ``(QAngle)``, ``(QRotation)``, ``(cos, sin)``
    or a symbolic ``(Parameter)`` to a QAngle / ParameterExpression."""
    if len(args) == 1:
        if isinstance(args[0], QAngle):
            return args[0]
        if isinstance(args[0], QRotation):
            return QAngle(args[0].theta)
        if isinstance(args[0], (Parameter, ParameterExpression)):
            return as_expression(args[0])
    return QAngle(*args)


def _add_symbolic(a, b) -> ParameterExpression:
    """Sum of two stored angle values where at least one is symbolic.

    Two expressions fuse only on the *same* slot (affine closure);
    a symbolic plus a concrete value folds into the offset.
    """
    ea = a if isinstance(a, ParameterExpression) else None
    eb = b if isinstance(b, ParameterExpression) else None
    if ea is not None and eb is not None:
        if ea.parameter is not eb.parameter:
            raise GateError(
                "cannot fuse rotations bound to distinct parameters "
                f"({ea.parameter.name!r} and {eb.parameter.name!r})"
            )
        return ea + eb
    if ea is not None:
        return ea + b.theta
    return eb + a.theta


class _AngleSlot(QGate):
    """A gate with one angle slot: a concrete value or an unbound
    :class:`~repro.parameter.ParameterExpression`.

    Subclasses store the slot in ``_slot`` — a :class:`QAngle` for the
    phase gate, a :class:`QRotation` for the rotations (``_VALUE``) —
    and name themselves through ``_LABEL`` (diagrams) and ``_QASM``
    (OpenQASM).  While the slot is unbound, every numeric accessor
    raises :class:`~repro.exceptions.UnboundParameterError`.
    """

    _VALUE = QRotation

    @property
    def is_bound(self) -> bool:
        """``False`` while the angle is an unresolved
        :class:`~repro.parameter.Parameter` slot."""
        return not isinstance(self._slot, ParameterExpression)

    @property
    def parameter(self):
        """The unresolved :class:`~repro.parameter.Parameter` slot,
        or ``None`` when the gate is bound."""
        if isinstance(self._slot, ParameterExpression):
            return self._slot.parameter
        return None

    @property
    def parameter_expression(self):
        """The stored affine slot expression, or ``None`` when bound."""
        if isinstance(self._slot, ParameterExpression):
            return self._slot
        return None

    def _require_bound(self, what: str):
        if isinstance(self._slot, ParameterExpression):
            raise UnboundParameterError(
                f"{type(self).__name__} on qubit(s) {self.qubits} holds "
                f"the unbound parameter {self._slot.label!r}; bind a "
                f"value before reading .{what}"
            )

    @property
    def theta(self) -> float:
        """The angle in radians."""
        self._require_bound("theta")
        return self._slot.theta

    @property
    def is_fixed(self) -> bool:
        return False

    def _param_signature(self):
        if isinstance(self._slot, ParameterExpression):
            return ("slot",) + self._slot.signature()
        return (self._slot.cos, self._slot.sin)

    @property
    def label(self) -> str:
        """Short label used in circuit diagrams, e.g. ``RX(0.5)``."""
        if not self.is_bound:
            return f"{self._LABEL}({self._slot.label})"
        return f"{self._LABEL}({self.theta:.4g})"

    def _with_slot(self, value) -> "_AngleSlot":
        out = copy.copy(self)
        out._slot = value
        return out

    def bind_parameters(self, values) -> "_AngleSlot":
        """A concrete copy with the slot resolved from ``values``
        (``self`` when already bound)."""
        if self.is_bound:
            return self
        return self._with_slot(self._VALUE(self._slot.resolve(values)))

    def fuse(self, other: "_AngleSlot") -> "_AngleSlot":
        """Merge a same-type gate on the same qubits into this one:
        angles add stably, e.g. ``R(t1) R(t2) = R(t1+t2)``; symbolic
        angles fold affinely on a shared slot."""
        if type(other) is not type(self) or other.qubits != self.qubits:
            raise GateError(
                f"cannot fuse {type(self).__name__} on qubit(s) "
                f"{self.qubits} with {type(other).__name__} on qubit(s) "
                f"{other.qubits}"
            )
        bump_mutation_epoch()
        a, b = self._slot, other._slot
        if self.is_bound and other.is_bound:
            self._slot = a * b if isinstance(a, QRotation) else a + b
        else:
            self._slot = _add_symbolic(a, b)
        return self

    def ctranspose(self) -> "_AngleSlot":
        """The same gate at the negated angle."""
        a = self._slot
        return self._with_slot(a.inv() if isinstance(a, QRotation) else -a)

    def toQASM(self, offset: int = 0) -> str:
        args = ",".join(f"q[{q + offset}]" for q in self.qubits)
        return f"{self._QASM}({self.theta!r}) {args};"

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        if self.qubits != other.qubits or self.is_bound != other.is_bound:
            return False
        if not self.is_bound:
            return self._slot == other._slot
        return self._slot.isclose(other._slot)

    __hash__ = QGate.__hash__

    def __repr__(self) -> str:
        qs = ", ".join(str(q) for q in self.qubits)
        if not self.is_bound:
            return f"{type(self).__name__}({qs}, <{self._slot.label}>)"
        return f"{type(self).__name__}({qs}, {self.theta!r})"


class Phase(_AngleSlot, QGate1):
    """The phase gate ``P(theta) = diag(1, e^{i theta})``.

    Accepts ``Phase(qubit, theta)``, ``Phase(qubit, QAngle)``,
    ``Phase(qubit, QRotation)``, ``Phase(qubit, cos, sin)`` or the
    symbolic ``Phase(qubit, Parameter)`` (an *unbound* gate whose
    numeric accessors raise
    :class:`~repro.exceptions.UnboundParameterError` until bound).
    """

    _LABEL = "P"
    _QASM = "u1"
    _VALUE = QAngle

    def __init__(self, qubit: int = 0, *args) -> None:
        super().__init__(qubit)
        self._slot = _as_angle(*args) if args else QAngle()

    @property
    def angle(self) -> QAngle:
        """The phase angle as a :class:`QAngle`."""
        self._require_bound("angle")
        return self._slot

    @property
    def matrix(self) -> np.ndarray:
        self._require_bound("matrix")
        c, s = self._slot.cos, self._slot.sin
        return np.array([[1, 0], [0, complex(c, s)]], dtype=np.complex128)

    def kernel_values(self, thetas) -> np.ndarray:
        """Stacked ``(P, 2, 2)`` kernels for a batch of angle values
        (independent of the gate's own stored angle/slot)."""
        thetas = np.asarray(thetas, dtype=float).ravel()
        out = np.zeros((thetas.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = np.cos(thetas) + 1j * np.sin(thetas)
        return out

    @property
    def is_diagonal(self) -> bool:
        return True

    # The phase gate has always printed as ``Phase(qubit)``; keep that
    # form rather than the angle-bearing one of the rotations.
    __repr__ = QGate1.__repr__


class RotationGate1(_AngleSlot, QGate1):
    """Base class for the one-qubit rotations RX, RY, RZ.

    Accepts ``(qubit, theta)``, ``(qubit, QRotation)``,
    ``(qubit, QAngle)``, ``(qubit, cos, sin)`` — ``cos``/``sin`` of the
    half angle — or the symbolic ``(qubit, Parameter)`` form (an
    *unbound* gate whose numeric accessors raise
    :class:`~repro.exceptions.UnboundParameterError` until bound).
    """

    _AXIS = "?"

    def __init__(self, qubit: int = 0, *args) -> None:
        super().__init__(qubit)
        self._slot = _as_rotation(*args) if args else QRotation()

    @property
    def axis(self) -> str:
        """Rotation axis: ``'x'``, ``'y'`` or ``'z'``."""
        return self._AXIS

    @property
    def rotation(self) -> QRotation:
        """The rotation value object."""
        self._require_bound("rotation")
        return self._slot

    @property
    def cos(self) -> float:
        """``cos(theta/2)``."""
        self._require_bound("cos")
        return self._slot.cos

    @property
    def sin(self) -> float:
        """``sin(theta/2)``."""
        self._require_bound("sin")
        return self._slot.sin

    def kernel_values(self, thetas) -> np.ndarray:
        """Stacked ``(P, 2, 2)`` kernels for a batch of angle values
        (independent of the gate's own stored rotation/slot)."""
        thetas = np.asarray(thetas, dtype=float).ravel()
        return self._kernel_batch(
            np.cos(0.5 * thetas), np.sin(0.5 * thetas)
        )

    @staticmethod
    def _kernel_batch(c: np.ndarray, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RotationX(RotationGate1):
    """``RX(theta) = exp(-i theta/2 X)``."""

    _AXIS = "x"
    _LABEL = "RX"
    _QASM = "rx"

    @property
    def matrix(self) -> np.ndarray:
        c, s = self.cos, self.sin
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)

    @staticmethod
    def _kernel_batch(c, s):
        out = np.zeros((c.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = c
        out[:, 1, 1] = c
        out[:, 0, 1] = -1j * s
        out[:, 1, 0] = -1j * s
        return out


class RotationY(RotationGate1):
    """``RY(theta) = exp(-i theta/2 Y)``."""

    _AXIS = "y"
    _LABEL = "RY"
    _QASM = "ry"

    @property
    def matrix(self) -> np.ndarray:
        c, s = self.cos, self.sin
        return np.array([[c, -s], [s, c]], dtype=np.complex128)

    @staticmethod
    def _kernel_batch(c, s):
        out = np.zeros((c.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = c
        out[:, 1, 1] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        return out


class RotationZ(RotationGate1):
    """``RZ(theta) = exp(-i theta/2 Z) = diag(e^{-i theta/2}, e^{i theta/2})``."""

    _AXIS = "z"
    _LABEL = "RZ"
    _QASM = "rz"

    @property
    def matrix(self) -> np.ndarray:
        c, s = self.cos, self.sin
        return np.array(
            [[complex(c, -s), 0], [0, complex(c, s)]], dtype=np.complex128
        )

    @staticmethod
    def _kernel_batch(c, s):
        out = np.zeros((c.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = c - 1j * s
        out[:, 1, 1] = c + 1j * s
        return out

    @property
    def is_diagonal(self) -> bool:
        return True


class U2(QGate1):
    """The ``u2(phi, lambda)`` gate: a pi/2 X-rotation between two frame
    changes; ``u2(phi, lam) = u3(pi/2, phi, lam)``."""

    def __init__(self, qubit: int = 0, phi: float = 0.0, lam: float = 0.0):
        super().__init__(qubit)
        self._phi = QAngle(float(phi))
        self._lam = QAngle(float(lam))

    @property
    def phi(self) -> float:
        """The ``phi`` frame angle in radians."""
        return self._phi.theta

    @property
    def lam(self) -> float:
        """The ``lambda`` frame angle in radians."""
        return self._lam.theta

    @property
    def is_fixed(self) -> bool:
        return False

    def _param_signature(self):
        return (
            self._phi.cos, self._phi.sin, self._lam.cos, self._lam.sin,
        )

    @property
    def label(self) -> str:
        return f"U2({self.phi:.3g},{self.lam:.3g})"

    @property
    def matrix(self) -> np.ndarray:
        ephi = complex(self._phi.cos, self._phi.sin)
        elam = complex(self._lam.cos, self._lam.sin)
        return np.array(
            [[1.0, -elam], [ephi, ephi * elam]], dtype=np.complex128
        ) / np.sqrt(2.0)

    def ctranspose(self) -> "U3":
        return U3(self.qubit, -np.pi / 2, -self.lam, -self.phi)

    def toQASM(self, offset: int = 0) -> str:
        return f"u2({self.phi!r},{self.lam!r}) q[{self.qubit + offset}];"

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (
            self.qubits == other.qubits
            and self._phi.isclose(other._phi)
            and self._lam.isclose(other._lam)
        )

    __hash__ = QGate1.__hash__


class U3(QGate1):
    """The general one-qubit gate ``u3(theta, phi, lambda)``.

    ``u3`` parameterizes any element of U(2) up to global phase:
    ``u3 = [[cos(t/2), -e^{i lam} sin(t/2)],
    [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]``.
    """

    def __init__(
        self,
        qubit: int = 0,
        theta: float = 0.0,
        phi: float = 0.0,
        lam: float = 0.0,
    ):
        super().__init__(qubit)
        self._rot = QRotation(float(theta))
        self._phi = QAngle(float(phi))
        self._lam = QAngle(float(lam))

    @property
    def theta(self) -> float:
        """The ``theta`` rotation angle in radians."""
        return self._rot.theta

    @property
    def phi(self) -> float:
        """The ``phi`` frame angle in radians."""
        return self._phi.theta

    @property
    def lam(self) -> float:
        """The ``lambda`` frame angle in radians."""
        return self._lam.theta

    @property
    def is_fixed(self) -> bool:
        return False

    def _param_signature(self):
        return (
            self._rot.cos, self._rot.sin,
            self._phi.cos, self._phi.sin,
            self._lam.cos, self._lam.sin,
        )

    @property
    def label(self) -> str:
        return f"U3({self.theta:.3g},{self.phi:.3g},{self.lam:.3g})"

    @property
    def matrix(self) -> np.ndarray:
        c, s = self._rot.cos, self._rot.sin
        ephi = complex(self._phi.cos, self._phi.sin)
        elam = complex(self._lam.cos, self._lam.sin)
        return np.array(
            [[c, -elam * s], [ephi * s, ephi * elam * c]],
            dtype=np.complex128,
        )

    def ctranspose(self) -> "U3":
        return U3(self.qubit, -self.theta, -self.lam, -self.phi)

    def toQASM(self, offset: int = 0) -> str:
        return (
            f"u3({self.theta!r},{self.phi!r},{self.lam!r}) "
            f"q[{self.qubit + offset}];"
        )

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (
            self.qubits == other.qubits
            and self._rot.isclose(other._rot)
            and self._phi.isclose(other._phi)
            and self._lam.isclose(other._lam)
        )

    __hash__ = QGate1.__hash__


class RotationGate2(_AngleSlot):
    """Base class for the two-qubit coupling rotations RXX, RYY, RZZ.

    ``R_aa(theta) = exp(-i theta/2 sigma_a (x) sigma_a)``; these are the
    workhorse gates of QCLAB's derived time-evolution compiler F3C.
    The matrix is symmetric under qubit exchange, so qubits are stored
    sorted without any reordering of the kernel.
    """

    _AXIS = "?"
    _PAULI2 = None  # sigma_a (x) sigma_a, set by subclasses

    def __init__(self, qubit0: int, qubit1: int, *args) -> None:
        qs = check_qubits([qubit0, qubit1])
        self._qubits = tuple(sorted(qs))
        self._slot = _as_rotation(*args) if args else QRotation()

    @property
    def qubits(self) -> tuple:
        return self._qubits

    @property
    def axis(self) -> str:
        """Coupling axis: both Paulis are ``sigma_axis``."""
        return self._AXIS

    @property
    def rotation(self) -> QRotation:
        """The rotation value object."""
        self._require_bound("rotation")
        return self._slot

    @property
    def matrix(self) -> np.ndarray:
        self._require_bound("matrix")
        c, s = self._slot.cos, self._slot.sin
        return c * np.eye(4, dtype=np.complex128) - 1j * s * self._PAULI2

    def kernel_values(self, thetas) -> np.ndarray:
        """Stacked ``(P, 4, 4)`` kernels for a batch of angle values
        (independent of the gate's own stored rotation/slot)."""
        thetas = np.asarray(thetas, dtype=float).ravel()
        c = np.cos(0.5 * thetas)
        s = np.sin(0.5 * thetas)
        eye = np.eye(4, dtype=np.complex128)
        return (
            c[:, None, None] * eye
            - 1j * s[:, None, None] * self._PAULI2
        )

    def draw_spec(self) -> DrawSpec:
        el = DrawElement("box", self.label)
        return DrawSpec(
            elements={q: el for q in self._qubits}, connect=True
        )

    def shifted(self, offset: int):
        out = copy.copy(self)
        out._qubits = tuple(q + int(offset) for q in self._qubits)
        return out


_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.diag([1, -1]).astype(np.complex128)


class RotationXX(RotationGate2):
    """``RXX(theta) = exp(-i theta/2 X (x) X)``."""

    _AXIS = "x"
    _LABEL = "RXX"
    _QASM = "rxx"
    _PAULI2 = np.kron(_X, _X)


class RotationYY(RotationGate2):
    """``RYY(theta) = exp(-i theta/2 Y (x) Y)``."""

    _AXIS = "y"
    _LABEL = "RYY"
    _QASM = "ryy"
    _PAULI2 = np.kron(_Y, _Y)


class RotationZZ(RotationGate2):
    """``RZZ(theta) = exp(-i theta/2 Z (x) Z)`` (diagonal)."""

    _AXIS = "z"
    _LABEL = "RZZ"
    _QASM = "rzz"
    _PAULI2 = np.kron(_Z, _Z)

    @property
    def is_diagonal(self) -> bool:
        return True

def turnover_gates(g1, g2, g3):
    """Turn over a V-shaped pattern of three rotation gates.

    Rewrites the circuit-order sequence ``g1, g2, g3`` — where ``g1`` and
    ``g3`` are equal-type rotations on the same qubit(s) and ``g2`` is a
    rotation about a different axis on the same qubit(s) — into the
    equivalent sequence with the axis pattern swapped, returning three
    **new** gates.  This is QCLAB's turnover operation (used by F3C).

    Circuit order means ``g1`` acts first, i.e. the operator product is
    ``g3.matrix @ g2.matrix @ g1.matrix``.
    """
    one_qubit = isinstance(g1, RotationGate1)
    two_qubit = isinstance(g1, RotationGate2)
    if not (one_qubit or two_qubit):
        raise GateError("turnover requires rotation gates")
    if type(g3) is not type(g1) or not isinstance(
        g2, RotationGate1 if one_qubit else RotationGate2
    ):
        raise GateError(
            "turnover requires the axis pattern a-b-a of rotation gates"
        )
    if g1.qubits != g2.qubits or g1.qubits != g3.qubits:
        raise GateError("turnover requires all gates on the same qubit(s)")
    if g2.axis == g1.axis:
        raise GateError("turnover requires two distinct axes")

    mid_cls = type(g1)
    out_cls = type(g2)
    qs = g1.qubits

    if two_qubit:
        # Same-pair coupling rotations sigma_a(x)sigma_a and
        # sigma_b(x)sigma_b COMMUTE, so the "turnover" is a trivial
        # reorder: fuse the outer pair and move the middle gate out.
        fused = g1.rotation * g3.rotation
        return (
            out_cls(qs[0], qs[1], g2.rotation),
            mid_cls(qs[0], qs[1], fused),
            out_cls(qs[0], qs[1], QRotation()),
        )

    # Operator product is g3 g2 g1; turnover() works on the matrix-order
    # triple (outer=g3-axis, inner=g2-axis, outer), returning p1 p2 p3 in
    # matrix order.  Circuit order of the result is therefore p3, p2, p1.
    p1, p2, p3 = turnover(
        g3.rotation,
        g2.rotation,
        g1.rotation,
        g1.axis,
        g2.axis,
    )
    return out_cls(qs[0], p3), mid_cls(qs[0], p2), out_cls(qs[0], p1)
