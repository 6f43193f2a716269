"""Abstract interfaces shared by every circuit element.

QCLAB's object-oriented architecture (paper, Section 2) rests on a small
interface implemented by gates, measurements, resets, barriers and whole
sub-circuits alike.  :class:`QObject` is that interface;
:class:`QGate` refines it for unitary operations.

Key conventions
---------------
* ``qubits`` always lists the qubits an object acts on **in ascending
  order**, relative to the object's own frame (a circuit applies its
  ``offset`` on top).
* ``matrix`` (for gates) is expressed in that ascending order with the
  lowest-numbered qubit as the most significant sub-index bit, matching
  the register convention where ``q0`` is the most significant bit.
* Gates additionally expose a *controlled-structure decomposition*
  (:meth:`QGate.controls`, :meth:`QGate.control_states`,
  :meth:`QGate.target_qubits`, :meth:`QGate.target_matrix`) so optimized
  backends can apply only the active subspace, QCLAB++-style.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import GateError
from repro.utils.linalg import closeto, dagger, is_unitary

__all__ = [
    "QObject",
    "QGate",
    "DrawElement",
    "DrawSpec",
    "reorder_matrix",
    "mutation_epoch",
    "bump_mutation_epoch",
]

#: Global counter bumped by every *in-place* mutation of a pushed
#: operation.  There are two: the ``qubit`` setters (behind QCLAB's
#: ``setQubit``) of one-qubit gates, measurements and resets, and the
#: in-place ``fuse`` of Phase and the one- and two-qubit rotations.
#: Angles are otherwise fixed at construction.  Such mutations never
#: bump a circuit's structural ``revision``, so caches derived from gate
#: state — the IR program's structural signature, its parameter-slot
#: list — key their entries on this counter instead of re-walking the
#: op tree per call.
_MUTATION_EPOCH = 0


def mutation_epoch() -> int:
    """The current global in-place-mutation counter."""
    return _MUTATION_EPOCH


def bump_mutation_epoch() -> None:
    """Record an in-place mutation of some circuit element.

    Called by the ``qubit`` setters and the in-place ``fuse`` methods,
    which change an op's simulation semantics without a structural
    circuit edit; conservatively invalidates every epoch-keyed cache in
    the process.
    """
    global _MUTATION_EPOCH
    _MUTATION_EPOCH += 1


@dataclass(frozen=True)
class DrawElement:
    """What to render on one wire of a circuit diagram.

    ``kind`` is one of ``'box'`` (labelled gate box), ``'ctrl1'`` /
    ``'ctrl0'`` (filled / open control dot), ``'oplus'`` (CNOT target),
    ``'cross'`` (SWAP cross), ``'meas'`` (measurement box), ``'reset'``,
    ``'barrier'`` or ``'block'`` (multi-wire sub-circuit box).
    """

    kind: str
    label: str = ""


@dataclass(frozen=True)
class DrawSpec:
    """Per-qubit draw elements for one circuit column entry.

    ``elements`` maps a qubit (relative to the object's frame) to its
    :class:`DrawElement`; ``connect`` asks the renderer to join the span
    with a vertical line (controls, SWAP, multi-qubit blocks).
    """

    elements: dict = field(default_factory=dict)
    connect: bool = False


class QObject(ABC):
    """Anything that can be pushed onto a :class:`~repro.circuit.QCircuit`."""

    @property
    @abstractmethod
    def qubits(self) -> tuple:
        """Qubits the object acts on, ascending, in the object's own frame."""

    @property
    def qubit(self) -> int:
        """The first (lowest) qubit the object acts on."""
        return self.qubits[0]

    @property
    def nbQubits(self) -> int:
        """Number of qubits the object acts on."""
        return len(self.qubits)

    @abstractmethod
    def draw_spec(self) -> DrawSpec:
        """Rendering instructions for the circuit drawer."""

    def toQASM(self, offset: int = 0) -> str:
        """OpenQASM 2.0 text for this object (may span several lines).

        ``offset`` shifts all qubit indices (used when the object sits in
        a nested circuit).  Objects with no QASM counterpart raise
        :class:`~repro.exceptions.QASMError`.
        """
        raise NotImplementedError

    def shifted(self, offset: int) -> "QObject":
        """A copy of this object acting ``offset`` qubits higher.

        Used by :mod:`repro.transforms` to flatten nested circuits into
        absolute qubit indices.  Subclasses override; the base
        implementation refuses.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support shifting"
        )


class QGate(QObject):
    """A unitary gate.

    Subclasses must implement :attr:`qubits`, :attr:`matrix` and
    :meth:`ctranspose`; the controlled-structure accessors default to the
    "no controls" decomposition and are overridden by controlled gates.
    """

    @property
    @abstractmethod
    def matrix(self) -> np.ndarray:
        """Unitary matrix on :attr:`qubits` (ascending order)."""

    @abstractmethod
    def ctranspose(self) -> "QGate":
        """A new gate representing the conjugate transpose (inverse)."""

    # -- controlled-structure decomposition (backend fast path) ------------

    def controls(self) -> tuple:
        """Control qubits (ascending); empty for ordinary gates."""
        return ()

    def control_states(self) -> tuple:
        """Required control bit per control qubit (parallel to controls)."""
        return ()

    def target_qubits(self) -> tuple:
        """Non-control qubits (ascending)."""
        return self.qubits

    def target_matrix(self) -> np.ndarray:
        """Kernel acting on :meth:`target_qubits` when controls are active."""
        return self.matrix

    # -- structure hints ----------------------------------------------------

    @property
    def is_diagonal(self) -> bool:
        """``True`` when :attr:`matrix` is diagonal (enables fast paths)."""
        return False

    @property
    def is_fixed(self) -> bool:
        """``True`` when the gate carries no continuous parameter."""
        return True

    # -- symbolic-parameter hooks -------------------------------------------

    @property
    def parameter(self):
        """The :class:`~repro.parameter.Parameter` slot this gate is
        bound to, or ``None`` for concrete gates (the default)."""
        return None

    @property
    def is_bound(self) -> bool:
        """``False`` only while the gate holds a symbolic
        :class:`~repro.parameter.Parameter` slot instead of a value."""
        return True

    def bind_parameters(self, values) -> "QGate":
        """A concrete copy with parameter slots resolved from
        ``{Parameter: value}``; concrete gates return ``self``."""
        return self

    # -- plan-compilation hooks ---------------------------------------------

    def signature(self, offset: int = 0) -> tuple:
        """Structural identity of this gate at absolute offset ``offset``.

        Used by :mod:`repro.simulation.plan` to key the compiled-plan
        cache: two gates with equal signatures apply identically, so a
        parameter update (which changes the signature) invalidates any
        cached plan.  Hashable and cheap to compute.
        """
        return (
            type(self).__qualname__,
            tuple(q + offset for q in self.qubits),
            tuple(q + offset for q in self.controls()),
            tuple(self.control_states()),
            self._param_signature(),
        )

    def _param_signature(self):
        """Fingerprint of the gate's continuous parameters.

        Fixed gates are fully identified by their class; parametric
        gates override this with a cheap tuple of parameter values.  The
        fallback hashes the exact matrix bytes, which is always correct
        but costs a matrix build.
        """
        if self.is_fixed:
            return None
        return np.asarray(self.matrix).tobytes()

    # -- generic behaviour ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self.qubits == other.qubits and closeto(
            self.matrix, other.matrix, atol=1e-12
        )

    def __hash__(self):  # gates are mutable handles; identity hash
        return id(self)

    def __repr__(self) -> str:
        qs = ",".join(str(q) for q in self.qubits)
        return f"{type(self).__name__}({qs})"


def reorder_matrix(
    matrix: np.ndarray,
    src_order: Sequence[int],
    dst_order: Sequence[int],
) -> np.ndarray:
    """Re-express a k-qubit matrix from one qubit ordering to another.

    ``matrix`` acts on the qubits listed in ``src_order`` with
    ``src_order[0]`` as the most significant sub-index bit; the result
    acts on the same set listed as ``dst_order``.
    """
    src = list(src_order)
    dst = list(dst_order)
    if sorted(src) != sorted(dst):
        raise GateError(
            f"orders {src!r} and {dst!r} are not permutations of each other"
        )
    k = len(src)
    if matrix.shape != (1 << k, 1 << k):
        raise GateError(
            f"matrix shape {matrix.shape} does not match {k} qubit(s)"
        )
    if src == dst:
        return matrix
    perm = [src.index(q) for q in dst]
    tensor = matrix.reshape((2,) * (2 * k))
    axes = perm + [k + p for p in perm]
    return tensor.transpose(axes).reshape(1 << k, 1 << k)


def controlled_matrix(
    kernel: np.ndarray,
    qubits_all: Sequence[int],
    controls: Sequence[int],
    control_states: Sequence[int],
    targets: Sequence[int],
) -> np.ndarray:
    """Full matrix of a controlled gate over ``qubits_all`` (ascending).

    ``kernel`` acts on ``targets`` (ascending order assumed); the result
    applies ``kernel`` on the subspace where every control qubit holds
    its required control state and is the identity elsewhere.
    """
    from repro.utils.bits import gather_indices

    k = len(qubits_all)
    if sorted(qubits_all) != list(qubits_all):
        raise GateError("qubits_all must be sorted ascending")
    # positions of control qubits inside the local k-qubit register
    local = {q: i for i, q in enumerate(qubits_all)}
    ctrl_local = [local[c] for c in controls]
    tgt_local = [local[t] for t in targets]
    # rows where all control bits match, enumerated by ascending target
    # sub-index (gather_indices enumerates remaining bits MSB-first,
    # which matches the kernel's ordering because targets are ascending)
    del tgt_local  # ordering argument above; kept for clarity
    rows = gather_indices(k, ctrl_local, list(control_states))
    full = np.eye(1 << k, dtype=np.asarray(kernel).dtype)
    full[np.ix_(rows, rows)] = kernel
    return full


#: Diagonal runs merge (plan fusion, the IR ``coalesce_diagonals``
#: pass) while their qubit union stays this small.
MAX_DIAG_QUBITS = 6


def folded_diag(kernel, targets, controls, control_states):
    """``(qubits, diagonal)`` of a diagonal gate with its controls
    folded in.

    A controlled gate with a diagonal kernel is itself diagonal on the
    ascending union of controls and targets (ones on the non-matching
    subspace); an uncontrolled one is its kernel's diagonal on
    ``targets``.
    """
    if not controls:
        return targets, np.ascontiguousarray(np.diag(kernel))
    qubits_all = tuple(sorted(targets + controls))
    full = controlled_matrix(
        kernel, qubits_all, list(controls), list(control_states),
        list(targets),
    )
    return qubits_all, np.ascontiguousarray(np.diag(full))


def validate_unitary(matrix: np.ndarray, what: str = "gate") -> np.ndarray:
    """Coerce to a complex ndarray and require unitarity."""
    m = np.asarray(matrix, dtype=np.complex128)
    if not is_unitary(m):
        raise GateError(f"{what} matrix is not unitary")
    return m


def dagger_matrix(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose (re-exported for gate implementations)."""
    return dagger(matrix)
