"""The canonical circuit IR: a typed, flattened op stream.

Historically every consumer of a :class:`~repro.circuit.QCircuit` —
the compiled-plan layer, the transforms, the drawer/LaTeX layout, the
serializer and the QASM exporters — walked the nested op tree itself,
each re-implementing qubit-offset accumulation and block handling.
This module defines the one shared representation those walkers now
lower into:

:class:`IROp`
    One flattened circuit element with its **absolute** qubits
    resolved: kind tag, target/control qubits, control states,
    classical-condition and noise-channel metadata slots, and a
    back-pointer to the source :class:`~repro.gates.base.QObject`
    (kernels and parameters are always read *through* the back-pointer,
    so an IR program never goes stale when a gate parameter mutates).

:class:`IRProgram`
    An immutable sequence of :class:`IROp` records for one register
    width, carrying the list of pass names that produced it.

Lowering lives in :mod:`repro.ir.lower`; the pass pipeline in
:mod:`repro.ir.passes`.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import QCLabError

__all__ = [
    "GATE",
    "MEASURE",
    "RESET",
    "BARRIER",
    "BLOCK",
    "KIND_NAMES",
    "IRError",
    "IROp",
    "IRProgram",
]

#: IR op kinds.  ``GATE``/``MEASURE``/``RESET`` match the plan-step
#: kind values so the plan compiler can translate without a mapping.
GATE, MEASURE, RESET, BARRIER, BLOCK = 0, 1, 2, 3, 4

KIND_NAMES = {
    GATE: "gate",
    MEASURE: "measure",
    RESET: "reset",
    BARRIER: "barrier",
    BLOCK: "block",
}


class IRError(QCLabError):
    """A failure while lowering or transforming the circuit IR."""


class IROp:
    """One element of an :class:`IRProgram` on absolute qubits.

    Attributes
    ----------
    kind:
        ``GATE``, ``MEASURE``, ``RESET``, ``BARRIER`` or ``BLOCK``
        (a sub-circuit kept whole for drawing).
    op:
        Back-pointer to the source :class:`~repro.gates.base.QObject`
        (or sub-:class:`~repro.circuit.QCircuit` for ``BLOCK``).
    offset:
        The accumulated absolute offset of the enclosing circuits; the
        source op's own (relative) qubits plus ``offset`` give the
        absolute indices below.
    qubits:
        All absolute qubits the op acts on, ascending.
    targets / controls / control_states:
        The controlled-structure decomposition on absolute qubits
        (empty controls for plain gates; targets == qubits for
        non-gate kinds).
    condition:
        Classical-condition metadata (reserved: OpenQASM ``if`` is not
        yet importable, but backend lowering passes key off this slot).
    channel:
        Noise-channel attached by the ``inject_noise`` pass; ``None``
        on freshly lowered programs.
    """

    __slots__ = (
        "kind", "op", "offset", "qubits", "targets", "controls",
        "control_states", "condition", "channel",
    )

    def __init__(
        self,
        kind: int,
        op,
        offset: int,
        qubits: tuple,
        targets: tuple = (),
        controls: tuple = (),
        control_states: tuple = (),
        condition=None,
        channel=None,
    ):
        self.kind = kind
        self.op = op
        self.offset = offset
        self.qubits = qubits
        self.targets = targets
        self.controls = controls
        self.control_states = control_states
        self.condition = condition
        self.channel = channel

    # -- views through the back-pointer --------------------------------------

    @property
    def qubit(self) -> int:
        """The first (lowest) absolute qubit."""
        return self.qubits[0]

    @property
    def is_diagonal(self) -> bool:
        """Whether a gate op's kernel is diagonal (``False`` otherwise)."""
        return self.kind == GATE and bool(self.op.is_diagonal)

    @property
    def is_bound(self) -> bool:
        """``False`` only for gate ops holding an unresolved
        :class:`~repro.parameter.Parameter` slot."""
        if self.kind != GATE:
            return True
        return bool(getattr(self.op, "is_bound", True))

    @property
    def parameter_expression(self):
        """The op's :class:`~repro.parameter.ParameterExpression`
        (``None`` for concrete ops and non-gate kinds)."""
        if self.kind != GATE:
            return None
        return getattr(self.op, "parameter_expression", None)

    def kernel(self, dtype=np.complex128) -> np.ndarray:
        """The gate's target kernel cast to ``dtype`` (gates only)."""
        if self.kind != GATE:
            raise IRError(
                f"{KIND_NAMES[self.kind]} ops have no kernel"
            )
        return np.asarray(self.op.target_matrix(), dtype=dtype)

    def shifted_op(self):
        """A detached copy of the source op on absolute qubits."""
        return self.op.shifted(self.offset)

    def signature(self) -> tuple:
        """Structural identity of this op at its absolute position.

        Mirrors the contract of :meth:`repro.gates.base.QGate.signature`:
        equal signatures imply identical simulation semantics, so the
        plan cache and the pass-pipeline cache key off the per-op
        signatures (parameter mutations change them)."""
        op, off = self.op, self.offset
        if self.kind == GATE:
            return op.signature(off)
        if self.kind == MEASURE:
            extra = (
                op.basis_change.tobytes() if op.basis == "custom" else None
            )
            return ("measure", op.qubit + off, op.basis, extra)
        if self.kind == RESET:
            return ("reset", op.qubit + off, bool(op.record))
        if self.kind == BARRIER:
            return ("barrier",) + self.qubits
        # BLOCK: identity is the block's own flattened content
        from repro.ir.lower import lower

        return ("block", self.qubits, op.block_label) + tuple(
            sub.signature()
            for sub in lower(op, base_offset=self.offset)
        )

    def __repr__(self) -> str:
        name = KIND_NAMES.get(self.kind, "?")
        src = type(self.op).__name__
        return f"IROp({name} {src} on {self.qubits})"


class IRProgram:
    """A lowered circuit: register width + ordered :class:`IROp` s.

    Programs are immutable; passes produce new programs via
    :meth:`replace_ops`.  ``passes`` records the pipeline that produced
    this program (``()`` for a raw lowering).
    """

    __slots__ = (
        "nb_qubits", "ops", "passes", "_signature_cache",
        "_parameters_cache",
    )

    def __init__(
        self,
        nb_qubits: int,
        ops: tuple,
        passes: tuple = (),
    ):
        self.nb_qubits = int(nb_qubits)
        self.ops = tuple(ops)
        self.passes = tuple(passes)
        self._signature_cache = None
        self._parameters_cache = None

    def __iter__(self) -> Iterator[IROp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, index):
        return self.ops[index]

    def flat(self) -> Iterator[Tuple[object, int]]:
        """The legacy ``(source op, absolute offset)`` view."""
        return ((irop.op, irop.offset) for irop in self.ops)

    def replace_ops(self, ops, pass_name: Optional[str] = None) -> "IRProgram":
        """A new program with ``ops``; appends ``pass_name`` to history."""
        passes = self.passes + ((pass_name,) if pass_name else ())
        return IRProgram(self.nb_qubits, tuple(ops), passes)

    def gate_counts(self) -> Counter:
        """Count ops by source class name (blocks counted recursively)."""
        from repro.ir.lower import lower

        counts: Counter = Counter()
        for irop in self.ops:
            if irop.kind == BLOCK:
                counts.update(lower(irop.op).gate_counts())
            else:
                counts[type(irop.op).__name__] += 1
        return counts

    def parameters(self) -> tuple:
        """Distinct unbound :class:`~repro.parameter.Parameter` slots in
        first-appearance order (blocks walked recursively).

        Cached per :func:`~repro.gates.base.mutation_epoch` — a pushed
        gate can take on a slot in place (an in-place ``fuse`` with a
        symbolic gate), which bumps the epoch and invalidates the
        cache."""
        from repro.gates.base import mutation_epoch
        from repro.ir.lower import lower

        epoch = mutation_epoch()
        cached = self._parameters_cache
        if cached is not None and cached[0] == epoch:
            return cached[1]
        seen: dict = {}
        for irop in self.ops:
            if irop.kind == BLOCK:
                for p in lower(
                    irop.op, base_offset=irop.offset
                ).parameters():
                    seen.setdefault(p, None)
            else:
                expr = irop.parameter_expression
                if expr is not None:
                    seen.setdefault(expr.parameter, None)
        params = tuple(seen)
        self._parameters_cache = (epoch, params)
        return params

    def signature(self) -> tuple:
        """Structural signature: width + every op's signature.

        Equal signatures guarantee identical semantics.  The program is
        immutable but the *gates* it points at are mutable handles, so
        the result cannot be cached unconditionally: the two in-place
        mutation paths (the ``qubit`` setters behind ``setQubit`` and
        the in-place ``fuse`` of the parametric gates) bump the global
        :func:`~repro.gates.base.mutation_epoch`, and the walk is
        recomputed whenever the epoch moved — the plan cache and the
        pass-pipeline cache still notice those mutations, while
        signature-stable workloads (parametric ``bind()`` loops) pay
        the walk once."""
        from repro.gates.base import mutation_epoch

        epoch = mutation_epoch()
        cached = self._signature_cache
        if cached is not None and cached[0] == epoch:
            return cached[1]
        parts = [("n", self.nb_qubits)]
        for irop in self.ops:
            parts.append(irop.signature())
        sig = tuple(parts)
        self._signature_cache = (epoch, sig)
        return sig

    def to_circuit(self):
        """Materialize a flat :class:`~repro.circuit.QCircuit`.

        Every element is copied through its ``shifted`` protocol, so
        the result shares no mutable state with the source circuit.
        ``BLOCK`` ops have no shifted form and must be expanded first
        (the ``flatten`` pass)."""
        from repro.circuit.circuit import QCircuit

        out = QCircuit(self.nb_qubits)
        for irop in self.ops:
            if irop.kind == BLOCK:
                raise IRError(
                    "cannot materialize a program containing BLOCK ops; "
                    "run the 'flatten' pass first"
                )
            out.push_back(irop.shifted_op())
        return out

    def __repr__(self) -> str:
        tail = f", passes={list(self.passes)!r}" if self.passes else ""
        return (
            f"IRProgram(nbQubits={self.nb_qubits}, "
            f"nbOps={len(self.ops)}{tail})"
        )
