"""IR passes and the :class:`PassManager` pipeline.

A *pass* maps an :class:`~repro.ir.IRProgram` to a new program.  The
built-in registry mirrors (and now backs) the historical
:mod:`repro.transforms` peephole optimizer:

``flatten``
    Expand ``BLOCK`` ops (sub-circuits kept whole by a
    ``expand='blocks'`` lowering) into their contents.
``fuse_rotations``
    Merge adjacent same-axis rotation/phase gates on the stable
    ``(cos, sin)`` representation.
``cancel_inverses``
    Drop adjacent gate pairs whose product is the identity.
``fuse_1q`` (alias ``merge_single_qubit_runs``)
    Collapse adjacent one-qubit gates into a single ``U3``.
``coalesce_diagonals``
    Merge runs of diagonal gates into one diagonal
    :class:`~repro.gates.MatrixGate` while the qubit union stays small.
``inject_noise``
    Attach :class:`~repro.noise.NoiseChannel` refs from a
    :class:`~repro.noise.NoiseModel` to each gate op (consumed by the
    trajectory runner).

Adjacency uses the same dataflow rule as the historical transforms:
two ops may combine only when every qubit of the later one last saw
the earlier one — measurements, resets, barriers and blocks are opaque
"last touchers" nothing combines across.

:class:`PassManager` runs an ordered pipeline with an observability
span per pass, plus a per-circuit pipeline cache validated by the
program's structural signature (lowering itself is cached by the
circuit revision counter, see :func:`repro.ir.lower.lower`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import GateError
from repro.gates.base import MAX_DIAG_QUBITS, QGate, folded_diag
from repro.gates.parametric import Phase, RotationGate1, RotationGate2
from repro.ir.lower import lower, make_ir_op
from repro.ir.program import BLOCK, GATE, IRError, IROp, IRProgram
from repro.observability.instrument import current_instrumentation
from repro.observability.metrics import (
    IR_PASS_RUNS,
    IR_PIPELINE_CACHE_HITS,
    IR_PIPELINE_CACHE_MISSES,
)
from repro.utils.linalg import expand_diag

__all__ = [
    "PassManager",
    "available_passes",
    "register_pass",
    "flatten_blocks",
    "fuse_rotations",
    "cancel_inverses",
    "merge_single_qubit_runs",
    "coalesce_diagonals",
    "InjectNoise",
]

# -- the adjacency engine ----------------------------------------------------


def _adjacent_pairs(program: IRProgram, combine, pass_name: str) -> IRProgram:
    """Shared engine: walk the op stream tracking, per qubit, the last
    op touching it; ``combine(prev, cur)`` (both :class:`IROp` gate
    records on identical absolute qubit tuples) may return a
    replacement list of new ``QObject`` s at absolute qubits."""
    ops: List[Optional[IROp]] = []
    last_touch: dict = {}  # absolute qubit -> index into ops

    for irop in program.ops:
        qubits = irop.qubits
        merged = False
        if irop.kind == GATE:
            prev_indices = {last_touch.get(q) for q in qubits}
            if len(prev_indices) == 1 and None not in prev_indices:
                (idx,) = prev_indices
                prev = ops[idx]
                if (
                    prev is not None
                    and prev.kind == GATE
                    and prev.qubits == qubits
                ):
                    replacement = combine(prev, irop)
                    if replacement is not None:
                        ops[idx] = None
                        for q in qubits:
                            last_touch.pop(q, None)
                        for new_op in replacement:
                            new_ir = make_ir_op(new_op, 0)
                            ops.append(new_ir)
                            for q in new_ir.qubits:
                                last_touch[q] = len(ops) - 1
                        merged = True
        if not merged:
            ops.append(irop)
            for q in qubits:
                last_touch[q] = len(ops) - 1

    return program.replace_ops(
        [op for op in ops if op is not None], pass_name
    )


# -- built-in passes ---------------------------------------------------------


def flatten_blocks(program: IRProgram) -> IRProgram:
    """Expand ``BLOCK`` ops into their flattened contents."""
    if not any(irop.kind == BLOCK for irop in program.ops):
        return program.replace_ops(program.ops, "flatten")
    ops: List[IROp] = []
    for irop in program.ops:
        if irop.kind == BLOCK:
            ops.extend(lower(irop.op, base_offset=irop.offset).ops)
        else:
            ops.append(irop)
    return program.replace_ops(ops, "flatten")


def _fuse_rotations_combine(drop_identity: bool = True):
    """The ``fuse_rotations`` combine rule, parameterized on whether
    fused identity-angle gates are dropped."""

    def combine(prev: IROp, cur: IROp):
        fusable = (RotationGate1, RotationGate2, Phase)
        if not isinstance(prev.op, fusable) or type(prev.op) is not type(
            cur.op
        ):
            return None
        fused = prev.shifted_op()  # fresh absolute copy; fuse mutates
        try:
            fused.fuse(cur.shifted_op())
        except GateError:
            # symbolic rotations over *distinct* parameter slots have no
            # single-slot affine sum; leave the pair untouched
            return None
        if drop_identity and _is_identity_rotation(fused):
            return []
        return [fused]

    return combine


def fuse_rotations(program: IRProgram) -> IRProgram:
    """Merge adjacent same-axis rotation/phase gates stably.

    ``RX(a) RX(b) -> RX(a+b)`` (likewise RY/RZ/RXX/RYY/RZZ/Phase), with
    the sum evaluated on the ``(cos, sin)`` representation.  Fused
    gates whose angle becomes the identity are dropped.
    """
    return _adjacent_pairs(
        program, _fuse_rotations_combine(), "fuse_rotations"
    )


def _is_identity_rotation(gate) -> bool:
    if not gate.is_bound:
        # a symbolic angle has no value; never drop the gate
        return False
    if isinstance(gate, Phase):
        a = gate.angle
        return abs(a.cos - 1.0) < 1e-14 and abs(a.sin) < 1e-14
    rot = gate.rotation
    return abs(rot.cos - 1.0) < 1e-14 and abs(rot.sin) < 1e-14


def cancel_inverses(program: IRProgram) -> IRProgram:
    """Remove adjacent gate pairs whose product is the identity.

    Covers self-inverse gates (H, X, CNOT, SWAP, ...) and explicit
    inverse pairs (S/S†, T/T†, any gates whose matrices multiply to I).
    Only small gates (up to 3 qubits) are checked, by dense product.
    """

    def combine(prev: IROp, cur: IROp):
        if not isinstance(prev.op, QGate) or not isinstance(cur.op, QGate):
            return None
        if not (prev.is_bound and cur.is_bound):
            return None  # unbound slots have no matrix to multiply
        if prev.op.nbQubits > 3:
            return None
        product = cur.op.matrix @ prev.op.matrix
        if np.allclose(product, np.eye(product.shape[0]), atol=1e-12):
            return []
        return None

    return _adjacent_pairs(program, combine, "cancel_inverses")


def merge_single_qubit_runs(program: IRProgram) -> IRProgram:
    """Collapse adjacent one-qubit gates into a single ``U3``.

    The run's product is re-synthesized through the numerically robust
    ZYZ extraction of :func:`repro.io.qasm_export.u3_params`; the
    global phase is dropped (unobservable for an uncontrolled gate).
    Runs that multiply to the identity disappear entirely.
    """
    from repro.gates import U3
    from repro.io.qasm_export import u3_params

    def combine(prev: IROp, cur: IROp):
        if not (
            isinstance(prev.op, QGate)
            and isinstance(cur.op, QGate)
            and prev.op.nbQubits == 1
            and cur.op.nbQubits == 1
        ):
            return None
        if not (prev.is_bound and cur.is_bound):
            return None  # a symbolic rotation cannot collapse into U3
        product = cur.op.matrix @ prev.op.matrix
        theta, phi, lam, _alpha = u3_params(product)
        wrapped = (phi + lam) % (2 * np.pi)
        if abs(theta) < 1e-14 and min(wrapped, 2 * np.pi - wrapped) < 1e-12:
            return []
        return [U3(cur.qubits[0], theta, phi, lam)]

    return _adjacent_pairs(program, combine, "fuse_1q")


def coalesce_diagonals(program: IRProgram) -> IRProgram:
    """Merge runs of diagonal gates into single diagonal
    :class:`~repro.gates.MatrixGate` s.

    Diagonal gates commute with each other and with any gate on
    disjoint qubits, so a run may extend past disjoint non-diagonal
    gates; it is flushed by measurements, resets, barriers, blocks, or
    a non-diagonal gate sharing a qubit.  Runs merge only while the
    qubit union stays within ``MAX_DIAG_QUBITS``.
    """
    from repro.gates import MatrixGate

    ops: List[IROp] = []
    pending: List[IROp] = []
    pending_qubits: set = set()

    def flush():
        nonlocal pending, pending_qubits
        if len(pending) < 2:
            ops.extend(pending)
        else:
            union = tuple(sorted(pending_qubits))
            diag = np.ones(1 << len(union), dtype=np.complex128)
            for irop in pending:
                qs, d = folded_diag(
                    irop.kernel(), irop.targets, irop.controls,
                    irop.control_states,
                )
                diag = diag * expand_diag(d, qs, union, np.complex128)
            merged = MatrixGate(union, np.diag(diag), label="D")
            ops.append(make_ir_op(merged, 0))
        pending = []
        pending_qubits = set()

    for irop in program.ops:
        if irop.kind == GATE and irop.is_diagonal and irop.is_bound:
            union = pending_qubits | set(irop.qubits)
            if len(union) > MAX_DIAG_QUBITS:
                flush()
                union = set(irop.qubits)
            pending.append(irop)
            pending_qubits = union
            continue
        if (
            irop.kind == GATE
            and pending
            and not (set(irop.qubits) & pending_qubits)
        ):
            # disjoint non-diagonal gate: the pending diagonals commute
            # past it, so emit it now and keep the run open
            ops.append(irop)
            continue
        flush()
        ops.append(irop)
    flush()
    return program.replace_ops(ops, "coalesce_diagonals")


class InjectNoise:
    """Attach per-gate noise channels from a
    :class:`~repro.noise.NoiseModel` to the program's gate ops.

    Produces a program whose gate :class:`IROp` s carry
    ``channel`` refs (``None`` when the model assigns no or identity
    noise); the trajectory runner samples one Kraus operator per
    noisy qubit after applying each such gate.
    """

    name = "inject_noise"

    def __init__(self, model):
        self.model = model

    def __call__(self, program: IRProgram) -> IRProgram:
        model = self.model
        ops = []
        changed = False
        for irop in program.ops:
            channel = (
                model.channel_for(irop.op) if irop.kind == GATE else None
            )
            if channel is not None and channel.is_identity:
                channel = None
            if channel is None:
                ops.append(irop)
                continue
            changed = True
            ops.append(
                IROp(
                    irop.kind, irop.op, irop.offset, irop.qubits,
                    irop.targets, irop.controls, irop.control_states,
                    condition=irop.condition, channel=channel,
                )
            )
        if not changed:
            return program.replace_ops(program.ops, self.name)
        return program.replace_ops(ops, self.name)


# -- registry and manager -----------------------------------------------------

_REGISTRY: Dict[str, Callable[[IRProgram], IRProgram]] = {}


def register_pass(name: str, fn: Callable[[IRProgram], IRProgram]) -> None:
    """Register a named pass for :class:`PassManager` pipelines."""
    _REGISTRY[str(name)] = fn


def available_passes() -> tuple:
    """Sorted names of all registered passes."""
    return tuple(sorted(_REGISTRY))


register_pass("flatten", flatten_blocks)
register_pass("fuse_rotations", fuse_rotations)
register_pass("cancel_inverses", cancel_inverses)
register_pass("fuse_1q", merge_single_qubit_runs)
register_pass("merge_single_qubit_runs", merge_single_qubit_runs)
register_pass("coalesce_diagonals", coalesce_diagonals)


class PassManager:
    """An ordered, named pass pipeline over :class:`IRProgram` s.

    Parameters
    ----------
    passes:
        A sequence of registry names (``'fuse_rotations'``), pass
        instances with a ``name`` attribute (:class:`InjectNoise`), or
        bare callables.

    :meth:`run` applies the pipeline to a program, recording an
    ``ir.pipeline`` span with one nested ``ir.pass.<name>`` span per
    pass when instrumentation is ambient.  :meth:`run_on` lowers a
    circuit first and memoizes the pipeline result on the circuit,
    validated by the program's structural signature (so gate parameter
    mutations — which never bump the revision counter — still
    invalidate correctly).
    """

    def __init__(self, passes=()):
        self._passes = []
        for p in passes:
            if isinstance(p, str):
                if p not in _REGISTRY:
                    raise IRError(
                        f"unknown pass {p!r}; available: "
                        f"{list(available_passes())}"
                    )
                self._passes.append((p, _REGISTRY[p]))
            elif callable(p):
                self._passes.append(
                    (getattr(p, "name", getattr(p, "__name__", "pass")), p)
                )
            else:
                raise IRError(
                    f"pass must be a registry name or callable, got "
                    f"{type(p).__name__}"
                )

    @property
    def pass_names(self) -> tuple:
        """Names of the pipeline's passes, in run order."""
        return tuple(name for name, _fn in self._passes)

    def _cache_key(self):
        """Pipeline identity for the per-circuit cache; ``None`` when
        any stage is an anonymous callable (uncacheable)."""
        parts = []
        for name, fn in self._passes:
            if fn in _REGISTRY.values():
                parts.append(name)
            else:
                # parameterized/anonymous stages (InjectNoise, ad-hoc
                # callables) are uncacheable: their identity says
                # nothing about their output and their parameters may
                # mutate between runs
                return None
        return tuple(parts)

    def run(self, program: IRProgram) -> IRProgram:
        """Apply every pass in order and return the final program."""
        inst = current_instrumentation()
        if not inst.enabled:
            for _name, fn in self._passes:
                program = fn(program)
            return program
        runs = inst.metrics.counter(
            IR_PASS_RUNS, "IR pass executions"
        )
        with inst.span(
            "ir.pipeline", passes=list(self.pass_names)
        ) as sp:
            nb_in = len(program)
            for name, fn in self._passes:
                with inst.span("ir.pass." + name, ops_in=len(program)) as p:
                    program = fn(program)
                    p.set(ops_out=len(program))
                runs.inc(**{"pass": name})
            sp.set(ops_in=nb_in, ops_out=len(program))
            return program

    def run_on(self, circuit, expand: str = "all") -> IRProgram:
        """Lower ``circuit`` and run the pipeline, with caching.

        The result is memoized on the circuit keyed by the pipeline
        identity; a cached entry is reused only when the freshly
        lowered program's structural signature still matches (the
        lowering itself is revision-cached, so an unchanged circuit
        costs one signature walk)."""
        program = lower(circuit, expand)
        key = self._cache_key()
        if key is None:
            return self.run(program)
        key = (key, expand)
        sig = program.signature()
        inst = current_instrumentation()
        cache = getattr(circuit, "_ir_pipeline_cache", None)
        if cache is not None:
            entry = cache.get(key)
            if entry is not None and entry[0] == sig:
                if inst.enabled:
                    inst.metrics.counter(
                        IR_PIPELINE_CACHE_HITS, "IR pipeline cache hits"
                    ).inc()
                return entry[1]
        if inst.enabled:
            inst.metrics.counter(
                IR_PIPELINE_CACHE_MISSES, "IR pipeline cache misses"
            ).inc()
        result = self.run(program)
        if cache is None:
            cache = {}
            try:
                circuit._ir_pipeline_cache = cache
            except AttributeError:
                return result
        cache[key] = (sig, result)
        return result

    def __repr__(self) -> str:
        return f"PassManager({list(self.pass_names)!r})"
