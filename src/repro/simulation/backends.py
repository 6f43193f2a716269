"""Interchangeable gate-application backends.

Two engines implement the same :class:`Backend` interface, the split
the paper draws between QCLAB and QCLAB++:

``SparseKronBackend``
    The paper's reference algorithm (Section 3.2): build the sparse
    extended operator ``I_l (x) U (x) I_r`` (generalized to non-adjacent
    and controlled gates) and multiply it with the state vector.  This
    is exactly what QCLAB does in MATLAB.

``KernelBackend``
    The QCLAB++-style optimized engine (the default): it never
    materializes a register operator and precomputes no index tables.
    Uncontrolled gates on at most four contiguous qubits (one-qubit
    gates and the dense blocks plan fusion builds) run as one GEMM or
    one broadcast matmul on a strided view of the state; diagonal and
    other gates slice the ``(2,)*n`` view at the control values and
    act on the target axes only.

All backends accept states of shape ``(dim,)`` or batches ``(dim, m)``
(the latter powers :attr:`QCircuit.matrix`).  Backends may modify the
input array in place and/or return a new array; callers must use the
**returned** array and pass owned storage.

:meth:`Backend.apply_planned`, :meth:`Backend.apply_planned_batched`
and :meth:`Backend.apply_planned_sweep` take an ``out=`` scratch
buffer: the dispatch loops always pass one and double-buffer two
arrays for a whole run.  ``kernel`` writes its result into ``out``
when it needs a second buffer at all; ``sparse`` ignores it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SimulationError
from repro.gates.base import controlled_matrix
from repro.utils.bits import insert_bits

__all__ = [
    "Backend",
    "KernelBackend",
    "SparseKronBackend",
    "get_backend",
    "default_backend",
    "available_backends",
    "register_backend",
    "register_engine",
    "get_engine",
]


class Backend(ABC):
    """Applies gate kernels to state vectors."""

    #: Registry name; subclasses override.
    name = "abstract"

    #: Engine-registry kind for gate-apply backends.
    kind = "statevector"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the replay loop applies gate steps through the batched hook:
        # a subclass overriding only the one-state hook gets the row
        # loop, so its override still runs on every row
        if (
            "apply_planned" in cls.__dict__
            and "apply_planned_batched" not in cls.__dict__
        ):
            cls.apply_planned_batched = Backend.apply_planned_batched

    @abstractmethod
    def apply(
        self,
        state: np.ndarray,
        kernel: np.ndarray,
        targets: Sequence[int],
        nb_qubits: int,
        controls: Sequence[int] = (),
        control_states: Sequence[int] = (),
        diagonal: bool = False,
    ) -> np.ndarray:
        """Apply ``kernel`` on ``targets`` (ascending absolute qubits),
        restricted to the subspace where each control qubit holds its
        control state.  ``diagonal=True`` promises the kernel is
        diagonal, enabling in-place fast paths."""

    # -- compiled-plan hooks ------------------------------------------------

    def planned_bytes(self, step, states, nb_qubits: int) -> int:
        """Approximate bytes read+written by one application of
        ``step`` to ``states`` (a ``(dim,)`` state or ``(B, dim)``
        batch).

        Feeds the per-op cost-attribution table
        (:meth:`repro.observability.ProfileReport.op_table`); the
        default assumes the whole state is streamed in and out once.
        """
        return 2 * states.nbytes

    def apply_planned(self, state, step, nb_qubits: int, out=None):
        """Apply one compiled gate step (see
        :class:`repro.simulation.plan.PlanStep`).

        The default delegates to :meth:`apply` with the step's
        pre-resolved absolute qubits and dtype-cast kernel.

        ``out`` is a preallocated scratch buffer (same shape and dtype
        as ``state``) or ``None``.  The returned array must be
        ``state``, ``out`` or a fresh allocation, and the result must
        be correct even when ``out`` aliases or overlaps ``state``.
        The base implementation ignores ``out``.
        """
        return self.apply(
            state,
            step.kernel,
            step.targets,
            nb_qubits,
            controls=step.controls,
            control_states=step.control_states,
            diagonal=step.diagonal,
        )

    # -- batched (trajectory-ensemble) hooks --------------------------------
    #
    # A batch is ``B`` independent state vectors stacked on a leading
    # axis, shape ``(B, 2**nb_qubits)`` — the row stack every plan
    # replay runs on (:func:`repro.execution.dispatch.run_plan`:
    # statevector branches, trajectory shots, sweep points).  The
    # defaults loop over the batch rows; vectorized backends override
    # them to execute each kernel ONCE across the whole batch.

    def apply_batched(
        self,
        states: np.ndarray,
        kernel: np.ndarray,
        targets: Sequence[int],
        nb_qubits: int,
        controls: Sequence[int] = (),
        control_states: Sequence[int] = (),
        diagonal: bool = False,
    ) -> np.ndarray:
        """Apply ``kernel`` to every row of a ``(B, 2**n)`` batch.

        Semantics per row match :meth:`apply`; the batch may be
        modified in place and/or a new array returned — callers use
        the **returned** array.
        """
        self._validate_batch(states, nb_qubits)
        for i in range(states.shape[0]):
            states[i] = self.apply(
                states[i], kernel, targets, nb_qubits,
                controls=controls, control_states=control_states,
                diagonal=diagonal,
            )
        return states

    def apply_planned_batched(
        self, states: np.ndarray, step, nb_qubits: int, out=None
    ) -> np.ndarray:
        """Apply one compiled gate step to a ``(B, 2**n)`` batch.

        The default loops :meth:`apply_planned` over the rows;
        vectorized backends execute the step once across the batch.
        The loop reuses ONE scratch row (the first row of ``out`` when
        given, a single fresh row otherwise) as every row apply's
        ``out``, and rows whose apply ran in place skip the redundant
        self-assignment.
        """
        self._validate_batch(states, nb_qubits)
        if out is not None and out is not states:
            row = out[0]
        else:
            row = np.empty_like(states[0])
        for i in range(states.shape[0]):
            src = states[i]
            res = self.apply_planned(src, step, nb_qubits, out=row)
            if res is not src:
                states[i] = res
        return states

    # -- parameter-axis (sweep) hooks ---------------------------------------
    #
    # A sweep batch is ``P`` parameter points stacked on a leading
    # axis, shape ``(P, 2**nb_qubits)``, with ``kernels`` holding one
    # kernel PER ROW, shape ``(P, 2**k, 2**k)`` — unlike the batched
    # hooks above, where one kernel serves every row.

    def apply_planned_sweep(
        self, states: np.ndarray, step, nb_qubits: int,
        kernels: np.ndarray, out=None,
    ) -> np.ndarray:
        """Apply a parametric plan step with per-row kernels across a
        ``(P, 2**n)`` parameter batch.

        ``kernels[i]`` is the dtype-cast target kernel for row ``i``
        (controls/targets/diagonality come from ``step``); ``out`` is
        a scratch buffer as in :meth:`apply_planned`.  The default
        loops :meth:`apply` per row and ignores ``out``; vectorized
        backends contract the whole kernel stack at once.
        """
        self._validate_batch(states, nb_qubits)
        for i in range(states.shape[0]):
            states[i] = self.apply(
                states[i], kernels[i], step.targets, nb_qubits,
                controls=step.controls,
                control_states=step.control_states,
                diagonal=step.diagonal,
            )
        return states

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def _validate_batch(states: np.ndarray, nb_qubits: int) -> None:
        if states.ndim != 2 or states.shape[1] != (1 << nb_qubits):
            raise SimulationError(
                f"batch must have shape (B, {1 << nb_qubits}), got "
                f"{states.shape}"
            )

    @staticmethod
    def _as_2d(state: np.ndarray):
        """View the state as ``(dim, m)``; returns (view, original shape)."""
        shape = state.shape
        if state.ndim == 1:
            return state.reshape(-1, 1), shape
        if state.ndim == 2:
            return state, shape
        raise SimulationError(
            f"state must be 1- or 2-dimensional, got shape {shape}"
        )

    @staticmethod
    def _validate(kernel, targets, nb_qubits, controls, control_states):
        t = len(targets)
        if kernel.shape != (1 << t, 1 << t):
            raise SimulationError(
                f"kernel shape {kernel.shape} does not match "
                f"{t} target qubit(s)"
            )
        if len(controls) != len(control_states):
            raise SimulationError(
                "controls and control_states must have equal length"
            )
        seen = set()
        for q in list(targets) + list(controls):
            if not 0 <= q < nb_qubits:
                raise SimulationError(
                    f"qubit {q} out of range for {nb_qubits} qubit(s)"
                )
            if q in seen:
                raise SimulationError(f"duplicate qubit {q} in gate")
            seen.add(q)
        if list(targets) != sorted(targets):
            raise SimulationError("targets must be sorted ascending")


# -- the kernel engine -------------------------------------------------------
#
# Every apply of :class:`KernelBackend` runs through :func:`_run` on a
# ``(B, 2**n, M)`` array: ``B`` stacked states (1 for a single run, the
# batch or sweep width otherwise) and ``M`` trailing matrix columns (1
# except for the ``(dim, m)`` form behind ``QCircuit.matrix``).  A
# row's arithmetic never depends on ``B``, so a batched run is
# bit-identical to the same rows run one at a time.

#: Widest ``kron(U, I_right)`` operator a dense step on ``k`` qubits
#: runs GEMMs against (``2**k`` times the amplitudes right of its
#: targets, times ``M``); wider steps run a broadcast matmul over
#: contiguous ``(2**k, cols)`` panels instead.
GEMM_MAX_WIDTH = 32

#: Upper bound on ``M*N*K`` of one BLAS call.  Larger calls are split
#: into stacks: OpenBLAS hands calls above about ``2**16`` to its worker
#: threads, and on a loaded host a call can then wait milliseconds for
#: a worker instead of microseconds for the arithmetic.
BLAS_MAX_WORK = 1 << 15

#: Widest contiguous uncontrolled step :func:`_dense` applies as one
#: dense product; plan fusion grows blocks up to this width.
MAX_BLOCK_QUBITS = 4


def _chunk(size, cap):
    """Length of the stacks that split ``size`` GEMM rows or panel
    columns into BLAS calls of at most ``cap``: ``size`` itself when it
    fits, else the largest power of two that divides ``size`` and does
    not exceed ``cap`` (at least 1).  ``size`` is a power of two times
    the column count, which need not be a power of two."""
    if size <= cap:
        return size
    return math.gcd(size, 1 << (max(cap, 1).bit_length() - 1))


def _stacked(arr, batched: bool):
    """``(B, 2**n, M)`` C-contiguous view of a state, matrix or batch
    (a copy when ``arr`` is not C-contiguous)."""
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    shape = arr.shape
    if batched:
        return arr.reshape(shape[0], shape[1], 1)
    if len(shape) == 1:
        return arr.reshape(1, shape[0], 1)
    if len(shape) == 2:
        return arr.reshape(1, shape[0], shape[1])
    raise SimulationError(
        f"state must be 1- or 2-dimensional, got shape {shape}"
    )


def _scratch(out, arr, stack):
    """``out`` viewed like ``stack`` (the stacked ``arr``), or ``None``
    when it cannot serve: absent, another layout, or overlapping."""
    if (
        out is None
        or out.shape != arr.shape
        or out.dtype != arr.dtype
        or not out.flags.c_contiguous
        or np.may_share_memory(out, arr)
    ):
        return None
    return out.reshape(stack.shape)


@lru_cache(maxsize=4096)
def _layout(nb_qubits, batch, cols, targets, controls, control_states):
    """Shapes and indices of one gate on a ``(B, 2**n, M)`` array.

    Returns ``(shape, index, blocks, diag_shape)``: ``shape`` views the
    array as ``(B, g0, 2, g1, 2, ..., g_last)`` with one size-2 axis
    per gate qubit and the spectators between them merged; ``index``
    slices that view at the control values; ``blocks`` index the
    slice at each target bit pattern, in kernel order (first target
    most significant); ``diag_shape`` broadcasts a diagonal over the
    slice's target axes (after a leading batch axis).
    """
    shape = [batch]
    axes = {}
    prev = -1
    for q in sorted(targets + controls):
        shape.append(1 << (q - prev - 1))
        axes[q] = len(shape)
        shape.append(2)
        prev = q
    shape.append((1 << (nb_qubits - 1 - prev)) * cols)
    index = [slice(None)] * len(shape)
    for q, s in zip(controls, control_states):
        index[axes[q]] = s
    kept = [a for a, i in enumerate(index) if isinstance(i, slice)]
    target_axes = [kept.index(axes[q]) for q in targets]
    k = len(targets)
    blocks = []
    for bits in range(1 << k):
        block = [slice(None)] * len(kept)
        for j, axis in enumerate(target_axes):
            block[axis] = (bits >> (k - 1 - j)) & 1
        blocks.append(tuple(block))
    diag_shape = tuple(
        2 if a in target_axes else 1 for a in range(1, len(kept))
    )
    return tuple(shape), tuple(index), tuple(blocks), diag_shape


def _cached(step, kernel, key, build):
    """``build()``, cached on ``step.aux`` for this kernel object and
    ``key``; a re-``bind`` swaps ``step.kernel`` and so rebuilds it.
    Without a step (unplanned and sweep applies) nothing is cached."""
    if step is None:
        return build()
    aux = step.aux
    if aux is not None and aux[0] == key and aux[1] is kernel:
        return aux[2]
    value = build()
    step.aux = (key, kernel, value)
    return value


def _run(states, kernel, targets, controls, control_states, diagonal,
         nb_qubits, out, step=None):
    """THE kernel-engine apply: ``kernel`` (``(2**k, 2**k)``, or a
    ``(B, 2**k, 2**k)`` stack with one kernel per row) on ``states``
    (``(B, 2**n, M)``, C-contiguous).  ``out`` is a disjoint buffer of
    the same shape or ``None``; ``step`` is the plan step being
    applied, if any, whose ``aux`` slot caches the kernel's derived
    operands.  Returns ``states`` (updated in place), ``out`` or a
    fresh array."""
    if diagonal:
        return _diagonal(
            states, kernel, targets, controls, control_states, nb_qubits,
            step,
        )
    k = len(targets)
    if not controls and k <= MAX_BLOCK_QUBITS and targets[-1] - targets[0] < k:
        return _dense(states, kernel, targets, out, step)
    return _subspace(
        states, kernel, targets, controls, control_states, nb_qubits, out,
        step,
    )


def _kron_operator(kernel, left, right):
    """``kron(I_left, U, I_right)^T``, one per row for a kernel stack."""
    lead, size = kernel.shape[:-2], kernel.shape[-1]
    op = np.zeros(lead + (left, size, right) * 2, dtype=kernel.dtype)
    # op[..., l, b, s, l, a, s] = U[..., a, b]: write the nonzeros
    # through a diagonal view instead of multiplying by identities
    np.einsum("...lbslas->...lbas", op)[...] = np.swapaxes(
        kernel, -1, -2
    )[..., None, :, :, None]
    return op.reshape(lead + (left * size * right,) * 2)


def _dense(states, kernel, targets, out, step):
    """Uncontrolled kernel on the contiguous targets ``targets[0]`` to
    ``targets[-1]``, written into ``out``."""
    batch, dim, cols = states.shape
    size = kernel.shape[-1]
    left = 1 << targets[0]
    right = dim * cols // (left * size)
    dest = np.empty_like(states) if out is None else out
    stacked = kernel.ndim == 3
    if size * right <= GEMM_MAX_WIDTH:
        # each (b, l) row of the state times kron(U, I_right)^T, in
        # GEMMs of ``rows`` contiguous rows; a state that fits one
        # operator folds its left block in too, so that it costs one
        # small GEMM rather than ``left`` tiny ones
        inner = left if left * size * right <= GEMM_MAX_WIDTH else 1
        width = inner * size * right
        rows = _chunk(left // inner, BLAS_MAX_WORK // (width * width))
        op = _cached(
            step, kernel, ("kron", inner, right),
            lambda: _kron_operator(kernel, inner, right),
        )
        shape = (batch, left // inner // rows, rows, width)
        np.matmul(
            states.reshape(shape), op[:, None] if stacked else op,
            out=dest.reshape(shape),
        )
        return dest
    # U times every (2**k, cols) panel of the (left, 2**k, right) view
    panel = _chunk(right, BLAS_MAX_WORK // (size * size))
    shape = (batch, left, size, right // panel, panel)
    np.matmul(
        kernel[:, None, None] if stacked else kernel,
        states.reshape(shape).swapaxes(2, 3),
        out=dest.reshape(shape).swapaxes(2, 3),
    )
    return dest


def _diagonal(states, kernel, targets, controls, control_states,
              nb_qubits, step):
    """Diagonal kernel: one in-place broadcast multiply of the
    control-matching slice by the diagonal on the target axes."""
    shape, index, _, diag_shape = _layout(
        nb_qubits, states.shape[0], states.shape[2], targets, controls,
        control_states,
    )
    diag = _cached(
        step, kernel, ("diag", diag_shape),
        lambda: kernel.diagonal(0, -2, -1).reshape(
            kernel.shape[:-2] + diag_shape
        ),
    )
    sub = states.reshape(shape)[index]
    np.multiply(sub, diag, out=sub)
    return states


def _terms(kernel):
    """Per kernel row, the ``(column, coefficient)`` pairs of its
    nonzero entries (``None`` coefficients for a kernel stack, whose
    entries differ per batch row)."""
    if kernel.ndim == 3:
        mask = (kernel != 0).any(axis=0).tolist()
        return [
            [(b, None) for b, nz in enumerate(row) if nz] for row in mask
        ]
    return [
        [(b, c) for b, c in enumerate(row) if c != 0]
        for row in kernel.tolist()
    ]


def _subspace(states, kernel, targets, controls, control_states,
              nb_qubits, out, step):
    """General (controlled and/or multi-target) kernel on the
    control-matching slice: each output block is the kernel row's
    combination of the input blocks, zero entries skipped and unit
    entries copied.

    Controlled gates update the slice in place from a copy kept in
    ``out``; uncontrolled ones write every block into ``out``.
    """
    shape, index, blocks, _ = _layout(
        nb_qubits, states.shape[0], states.shape[2], targets, controls,
        control_states,
    )
    view = states.reshape(shape)
    if controls:
        dst = view[index]
        flat = (
            np.empty(dst.size, dtype=dst.dtype) if out is None
            else out.reshape(-1)[: dst.size]
        )
        src = flat.reshape(dst.shape)
        np.copyto(src, dst)
        result = states
    else:
        src = view
        result = np.empty_like(states) if out is None else out
        dst = result.reshape(shape)
    ins = [src[b] for b in blocks]
    tmp = None
    rows = _cached(step, kernel, "terms", lambda: _terms(kernel))
    for a, (block, terms) in enumerate(zip((dst[b] for b in blocks), rows)):
        if not terms:
            block.fill(0)
            continue
        for i, (b, coef) in enumerate(terms):
            if coef is None:  # one coefficient per batch row
                coef = kernel[:, a, b].reshape(
                    (-1,) + (1,) * (block.ndim - 1)
                )
            elif coef == 1:  # a permutation entry: copy, never multiply
                if i == 0:
                    np.copyto(block, ins[b])
                else:
                    np.add(block, ins[b], out=block)
                continue
            if i == 0:
                np.multiply(ins[b], coef, out=block)
                continue
            if tmp is None:
                tmp = np.empty_like(block)
            np.multiply(ins[b], coef, out=tmp)
            np.add(block, tmp, out=block)
    return result


class KernelBackend(Backend):
    """QCLAB++-style table-free strided kernels (the optimized engine).

    Every public hook is a thin entry point that reshapes its input to
    ``(B, 2**n, M)`` and calls the one private routine, so single,
    batched and sweep applies share one code path.
    """

    name = "kernel"

    def apply(
        self,
        state,
        kernel,
        targets,
        nb_qubits,
        controls=(),
        control_states=(),
        diagonal=False,
    ):
        """Validated apply on a ``(dim,)`` state or ``(dim, m)``
        matrix of columns."""
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        return _apply(
            state, False, kernel, tuple(targets), tuple(controls),
            tuple(control_states), diagonal, nb_qubits,
        )

    def apply_batched(
        self,
        states,
        kernel,
        targets,
        nb_qubits,
        controls=(),
        control_states=(),
        diagonal=False,
    ):
        """Validated apply of one kernel across a ``(B, 2**n)`` batch."""
        self._validate_batch(states, nb_qubits)
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        return _apply(
            states, True, kernel, tuple(targets), tuple(controls),
            tuple(control_states), diagonal, nb_qubits,
        )

    def apply_planned(self, state, step, nb_qubits, out=None):
        """One compiled step on a ``(dim,)`` state (or ``(dim, m)``
        matrix), written into ``out`` where a second buffer helps."""
        return _apply(
            state, False, step.kernel, step.targets, step.controls,
            step.control_states, step.diagonal, nb_qubits, out, step,
        )

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """One compiled step across a ``(B, 2**n)`` batch."""
        self._validate_batch(states, nb_qubits)
        return _apply(
            states, True, step.kernel, step.targets, step.controls,
            step.control_states, step.diagonal, nb_qubits, out, step,
        )

    def apply_planned_sweep(self, states, step, nb_qubits, kernels,
                            out=None):
        """One parametric step with a per-row ``(P, 2**k, 2**k)``
        kernel stack across a ``(P, 2**n)`` parameter batch."""
        self._validate_batch(states, nb_qubits)
        return _apply(
            states, True, kernels, step.targets, step.controls,
            step.control_states, step.diagonal, nb_qubits, out,
        )


def _apply(arr, batched, kernel, targets, controls, control_states,
           diagonal, nb_qubits, out=None, step=None):
    """:func:`_run` on ``arr`` (a state or ``(dim, m)`` matrix, or a
    ``(B, dim)`` batch when ``batched``) with ``out`` as its scratch
    where it can serve.  Returns ``out`` itself when the result landed
    there, ``arr`` itself when it was updated in place, else the fresh
    result in ``arr``'s shape."""
    stack = _stacked(arr, batched)
    scratch = _scratch(out, arr, stack)
    res = _run(
        stack, np.asarray(kernel, dtype=stack.dtype), targets, controls,
        control_states, diagonal, nb_qubits, scratch, step,
    )
    if scratch is not None and res is scratch:
        return out
    if res is stack and arr.flags.c_contiguous:
        return arr
    return res.reshape(arr.shape)


class SparseKronBackend(Backend):
    """The paper's reference algorithm: sparse extended operators.

    For a gate kernel ``U'`` the backend materializes the sparse matrix
    ``U = I_l (x) U' (x) I_r`` (generalized via bit-deposit index
    construction so that non-adjacent qubit sets and controls work the
    same way) and computes ``U @ state``.
    """

    name = "sparse"

    @classmethod
    def _operator(cls, step, nb_qubits):
        """The step's extended operator, built on its first apply and
        cached on the step together with the kernel it was built from;
        a re-``bind`` swaps ``step.kernel`` and so rebuilds it."""
        return _cached(
            step, step.kernel, "sparse",
            lambda: cls.extended_operator(
                step.kernel, step.targets, nb_qubits, step.controls,
                step.control_states,
            ),
        )

    def planned_bytes(self, step, states, nb_qubits):
        """Full state in and out plus one pass over the sparse
        operator's stored entries."""
        nnz_bytes = (
            step.aux[2].data.nbytes
            if step.aux is not None and step.aux[0] == "sparse" else 0
        )
        return 2 * states.nbytes + nnz_bytes

    def apply_planned(self, state, step, nb_qubits, out=None):
        """One sparse matrix-vector product with the prebuilt
        extended operator."""
        state2d, shape = self._as_2d(state)
        op = self._operator(step, nb_qubits)
        res = np.asarray(op @ state2d, dtype=state2d.dtype)
        return res.reshape(shape)

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """One sparse multiply for the whole ``(B, 2**n)`` batch."""
        self._validate_batch(states, nb_qubits)
        op = self._operator(step, nb_qubits)
        res = np.asarray(op @ states.T, dtype=states.dtype)
        return np.ascontiguousarray(res.T)

    def apply_batched(
        self,
        states,
        kernel,
        targets,
        nb_qubits,
        controls=(),
        control_states=(),
        diagonal=False,
    ):
        """Build the extended sparse operator and multiply it against
        the whole batch at once (as the columns of ``states.T``)."""
        self._validate_batch(states, nb_qubits)
        out = self.apply(
            states.T, kernel, targets, nb_qubits, controls, control_states
        )
        return np.ascontiguousarray(out.T)

    def apply(
        self,
        state,
        kernel,
        targets,
        nb_qubits,
        controls=(),
        control_states=(),
        diagonal=False,
    ):
        """Apply via ``extended_operator(...) @ state`` — the paper's
        reference sparse-Kronecker algorithm."""
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        state2d, shape = self._as_2d(state)
        kernel = np.asarray(kernel, dtype=state2d.dtype)
        op = self.extended_operator(
            kernel, targets, nb_qubits, controls, control_states
        )
        out = np.asarray(op @ state2d, dtype=state2d.dtype)
        return out.reshape(shape)

    @staticmethod
    def extended_operator(
        kernel,
        targets,
        nb_qubits,
        controls=(),
        control_states=(),
    ) -> sp.csr_matrix:
        """Build the full-register sparse operator for a gate.

        Controls are folded into the kernel (projector expansion), then
        every nonzero kernel entry ``(a, b)`` is deposited at the
        ``2**(n-k)`` register index pairs that agree on the spectator
        qubits — exactly the sparse ``I_l (x) U (x) I_r`` of the paper,
        generalized to arbitrary qubit subsets.  The register indices
        of each kernel index are built once and gathered per entry.
        """
        if controls:
            qubits_all = sorted(list(targets) + list(controls))
            full_kernel = controlled_matrix(
                kernel, qubits_all, list(controls), list(control_states),
                list(targets),
            )
        else:
            qubits_all = sorted(targets)
            full_kernel = kernel
        k = len(qubits_all)
        positions = [nb_qubits - 1 - q for q in qubits_all]
        coo = sp.coo_matrix(full_kernel)
        rest = np.arange(1 << (nb_qubits - k), dtype=np.int64)
        # register[a]: the register indices of kernel index a
        register = np.empty((1 << k, rest.size), dtype=np.int64)
        for a in range(1 << k):
            register[a] = insert_bits(
                rest, positions, [(a >> (k - 1 - j)) & 1 for j in range(k)]
            )
        rows = register[coo.row].ravel()
        cols = register[coo.col].ravel()
        vals = np.repeat(coo.data.astype(np.complex128), rest.size)
        dim = 1 << nb_qubits
        return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


#: Gate-apply (statevector) backends, name -> Backend subclass.
_REGISTRY: dict = {}

#: All simulation engines in one namespace, name -> descriptor dict
#: with keys ``kind`` (``'statevector'``, ``'density'``, ``'mps'``,
#: ``'stabilizer'``, ...) and ``entry`` (class or entry-point callable).
_ENGINES: dict = {}


def register_backend(cls=None, *, name: str = None):
    """Class decorator registering a gate-apply :class:`Backend`.

    Usage::

        @register_backend
        class MyBackend(Backend):
            name = "mine"
            def apply(self, ...): ...

    The backend becomes resolvable by name through
    :func:`get_backend` and is listed by :func:`available_backends`.
    Registering an existing name replaces it (latest wins), so users
    can shadow the built-ins.
    """

    def _register(klass):
        if not (isinstance(klass, type) and issubclass(klass, Backend)):
            raise SimulationError(
                "register_backend requires a Backend subclass, got "
                f"{klass!r}"
            )
        key = (name or klass.name or "").lower()
        if not key or key == "abstract":
            raise SimulationError(
                f"backend class {klass.__name__} needs a non-empty "
                "'name' attribute"
            )
        _REGISTRY[key] = klass
        _ENGINES[key] = {"kind": "statevector", "entry": klass}
        return klass

    if cls is None:
        return _register
    return _register(cls)


def register_engine(name: str, kind: str, entry) -> None:
    """Register a non-gate-apply simulation engine (density, MPS,
    stabilizer, ...) under the shared backend namespace.

    ``entry`` is the engine's entry point — typically its
    ``simulate_*`` function; retrieve it with :func:`get_engine`.
    """
    _ENGINES[str(name).lower()] = {"kind": str(kind), "entry": entry}


def get_engine(name: str):
    """The entry point registered for an engine name (any kind)."""
    try:
        return _ENGINES[str(name).lower()]["entry"]
    except KeyError:
        raise SimulationError(
            f"unknown engine {name!r}; available: {available_backends()}"
        ) from None


register_backend(KernelBackend)
register_backend(SparseKronBackend)

_DEFAULT = KernelBackend()


def available_backends(kind: str = None) -> tuple:
    """Names of registered engines.

    ``kind=None`` lists every engine in the unified namespace
    (statevector gate-apply backends plus the density, MPS and
    stabilizer engines once :mod:`repro.simulation` is imported);
    ``kind='statevector'`` restricts to gate-apply backends, and any
    other kind filters accordingly.
    """
    if kind is None:
        return tuple(sorted(_ENGINES))
    kind = str(kind).lower()
    return tuple(
        sorted(n for n, d in _ENGINES.items() if d["kind"] == kind)
    )


def get_backend(backend) -> Backend:
    """Resolve a backend name or instance to a gate-apply
    :class:`Backend` (names and instances are accepted uniformly)."""
    if isinstance(backend, Backend):
        return backend
    key = str(backend).lower()
    try:
        return _REGISTRY[key]()
    except KeyError:
        pass
    if key in _ENGINES:
        raise SimulationError(
            f"engine {backend!r} is a {_ENGINES[key]['kind']} engine, "
            "not a gate-apply statevector backend; use "
            f"get_engine({backend!r}) for its entry point"
        )
    raise SimulationError(
        f"unknown backend {backend!r}; available: "
        f"{available_backends('statevector')}"
    )


def default_backend() -> Backend:
    """The package default (the optimized kernel backend)."""
    return _DEFAULT
