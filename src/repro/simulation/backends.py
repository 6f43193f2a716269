"""Interchangeable gate-application backends.

Three engines implement the same :class:`Backend` interface:

``SparseKronBackend``
    The paper's reference algorithm (Section 3.2): build the sparse
    extended operator ``I_l (x) U (x) I_r`` (generalized to non-adjacent
    and controlled gates) and multiply it with the state vector.  This
    is exactly what QCLAB does in MATLAB.

``KernelBackend``
    The QCLAB++-style optimized engine: never materializes a register
    operator.  One-qubit gates apply through a strided reshape; k-qubit
    and controlled gates gather only the active subspace with bitwise
    index maps; diagonal gates multiply amplitudes in place.

``EinsumBackend``
    A tensor-contraction engine (``reshape``/``tensordot``/``moveaxis``)
    used as a third point of comparison and as a cross-validation oracle
    in the test suite.

All backends accept states of shape ``(dim,)`` or batches ``(dim, m)``
(the latter powers :attr:`QCircuit.matrix`).  Backends may modify the
input array in place and/or return a new array; callers must use the
**returned** array and pass owned storage.

:meth:`Backend.apply_planned` and :meth:`Backend.apply_planned_batched`
take an ``out=`` scratch buffer on every backend: the dispatch loops
always pass one, so they can double-buffer two arrays for a whole run
instead of allocating per step.  A backend may write its result into
``out`` (the acceleration tier, :mod:`repro.simulation.accel` and
:mod:`repro.simulation.jit`, does) or ignore it and return ``state``
or a fresh array (``kernel``, ``sparse`` and ``einsum`` do).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SimulationError
from repro.gates.base import controlled_matrix
from repro.utils.bits import gather_indices, insert_bits, subindex_map

__all__ = [
    "Backend",
    "KernelBackend",
    "SparseKronBackend",
    "EinsumBackend",
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

    def prepare_step(self, step, nb_qubits: int, tables: dict) -> None:
        """Precompute backend-specific data for one plan step.

        Called once at compile time by
        :func:`repro.simulation.plan.compile_circuit`; ``tables`` is a
        per-plan scratch cache so steps with identical index structure
        share their tables.  The default prepares nothing —
        :meth:`apply_planned` falls back to :meth:`apply`.
        """

    def refresh_step(self, step, nb_qubits: int, tables: dict) -> None:
        """Recompute the value-dependent pieces of an already-prepared
        step after its kernel changed (a parametric re-``bind``).

        The default conservatively clears every derived field and
        re-runs :meth:`prepare_step`; backends whose index tables are
        value-independent override this to refresh only what actually
        follows the kernel values.
        """
        step.rows = None
        step.flat_rows = None
        step.diag_rep = None
        step.diag_flat = None
        step.aux = None
        self.prepare_step(step, nb_qubits, tables)

    def planned_bytes(self, step, states, nb_qubits: int) -> int:
        """Approximate bytes read+written by one application of
        ``step`` to ``states`` (a ``(dim,)`` state or ``(B, dim)``
        batch).

        Feeds the per-op cost-attribution table
        (:meth:`repro.observability.ProfileReport.op_table`); the
        default assumes the whole state is streamed in and out once.
        Backends that touch only a gathered subspace override this.
        """
        return 2 * states.nbytes

    def apply_planned(self, state, step, nb_qubits: int, out=None):
        """Apply one compiled gate step (see
        :class:`repro.simulation.plan.PlanStep`).

        The default delegates to :meth:`apply` with the step's
        pre-resolved absolute qubits and dtype-cast kernel; optimized
        backends override this to reuse the index tables attached by
        :meth:`prepare_step`.

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
    # axis, shape ``(B, 2**nb_qubits)`` — the layout of the batched
    # trajectory engine (:mod:`repro.noise.trajectory`).  The defaults
    # loop over the batch rows; vectorized backends override them to
    # execute each kernel ONCE across the whole batch.

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
        kernels: np.ndarray,
    ) -> np.ndarray:
        """Apply a parametric plan step with per-row kernels across a
        ``(P, 2**n)`` parameter batch.

        ``kernels[i]`` is the dtype-cast target kernel for row ``i``
        (controls/targets/diagonality come from ``step``).  The default
        loops :meth:`apply` per row; vectorized backends contract the
        whole kernel stack at once.
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


class KernelBackend(Backend):
    """QCLAB++-style vectorized index kernels (the optimized engine)."""

    name = "kernel"

    def prepare_step(self, step, nb_qubits, tables):
        """Attach gather-row index tables (shared via ``tables``)
        for multi-target/controlled steps; 1q steps need none."""
        if not step.controls:
            if len(step.targets) == 1:
                return  # strided-reshape fast path needs no tables
            key = ("sub", step.targets)
            rows = tables.get(key)
            if rows is None:
                rows = subindex_map(nb_qubits, list(step.targets))
                tables[key] = rows
        else:
            key = (
                "ctrl", step.targets, step.controls, step.control_states,
            )
            rows = tables.get(key)
            if rows is None:
                sub = gather_indices(
                    nb_qubits, list(step.controls),
                    list(step.control_states),
                )
                others = [
                    q for q in range(nb_qubits)
                    if q not in set(step.controls)
                ]
                local_targets = [others.index(q) for q in step.targets]
                rows = sub[subindex_map(len(others), local_targets)]
                tables[key] = rows
        step.rows = rows
        step.flat_rows = np.ascontiguousarray(rows).ravel()
        if step.diagonal:
            # the expanded diagonal is shared through the plan tables so
            # signature-equal diagonal steps reuse one allocation instead
            # of re-running np.repeat per step (or worse, per apply)
            dkey = ("diag_rep", key, step.diag.tobytes())
            rep = tables.get(dkey)
            if rep is None:
                rep = np.repeat(step.diag, rows.shape[1])[:, None]
                tables[dkey] = rep
            step.diag_rep = rep
            # flat view of the same buffer, broadcast over batch rows
            step.diag_flat = rep.ravel()

    def planned_bytes(self, step, states, nb_qubits):
        """Subspace-aware byte estimate: steps with gather-row tables
        touch only ``rows.size`` amplitudes per state; 1q strided steps
        stream the full state."""
        if step.rows is None:
            return 2 * states.nbytes
        dim = 1 << nb_qubits
        nb_states = states.size // dim
        return 2 * step.rows.size * states.itemsize * nb_states

    def refresh_step(self, step, nb_qubits, tables):
        """Value-only refresh after a parametric re-bind: the gather-row
        index tables depend only on the step's structure and are kept;
        only the expanded diagonal views follow the new kernel."""
        if step.diagonal and step.rows is not None:
            rep = np.repeat(step.diag, step.rows.shape[1])[:, None]
            step.diag_rep = rep
            step.diag_flat = rep.ravel()

    def apply_planned(self, state, step, nb_qubits, out=None):
        """Strided-reshape fast path for 1q steps; gather/matmul/
        scatter over the precomputed row tables otherwise."""
        state2d, shape = self._as_2d(state)
        rows = step.rows
        if rows is None:
            res = self._apply_1q(
                state2d, step.kernel, step.targets[0], nb_qubits,
                step.diagonal,
            )
            return res.reshape(shape)
        flat = step.flat_rows
        if step.diagonal:
            state2d[flat] *= step.diag_rep
            return state2d.reshape(shape)
        m = state2d.shape[1]
        gathered = state2d[flat].reshape(rows.shape[0], rows.shape[1] * m)
        state2d[flat] = (step.kernel @ gathered).reshape(-1, m)
        return state2d.reshape(shape)

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """One vectorized kernel application across the whole
        ``(B, 2**n)`` batch, reusing the plan's row tables."""
        rows = step.rows
        B = states.shape[0]
        if rows is None:
            return self._apply_1q_batched(
                states, step.kernel, step.targets[0], step.diagonal
            )
        flat = step.flat_rows
        if step.diagonal:
            states[:, flat] *= step.diag_flat
            return states
        gathered = states[:, flat].reshape(B, rows.shape[0], rows.shape[1])
        states[:, flat] = np.matmul(step.kernel, gathered).reshape(B, -1)
        return states

    def apply_planned_sweep(self, states, step, nb_qubits, kernels):
        """Vectorized per-row kernels: a batched einsum on the strided
        1q view, or gather/batched-matmul/scatter with on-the-fly row
        tables for general targets and controls."""
        self._validate_batch(states, nb_qubits)
        P = states.shape[0]
        if not step.controls and len(step.targets) == 1:
            left = 1 << step.targets[0]
            view = states.reshape(P, left, 2, -1)
            if step.diagonal:
                d = np.einsum("pii->pi", kernels)
                view *= d[:, None, :, None]
                return states
            out = np.einsum("pab,plbr->plar", kernels, view)
            return np.ascontiguousarray(out).reshape(P, -1)
        # parametric steps are never prepare_step-ed, so build the row
        # tables here exactly as the uncompiled batched path does
        if not step.controls:
            rows = subindex_map(nb_qubits, list(step.targets))
        else:
            sub = gather_indices(
                nb_qubits, list(step.controls), list(step.control_states)
            )
            others = [
                q for q in range(nb_qubits)
                if q not in set(step.controls)
            ]
            local_targets = [others.index(q) for q in step.targets]
            rows = sub[subindex_map(len(others), local_targets)]
        flat = np.ascontiguousarray(rows).ravel()
        if step.diagonal:
            d = np.einsum("pii->pi", kernels)
            states[:, flat] *= np.repeat(d, rows.shape[1], axis=1)
            return states
        gathered = states[:, flat].reshape(P, rows.shape[0], rows.shape[1])
        states[:, flat] = np.matmul(kernels, gathered).reshape(P, -1)
        return states

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
        """Uncompiled batched path: build the row tables on the fly
        and apply the kernel once across the batch."""
        self._validate_batch(states, nb_qubits)
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        kernel = np.asarray(kernel, dtype=states.dtype)
        if not controls and len(targets) == 1:
            return self._apply_1q_batched(
                states, kernel, targets[0], diagonal
            )
        if not controls:
            rows = subindex_map(nb_qubits, list(targets))
        else:
            sub = gather_indices(
                nb_qubits, list(controls), list(control_states)
            )
            others = [
                q for q in range(nb_qubits) if q not in set(controls)
            ]
            local_targets = [others.index(q) for q in targets]
            rows = sub[subindex_map(len(others), local_targets)]
        flat = np.ascontiguousarray(rows).ravel()
        B = states.shape[0]
        if diagonal:
            states[:, flat] *= np.repeat(np.diag(kernel), rows.shape[1])
            return states
        gathered = states[:, flat].reshape(B, rows.shape[0], rows.shape[1])
        states[:, flat] = np.matmul(kernel, gathered).reshape(B, -1)
        return states

    @staticmethod
    def _apply_1q_batched(states, kernel, target, diagonal):
        """One-qubit kernel across a ``(B, dim)`` batch: the serial
        strided reshape gains a leading batch axis and the einsum
        contracts once for all rows."""
        B = states.shape[0]
        left = 1 << target
        view = states.reshape(B, left, 2, -1)
        if diagonal:
            view[:, :, 0, :] *= kernel[0, 0]
            view[:, :, 1, :] *= kernel[1, 1]
            return states
        out = np.einsum("ab,cdbe->cdae", kernel, view)
        return out.reshape(B, -1)

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
        """Vectorized index-kernel application: strided reshape for
        one target, gather/matmul/scatter for general targets and
        controls, diagonal-aware in-place scaling throughout."""
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        state2d, shape = self._as_2d(state)
        kernel = np.asarray(kernel, dtype=state2d.dtype)

        if not controls:
            if len(targets) == 1:
                out = self._apply_1q(
                    state2d, kernel, targets[0], nb_qubits, diagonal
                )
            else:
                out = self._apply_kq(
                    state2d, kernel, targets, nb_qubits, diagonal
                )
            return out.reshape(shape)

        # Controlled path: restrict to the control-matching subspace,
        # then apply the kernel on the targets inside that subspace.
        sub = gather_indices(nb_qubits, list(controls), list(control_states))
        others = [q for q in range(nb_qubits) if q not in set(controls)]
        local_targets = [others.index(q) for q in targets]
        rows = sub[subindex_map(len(others), local_targets)]
        if diagonal:
            d = np.diag(kernel)
            state2d[rows.ravel()] *= np.repeat(d, rows.shape[1])[:, None]
            return state2d.reshape(shape)
        gathered = state2d[rows.ravel()].reshape(
            rows.shape[0], rows.shape[1] * state2d.shape[1]
        )
        state2d[rows.ravel()] = (kernel @ gathered).reshape(
            -1, state2d.shape[1]
        )
        return state2d.reshape(shape)

    @staticmethod
    def _apply_1q(state2d, kernel, target, nb_qubits, diagonal):
        m = state2d.shape[1]
        left = 1 << target
        right = 1 << (nb_qubits - 1 - target)
        view = state2d.reshape(left, 2, right * m)
        if diagonal:
            view[:, 0, :] *= kernel[0, 0]
            view[:, 1, :] *= kernel[1, 1]
            # reshape copies when state2d is non-contiguous (e.g. a
            # transposed density matrix); returning the mutated `view`
            # is correct in both cases, `state2d` only in the view case.
            return view.reshape(state2d.shape)
        out = np.einsum("ab,lbr->lar", kernel, view)
        return out.reshape(state2d.shape)

    @staticmethod
    def _apply_kq(state2d, kernel, targets, nb_qubits, diagonal):
        rows = subindex_map(nb_qubits, list(targets))
        if diagonal:
            d = np.diag(kernel)
            state2d[rows.ravel()] *= np.repeat(d, rows.shape[1])[:, None]
            return state2d
        m = state2d.shape[1]
        gathered = state2d[rows.ravel()].reshape(
            rows.shape[0], rows.shape[1] * m
        )
        state2d[rows.ravel()] = (kernel @ gathered).reshape(-1, m)
        return state2d


class SparseKronBackend(Backend):
    """The paper's reference algorithm: sparse extended operators.

    For a gate kernel ``U'`` the backend materializes the sparse matrix
    ``U = I_l (x) U' (x) I_r`` (generalized via bit-deposit index
    construction so that non-adjacent qubit sets and controls work the
    same way) and computes ``U @ state``.
    """

    name = "sparse"

    def prepare_step(self, step, nb_qubits, tables):
        """Materialize (and share via ``tables``) the sparse
        full-register operator for this step."""
        key = (
            "sparse", step.targets, step.controls, step.control_states,
            step.kernel.tobytes(),
        )
        op = tables.get(key)
        if op is None:
            op = self.extended_operator(
                step.kernel, step.targets, nb_qubits, step.controls,
                step.control_states,
            )
            tables[key] = op
        step.aux = op

    def planned_bytes(self, step, states, nb_qubits):
        """Full state in and out plus one pass over the sparse
        operator's stored entries."""
        nnz_bytes = (
            step.aux.data.nbytes if step.aux is not None else 0
        )
        return 2 * states.nbytes + nnz_bytes

    def apply_planned(self, state, step, nb_qubits, out=None):
        """One sparse matrix-vector product with the prebuilt
        extended operator."""
        state2d, shape = self._as_2d(state)
        res = np.asarray(step.aux @ state2d, dtype=state2d.dtype)
        return res.reshape(shape)

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """One sparse multiply for the whole ``(B, 2**n)`` batch."""
        # one sparse multiply for the whole batch: (dim, dim) @ (dim, B)
        self._validate_batch(states, nb_qubits)
        res = np.asarray(step.aux @ states.T, dtype=states.dtype)
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
        the whole batch at once."""
        self._validate_batch(states, nb_qubits)
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        op = self.extended_operator(
            np.asarray(kernel, dtype=states.dtype), targets, nb_qubits,
            controls, control_states,
        )
        out = np.asarray(op @ states.T, dtype=states.dtype)
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
        generalized to arbitrary qubit subsets.
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
        nrest = rest.size
        rows = np.empty(coo.nnz * nrest, dtype=np.int64)
        cols = np.empty(coo.nnz * nrest, dtype=np.int64)
        vals = np.empty(coo.nnz * nrest, dtype=np.complex128)
        for i, (a, b, v) in enumerate(zip(coo.row, coo.col, coo.data)):
            bits_a = [(int(a) >> (k - 1 - j)) & 1 for j in range(k)]
            bits_b = [(int(b) >> (k - 1 - j)) & 1 for j in range(k)]
            rows[i * nrest : (i + 1) * nrest] = insert_bits(
                rest, positions, bits_a
            )
            cols[i * nrest : (i + 1) * nrest] = insert_bits(
                rest, positions, bits_b
            )
            vals[i * nrest : (i + 1) * nrest] = v
        dim = 1 << nb_qubits
        return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


class EinsumBackend(Backend):
    """Tensor-contraction engine (cross-validation oracle)."""

    name = "einsum"

    def prepare_step(self, step, nb_qubits, tables):
        """Pre-reshape the (control-folded) kernel into the
        ``(2,)*2k`` tensor the contraction consumes."""
        if step.controls:
            qubits_all = sorted(step.targets + step.controls)
            full_kernel = controlled_matrix(
                step.kernel, qubits_all, list(step.controls),
                list(step.control_states), list(step.targets),
            )
        else:
            qubits_all = list(step.targets)
            full_kernel = step.kernel
        k = len(qubits_all)
        step.aux = (
            full_kernel.reshape((2,) * (2 * k)), tuple(qubits_all), k,
        )

    def planned_bytes(self, step, states, nb_qubits):
        """Full state streamed through the contraction, plus the
        (control-folded) kernel tensor."""
        kernel_bytes = (
            step.aux[0].nbytes if step.aux is not None else 0
        )
        return 2 * states.nbytes + kernel_bytes

    def apply_planned(self, state, step, nb_qubits, out=None):
        """``tensordot`` the prepared kernel tensor over the step's
        qubit axes, then move the result axes back in place."""
        state2d, shape = self._as_2d(state)
        ut, qubits_all, k = step.aux
        m = state2d.shape[1]
        psi = state2d.reshape((2,) * nb_qubits + (m,))
        contracted = np.tensordot(
            ut, psi, axes=(list(range(k, 2 * k)), list(qubits_all))
        )
        res = np.moveaxis(contracted, list(range(k)), list(qubits_all))
        return np.ascontiguousarray(res).reshape(shape)

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """Single tensor contraction across the whole batch."""
        self._validate_batch(states, nb_qubits)
        ut, qubits_all, k = step.aux
        return self._contract_batched(states, ut, qubits_all, k, nb_qubits)

    def apply_planned_sweep(self, states, step, nb_qubits, kernels):
        """Per-row kernels via one batched matmul: move the target
        axes to the front, flatten, multiply the kernel stack, restore.
        Controlled steps fall back to the per-row loop (folding the
        controls would build ``P`` full-register kernels)."""
        if step.controls:
            return super().apply_planned_sweep(
                states, step, nb_qubits, kernels
            )
        self._validate_batch(states, nb_qubits)
        targets = list(step.targets)
        k = len(targets)
        P = states.shape[0]
        psi = states.reshape((P,) + (2,) * nb_qubits)
        axes = [q + 1 for q in targets]
        moved = np.moveaxis(psi, axes, list(range(1, k + 1)))
        flat = np.ascontiguousarray(moved).reshape(P, 1 << k, -1)
        out = np.matmul(kernels, flat)
        out = out.reshape((P,) + (2,) * nb_qubits)
        out = np.moveaxis(out, list(range(1, k + 1)), axes)
        return np.ascontiguousarray(out).reshape(P, -1)

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
        """Fold controls into the kernel and contract once over the
        whole batch."""
        self._validate_batch(states, nb_qubits)
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        kernel = np.asarray(kernel, dtype=states.dtype)
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
        ut = full_kernel.reshape((2,) * (2 * k))
        return self._contract_batched(
            states, ut, tuple(qubits_all), k, nb_qubits
        )

    @staticmethod
    def _contract_batched(states, ut, qubits_all, k, nb_qubits):
        """Contract a full-register kernel over a batch: qubit axes sit
        one position right of the leading batch axis."""
        B = states.shape[0]
        psi = states.reshape((B,) + (2,) * nb_qubits)
        axes = [q + 1 for q in qubits_all]
        contracted = np.tensordot(
            ut, psi, axes=(list(range(k, 2 * k)), axes)
        )
        # kernel row axes land first; the batch axis follows them and
        # slides back to the front once the rows return to their slots
        out = np.moveaxis(contracted, list(range(k)), axes)
        return np.ascontiguousarray(out).reshape(B, -1)

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
        """Reshape the state into a rank-``n`` tensor and contract the
        (control-folded) kernel over the gate's qubit axes."""
        self._validate(
            np.asarray(kernel), targets, nb_qubits, controls, control_states
        )
        state2d, shape = self._as_2d(state)
        kernel = np.asarray(kernel, dtype=state2d.dtype)
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
        m = state2d.shape[1]
        psi = state2d.reshape((2,) * nb_qubits + (m,))
        ut = full_kernel.reshape((2,) * (2 * k))
        contracted = np.tensordot(
            ut, psi, axes=(list(range(k, 2 * k)), list(qubits_all))
        )
        # tensordot puts the kernel's row axes first; move them back to
        # their register positions.
        out = np.moveaxis(contracted, list(range(k)), list(qubits_all))
        return np.ascontiguousarray(out).reshape(shape)


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
register_backend(EinsumBackend)

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
