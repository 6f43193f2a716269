"""Level-1 acceleration: the pure-NumPy strided backend.

:class:`StridedBackend` is the always-on tier of the acceleration
stack (Level 2 is the opt-in Numba tier, :mod:`repro.simulation.jit`).
It keeps :class:`~repro.simulation.backends.KernelBackend`'s gather
tables for multi-qubit and controlled steps but replaces the two hot
step classes of fused plans with layout-specialized kernels chosen at
``prepare_step`` time:

one-qubit steps
    The state viewed as ``(left, 2, right)`` (``left = 2**t``) admits
    two BLAS formulations whose cost crosses over with the block
    width.  For small ``right`` the kernel is expanded once into
    ``kron(U, I_right)`` and the step becomes a single contiguous GEMM
    ``(left, 2*right) @ (2*right, 2*right)``; for large ``right`` a
    broadcast ``matmul(U, view)`` runs ``left`` small GEMMs over
    contiguous rows.  Both write straight into a caller-provided
    ``out=`` buffer — zero allocations per step.

diagonal steps
    The per-step diagonal (including coalesced multi-qubit runs and
    controlled diagonals) is scattered once into a full-register
    multiplier vector with exact ``1.0`` elsewhere — multiplying by
    one is lossless, so untouched amplitudes stay bit-identical — and
    every apply is one contiguous elementwise multiply instead of a
    fancy-indexed gather.

The backend writes into the ``out=`` scratch buffer that the dispatch
loops in :mod:`repro.execution.dispatch` and the batched trajectory
engine pass: they own a double-buffered scratch pair and flip it per
step, so a whole planned run executes with no per-step statevector
allocations.  All kernel formulations are batch-shape invariant on
the supported BLAS builds (the same per-element contraction order
regardless of how many rows stack), preserving the serial-vs-batched
bit-exactness contract of :data:`repro.conformance.DEFAULT_TOLERANCES`.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.backends import KernelBackend, register_backend

__all__ = ["StridedBackend"]

#: Right-block width at or below which a one-qubit step applies as one
#: contiguous GEMM against the precomputed ``kron(U, I_right)``
#: operator (at most ``2*right <= 32`` columns); wider blocks use the
#: broadcast matmul, whose per-stack GEMMs are already contiguous.
KRON_GEMM_MAX_RIGHT = 16

#: Statevector dimension above which diagonal steps keep the inherited
#: gather tables instead of materializing a full-register multiplier
#: (the multiplier costs one state-sized vector per distinct diagonal).
FULL_DIAG_MAX_DIM = 1 << 24

# step.aux tags (aux is per-backend plan storage, so these never
# collide with the sparse/einsum backends' aux payloads)
_A1Q_GEMM = "strided.1q_gemm"
_A1Q_BCAST = "strided.1q_bcast"
_ADIAG = "strided.diag_full"

_STRIDED_TAGS = (_A1Q_GEMM, _A1Q_BCAST, _ADIAG)


@register_backend
class StridedBackend(KernelBackend):
    """Zero-allocation strided kernels (Level-1 acceleration tier)."""

    name = "strided"

    # -- plan hooks ----------------------------------------------------------

    def prepare_step(self, step, nb_qubits, tables):
        """Inherit the gather tables, then attach the strided kernel
        choice (GEMM operator, broadcast kernel or full-register
        diagonal multiplier) for the step classes this tier
        specializes."""
        super().prepare_step(step, nb_qubits, tables)
        self._prepare_strided(step, nb_qubits, tables)

    def refresh_step(self, step, nb_qubits, tables):
        """Value-only refresh: keep the index tables, rebuild the
        value-dependent strided payloads from the re-bound kernel."""
        super().refresh_step(step, nb_qubits, tables)
        self._prepare_strided(step, nb_qubits, tables)

    def _prepare_strided(self, step, nb_qubits, tables):
        """Choose and precompute this step's strided formulation."""
        step.aux = None
        dim = 1 << nb_qubits
        kernel = step.kernel
        if step.diagonal:
            if dim > FULL_DIAG_MAX_DIM:
                return  # gather tables stay cheaper than a dim-vector
            key = (
                "strided.diag", step.targets, step.controls,
                step.control_states, kernel.tobytes(),
            )
            fd = tables.get(key)
            if fd is None:
                fd = np.ones(dim, dtype=kernel.dtype)
                if step.rows is None:
                    view = fd.reshape(1 << step.targets[0], 2, -1)
                    view[:, 0, :] = kernel[0, 0]
                    view[:, 1, :] = kernel[1, 1]
                else:
                    fd[step.flat_rows] = step.diag_flat
                tables[key] = fd
            step.aux = (_ADIAG, fd)
            return
        if step.controls or len(step.targets) != 1:
            return  # inherited gather/matmul/scatter path
        target = step.targets[0]
        left = 1 << target
        right = 1 << (nb_qubits - 1 - target)
        if right <= KRON_GEMM_MAX_RIGHT:
            key = ("strided.kron", target, nb_qubits, kernel.tobytes())
            op = tables.get(key)
            if op is None:
                eye = np.eye(right, dtype=kernel.dtype)
                op = np.ascontiguousarray(np.kron(kernel, eye).T)
                tables[key] = op
            step.aux = (_A1Q_GEMM, left, 2 * right, op)
        else:
            step.aux = (
                _A1Q_BCAST, left, right, np.ascontiguousarray(kernel),
            )

    def planned_bytes(self, step, states, nb_qubits):
        """Full-register diagonals stream the whole state plus the
        multiplier; everything else keeps the inherited estimate."""
        aux = step.aux
        if isinstance(aux, tuple) and aux and aux[0] == _ADIAG:
            return 2 * states.nbytes + aux[1].nbytes
        return super().planned_bytes(step, states, nb_qubits)

    # -- out= plumbing -------------------------------------------------------

    @staticmethod
    def _strided_aux(step):
        """The step's strided payload, or ``None`` to fall back."""
        aux = step.aux
        if isinstance(aux, tuple) and aux and aux[0] in _STRIDED_TAGS:
            return aux
        return None

    @staticmethod
    def _dest(src, out):
        """Resolve a safe disjoint GEMM destination.

        Returns ``(dest, copy_to)``: compute into ``dest``; when
        ``copy_to`` is not ``None`` the caller must copy ``dest`` into
        it and return it instead (the alias/overlap/non-contiguous
        degraded path — correctness over speed).
        """
        if out is None:
            return np.empty_like(src), None
        if (
            out is src
            or not out.flags.c_contiguous
            or np.may_share_memory(out, src)
        ):
            return np.empty_like(src), out
        return out, None

    # -- planned applies -----------------------------------------------------

    def apply_planned(self, state, step, nb_qubits, out=None):
        """One strided step on a ``(dim,)`` state, optionally into
        ``out``; non-specialized steps (and 2-D states) fall back to
        the inherited kernel paths."""
        aux = self._strided_aux(step)
        if (
            aux is None
            or state.ndim != 1
            or not state.flags.c_contiguous
        ):
            return super().apply_planned(state, step, nb_qubits, out=out)
        tag = aux[0]
        if tag == _ADIAG:
            fd = aux[1]
            if out is None or out is state:
                np.multiply(state, fd, out=state)
                return state
            if (
                not out.flags.c_contiguous
                or np.may_share_memory(out, state)
            ):
                np.copyto(out, state * fd)
                return out
            np.multiply(state, fd, out=out)
            return out
        dest, copy_to = self._dest(state, out)
        if tag == _A1Q_GEMM:
            _, left, width, op = aux
            np.matmul(
                state.reshape(left, width), op,
                out=dest.reshape(left, width),
            )
        else:  # _A1Q_BCAST
            _, left, right, kernel = aux
            np.matmul(
                kernel, state.reshape(left, 2, right),
                out=dest.reshape(left, 2, right),
            )
        if copy_to is not None:
            np.copyto(copy_to, dest)
            return copy_to
        return dest

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """One strided step across a ``(B, 2**n)`` batch: the GEMM
        rows stack into one larger GEMM, the broadcast matmul gains a
        batch axis, the diagonal multiplier broadcasts over rows."""
        aux = self._strided_aux(step)
        if aux is None or not states.flags.c_contiguous:
            return super().apply_planned_batched(
                states, step, nb_qubits, out=out
            )
        self._validate_batch(states, nb_qubits)
        batch = states.shape[0]
        tag = aux[0]
        if tag == _ADIAG:
            fd = aux[1]
            if out is None or out is states:
                np.multiply(states, fd, out=states)
                return states
            if (
                not out.flags.c_contiguous
                or np.may_share_memory(out, states)
            ):
                np.copyto(out, states * fd)
                return out
            np.multiply(states, fd, out=out)
            return out
        dest, copy_to = self._dest(states, out)
        if tag == _A1Q_GEMM:
            _, left, width, op = aux
            np.matmul(
                states.reshape(batch * left, width), op,
                out=dest.reshape(batch * left, width),
            )
        else:  # _A1Q_BCAST
            _, left, right, kernel = aux
            np.matmul(
                kernel, states.reshape(batch, left, 2, right),
                out=dest.reshape(batch, left, 2, right),
            )
        if copy_to is not None:
            np.copyto(copy_to, dest)
            return copy_to
        return dest
