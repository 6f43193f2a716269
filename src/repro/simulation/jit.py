"""Level-2 acceleration: the opt-in Numba JIT backend.

:class:`JitBackend` compiles bitwise statevector kernels with Numba
(``pip install .[accel]``) for the same step classes the Level-1
:class:`~repro.simulation.accel.StridedBackend` specializes — plus a
compiled gather/matmul/scatter loop for multi-qubit and controlled
steps, so every planned step class runs inside generated machine code:

* one-qubit steps: a single fused pass (read once, write once) over
  the ``(left, 2, right)`` index structure — no intermediate arrays,
  no BLAS dispatch overhead;
* diagonal steps: one fused elementwise multiply against the
  full-register multiplier prepared by the Level-1 tier;
* multi-qubit / controlled steps: an in-place gather -> dense
  mat-vec -> scatter loop over the plan's row tables.

Everything is import-guarded: when ``numba`` is not installed this
module still imports cleanly, :data:`HAVE_NUMBA` is ``False``, the
backend does NOT register (``'jit'`` absent from
:func:`~repro.simulation.available_backends`) and instantiating
:class:`JitBackend` raises a clear
:class:`~repro.exceptions.SimulationError`.  With ``numba``
available the backend registers itself via ``register_backend`` and
drops into the conformance matrix, ``InstrumentedBackend`` and the
flight recorder exactly like every other engine.  Kernels compile
lazily on first use and cache to disk (``cache=True``), so repeated
processes skip the JIT warm-up.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.simulation.accel import (
    _A1Q_BCAST,
    _A1Q_GEMM,
    _ADIAG,
    StridedBackend,
)
from repro.simulation.backends import register_backend

__all__ = ["JitBackend", "HAVE_NUMBA"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # the default install: Level 2 is simply absent
    njit = None
    HAVE_NUMBA = False

#: JIT-specific step.aux tag for the compiled one-qubit pass (the
#: diagonal tag is shared with the Level-1 tier).
_AJIT_1Q = "jit.1q"
#: JIT-specific tag for the compiled gather/matmul/scatter loop.
_AJIT_ROWS = "jit.rows"


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _jit_1q(src, dst, k00, k01, k10, k11, left, right):
        """Fused one-qubit apply on the (left, 2, right) structure."""
        width = 2 * right
        for block in range(left):
            base = block * width
            for r in range(right):
                i0 = base + r
                i1 = i0 + right
                a = src[i0]
                b = src[i1]
                dst[i0] = k00 * a + k01 * b
                dst[i1] = k10 * a + k11 * b

    @njit(cache=True)
    def _jit_1q_batched(src, dst, k00, k01, k10, k11, left, right):
        width = 2 * right
        for row in range(src.shape[0]):
            s = src[row]
            d = dst[row]
            for block in range(left):
                base = block * width
                for r in range(right):
                    i0 = base + r
                    i1 = i0 + right
                    a = s[i0]
                    b = s[i1]
                    d[i0] = k00 * a + k01 * b
                    d[i1] = k10 * a + k11 * b

    @njit(cache=True)
    def _jit_diag(src, dst, fd):
        """Fused full-register diagonal multiply (dst may be src)."""
        for i in range(src.shape[0]):
            dst[i] = src[i] * fd[i]

    @njit(cache=True)
    def _jit_diag_batched(src, dst, fd):
        for row in range(src.shape[0]):
            for i in range(src.shape[1]):
                dst[row, i] = src[row, i] * fd[i]

    @njit(cache=True)
    def _jit_rows(state, rows, kernel):
        """In-place gather -> dense mat-vec -> scatter over row tables."""
        groups, m = rows.shape
        tmp = np.empty(m, dtype=state.dtype)
        for g in range(groups):
            for i in range(m):
                tmp[i] = state[rows[g, i]]
            for i in range(m):
                acc = kernel[i, 0] * tmp[0]
                for j in range(1, m):
                    acc += kernel[i, j] * tmp[j]
                state[rows[g, i]] = acc

    @njit(cache=True)
    def _jit_rows_batched(states, rows, kernel):
        groups, m = rows.shape
        tmp = np.empty(m, dtype=states.dtype)
        for row in range(states.shape[0]):
            state = states[row]
            for g in range(groups):
                for i in range(m):
                    tmp[i] = state[rows[g, i]]
                for i in range(m):
                    acc = kernel[i, 0] * tmp[0]
                    for j in range(1, m):
                        acc += kernel[i, j] * tmp[j]
                    state[rows[g, i]] = acc


class JitBackend(StridedBackend):
    """Numba-compiled bitwise kernels (Level-2 acceleration tier)."""

    name = "jit"

    def __init__(self):
        if not HAVE_NUMBA:
            raise SimulationError(
                "the 'jit' backend needs numba; install the optional "
                "acceleration tier with: pip install .[accel]"
            )

    # -- plan hooks ----------------------------------------------------------

    def _prepare_strided(self, step, nb_qubits, tables):
        """Attach the JIT payload: kernel scalars for one-qubit steps,
        the shared full-register multiplier for diagonals, contiguous
        row tables + kernel for everything else."""
        super()._prepare_strided(step, nb_qubits, tables)
        aux = step.aux
        if isinstance(aux, tuple) and aux:
            if aux[0] == _A1Q_GEMM:
                # re-derive (left, right) from the GEMM payload; the
                # compiled pass wants the raw 2x2 entries, not kron
                left, width = aux[1], aux[2]
                step.aux = (
                    _AJIT_1Q, left, width // 2,
                    np.ascontiguousarray(step.kernel),
                )
                return
            if aux[0] == _A1Q_BCAST:
                step.aux = (_AJIT_1Q, aux[1], aux[2], aux[3])
                return
            if aux[0] == _ADIAG:
                return  # the full-register multiplier serves both tiers
        if step.rows is not None and not step.diagonal:
            step.aux = (
                _AJIT_ROWS,
                np.ascontiguousarray(step.rows),
                np.ascontiguousarray(step.kernel),
            )

    # -- planned applies -----------------------------------------------------

    def apply_planned(self, state, step, nb_qubits, out=None):
        """One compiled kernel over the jit tables; falls back to the
        strided (then kernel) implementation for step shapes the jit
        tier doesn't compile.  Honors the ``out=`` alias-safety
        contract of :class:`~repro.simulation.Backend`."""
        aux = step.aux
        if (
            not isinstance(aux, tuple)
            or not aux
            or state.ndim != 1
            or not state.flags.c_contiguous
        ):
            return super().apply_planned(state, step, nb_qubits, out=out)
        tag = aux[0]
        if tag == _AJIT_1Q:
            _, left, right, kernel = aux
            dest, copy_to = self._dest(state, out)
            _jit_1q(
                state, dest,
                kernel[0, 0], kernel[0, 1],
                kernel[1, 0], kernel[1, 1],
                left, right,
            )
            if copy_to is not None:
                np.copyto(copy_to, dest)
                return copy_to
            return dest
        if tag == _ADIAG:
            fd = aux[1]
            if out is None or out is state:
                _jit_diag(state, state, fd)
                return state
            if (
                not out.flags.c_contiguous
                or np.may_share_memory(out, state)
            ):
                np.copyto(out, state * fd)
                return out
            _jit_diag(state, out, fd)
            return out
        if tag == _AJIT_ROWS:
            _, rows, kernel = aux
            _jit_rows(state, rows, kernel)
            return state
        return super().apply_planned(state, step, nb_qubits, out=out)

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """The batched twin of :meth:`apply_planned`: one compiled
        pass over the whole ``(B, 2**n)`` batch per plan step."""
        aux = step.aux
        if (
            not isinstance(aux, tuple)
            or not aux
            or not states.flags.c_contiguous
        ):
            return super().apply_planned_batched(
                states, step, nb_qubits, out=out
            )
        self._validate_batch(states, nb_qubits)
        tag = aux[0]
        if tag == _AJIT_1Q:
            _, left, right, kernel = aux
            dest, copy_to = self._dest(states, out)
            _jit_1q_batched(
                states, dest,
                kernel[0, 0], kernel[0, 1],
                kernel[1, 0], kernel[1, 1],
                left, right,
            )
            if copy_to is not None:
                np.copyto(copy_to, dest)
                return copy_to
            return dest
        if tag == _ADIAG:
            fd = aux[1]
            if out is None or out is states:
                _jit_diag_batched(states, states, fd)
                return states
            if (
                not out.flags.c_contiguous
                or np.may_share_memory(out, states)
            ):
                np.copyto(out, states * fd)
                return out
            _jit_diag_batched(states, out, fd)
            return out
        if tag == _AJIT_ROWS:
            _, rows, kernel = aux
            _jit_rows_batched(states, rows, kernel)
            return states
        return super().apply_planned_batched(
            states, step, nb_qubits, out=out
        )


if HAVE_NUMBA:  # registration is the availability switch
    register_backend(JitBackend)
