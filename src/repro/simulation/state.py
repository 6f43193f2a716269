"""Initial-state construction and validation.

The paper (Section 3.1) lets a simulation start from either a bitstring
(``'00'``) or an explicit state vector (``[1; 0; 0; 0]``); both routes
are implemented here.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import StateError
from repro.utils.bits import bit_length_for, bitstring_to_index

__all__ = ["basis_state", "initial_state", "random_state"]


def basis_state(bits: str, dtype=np.complex128) -> np.ndarray:
    """The computational basis state for a bitstring (q0 first).

    >>> basis_state('10')
    array([0.+0.j, 0.+0.j, 1.+0.j, 0.+0.j])
    """
    index = bitstring_to_index(bits)
    state = np.zeros(1 << len(bits), dtype=dtype)
    state[index] = 1.0
    return state


def initial_state(start, nb_qubits: int, dtype=np.complex128) -> np.ndarray:
    """Build and validate the initial state of a simulation.

    Parameters
    ----------
    start:
        A bitstring of length ``nb_qubits``, an array of length
        ``2**nb_qubits`` with unit 2-norm, or ``None`` for all zeros.
    nb_qubits:
        Register width.

    Returns
    -------
    numpy.ndarray
        A fresh, owned ``complex`` copy (safe to mutate in place).
    """
    if start is None:
        start = "0" * nb_qubits
    if isinstance(start, str):
        if len(start) != nb_qubits:
            raise StateError(
                f"bitstring {start!r} has length {len(start)}, expected "
                f"{nb_qubits}"
            )
        return basis_state(start, dtype)
    state = np.array(start, dtype=dtype).ravel()
    if state.size != (1 << nb_qubits):
        raise StateError(
            f"state vector of length {state.size} does not fit "
            f"{nb_qubits} qubit(s) (expected {1 << nb_qubits})"
        )
    # tolerance follows the working precision (and the input's own, for
    # single-precision vectors passed into a double simulation)
    in_dtype = getattr(start, "dtype", None)
    single = np.dtype(dtype) == np.dtype(np.complex64) or (
        in_dtype is not None and in_dtype == np.dtype(np.complex64)
    )
    atol = 1e-5 if single else 1e-8
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > atol:
        raise StateError(
            f"initial state is not normalized (|state| = {norm:.6g})"
        )
    return state


def random_state(nb_qubits: int, rng=None, dtype=np.complex128) -> np.ndarray:
    """A Haar-ish random normalized state (Gaussian components).

    Used by the test-suite and the benchmarks; ``rng`` may be a seed or
    a :class:`numpy.random.Generator`.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dim = 1 << nb_qubits
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state /= np.linalg.norm(state)
    return state.astype(dtype)


def nb_qubits_of(state: np.ndarray) -> int:
    """Number of qubits of a state vector (validates the length)."""
    return bit_length_for(np.asarray(state).ravel().size)
