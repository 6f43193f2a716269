"""FABLE: Fast Approximate BLock Encodings (paper refs [6, 7]).

Given a real matrix ``A`` of size ``2^n x 2^n`` with entries in
``[-1, 1]``, FABLE emits a circuit ``U`` on ``2n + 1`` qubits whose
top-left block satisfies

.. math::

    (\\langle 0| \\otimes I) U (|0\\rangle \\otimes I) = A / 2^n.

Construction (Camps & Van Beeumen, QCE'22):

1. Hadamards on the ``n`` index-ancilla qubits;
2. the oracle ``O_A`` — a rotation ``RY(2 arccos(a_ij))`` on the flag
   ancilla, *uniformly controlled* on both registers — synthesized as a
   Gray-code sequence of single RY rotations and CNOTs (Möttönen et
   al.), with the rotation angles mapped through a scaled
   Walsh–Hadamard transform;
3. a SWAP network exchanging the two registers;
4. closing Hadamards.

The *approximate* in FABLE: after the Walsh–Hadamard transform most
angles of a structured matrix are negligible; thresholding them (and
merging the then-adjacent CNOTs by parity) compresses the circuit, at
an operator-norm error bounded by the dropped weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit import QCircuit
from repro.compilers.multiplexor import append_multiplexed_rotation
from repro.exceptions import CircuitError
from repro.gates import Hadamard, SWAP

__all__ = [
    "gray_code",
    "gray_permutation_angles",
    "fable",
    "block_encoding_block",
    "FableResult",
]


def gray_code(i: int) -> int:
    """The ``i``-th binary-reflected Gray code."""
    return i ^ (i >> 1)


def _sfwht(a: np.ndarray) -> np.ndarray:
    """Scaled fast Walsh–Hadamard transform (in natural ordering)."""
    a = a.copy().astype(float)
    n = a.size
    h = 1
    while h < n:
        for i in range(0, n, h * 2):
            for j in range(i, i + h):
                x, y = a[j], a[j + h]
                a[j], a[j + h] = (x + y) / 2.0, (x - y) / 2.0
        h *= 2
    return a


def _gray_permutation(a: np.ndarray) -> np.ndarray:
    """Permute a vector from binary order into Gray-code order."""
    out = np.empty_like(a)
    for i in range(a.size):
        out[i] = a[gray_code(i)]
    return out


def gray_permutation_angles(thetas: np.ndarray) -> np.ndarray:
    """Rotation angles for a uniformly controlled rotation.

    Maps the target angles ``thetas`` (indexed by the control bitstring)
    to the angles of the Gray-code RY/CNOT sequence: a scaled
    Walsh–Hadamard transform followed by the Gray permutation.
    """
    return _gray_permutation(_sfwht(np.asarray(thetas, dtype=float)))


def _control_qubit(i: int, k: int) -> int:
    """Which of ``k`` controls flips between Gray codes ``i`` and ``i+1``.

    Returns the control index with 0 = most significant control bit,
    matching the convention that controls[0] is the MSB of the
    multiplexer index.
    """
    if i == (1 << k) - 1:
        return 0
    changed = gray_code(i) ^ gray_code(i + 1)
    return k - 1 - int(np.log2(changed))


@dataclass
class FableResult:
    """Output of the FABLE compiler."""

    #: The block-encoding circuit on ``2n + 1`` qubits.
    circuit: QCircuit
    #: Subnormalization: the encoded block is ``A / alpha``.
    alpha: float
    #: Rotation gates kept / total (compression ratio diagnostics).
    rotations_kept: int
    rotations_total: int


def fable(matrix: np.ndarray, threshold: float = 0.0) -> FableResult:
    """Compile a real matrix into a FABLE block-encoding circuit.

    Parameters
    ----------
    matrix:
        Real ``2^n x 2^n`` array with entries in ``[-1, 1]``.
    threshold:
        Rotations with ``|angle| <= threshold`` are dropped and their
        neighbouring CNOTs merged by parity — FABLE's approximate
        compression.  ``0`` keeps the encoding exact (to machine
        precision).

    Returns
    -------
    FableResult
        ``circuit`` (ancilla = ``q0``, index register ``q1..qn``,
        system register ``q(n+1)..q(2n)``) and ``alpha = 2^n``.
    """
    a = np.asarray(matrix)
    if np.iscomplexobj(a) and np.abs(a.imag).max() > 1e-12:
        raise CircuitError(
            "FABLE (this implementation) block-encodes real matrices; "
            "split complex A into real and imaginary parts"
        )
    a = np.real(a).astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise CircuitError(f"matrix of shape {a.shape} is not square")
    dim = a.shape[0]
    if dim < 2 or (dim & (dim - 1)) != 0:
        raise CircuitError(
            f"matrix size {dim} is not a power of two (>= 2)"
        )
    if np.abs(a).max() > 1.0 + 1e-12:
        raise CircuitError(
            "matrix entries must lie in [-1, 1]; rescale first"
        )
    n = dim.bit_length() - 1
    nb_qubits = 2 * n + 1
    ancilla = 0
    index_reg = list(range(1, n + 1))
    system_reg = list(range(n + 1, 2 * n + 1))
    controls = index_reg + system_reg  # MSB first over the (i, j) index

    # target angles: RY(2 arccos(a_ij)) indexed by (i, j) flattened
    thetas = 2.0 * np.arccos(np.clip(a, -1.0, 1.0)).ravel()

    circuit = QCircuit(nb_qubits)
    for q in index_reg:
        circuit.push_back(Hadamard(q))

    # Gray-code multiplexed RY with parity-merged CNOTs
    kept = append_multiplexed_rotation(
        circuit, thetas, controls, ancilla, axis="y", threshold=threshold
    )

    for qa, qb in zip(index_reg, system_reg):
        circuit.push_back(SWAP(qa, qb))
    for q in index_reg:
        circuit.push_back(Hadamard(q))

    return FableResult(
        circuit=circuit,
        alpha=float(dim),
        rotations_kept=kept,
        rotations_total=1 << (2 * n),
    )


def block_encoding_block(result: FableResult) -> np.ndarray:
    """Extract the encoded block ``alpha * U[:N, :N]`` from a FABLE
    circuit (dense simulation; intended for verification on small n)."""
    u = result.circuit.matrix
    dim = int(result.alpha)
    return result.alpha * u[:dim, :dim]
