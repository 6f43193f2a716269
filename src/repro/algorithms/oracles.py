"""Oracle constructions and the classic oracle algorithms (extension).

``phase_oracle`` generalizes the Grover oracle to several marked
states; ``deutsch_jozsa_circuit`` and ``bernstein_vazirani_circuit``
exercise multi-qubit Hadamard sandwiches with phase oracles.
"""

from __future__ import annotations

from typing import Iterable

from repro.algorithms.grover import oracle_circuit
from repro.circuit import Measurement, QCircuit
from repro.exceptions import CircuitError
from repro.gates import Hadamard, PauliZ

__all__ = [
    "phase_oracle",
    "deutsch_jozsa_circuit",
    "deutsch_jozsa_is_constant",
    "bernstein_vazirani_circuit",
    "bernstein_vazirani_secret",
]


def phase_oracle(marked: Iterable[str], nb_qubits: int) -> QCircuit:
    """Phase oracle flipping the sign of every bitstring in ``marked``."""
    oracle = QCircuit(nb_qubits)
    seen = set()
    for bits in marked:
        if len(bits) != nb_qubits:
            raise CircuitError(
                f"marked state {bits!r} does not match {nb_qubits} qubit(s)"
            )
        if bits in seen:
            raise CircuitError(f"duplicate marked state {bits!r}")
        seen.add(bits)
        oracle.push_back(oracle_circuit(bits))
    return oracle


def deutsch_jozsa_circuit(oracle: QCircuit) -> QCircuit:
    """Deutsch–Jozsa on a *phase* oracle for ``f``: ``H^n O_f H^n`` then
    measure; all-zeros outcome means ``f`` is constant."""
    n = oracle.nbQubits
    c = QCircuit(n)
    for q in range(n):
        c.push_back(Hadamard(q))
    c.push_back(oracle.asBlock("O_f"))
    for q in range(n):
        c.push_back(Hadamard(q))
    for q in range(n):
        c.push_back(Measurement(q))
    return c


def deutsch_jozsa_is_constant(
    oracle: QCircuit, backend: str = "kernel"
) -> bool:
    """Run Deutsch–Jozsa; ``True`` when the oracle encodes a constant
    function (all-zeros measured with probability 1)."""
    n = oracle.nbQubits
    sim = deutsch_jozsa_circuit(oracle).simulate("0" * n, {"backend": backend})
    dist = dict(zip(sim.results, sim.probabilities))
    return dist.get("0" * n, 0.0) > 1.0 - 1e-9


def bernstein_vazirani_circuit(secret: str) -> QCircuit:
    """Bernstein–Vazirani with the phase-kickback oracle
    ``|x> -> (-1)^{s.x} |x>`` built from Z gates on the secret's 1 bits."""
    n = len(secret)
    if n < 1 or any(c not in "01" for c in secret):
        raise CircuitError(f"invalid secret bitstring {secret!r}")
    c = QCircuit(n)
    for q in range(n):
        c.push_back(Hadamard(q))
    # (-1)^{s.x} phase oracle: conjugated Z on each secret bit... but in
    # the Hadamard frame a plain Z on qubit q implements s_q = 1.
    for q, bit in enumerate(secret):
        if bit == "1":
            c.push_back(PauliZ(q))
    for q in range(n):
        c.push_back(Hadamard(q))
    for q in range(n):
        c.push_back(Measurement(q))
    return c


def bernstein_vazirani_secret(secret: str, backend: str = "kernel") -> str:
    """Recover ``secret`` in a single query (deterministically)."""
    sim = bernstein_vazirani_circuit(secret).simulate(
        "0" * len(secret), {"backend": backend}
    )
    best = int(max(range(sim.nbBranches), key=lambda i: sim.probabilities[i]))
    return sim.results[best]
