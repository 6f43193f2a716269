"""Grover's algorithm (paper, Section 5.3).

Provides the paper's exact two-qubit construction (``paper_oracle``,
``paper_diffuser``, ``paper_grover_circuit`` — searching ``|11>`` among
four states with one iteration) and a general n-qubit generator with a
single-bitstring phase oracle, the standard diffuser and the optimal
iteration count.  Both demonstrate QCLAB's modular composition: the
oracle and diffuser are independent circuits pushed into the full
circuit as blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuit import Measurement, QCircuit
from repro.exceptions import CircuitError
from repro.gates import CZ, Hadamard, MCZ, PauliX, PauliZ

__all__ = [
    "paper_oracle",
    "paper_diffuser",
    "paper_grover_circuit",
    "oracle_circuit",
    "diffuser_circuit",
    "grover_circuit",
    "optimal_iterations",
    "grover_search",
    "GroverResult",
]


def paper_oracle() -> QCircuit:
    """The paper's two-qubit oracle (circuit (4)): a single CZ flips the
    phase of ``|11>``."""
    oracle = QCircuit(2)
    oracle.push_back(CZ(0, 1))
    return oracle


def paper_diffuser() -> QCircuit:
    """The paper's two-qubit diffuser (circuit (5)): H-Z on both qubits,
    a CZ, then H on both qubits."""
    diffuser = QCircuit(2)
    diffuser.push_back(Hadamard(0))
    diffuser.push_back(Hadamard(1))
    diffuser.push_back(PauliZ(0))
    diffuser.push_back(PauliZ(1))
    diffuser.push_back(CZ(0, 1))
    diffuser.push_back(Hadamard(0))
    diffuser.push_back(Hadamard(1))
    return diffuser


def paper_grover_circuit() -> QCircuit:
    """The complete two-qubit Grover circuit ``gc`` from the paper,
    with the oracle and diffuser pushed as blocks."""
    gc = QCircuit(2)
    gc.push_back(Hadamard(0))
    gc.push_back(Hadamard(1))
    gc.push_back(paper_oracle().asBlock("oracle"))
    gc.push_back(paper_diffuser().asBlock("diffuser"))
    gc.push_back(Measurement(0))
    gc.push_back(Measurement(1))
    return gc


def oracle_circuit(marked: str) -> QCircuit:
    """Phase oracle flipping the sign of the basis state ``marked``.

    Implemented as an MCZ whose open/closed controls encode the marked
    bitstring; for ``'11'`` this reduces to the paper's single CZ.
    """
    n = len(marked)
    if n < 1 or any(c not in "01" for c in marked):
        raise CircuitError(f"invalid marked bitstring {marked!r}")
    oracle = QCircuit(n)
    if n == 1:
        if marked == "1":
            oracle.push_back(PauliZ(0))
        else:
            oracle.push_back(PauliX(0))
            oracle.push_back(PauliZ(0))
            oracle.push_back(PauliX(0))
        return oracle
    # controls are q0..q(n-2) with states = marked bits; target q(n-1).
    # A target bit 0 is wrapped with X so the phase lands on `marked`.
    target = n - 1
    if marked[target] == "0":
        oracle.push_back(PauliX(target))
    if n == 2:
        oracle.push_back(
            CZ(0, 1) if marked[0] == "1" else CZ(0, 1, control_state=0)
        )
    else:
        controls = list(range(n - 1))
        states = [int(marked[q]) for q in controls]
        oracle.push_back(MCZ(controls, target, states))
    if marked[target] == "0":
        oracle.push_back(PauliX(target))
    return oracle


def diffuser_circuit(nb_qubits: int) -> QCircuit:
    """The standard inversion-about-the-mean diffuser on ``nb_qubits``:
    ``H^n X^n (MC)Z X^n H^n`` (equal to the paper's two-qubit diffuser
    up to global phase)."""
    if nb_qubits < 1:
        raise CircuitError("diffuser needs at least one qubit")
    d = QCircuit(nb_qubits)
    for q in range(nb_qubits):
        d.push_back(Hadamard(q))
    for q in range(nb_qubits):
        d.push_back(PauliX(q))
    if nb_qubits == 1:
        d.push_back(PauliZ(0))
    elif nb_qubits == 2:
        d.push_back(CZ(0, 1))
    else:
        d.push_back(MCZ(list(range(nb_qubits - 1)), nb_qubits - 1))
    for q in range(nb_qubits):
        d.push_back(PauliX(q))
    for q in range(nb_qubits):
        d.push_back(Hadamard(q))
    return d


def optimal_iterations(nb_qubits: int, nb_marked: int = 1) -> int:
    """The Grover iteration count ``round(pi/4 sqrt(N/M))`` (at least 1)."""
    ratio = (1 << nb_qubits) / nb_marked
    return max(1, int(math.floor(math.pi / 4.0 * math.sqrt(ratio))))


def grover_circuit(
    marked, iterations: int | None = None, measure: bool = True
) -> QCircuit:
    """Full Grover circuit searching for the marked bitstring(s).

    ``marked`` is a bitstring or a sequence of distinct bitstrings of
    equal length; ``iterations`` defaults to the optimal count for that
    number of marked items.  The oracle and diffuser are nested as
    labelled blocks, as in the paper's figure.
    """
    marked_list = [marked] if isinstance(marked, str) else list(marked)
    if not marked_list:
        raise CircuitError("grover_circuit needs at least one marked state")
    n = len(marked_list[0])
    if any(len(m) != n for m in marked_list):
        raise CircuitError("marked bitstrings must have equal length")
    if iterations is None:
        iterations = optimal_iterations(n, nb_marked=len(marked_list))
    gc = QCircuit(n)
    for q in range(n):
        gc.push_back(Hadamard(q))
    if len(marked_list) == 1:
        oracle_builder = lambda: oracle_circuit(marked_list[0])
    else:
        from repro.algorithms.oracles import phase_oracle

        oracle_builder = lambda: phase_oracle(marked_list, n)
    for _ in range(iterations):
        gc.push_back(oracle_builder().asBlock("oracle"))
        gc.push_back(diffuser_circuit(n).asBlock("diffuser"))
    if measure:
        for q in range(n):
            gc.push_back(Measurement(q))
    return gc


@dataclass
class GroverResult:
    """Outcome of a Grover run."""

    #: The most likely measured bitstring.
    found: str
    #: Its probability.
    probability: float
    #: Number of Grover iterations applied.
    iterations: int
    #: Full outcome distribution ``{bitstring: probability}``.
    distribution: dict


def grover_search(
    marked, iterations: int | None = None, backend: str = "kernel"
) -> GroverResult:
    """Run Grover's search for ``marked`` (one bitstring or several)
    and report the most likely outcome."""
    marked_list = [marked] if isinstance(marked, str) else list(marked)
    n = len(marked_list[0])
    iters = (
        optimal_iterations(n, nb_marked=len(marked_list))
        if iterations is None
        else int(iterations)
    )
    circuit = grover_circuit(marked_list if len(marked_list) > 1
                             else marked_list[0], iterations=iters)
    sim = circuit.simulate("0" * n, {"backend": backend})
    dist = dict(zip(sim.results, sim.probabilities))
    found = max(dist, key=dist.get)
    return GroverResult(
        found=found,
        probability=float(dist[found]),
        iterations=iters,
        distribution=dist,
    )
