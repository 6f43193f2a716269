"""Seeded random-circuit generation for the conformance harness.

One seed deterministically produces one :class:`GeneratedCase` — a
circuit (possibly with nested ``asBlock`` sub-circuits, mid-circuit
measurements in random bases, resets and barriers), an optional
:class:`~repro.noise.NoiseModel`, and metadata the oracle uses to
decide which execution paths apply (Clifford-only circuits additionally
run through the stabilizer engine; circuits whose gates all span at
most two qubits additionally run through the MPS engine).

The generator is intentionally *adversarial* rather than uniform: it
biases toward the structures that historically broke backends —
non-adjacent qubit pairs, open (``control_state=0``) controls,
diagonal runs (fusion fodder), adjacent inverse pairs (cancellation
fodder), random-unitary ``MatrixGate`` s, and nested blocks with
non-zero offsets.  Every fourth non-Clifford seed is a *brickwork*
circuit instead — rotation layers between layers of entanglers on
adjacent qubits, the runs plan fusion merges into dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.circuit import Barrier, Measurement, QCircuit, Reset
from repro.gates import (
    CH,
    CNOT,
    CPhase,
    CRotationX,
    CRotationY,
    CRotationZ,
    CY,
    CZ,
    ControlledGate1,
    Hadamard,
    MCPhase,
    MCX,
    MatrixGate,
    PauliX,
    PauliY,
    PauliZ,
    Phase,
    RotationX,
    RotationXX,
    RotationY,
    RotationYY,
    RotationZ,
    RotationZZ,
    S,
    Sdg,
    SqrtX,
    SWAP,
    T,
    Tdg,
    U2,
    U3,
    iSWAP,
)
from repro.noise import (
    AmplitudeDamping,
    BitFlip,
    Depolarizing,
    NoiseModel,
    PhaseFlip,
)
from repro.parameter import Parameter

__all__ = ["GeneratorConfig", "GeneratedCase", "generate_case"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random-circuit generator.

    Parameters
    ----------
    min_qubits, max_qubits:
        Register-width range (inclusive).
    min_ops, max_ops:
        Number of top-level elements pushed per circuit (inclusive).
    max_recorded:
        Cap on recorded outcomes (measurements + recorded resets) so
        branch enumeration stays bounded at ``2**max_recorded``.
    p_measure, p_reset, p_barrier, p_block:
        Per-element probabilities of emitting a mid-circuit
        measurement, reset, barrier, or nested ``asBlock`` sub-circuit
        instead of a gate.
    clifford_fraction:
        Fraction of seeds generated Clifford-only (H/S/X/Y/Z/CX/CZ/SWAP
        with Z-basis measurements), eligible for the stabilizer engine.
    noise_fraction:
        Fraction of seeds that carry a random :class:`NoiseModel`.
    parametric_fraction:
        Fraction of non-Clifford seeds generated *parametric*: some
        rotation angles are replaced by symbolic
        :class:`~repro.parameter.Parameter` slots.  The case's
        :attr:`~GeneratedCase.circuit` is the concrete baseline
        materialization (so every existing check runs unchanged) and
        the symbolic original rides along in
        :attr:`~GeneratedCase.symbolic` for the bind/sweep oracle.
        The default 0.0 draws nothing from the RNG, keeping historical
        seed streams byte-identical.
    allow_matrix_gates, allow_multi_controlled:
        Include random-unitary :class:`~repro.gates.MatrixGate` s /
        multi-controlled gates in the universe.
    measure_at_end:
        Always append at least one end-of-circuit measurement so
        sampling checks have outcomes to compare.
    """

    min_qubits: int = 2
    max_qubits: int = 4
    min_ops: int = 4
    max_ops: int = 18
    max_recorded: int = 5
    p_measure: float = 0.08
    p_reset: float = 0.05
    p_barrier: float = 0.03
    p_block: float = 0.07
    clifford_fraction: float = 0.2
    noise_fraction: float = 0.25
    parametric_fraction: float = 0.0
    allow_matrix_gates: bool = True
    allow_multi_controlled: bool = True
    measure_at_end: bool = True

    def __post_init__(self):
        if not 1 <= self.min_qubits <= self.max_qubits:
            raise ValueError(
                f"invalid qubit range [{self.min_qubits}, "
                f"{self.max_qubits}]"
            )
        if not 1 <= self.min_ops <= self.max_ops:
            raise ValueError(
                f"invalid op range [{self.min_ops}, {self.max_ops}]"
            )
        for name in (
            "p_measure", "p_reset", "p_barrier", "p_block",
            "clifford_fraction", "noise_fraction",
            "parametric_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class GeneratedCase:
    """One seed's workload: circuit + noise + oracle eligibility."""

    seed: int
    circuit: QCircuit
    noise: Optional[NoiseModel]
    clifford: bool
    #: Number of recorded outcomes (measurements + recorded resets).
    nb_recorded: int
    #: All gates span <= 2 qubits (MPS-eligible).
    two_local: bool
    #: Every measurement is Z-basis and no reset records its outcome
    #: (QASM round-trip preserves semantics only then).
    qasm_safe: bool
    #: Human-readable universe tag ('clifford', 'brickwork' or 'full').
    universe: str = "full"
    #: ``(Parameter, baseline_value)`` pairs of a parametric case, in
    #: slot-creation order; empty for concrete cases.
    parameters: tuple = ()
    #: The symbolic original of a parametric case (``circuit`` is its
    #: baseline materialization); ``None`` for concrete cases.
    symbolic: Optional[QCircuit] = None


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian, phases fixed."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _distinct(rng: np.random.Generator, n: int, k: int) -> List[int]:
    """k distinct qubits out of n, in random order."""
    return [int(q) for q in rng.choice(n, size=k, replace=False)]


def _clifford_gate(rng: np.random.Generator, n: int):
    roll = int(rng.integers(0, 9 if n >= 2 else 6))
    q = int(rng.integers(0, n))
    if roll == 0:
        return Hadamard(q)
    if roll == 1:
        return S(q)
    if roll == 2:
        return Sdg(q)
    if roll == 3:
        return PauliX(q)
    if roll == 4:
        return PauliY(q)
    if roll == 5:
        return PauliZ(q)
    a, b = _distinct(rng, n, 2)
    if roll == 6:
        return CNOT(a, b)
    if roll == 7:
        return CZ(a, b)
    return SWAP(a, b)


def _sym(rng: np.random.Generator, theta: float, params_out):
    """Replace ``theta`` with a fresh :class:`Parameter` slot half the
    time (parametric mode only), recording the baseline value.

    Draws from ``rng`` only when ``params_out`` is not ``None`` so
    concrete-mode seed streams are untouched.
    """
    if params_out is None or rng.random() >= 0.5:
        return theta
    param = Parameter(f"p{len(params_out)}")
    params_out.append((param, theta))
    return param


def _full_gate(
    rng: np.random.Generator, n: int, config: GeneratorConfig,
    params_out=None,
):
    """One gate from the full universe (may need >= 2 / >= 3 qubits)."""
    kinds = ["fixed", "param", "param"]
    if n >= 2:
        kinds += ["two", "two", "ctrl"]
        if config.allow_matrix_gates:
            kinds.append("matrix")
    elif config.allow_matrix_gates:
        kinds.append("matrix")
    if n >= 3 and config.allow_multi_controlled:
        kinds.append("mc")
    kind = kinds[int(rng.integers(0, len(kinds)))]
    q = int(rng.integers(0, n))
    theta = float(rng.normal(scale=1.5))

    if kind == "fixed":
        cls = [Hadamard, PauliX, PauliY, PauliZ, S, Sdg, T, Tdg, SqrtX][
            int(rng.integers(0, 9))
        ]
        return cls(q)
    if kind == "param":
        roll = int(rng.integers(0, 6))
        if roll < 4:
            theta = _sym(rng, theta, params_out)
        if roll == 0:
            return RotationX(q, theta)
        if roll == 1:
            return RotationY(q, theta)
        if roll == 2:
            return RotationZ(q, theta)
        if roll == 3:
            return Phase(q, theta)
        if roll == 4:
            return U2(q, theta, float(rng.normal(scale=1.5)))
        return U3(
            q, theta, float(rng.normal(scale=1.5)),
            float(rng.normal(scale=1.5)),
        )
    if kind == "two":
        a, b = _distinct(rng, n, 2)
        roll = int(rng.integers(0, 8))
        if roll in (4, 7):
            theta = _sym(rng, theta, params_out)
        if roll == 0:
            return CNOT(a, b)
        if roll == 1:
            return CZ(a, b)
        if roll == 2:
            return CY(a, b)
        if roll == 3:
            return CH(a, b)
        if roll == 4:
            return CPhase(a, b, theta)
        if roll == 5:
            return SWAP(a, b)
        if roll == 6:
            return iSWAP(a, b)
        cls = [RotationXX, RotationYY, RotationZZ][int(rng.integers(0, 3))]
        return cls(a, b, theta)
    if kind == "ctrl":
        a, b = _distinct(rng, n, 2)
        control_state = int(rng.integers(0, 2))
        roll = int(rng.integers(0, 4))
        if roll >= 1:
            theta = _sym(rng, theta, params_out)
        if roll == 0:
            return ControlledGate1(Hadamard(b), a, control_state)
        if roll == 1:
            return CRotationX(a, b, theta)
        if roll == 2:
            return CRotationY(a, b, theta)
        return CRotationZ(a, b, theta)
    if kind == "mc":
        k = int(rng.integers(2, min(n - 1, 3) + 1))
        qs = _distinct(rng, n, k + 1)
        controls, target = qs[:-1], qs[-1]
        states = [int(s) for s in rng.integers(0, 2, size=k)]
        if int(rng.integers(0, 2)):
            return MCX(controls, target, states)
        theta = _sym(rng, theta, params_out)
        return MCPhase(controls, target, theta, control_states=states)
    # matrix gate on 1 or 2 qubits
    k = 1 if n == 1 else int(rng.integers(1, 3))
    qs = sorted(_distinct(rng, n, k))
    return MatrixGate(qs, _random_unitary(rng, 1 << k), label="R")


def _push_brickwork(
    circuit: QCircuit, rng: np.random.Generator, nb_layers: int,
    params_out=None,
) -> None:
    """Layers of one-qubit rotations, each followed by entanglers on
    alternating adjacent pairs ``(q, q+1)`` in a random direction."""
    n = circuit.nbQubits
    for layer in range(nb_layers):
        for q in range(n):
            roll = int(rng.integers(0, 4))
            theta = float(rng.normal(scale=1.5))
            if roll == 3:
                circuit.push_back(U3(
                    q, theta, float(rng.normal(scale=1.5)),
                    float(rng.normal(scale=1.5)),
                ))
                continue
            circuit.push_back((RotationX, RotationY, RotationZ)[roll](
                q, _sym(rng, theta, params_out)
            ))
        for q in range(layer % 2, n - 1, 2):
            a, b = (q, q + 1) if rng.random() < 0.5 else (q + 1, q)
            roll = int(rng.integers(0, 7))
            theta = float(rng.normal(scale=1.5))
            if roll == 0:
                circuit.push_back(CNOT(a, b))
            elif roll == 1:
                circuit.push_back(CZ(a, b))
            elif roll == 2:
                circuit.push_back(CPhase(a, b, theta))
            elif roll == 3:
                circuit.push_back(iSWAP(q, q + 1))
            elif roll == 4:
                circuit.push_back(RotationXX(q, q + 1, theta))
            elif roll == 5:
                circuit.push_back(SWAP(q, q + 1))
            else:
                circuit.push_back(
                    MatrixGate([q, q + 1], _random_unitary(rng, 4), "R")
                )


def _random_block(
    rng: np.random.Generator, n: int, config: GeneratorConfig, clifford: bool
) -> QCircuit:
    """A nested sub-circuit, pushed whole via ``asBlock``."""
    width = int(rng.integers(1, n + 1))
    offset = int(rng.integers(0, n - width + 1))
    sub = QCircuit(width, offset)
    for _ in range(int(rng.integers(1, 4))):
        sub.push_back(
            _clifford_gate(rng, width)
            if clifford
            else _full_gate(rng, width, config)
        )
    return sub.asBlock("B")


def _random_noise(rng: np.random.Generator) -> NoiseModel:
    p = float(rng.uniform(0.01, 0.08))
    cls = [BitFlip, PhaseFlip, Depolarizing, AmplitudeDamping][
        int(rng.integers(0, 4))
    ]
    readout = float(rng.uniform(0.0, 0.05)) if rng.random() < 0.4 else 0.0
    return NoiseModel(gate_noise=cls(p), readout_error=readout)


def generate_case(
    seed: int, config: Optional[GeneratorConfig] = None
) -> GeneratedCase:
    """Deterministically generate the workload for one seed."""
    config = config or GeneratorConfig()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(config.min_qubits, config.max_qubits + 1))
    nb_ops = int(rng.integers(config.min_ops, config.max_ops + 1))
    clifford = bool(rng.random() < config.clifford_fraction)
    noisy = bool(rng.random() < config.noise_fraction)
    # Short-circuit: the default fraction of 0.0 draws nothing, so
    # historical seed streams stay byte-identical.
    parametric = bool(
        config.parametric_fraction > 0
        and not clifford
        and rng.random() < config.parametric_fraction
    )
    params_out: Optional[list] = [] if parametric else None
    # keyed on the seed, not drawn, so the other seeds keep their
    # historical streams
    brickwork = not clifford and seed % 4 == 3

    circuit = QCircuit(n)
    recorded = 0
    qasm_safe = True
    if brickwork:
        _push_brickwork(circuit, rng, max(1, nb_ops // n), params_out)
    for _ in range(0 if brickwork else nb_ops):
        roll = float(rng.random())
        if roll < config.p_measure and recorded < config.max_recorded:
            q = int(rng.integers(0, n))
            basis = "z" if clifford else ["z", "z", "x", "y"][
                int(rng.integers(0, 4))
            ]
            circuit.push_back(Measurement(q, basis))
            recorded += 1
            if basis != "z":
                qasm_safe = False
            continue
        roll -= config.p_measure
        if roll < config.p_reset:
            record = (
                recorded < config.max_recorded and rng.random() < 0.5
            )
            circuit.push_back(Reset(int(rng.integers(0, n)), record))
            if record:
                recorded += 1
                qasm_safe = False
            continue
        roll -= config.p_reset
        if roll < config.p_barrier:
            k = int(rng.integers(1, n + 1))
            circuit.push_back(Barrier(sorted(_distinct(rng, n, k))))
            continue
        roll -= config.p_barrier
        if roll < config.p_block:
            circuit.push_back(_random_block(rng, n, config, clifford))
            continue
        circuit.push_back(
            _clifford_gate(rng, n)
            if clifford
            else _full_gate(rng, n, config, params_out)
        )

    if config.measure_at_end and recorded < config.max_recorded:
        circuit.push_back(Measurement(int(rng.integers(0, n))))
        recorded += 1

    from repro.gates.base import QGate
    from repro.ir import lower

    symbolic = None
    parameters = tuple(params_out) if params_out else ()
    if parameters:
        # Concrete baseline for every existing check; the symbolic
        # original rides along for the parametric oracle.
        symbolic = circuit
        circuit = circuit.bind(dict(parameters)).materialize()

    two_local = all(
        len(op.qubits) <= 2
        for op, _off in lower(circuit).flat()
        if isinstance(op, QGate)
    )
    return GeneratedCase(
        seed=int(seed),
        circuit=circuit,
        noise=_random_noise(rng) if noisy else None,
        clifford=clifford,
        nb_recorded=recorded,
        two_local=two_local,
        qasm_safe=qasm_safe,
        universe=(
            "clifford" if clifford else "brickwork" if brickwork
            else "full"
        ),
        parameters=parameters,
        symbolic=symbolic,
    )
