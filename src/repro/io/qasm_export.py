"""OpenQASM 2.0 export — the paper's ``toQASM``.

Produces text executable on OpenQASM-2.0 toolchains (``qelib1.inc``
gate set).  Gates outside qelib1 (``rxx``/``ryy``/``rzz``, ``iswap``)
are emitted with accompanying ``gate`` definitions; multi-controlled
gates are decomposed recursively into singly-controlled primitives, so
every circuit this package can build exports to standard QASM.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.exceptions import QASMError

__all__ = [
    "circuit_to_qasm",
    "u3_params",
    "unitary_to_u3_qasm",
    "multi_controlled_qasm",
    "matrix_gate_qasm",
]

_TOL = 1e-12

#: gate definitions for names outside qelib1, emitted on demand.
_GATE_DEFS = {
    "rzz": "gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }",
    "rxx": (
        "gate rxx(theta) a,b "
        "{ h a; h b; cx a,b; u1(theta) b; cx a,b; h a; h b; }"
    ),
    "ryy": (
        "gate ryy(theta) a,b { rx(pi/2) a; rx(pi/2) b; cx a,b; "
        "u1(theta) b; cx a,b; rx(-pi/2) a; rx(-pi/2) b; }"
    ),
    "iswap": "gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }",
    "iswapdg": (
        "gate iswapdg a,b { h b; cx b,a; cx a,b; h a; sdg b; sdg a; }"
    ),
}


def u3_params(matrix: np.ndarray):
    """Decompose a 2x2 unitary as ``U = e^{i alpha} u3(theta, phi, lam)``.

    Returns ``(theta, phi, lam, alpha)``.  Numerically robust for every
    unitary, including diagonal and anti-diagonal ones.
    """
    u = np.asarray(matrix, dtype=np.complex128)
    if u.shape != (2, 2):
        raise QASMError(f"u3_params expects a 2x2 matrix, got {u.shape}")
    c = abs(u[0, 0])
    s = abs(u[1, 0])
    theta = 2.0 * math.atan2(s, c)
    if c > _TOL:
        alpha = math.atan2(u[0, 0].imag, u[0, 0].real)
        if s > _TOL:
            phi = math.atan2(u[1, 0].imag, u[1, 0].real) - alpha
            lam = math.atan2(-u[0, 1].imag, -u[0, 1].real) - alpha
        else:
            phi = 0.0
            lam = math.atan2(u[1, 1].imag, u[1, 1].real) - alpha
    else:
        alpha = 0.0
        phi = math.atan2(u[1, 0].imag, u[1, 0].real)
        lam = math.atan2(-u[0, 1].imag, -u[0, 1].real)
    return theta, phi, lam, alpha


def unitary_to_u3_qasm(matrix: np.ndarray, qubit: int) -> str:
    """QASM applying a 2x2 unitary to ``qubit`` (global phase dropped)."""
    theta, phi, lam, _alpha = u3_params(matrix)
    return f"u3({theta!r},{phi!r},{lam!r}) q[{qubit}];"


def _controlled_u_lines(
    control: int, target: int, matrix: np.ndarray
) -> List[str]:
    """Singly-controlled arbitrary 2x2 unitary.

    The base gate's global phase ``alpha`` is physical once controlled;
    it becomes a ``u1(alpha)`` on the control qubit.
    """
    theta, phi, lam, alpha = u3_params(matrix)
    lines = []
    if abs(alpha) > 1e-12:
        lines.append(f"u1({alpha!r}) q[{control}];")
    lines.append(
        f"cu3({theta!r},{phi!r},{lam!r}) q[{control}],q[{target}];"
    )
    return lines


def _sqrt_unitary(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary (stays unitary)."""
    import scipy.linalg

    root = scipy.linalg.sqrtm(np.asarray(matrix, dtype=np.complex128))
    return np.asarray(root, dtype=np.complex128)


_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _mcu_lines(
    controls: Sequence[int], target: int, matrix: np.ndarray
) -> List[str]:
    """Recursive multi-controlled-U decomposition (all controls state-1).

    Uses the standard identity ``C^k(U) = C(V) . C^{k-1}X . C(V^dag) .
    C^{k-1}X . C^{k-1}(V)`` with ``V = sqrt(U)``; Toffolis short-circuit
    to the native ``ccx``.
    """
    controls = list(controls)
    if len(controls) == 1:
        if np.allclose(matrix, _X_MATRIX, atol=1e-12):
            return [f"cx q[{controls[0]}],q[{target}];"]
        return _controlled_u_lines(controls[0], target, matrix)
    if len(controls) == 2 and np.allclose(matrix, _X_MATRIX, atol=1e-12):
        return [f"ccx q[{controls[0]}],q[{controls[1]}],q[{target}];"]
    v = _sqrt_unitary(matrix)
    v_dag = v.conj().T
    last = controls[-1]
    rest = controls[:-1]
    lines = []
    lines += _mcu_lines([last], target, v)
    lines += _mcu_lines(rest, last, _X_MATRIX)
    lines += _mcu_lines([last], target, v_dag)
    lines += _mcu_lines(rest, last, _X_MATRIX)
    lines += _mcu_lines(rest, target, v)
    return lines


def multi_controlled_qasm(gate, offset: int = 0) -> str:
    """QASM for a controlled gate with a one-qubit target (any number of
    controls, any control states); open controls are conjugated by X."""
    targets = gate.target_qubits()
    if len(targets) != 1:
        raise QASMError(
            "no OpenQASM 2.0 encoding for a generic controlled "
            f"{type(gate.gate).__name__}; decompose it first"
        )
    controls = [c + offset for c in gate.controls()]
    states = list(gate.control_states())
    target = targets[0] + offset
    lines: List[str] = []
    flips = [c for c, s in zip(controls, states) if s == 0]
    for c in flips:
        lines.append(f"x q[{c}];")
    lines += _mcu_lines(controls, target, gate.target_matrix())
    for c in flips:
        lines.append(f"x q[{c}];")
    return "\n".join(lines)


def matrix_gate_qasm(gate, offset: int = 0) -> str:
    """QASM for a :class:`MatrixGate`.

    One-qubit unitaries emit a single ``u3``; two-qubit unitaries are
    compiled exactly through the quantum Shannon decomposition
    (:func:`repro.compilers.two_qubit.decompose_two_qubit`) and emitted
    gate by gate.  Larger custom gates have no OpenQASM 2.0 encoding.
    """
    if gate.nbQubits == 1:
        return unitary_to_u3_qasm(gate.matrix, gate.qubits[0] + offset)
    if gate.nbQubits == 2:
        from repro.compilers.two_qubit import decompose_two_qubit

        a, b = gate.qubits
        sub = decompose_two_qubit(gate.matrix, a, b)
        lines: List[str] = []
        for op, off in sub.operations():
            lines.extend(op.toQASM(off + offset).splitlines())
        return "\n".join(lines)
    raise QASMError(
        f"cannot export a {gate.nbQubits}-qubit custom matrix gate to "
        "OpenQASM 2.0; decompose it into one- and two-qubit gates first"
    )


def circuit_to_qasm(
    circuit, offset: int = 0, include_header: bool = True
) -> str:
    """Export a :class:`~repro.circuit.QCircuit` as OpenQASM 2.0 text.

    The header declares ``qreg q[n]`` and ``creg c[n]`` and pulls in
    ``qelib1.inc``; definitions for non-qelib1 gates are added when the
    body uses them.  Records an ``io.qasm.export`` span when
    instrumentation is ambient (see :mod:`repro.observability`).
    """
    from repro.observability.instrument import current_instrumentation

    with current_instrumentation().span(
        "io.qasm.export", nb_qubits=circuit.nbQubits
    ):
        return _circuit_to_qasm(circuit, offset, include_header)


def _circuit_to_qasm(
    circuit, offset: int = 0, include_header: bool = True
) -> str:
    from repro.ir.lower import lower

    body_lines: List[str] = []
    for op, off in lower(circuit).flat():
        text = op.toQASM(off + offset)
        body_lines.extend(text.splitlines())
    body = "\n".join(body_lines)

    if not include_header:
        return body + ("\n" if body else "")

    defs = [
        definition
        for name, definition in _GATE_DEFS.items()
        if any(
            line.startswith(name + " ") or line.startswith(name + "(")
            for line in body_lines
        )
    ]
    n = circuit.nbQubits + offset
    parts = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    parts += defs
    parts.append(f"qreg q[{n}];")
    parts.append(f"creg c[{n}];")
    if body:
        parts.append(body)
    return "\n".join(parts) + "\n"
