"""Circuit persistence: JSON serialization and deserialization.

Saves a :class:`~repro.circuit.QCircuit` — including nested block
sub-circuits, custom matrix gates, measurements in any basis, resets and
barriers — to a plain JSON document, and restores it exactly.

Rotation and phase parameters are stored as their ``(cos, sin)`` pairs
(not the angle value), so a save/load round-trip is **bit-exact** for
the numerically sensitive parameters, in keeping with the toolbox's
stability story.
"""

from __future__ import annotations

import json

import numpy as np

from repro.circuit.barrier import Barrier
from repro.circuit.circuit import QCircuit
from repro.circuit.measurement import Measurement
from repro.circuit.reset import Reset
from repro.exceptions import QCLabError
from repro.gates import (
    CH,
    CNOT,
    CPhase,
    CRotationX,
    CRotationY,
    CRotationZ,
    CSwap,
    CY,
    CZ,
    ControlledGate,
    ControlledGate1,
    Hadamard,
    Identity,
    MCGate,
    MCPhase,
    MCRotationX,
    MCRotationY,
    MCRotationZ,
    MCX,
    MCY,
    MCZ,
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
from repro.gates.fixed import _SqrtXdg
from repro.gates.two_qubit import _iSWAPdg

__all__ = [
    "circuit_to_dict",
    "circuit_from_dict",
    "dumps_circuit",
    "loads_circuit",
    "save_circuit",
    "load_circuit",
]


class SerializationError(QCLabError, ValueError):
    """A failure while (de)serializing a circuit."""


_FIXED = {
    cls.__name__: cls
    for cls in (
        Identity, Hadamard, PauliX, PauliY, PauliZ, S, Sdg, T, Tdg,
        SqrtX, _SqrtXdg,
    )
}

_ROT1 = {
    cls.__name__: cls for cls in (RotationX, RotationY, RotationZ)
}
_ROT2 = {
    cls.__name__: cls for cls in (RotationXX, RotationYY, RotationZZ)
}
_CROT = {
    cls.__name__: cls
    for cls in (CRotationX, CRotationY, CRotationZ)
}
_MCROT = {
    cls.__name__: cls
    for cls in (MCRotationX, MCRotationY, MCRotationZ)
}
_NAMED_CTRL = {
    cls.__name__: cls for cls in (CNOT, CY, CZ, CH)
}
_MC_FIXED = {cls.__name__: cls for cls in (MCX, MCY, MCZ)}


def _rot_pair(rotation) -> list:
    return [rotation.cos, rotation.sin]


def _angle_pair(angle) -> list:
    return [angle.cos, angle.sin]


def _encode_op(op) -> dict:
    name = type(op).__name__
    if isinstance(op, QCircuit):
        d = circuit_to_dict(op)
        d["type"] = "QCircuit"
        return d
    if name in _FIXED:
        return {"type": name, "qubit": op.qubit}
    if name in _ROT1:
        return {
            "type": name,
            "qubit": op.qubit,
            "rotation": _rot_pair(op.rotation),
        }
    if name in _ROT2:
        return {
            "type": name,
            "qubits": list(op.qubits),
            "rotation": _rot_pair(op.rotation),
        }
    if isinstance(op, Phase):
        return {
            "type": "Phase",
            "qubit": op.qubit,
            "angle": _angle_pair(op.angle),
        }
    if isinstance(op, U2):
        return {
            "type": "U2", "qubit": op.qubit, "phi": op.phi, "lam": op.lam,
        }
    if isinstance(op, U3):
        return {
            "type": "U3",
            "qubit": op.qubit,
            "theta": op.theta,
            "phi": op.phi,
            "lam": op.lam,
        }
    if isinstance(op, MatrixGate):
        m = op.matrix
        return {
            "type": "MatrixGate",
            "qubits": list(op.qubits),
            "label": op.label,
            "matrix_re": m.real.tolist(),
            "matrix_im": m.imag.tolist(),
        }
    if isinstance(op, (SWAP, iSWAP, _iSWAPdg)):
        return {"type": name, "qubits": list(op.qubits)}
    if isinstance(op, CSwap):
        return {
            "type": "CSwap",
            "control": op.control,
            "targets": list(op.gate.qubits),
            "control_state": op.control_state,
        }
    if isinstance(op, CPhase):
        return {
            "type": "CPhase",
            "control": op.control,
            "target": op.target,
            "angle": _angle_pair(op.angle),
            "control_state": op.control_state,
        }
    if name in _CROT:
        return {
            "type": name,
            "control": op.control,
            "target": op.target,
            "rotation": _rot_pair(op.rotation),
            "control_state": op.control_state,
        }
    if name in _NAMED_CTRL:
        return {
            "type": name,
            "control": op.control,
            "target": op.target,
            "control_state": op.control_state,
        }
    if isinstance(op, ControlledGate1):
        return {
            "type": "ControlledGate1",
            "control": op.control,
            "control_state": op.control_state,
            "gate": _encode_op(op.gate),
        }
    if isinstance(op, ControlledGate):
        return {
            "type": "ControlledGate",
            "control": op.control,
            "control_state": op.control_state,
            "gate": _encode_op(op.gate),
        }
    if isinstance(op, MCPhase):
        return {
            "type": "MCPhase",
            "controls": list(op.controls()),
            "target": op.target,
            "angle": _angle_pair(op.gate.angle),
            "control_states": list(op.control_states()),
        }
    if name in _MCROT:
        return {
            "type": name,
            "controls": list(op.controls()),
            "target": op.target,
            "rotation": _rot_pair(op.gate.rotation),
            "control_states": list(op.control_states()),
        }
    if name in _MC_FIXED:
        return {
            "type": name,
            "controls": list(op.controls()),
            "target": op.target,
            "control_states": list(op.control_states()),
        }
    if isinstance(op, MCGate):
        return {
            "type": "MCGate",
            "controls": list(op.controls()),
            "control_states": list(op.control_states()),
            "gate": _encode_op(op.gate),
        }
    if isinstance(op, Measurement):
        d = {"type": "Measurement", "qubit": op.qubit, "basis": op.basis}
        if op.basis == "custom":
            b = op.basis_change
            d["basis_re"] = b.real.tolist()
            d["basis_im"] = b.imag.tolist()
            d["label"] = op.label
        return d
    if isinstance(op, Reset):
        return {"type": "Reset", "qubit": op.qubit, "record": op.record}
    if isinstance(op, Barrier):
        return {"type": "Barrier", "qubits": list(op.qubits)}
    raise SerializationError(
        f"cannot serialize circuit element {name}"
    )


def _decode_op(d: dict):
    name = d.get("type")
    if name == "QCircuit":
        return circuit_from_dict(d)
    if name in _FIXED:
        return _FIXED[name](d["qubit"])
    if name in _ROT1:
        c, s = d["rotation"]
        return _ROT1[name](d["qubit"], c, s)
    if name in _ROT2:
        c, s = d["rotation"]
        return _ROT2[name](*d["qubits"], c, s)
    if name == "Phase":
        c, s = d["angle"]
        return Phase(d["qubit"], c, s)
    if name == "U2":
        return U2(d["qubit"], d["phi"], d["lam"])
    if name == "U3":
        return U3(d["qubit"], d["theta"], d["phi"], d["lam"])
    if name == "MatrixGate":
        m = np.array(d["matrix_re"]) + 1j * np.array(d["matrix_im"])
        return MatrixGate(d["qubits"], m, label=d.get("label", "U"))
    if name == "SWAP":
        return SWAP(*d["qubits"])
    if name == "iSWAP":
        return iSWAP(*d["qubits"])
    if name == "_iSWAPdg":
        return _iSWAPdg(*d["qubits"])
    if name == "CSwap":
        return CSwap(
            d["control"], *d["targets"],
            control_state=d.get("control_state", 1),
        )
    if name == "CPhase":
        c, s = d["angle"]
        return CPhase(
            d["control"], d["target"], c, s,
            control_state=d.get("control_state", 1),
        )
    if name in _CROT:
        c, s = d["rotation"]
        from repro.angle import QRotation

        return _CROT[name](
            d["control"], d["target"], QRotation(c, s),
            control_state=d.get("control_state", 1),
        )
    if name in _NAMED_CTRL:
        return _NAMED_CTRL[name](
            d["control"], d["target"], d.get("control_state", 1)
        )
    if name == "ControlledGate1":
        return ControlledGate1(
            _decode_op(d["gate"]), d["control"],
            d.get("control_state", 1),
        )
    if name == "ControlledGate":
        return ControlledGate(
            _decode_op(d["gate"]), d["control"],
            d.get("control_state", 1),
        )
    if name == "MCPhase":
        c, s = d["angle"]
        return MCPhase(
            d["controls"], d["target"], c, s,
            control_states=d.get("control_states"),
        )
    if name in _MCROT:
        c, s = d["rotation"]
        from repro.angle import QRotation

        return _MCROT[name](
            d["controls"], d["target"], QRotation(c, s),
            control_states=d.get("control_states"),
        )
    if name in _MC_FIXED:
        return _MC_FIXED[name](
            d["controls"], d["target"], d.get("control_states")
        )
    if name == "MCGate":
        return MCGate(
            _decode_op(d["gate"]), d["controls"],
            d.get("control_states"),
        )
    if name == "Measurement":
        if d.get("basis") == "custom":
            b = np.array(d["basis_re"]) + 1j * np.array(d["basis_im"])
            return Measurement(d["qubit"], b, label=d.get("label"))
        return Measurement(d["qubit"], d.get("basis", "z"))
    if name == "Reset":
        return Reset(d["qubit"], record=d.get("record", False))
    if name == "Barrier":
        return Barrier(d["qubits"])
    raise SerializationError(f"unknown circuit element type {name!r}")


def circuit_to_dict(circuit: QCircuit) -> dict:
    """Serialize a circuit (recursively) to plain Python containers.

    Uses the canonical walker's structure-preserving view
    (:func:`repro.ir.lower.iter_elements` with ``expand='none'``):
    nested sub-circuits stay whole and recurse through
    :func:`_encode_op`, so the document mirrors the tree exactly.
    """
    from repro.ir.lower import iter_elements

    return {
        "type": "QCircuit",
        "nbQubits": circuit.nbQubits,
        "offset": circuit.offset,
        "block": circuit.is_block,
        "block_label": circuit.block_label,
        "ops": [
            _encode_op(op)
            for op, _off in iter_elements(circuit, "none")
        ],
    }


def circuit_from_dict(data: dict) -> QCircuit:
    """Rebuild a circuit from :func:`circuit_to_dict` output."""
    try:
        circuit = QCircuit(data["nbQubits"], data.get("offset", 0))
    except KeyError as exc:
        raise SerializationError(
            f"missing required key {exc.args[0]!r}"
        ) from None
    if data.get("block"):
        circuit.asBlock(data.get("block_label", "circuit"))
    for op_dict in data.get("ops", []):
        circuit.push_back(_decode_op(op_dict))
    return circuit


def dumps_circuit(circuit: QCircuit, **json_kwargs) -> str:
    """Serialize a circuit to a JSON string."""
    return json.dumps(circuit_to_dict(circuit), **json_kwargs)


def loads_circuit(text: str) -> QCircuit:
    """Parse a circuit from a JSON string."""
    return circuit_from_dict(json.loads(text))


def save_circuit(circuit: QCircuit, path) -> None:
    """Write a circuit to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=1)


def load_circuit(path) -> QCircuit:
    """Read a circuit from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_dict(json.load(fh))
