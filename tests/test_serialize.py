"""Tests for JSON circuit serialization (save/load round-trips)."""

import numpy as np
import pytest

from repro.circuit import Barrier, Measurement, QCircuit, Reset
from repro.gates import (
    CH,
    CNOT,
    CPhase,
    CRotationY,
    CSwap,
    CZ,
    ControlledGate,
    ControlledGate1,
    Hadamard,
    Identity,
    MCGate,
    MCPhase,
    MCRotationZ,
    MCX,
    MCZ,
    MatrixGate,
    PauliY,
    Phase,
    RotationX,
    RotationZZ,
    S,
    SqrtX,
    SWAP,
    T,
    U2,
    U3,
    iSWAP,
)
from repro.io.serialize import (
    SerializationError,
    circuit_from_dict,
    circuit_to_dict,
    dumps_circuit,
    load_circuit,
    loads_circuit,
    save_circuit,
)


def roundtrip(circuit):
    return loads_circuit(dumps_circuit(circuit))


def assert_same_unitary(a, b):
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-14)


class TestGateCoverage:
    def test_every_gate_class_roundtrips(self):
        c = QCircuit(5)
        gates = [
            Identity(0), Hadamard(1), PauliY(2), S(3), T(4), SqrtX(0),
            Phase(1, 0.37), RotationX(2, -1.2), RotationZZ(0, 3, 0.8),
            U2(1, 0.3, -0.4), U3(2, 0.1, 0.2, 0.3),
            CNOT(0, 1), CZ(1, 2), CH(2, 3, control_state=0),
            CPhase(3, 4, 0.9), CRotationY(0, 2, -0.7),
            SWAP(1, 4), iSWAP(0, 3), CSwap(0, 1, 2),
            MCX([0, 1], 2, [1, 0]), MCZ([2, 3], 4),
            MCPhase([0, 4], 2, 0.55), MCRotationZ([1, 2], 0, 0.2),
            MatrixGate([1, 3], np.kron(np.eye(2), Hadamard(0).matrix),
                       label="G"),
            ControlledGate1(SqrtX(1), 0),
            ControlledGate(iSWAP(1, 2), 0),
            MCGate(SqrtX(3), [0, 1], [0, 1]),
        ]
        for g in gates:
            c.push_back(g)
        back = roundtrip(c)
        assert len(back) == len(c)
        assert_same_unitary(c, back)
        for original, decoded in zip(c, back):
            assert type(decoded) is type(original)
            assert decoded == original

    def test_iswap_dagger_roundtrips(self):
        c = QCircuit(2)
        c.push_back(iSWAP(0, 1).ctranspose())
        assert_same_unitary(c, roundtrip(c))

    def test_rotation_parameters_bit_exact(self):
        theta = 0.123456789123456789
        c = QCircuit(1)
        c.push_back(RotationX(0, theta))
        back = roundtrip(c)
        assert back[0].rotation.cos == c[0].rotation.cos
        assert back[0].rotation.sin == c[0].rotation.sin


class TestNonGateElements:
    def test_measurements_all_bases(self):
        c = QCircuit(3)
        c.push_back(Measurement(0))
        c.push_back(Measurement(1, "x"))
        c.push_back(Measurement(2, "y"))
        back = roundtrip(c)
        assert [m.basis for m in back] == ["z", "x", "y"]

    def test_custom_basis_measurement(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        c = QCircuit(1)
        c.push_back(Measurement(0, h, label="Mh"))
        back = roundtrip(c)
        assert back[0].basis == "custom"
        assert back[0].label == "Mh"
        np.testing.assert_allclose(back[0].basis_change, h)

    def test_reset_and_barrier(self):
        c = QCircuit(2)
        c.push_back(Reset(0, record=True))
        c.push_back(Barrier([0, 1]))
        back = roundtrip(c)
        assert back[0].record is True
        assert back[1].qubits == (0, 1)


class TestNesting:
    def test_nested_blocks(self):
        sub = QCircuit(2, offset=1)
        sub.push_back(CZ(0, 1))
        sub.asBlock("oracle")
        c = QCircuit(3)
        c.push_back(Hadamard(0))
        c.push_back(sub)
        back = roundtrip(c)
        inner = back[1]
        assert isinstance(inner, QCircuit)
        assert inner.is_block
        assert inner.block_label == "oracle"
        assert inner.offset == 1
        assert_same_unitary(c, back)

    def test_paper_circuits_roundtrip(self):
        from repro.algorithms import (
            bit_flip_code_circuit,
            paper_grover_circuit,
            teleportation_circuit,
        )

        v = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
        for circuit, start in (
            (teleportation_circuit(),
             np.kron(v, np.array([1, 0, 0, 1]) / np.sqrt(2))),
            (paper_grover_circuit(), "00"),
            (bit_flip_code_circuit(),
             np.kron(v, np.eye(1, 16, 0).ravel())),
        ):
            back = roundtrip(circuit)
            s1 = circuit.simulate(start)
            s2 = back.simulate(start)
            assert s1.results == s2.results
            np.testing.assert_allclose(
                s1.probabilities, s2.probabilities, atol=1e-12
            )


class TestFileIO:
    def test_save_load_file(self, tmp_path):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        path = tmp_path / "bell.json"
        save_circuit(c, path)
        back = load_circuit(path)
        assert_same_unitary(c, back)

    def test_json_is_plain_text(self, tmp_path):
        import json

        c = QCircuit(1)
        c.push_back(RotationX(0, 0.5))
        path = tmp_path / "c.json"
        save_circuit(c, path)
        doc = json.loads(path.read_text())
        assert doc["type"] == "QCircuit"
        assert doc["ops"][0]["type"] == "RotationX"


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(SerializationError):
            circuit_from_dict(
                {"nbQubits": 1, "ops": [{"type": "WarpGate"}]}
            )

    def test_missing_width_rejected(self):
        with pytest.raises(SerializationError):
            circuit_from_dict({"ops": []})

    def test_dict_roundtrip_stable(self):
        c = QCircuit(2)
        c.push_back(CPhase(0, 1, 0.3))
        d1 = circuit_to_dict(c)
        d2 = circuit_to_dict(circuit_from_dict(d1))
        assert d1 == d2
