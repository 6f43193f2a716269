"""Edge-case coverage for guards and less-travelled paths."""

import numpy as np
import pytest

from repro.circuit import Measurement, QCircuit
from repro.exceptions import QASMError, SimulationError
from repro.gates import CNOT, Hadamard, MatrixGate, PauliX
from repro.simulation.simulate import Branch, Simulation


class TestCountsGuards:
    def _fake_simulation(self, nb_measurements):
        state = np.array([1.0 + 0j])
        branches = [Branch(1.0, state, "0" * nb_measurements)]
        measurements = [(0, Measurement(0))] * nb_measurements
        return Simulation(1, branches, measurements, {}, "kernel")

    def test_direct_constructor(self):
        sim = Simulation(1, [], [], {}, "kernel")
        assert sim.nbBranches == 0

    def test_counts_refuses_huge_vectors(self):
        sim = self._fake_simulation(25)
        with pytest.raises(SimulationError):
            sim.counts(10)

    def test_counts_dict_handles_many_measurements(self):
        sim = self._fake_simulation(25)
        d = sim.counts_dict(10, seed=0)
        assert d == {"0" * 25: 10}

    def test_branches_accessor_returns_copy(self):
        sim = self._fake_simulation(1)
        branches = sim.branches
        branches.clear()
        assert sim.nbBranches == 1


class TestMeasuredQubitsBookkeeping:
    def test_order_and_repeats(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(1))
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
        sim = c.simulate("00")
        assert sim.measuredQubits == [1, 0, 1]
        assert sim.nbMeasurements == 3

    def test_recorded_reset_counts_as_measurement(self):
        from repro.circuit import Reset

        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Reset(0, record=True))
        sim = c.simulate("0")
        assert sim.nbMeasurements == 1


class TestQASM3Guards:
    def test_unexportable_gate_raises_with_context(self):
        from repro.gates import ControlledGate, iSWAP

        c = QCircuit(3)
        c.push_back(ControlledGate(iSWAP(1, 2), 0))
        with pytest.raises(QASMError):
            c.toQASM3()


class TestMatrixGateDtype:
    def test_accepts_real_input(self):
        g = MatrixGate(0, np.array([[0, 1], [1, 0]], dtype=float))
        assert g.matrix.dtype == np.complex128

    def test_two_qubit_qasm3_export(self):
        from repro.gates import SWAP

        c = QCircuit(2)
        c.push_back(MatrixGate([0, 1], SWAP(0, 1).matrix))
        text = c.toQASM3()
        assert "OPENQASM 3.0;" in text


class TestDrawCornerCases:
    def test_wide_labels_set_column_width(self):
        from repro.gates import RotationX

        c = QCircuit(2)
        c.push_back(RotationX(0, 1.23456))
        c.push_back(Hadamard(1))
        text = c.draw()
        # both elements share the (wide) column without clipping
        assert "RX(1.235)" in text

    def test_adjacent_two_qubit_boxes(self):
        from repro.gates import RotationXX

        c = QCircuit(2)
        c.push_back(RotationXX(0, 1, 0.5))
        text = c.draw()
        assert text.count("RXX(0.5)") == 2  # one box label per wire

    def test_draw_print_mode_returns_none(self, capsys):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        assert c.draw(output="print") is None
        assert "H" in capsys.readouterr().out


class TestAngleDegenerates:
    def test_qangle_two_arg_normalizes(self):
        from repro.angle import QAngle

        c, s = 0.6000000001, 0.8
        a = QAngle(c, s)
        assert np.hypot(a.cos, a.sin) == pytest.approx(1.0, abs=1e-15)

    def test_qrotation_four_pi_periodicity(self):
        from repro.angle import QRotation

        r = QRotation(2 * np.pi)  # half angle pi: cos = -1
        assert r.cos == pytest.approx(-1.0)
        # matrix equals -I, NOT +I: rotations are 4 pi periodic
        from repro.gates import RotationX

        np.testing.assert_allclose(
            RotationX(0, 2 * np.pi).matrix, -np.eye(2), atol=1e-12
        )


class TestBackendBatchEdge:
    def test_single_column_batch(self):
        from repro.simulation.backends import KernelBackend

        state = np.zeros((4, 1), dtype=complex)
        state[0, 0] = 1.0
        out = KernelBackend().apply(
            state, PauliX(0).matrix, [0], 2
        )
        assert out.shape == (4, 1)
        assert out[2, 0] == 1.0

    def test_gate_on_every_qubit_of_wide_batch(self):
        from repro.simulation.backends import (
            KernelBackend,
            SparseKronBackend,
        )

        rng = np.random.default_rng(0)
        batch = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        outs = []
        for backend in (KernelBackend(), SparseKronBackend()):
            out = batch.copy()
            for q in range(3):
                out = backend.apply(out, Hadamard(0).matrix, [q], 3)
            outs.append(out)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)


class TestCircuitAsBlockInDrawOfParent:
    def test_single_qubit_block(self):
        sub = QCircuit(1)
        sub.push_back(Hadamard(0))
        sub.asBlock("sub")
        c = QCircuit(2)
        c.push_back(sub)
        c.push_back(CNOT(0, 1))
        text = c.draw()
        assert "sub" in text
