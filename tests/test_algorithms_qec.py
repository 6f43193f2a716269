"""Tests for the QEC example (paper E5) and its extensions."""

import numpy as np
import pytest

from repro.algorithms import (
    bit_flip_code_circuit,
    phase_flip_code_circuit,
    run_bit_flip_demo,
    run_phase_flip_demo,
    run_shor_code_demo,
    shor_code_circuit,
)
from repro.exceptions import CircuitError

V = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])


class TestPaperExample:
    def test_circuit_structure(self):
        qec = bit_flip_code_circuit(0)
        assert qec.nbQubits == 5
        names = [type(op).__name__ for op in qec]
        assert names.count("CNOT") == 6
        assert names.count("PauliX") == 1
        assert names.count("Measurement") == 2
        assert names.count("MCX") == 3

    def test_paper_syndrome_for_q0_error(self):
        """The paper's run: error on q0 gives syndrome '11'."""
        r = run_bit_flip_demo(V, error_qubit=0)
        assert r.syndrome == "11"
        assert r.probability == pytest.approx(1.0)
        assert r.corrected

    def test_final_state_is_restored_encoding(self):
        r = run_bit_flip_demo(V, error_qubit=0)
        expected = np.zeros(32, dtype=complex)
        expected[0b00011] = V[0]  # |000>|11>
        expected[0b11111] = V[1]  # |111>|11>
        np.testing.assert_allclose(r.state, expected, atol=1e-12)


class TestBitFlipAllLocations:
    @pytest.mark.parametrize(
        "error,syndrome",
        [(None, "00"), (0, "11"), (1, "10"), (2, "01")],
    )
    def test_syndrome_table(self, error, syndrome):
        r = run_bit_flip_demo(V, error_qubit=error)
        assert r.syndrome == syndrome
        assert r.corrected

    def test_rejects_bad_location(self):
        with pytest.raises(CircuitError):
            bit_flip_code_circuit(3)

    @pytest.mark.parametrize(
        "backend", ["kernel", "sparse", "einsum"], indirect=True
    )
    def test_backends(self, backend):
        r = run_bit_flip_demo(V, error_qubit=1, backend=backend)
        assert r.corrected

    def test_random_states_protected(self):
        from repro.simulation.state import random_state

        for seed in range(5):
            v = random_state(1, rng=seed)
            for e in (None, 0, 1, 2):
                assert run_bit_flip_demo(v, e).corrected


class TestPhaseFlip:
    @pytest.mark.parametrize(
        "error,syndrome",
        [(None, "00"), (0, "11"), (1, "10"), (2, "01")],
    )
    def test_corrects_z_errors(self, error, syndrome):
        r = run_phase_flip_demo(V, error_qubit=error)
        assert r.syndrome == syndrome
        assert r.corrected

    def test_rejects_bad_location(self):
        with pytest.raises(CircuitError):
            phase_flip_code_circuit(5)

    def test_bit_flip_code_fails_on_phase_error(self):
        """Sanity: the bit-flip code cannot see Z errors (syndrome 00)."""
        from repro.circuit import QCircuit
        from repro.gates import PauliZ

        c = bit_flip_code_circuit(None)
        c.insert(2, PauliZ(0))
        initial = np.kron(V, np.eye(1, 16, 0).ravel()).astype(complex)
        sim = c.simulate(initial)
        assert sim.results == ["00"]  # undetected


class TestShorCode:
    def test_circuit_width(self):
        assert shor_code_circuit().nbQubits == 9

    @pytest.mark.parametrize("etype", ["x", "y", "z"])
    @pytest.mark.parametrize("qubit", range(9))
    def test_corrects_all_single_pauli_errors(self, etype, qubit):
        r = run_shor_code_demo(V, etype, qubit)
        assert r.corrected, (etype, qubit, r.fidelity)

    def test_no_error_identity(self):
        r = run_shor_code_demo(V, None)
        assert r.corrected

    def test_rejects_bad_error(self):
        with pytest.raises(CircuitError):
            shor_code_circuit("w", 0)
        with pytest.raises(CircuitError):
            shor_code_circuit("x", 9)
