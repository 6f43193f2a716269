"""Tests for the teleportation example (paper E2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bell_state, teleport, teleportation_circuit
from repro.exceptions import StateError
from repro.simulation.state import random_state


class TestPaperExample:
    def setup_method(self):
        self.v = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])

    def test_circuit_structure(self):
        qtc = teleportation_circuit()
        assert qtc.nbQubits == 3
        assert len(qtc) == 6
        names = [type(op).__name__ for op in qtc]
        assert names == [
            "CNOT", "Hadamard", "Measurement", "Measurement", "CNOT", "CZ",
        ]

    def test_four_branches_quarter_each(self):
        r = teleport(self.v)
        assert r.results == ["00", "01", "10", "11"]
        np.testing.assert_allclose(r.probabilities, [0.25] * 4)

    def test_paper_printed_state(self):
        """The paper prints the reduced state (0.7071, 0.7071i)."""
        r = teleport(self.v)
        np.testing.assert_allclose(
            r.received[0],
            [0.7071, 0.7071j],
            atol=5e-5,
        )

    def test_all_branches_receive_v(self):
        r = teleport(self.v)
        assert r.worst_error < 1e-12
        for received in r.received:
            np.testing.assert_allclose(received, self.v, atol=1e-12)

    def test_four_full_states_have_8_amplitudes(self):
        r = teleport(self.v)
        assert all(s.shape == (8,) for s in r.states)

    def test_bell_state(self):
        b = bell_state()
        np.testing.assert_allclose(b, [1, 0, 0, 1] / np.sqrt(2))


class TestGeneralStates:
    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_property_arbitrary_states_teleport_exactly(self, seed):
        v = random_state(1, rng=seed)
        r = teleport(v)
        assert r.worst_error < 1e-10

    def test_basis_states(self):
        for v in ([1, 0], [0, 1]):
            r = teleport(np.array(v, dtype=complex))
            assert r.worst_error < 1e-12

    @pytest.mark.parametrize(
        "backend", ["kernel", "sparse", "einsum"], indirect=True
    )
    def test_every_backend(self, backend):
        v = np.array([0.6, 0.8j])
        r = teleport(v, backend=backend)
        assert r.worst_error < 1e-12


class TestValidation:
    def test_rejects_wrong_length(self):
        with pytest.raises(StateError):
            teleport([1, 0, 0, 0])

    def test_rejects_unnormalized(self):
        with pytest.raises(StateError):
            teleport([1, 1])
