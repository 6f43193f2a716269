"""Tests for noise channels, models and the trajectory simulator."""

import numpy as np
import pytest

from repro.circuit import Measurement, QCircuit, Reset
from repro.exceptions import SimulationError
from repro.gates import CNOT, Hadamard, Identity, PauliX
from repro.noise import (
    AmplitudeDamping,
    BitFlip,
    Depolarizing,
    NoiseChannel,
    NoiseModel,
    PauliChannel,
    PhaseFlip,
    TrajectoryResult,
    noisy_counts,
    run_trajectory,
)


class TestChannels:
    def test_completeness_enforced(self):
        with pytest.raises(SimulationError):
            NoiseChannel([np.eye(2) * 0.5])

    def test_shape_enforced(self):
        with pytest.raises(SimulationError):
            NoiseChannel([np.eye(4)])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            NoiseChannel([])

    def test_pauli_channel_kraus_count(self):
        ch = PauliChannel(px=0.1, pz=0.2)
        assert len(ch.kraus) == 3  # I, X, Z

    def test_pauli_channel_validation(self):
        with pytest.raises(SimulationError):
            PauliChannel(px=0.6, py=0.6)
        with pytest.raises(SimulationError):
            PauliChannel(px=-0.1)

    def test_bitflip_parameters(self):
        ch = BitFlip(0.25)
        assert ch.p == 0.25
        assert ch.px == 0.25 and ch.py == 0.0 and ch.pz == 0.0

    def test_depolarizing_symmetric(self):
        ch = Depolarizing(0.3)
        assert ch.px == pytest.approx(0.1)
        assert ch.py == pytest.approx(0.1)
        assert ch.pz == pytest.approx(0.1)

    def test_amplitude_damping_kraus(self):
        ch = AmplitudeDamping(0.4)
        k0, k1 = ch.kraus
        np.testing.assert_allclose(k0, np.diag([1, np.sqrt(0.6)]))
        assert k1[0, 1] == pytest.approx(np.sqrt(0.4))

    def test_amplitude_damping_range(self):
        with pytest.raises(SimulationError):
            AmplitudeDamping(1.5)

    def test_is_identity(self):
        assert PauliChannel().is_identity
        assert not BitFlip(0.1).is_identity

    def test_repr(self):
        assert "bit-flip" in repr(BitFlip(0.1))


class TestKrausSelector:
    @pytest.mark.parametrize(
        "channel",
        [
            PauliChannel(),
            PauliChannel(px=0.1, pz=0.2),
            BitFlip(0.3),
            BitFlip(1.0),
            PhaseFlip(0.2),
            Depolarizing(0.1),
        ],
        ids=["pauli-id", "pauli", "bit-flip", "bit-flip-1", "phase-flip",
             "depolarizing"],
    )
    def test_pauli_family_is_unitary_mixture(self, channel):
        assert channel.is_unitary_mixture

    def test_amplitude_damping_is_general(self):
        assert not AmplitudeDamping(0.3).is_unitary_mixture

    def test_mixture_branches_are_unitaries(self):
        index, branches, probs = Depolarizing(0.3).select(
            np.zeros((4, 2), complex), 0, np.array([0.0, 0.75, 0.85, 0.95])
        )
        assert probs is None
        assert list(index) == [0, 1, 2, 3]
        assert branches[0] is None  # the identity is not applied
        paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
        for op, sigma in zip(branches[1:], paulis):
            np.testing.assert_allclose(op, sigma, atol=1e-15)

    def test_certain_flip_skips_zero_probability_identity(self):
        """BitFlip(1.0) keeps a zero-weight identity Kraus operator; no
        uniform may select it."""
        index, branches, _ = BitFlip(1.0).select(
            np.zeros((3, 2), complex), 0, np.array([0.0, 0.5, 1.0 - 1e-16])
        )
        assert branches[0] is None
        assert list(index) == [1, 1, 1]

    def test_general_probabilities_from_reduced_density(self):
        # rows |1>|0>, |0>|+>, |+>|1> on two qubits; target qubit 0
        plus = np.array([1, 1]) / np.sqrt(2)
        states = np.stack([
            np.kron([0, 1], [1, 0]),
            np.kron([1, 0], plus),
            np.kron(plus, [0, 1]),
        ]).astype(complex)
        ch = AmplitudeDamping(0.4)
        index, branches, probs = ch.select(
            states, 0, np.array([0.5, 0.999, 0.1])
        )
        np.testing.assert_allclose(
            probs, [[0.6, 0.4], [1.0, 0.0], [0.8, 0.2]], atol=1e-15
        )
        # on |0> K1 has zero probability, so even r=0.999 takes K0
        assert list(index) == [0, 0, 0]
        for op, k in zip(branches, ch.kraus):
            np.testing.assert_array_equal(op, k)
        _, _, probs_q1 = ch.select(states, 1, np.zeros(3))
        np.testing.assert_allclose(
            probs_q1, [[1.0, 0.0], [0.8, 0.2], [0.6, 0.4]], atol=1e-15
        )

    def test_nothing_selectable_raises(self):
        with pytest.raises(SimulationError):
            AmplitudeDamping(0.3).select(
                np.zeros((2, 2), complex), 0, np.array([0.1, 0.2])
            )

    def test_identity_rows_bitwise_unchanged(self):
        """A row whose every uniform picks the identity branch ends
        bitwise equal to the noiseless replay of the same plan."""
        from repro.execution.trajectory import (
            channel_map,
            draws_per_shot,
            execute_batch,
        )
        from repro.simulation.plan import get_plan

        c = QCircuit(3)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(CNOT(1, 2))
        noise = NoiseModel(gate_noise=Depolarizing(0.3))
        plan, _ = get_plan(c, "kernel", np.complex128, fuse=False)
        channels = channel_map(c, noise)
        width = draws_per_shot(plan, channels, noise)
        draws = np.array([[0.0] * width, [0.99] * width, [0.5] * width])
        _, noisy = execute_batch(
            plan, channels, noise, None, draws, np.complex128
        )
        _, clean = execute_batch(
            plan, {}, NoiseModel(), None, np.empty((3, 0)), np.complex128
        )
        assert np.array_equal(noisy[0], clean[0])
        assert np.array_equal(noisy[2], clean[2])
        assert not np.allclose(noisy[1], clean[1])


class TestNoiseModel:
    def test_default_trivial(self):
        assert NoiseModel().is_trivial

    def test_gate_noise_everywhere(self):
        nm = NoiseModel(gate_noise=BitFlip(0.1))
        assert nm.channel_for(Hadamard(0)) is nm.gate_noise
        assert nm.channel_for(CNOT(0, 1)) is nm.gate_noise

    def test_per_gate_override(self):
        strong = Depolarizing(0.1)
        nm = NoiseModel(
            gate_noise=BitFlip(0.001),
            per_gate={CNOT: strong, Hadamard: None},
        )
        assert nm.channel_for(CNOT(0, 1)) is strong
        assert nm.channel_for(Hadamard(0)) is None
        assert nm.channel_for(PauliX(0)) is nm.gate_noise

    def test_idle_noise_on_identity(self):
        idle = BitFlip(0.2)
        nm = NoiseModel(gate_noise=None, idle_noise=idle)
        assert nm.channel_for(Identity(0)) is idle
        assert nm.channel_for(Hadamard(0)) is None

    def test_readout_error_validation(self):
        with pytest.raises(SimulationError):
            NoiseModel(readout_error=1.5)

    def test_channel_type_validation(self):
        with pytest.raises(SimulationError):
            NoiseModel(gate_noise="noisy")


class TestTrajectory:
    def test_noiseless_deterministic_circuit(self):
        c = QCircuit(2)
        c.push_back(PauliX(0))
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
        r = run_trajectory(c, rng=0)
        assert isinstance(r, TrajectoryResult)
        assert r.result == "10"

    def test_noiseless_matches_branch_simulation_statistics(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
        counts = noisy_counts(c, shots=4000, seed=3)
        assert set(counts) == {"00", "11"}
        assert abs(counts["00"] / 4000 - 0.5) < 0.05

    def test_bitflip_rate_measured(self):
        c = QCircuit(1)
        c.push_back(Identity(0))
        c.push_back(Measurement(0))
        nm = NoiseModel(idle_noise=BitFlip(0.3))
        counts = noisy_counts(c, nm, shots=4000, seed=0)
        assert abs(counts.get("1", 0) / 4000 - 0.3) < 0.03

    def test_phaseflip_invisible_in_z(self):
        c = QCircuit(1)
        c.push_back(Identity(0))
        c.push_back(Measurement(0))
        nm = NoiseModel(idle_noise=PhaseFlip(0.5))
        counts = noisy_counts(c, nm, shots=500, seed=1)
        assert counts == {"0": 500}

    def test_phaseflip_visible_in_x(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))  # |+>
        c.push_back(Identity(0))
        c.push_back(Measurement(0, "x"))
        nm = NoiseModel(
            idle_noise=PhaseFlip(0.3), per_gate={Hadamard: None}
        )
        counts = noisy_counts(c, nm, shots=4000, seed=2)
        assert abs(counts.get("1", 0) / 4000 - 0.3) < 0.03

    def test_amplitude_damping_relaxes_excited_state(self):
        c = QCircuit(1)
        c.push_back(PauliX(0))
        c.push_back(Identity(0))
        c.push_back(Measurement(0))
        nm = NoiseModel(
            idle_noise=AmplitudeDamping(0.25), per_gate={PauliX: None}
        )
        counts = noisy_counts(c, nm, shots=4000, seed=4)
        assert abs(counts.get("0", 0) / 4000 - 0.25) < 0.03

    def test_readout_error(self):
        c = QCircuit(1)
        c.push_back(Measurement(0))
        nm = NoiseModel(readout_error=0.2)
        counts = noisy_counts(c, nm, shots=4000, seed=5)
        assert abs(counts.get("1", 0) / 4000 - 0.2) < 0.03

    def test_reset_in_trajectory(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Reset(0))
        c.push_back(Measurement(0))
        counts = noisy_counts(c, shots=200, seed=6)
        assert counts == {"0": 200}

    def test_recorded_reset_in_trajectory(self):
        c = QCircuit(1)
        c.push_back(PauliX(0))
        c.push_back(Reset(0, record=True))
        r = run_trajectory(c, rng=0)
        assert r.result == "1"
        np.testing.assert_allclose(r.state, [1, 0], atol=1e-12)

    def test_rng_reproducibility(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        nm = NoiseModel(gate_noise=Depolarizing(0.1))
        a = noisy_counts(c, nm, shots=100, seed=7)
        b = noisy_counts(c, nm, shots=100, seed=7)
        assert a == b

    def test_vector_start(self):
        c = QCircuit(1)
        c.push_back(Measurement(0))
        r = run_trajectory(c, rng=0, start=np.array([0.0, 1.0]))
        assert r.result == "1"


class TestRepetitionCodeThreshold:
    def test_matches_exact_formula(self):
        from repro.noise import (
            repetition_code_logical_error_rate,
            theoretical_logical_error_rate,
        )

        for p in (0.05, 0.2):
            measured = repetition_code_logical_error_rate(
                p, shots=2000, seed=11
            )
            theory = theoretical_logical_error_rate(p)
            sigma = 3 * np.sqrt(theory * (1 - theory) / 2000) + 5e-3
            assert abs(measured - theory) < sigma

    def test_encoded_beats_unencoded_below_half(self):
        from repro.noise import theoretical_logical_error_rate

        for p in (0.01, 0.1, 0.3, 0.49):
            assert theoretical_logical_error_rate(p) < p
        # above threshold the code makes things worse
        assert theoretical_logical_error_rate(0.6) > 0.6

    def test_rejects_bad_probability(self):
        from repro.noise import repetition_code_logical_error_rate

        with pytest.raises(SimulationError):
            repetition_code_logical_error_rate(1.5, shots=1)


class TestKrausSamplingEdgeCases:
    def test_amplitude_damping_on_ground_state_never_excites(self):
        """K1 has zero probability on |0>; the sampler must always pick
        K0 and leave the state untouched."""
        c = QCircuit(1)
        c.push_back(Identity(0))
        c.push_back(Measurement(0))
        nm = NoiseModel(idle_noise=AmplitudeDamping(0.9))
        counts = noisy_counts(c, nm, shots=300, seed=0)
        assert counts == {"0": 300}

    def test_full_damping_always_relaxes(self):
        c = QCircuit(1)
        c.push_back(PauliX(0))
        c.push_back(Identity(0))
        c.push_back(Measurement(0))
        nm = NoiseModel(
            idle_noise=AmplitudeDamping(1.0), per_gate={PauliX: None}
        )
        counts = noisy_counts(c, nm, shots=200, seed=1)
        assert counts == {"0": 200}

    def test_two_qubit_gate_noise_strikes_both_qubits(self):
        c = QCircuit(2)
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
        nm = NoiseModel(per_gate={CNOT: BitFlip(0.5)})
        counts = noisy_counts(c, nm, shots=4000, seed=2)
        # each qubit independently flipped with p = 0.5: uniform over 4
        for outcome in ("00", "01", "10", "11"):
            assert abs(counts.get(outcome, 0) / 4000 - 0.25) < 0.05

    def test_trajectory_state_returned_normalized(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        nm = NoiseModel(gate_noise=Depolarizing(0.2))
        r = run_trajectory(c, nm, rng=3)
        assert np.linalg.norm(r.state) == pytest.approx(1.0, abs=1e-9)
