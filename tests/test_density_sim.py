"""Tests for the exact density-matrix simulator, including
cross-validation against the Monte-Carlo trajectory engine."""

import numpy as np
import pytest

from repro.circuit import Measurement, QCircuit, Reset
from repro.exceptions import StateError
from repro.gates import (
    CNOT,
    CZ,
    MCX,
    Hadamard,
    Identity,
    PauliX,
    RotationXX,
    RotationY,
    RotationZ,
    iSWAP,
)
from repro.noise import (
    AmplitudeDamping,
    BitFlip,
    Depolarizing,
    NoiseModel,
    PhaseFlip,
    noisy_counts,
)
from repro.simulation import SimulationOptions, simulate_density
from repro.simulation.density import purity
from repro.simulation.state import random_state


def bell_measured():
    c = QCircuit(2)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(Measurement(0))
    c.push_back(Measurement(1))
    return c


class TestNoiselessAgainstStatevector:
    def test_branches_match(self):
        c = bell_measured()
        ds = simulate_density(c)
        sv = c.simulate("00")
        assert ds.results == sv.results
        np.testing.assert_allclose(ds.probabilities, sv.probabilities)
        for rho, psi in zip(ds.rhos, sv.states):
            np.testing.assert_allclose(
                rho, np.outer(psi, psi.conj()), atol=1e-12
            )

    def test_random_circuit_pure_state(self):
        rng = np.random.default_rng(3)
        c = QCircuit(3)
        for _ in range(8):
            q = int(rng.integers(0, 3))
            roll = rng.integers(0, 3)
            if roll == 0:
                c.push_back(Hadamard(q))
            elif roll == 1:
                c.push_back(RotationY(q, float(rng.normal())))
            else:
                c.push_back(CNOT(q, (q + 1) % 3))
        ds = simulate_density(c)
        sv = c.simulate("000")
        np.testing.assert_allclose(
            ds.rho,
            np.outer(sv.states[0], sv.states[0].conj()),
            atol=1e-12,
        )
        assert purity(ds.rho) == pytest.approx(1.0)

    def test_vector_and_rho_starts(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        psi = random_state(1, rng=5)
        from_vec = simulate_density(c, start=psi).rho
        from_rho = simulate_density(
            c, start=np.outer(psi, psi.conj())
        ).rho
        np.testing.assert_allclose(from_vec, from_rho, atol=1e-12)

    def test_rejects_bad_density_inputs(self):
        c = QCircuit(1)
        with pytest.raises(StateError):
            simulate_density(c, start=np.eye(4))
        with pytest.raises(StateError):
            simulate_density(c, start=np.eye(2) * 0.7)

    def test_x_basis_measurement(self):
        c = QCircuit(1)
        c.push_back(Measurement(0, "x"))
        plus = np.array([1, 1]) / np.sqrt(2)
        ds = simulate_density(c, start=plus)
        assert ds.results == ["0"]
        np.testing.assert_allclose(
            ds.rhos[0], np.full((2, 2), 0.5), atol=1e-12
        )


class TestExactChannels:
    def test_bitflip_mixes(self):
        c = QCircuit(1)
        c.push_back(Identity(0))
        rho = simulate_density(
            c, noise=NoiseModel(idle_noise=BitFlip(0.2))
        ).rho
        np.testing.assert_allclose(rho, np.diag([0.8, 0.2]), atol=1e-12)

    def test_phaseflip_dephases_plus(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Identity(0))
        noise = NoiseModel(
            idle_noise=PhaseFlip(0.5), per_gate={Hadamard: None}
        )
        rho = simulate_density(c, noise=noise).rho
        # full dephasing: off-diagonals vanish
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_amplitude_damping_exact(self):
        c = QCircuit(1)
        c.push_back(PauliX(0))
        c.push_back(Identity(0))
        noise = NoiseModel(
            idle_noise=AmplitudeDamping(0.25), per_gate={PauliX: None}
        )
        rho = simulate_density(c, noise=noise).rho
        np.testing.assert_allclose(rho, np.diag([0.25, 0.75]), atol=1e-12)

    def test_depolarizing_shrinks_purity(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        noise = NoiseModel(gate_noise=Depolarizing(0.3))
        rho = simulate_density(c, noise=noise).rho
        assert purity(rho) < 1.0
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_readout_error_mixes_outcomes(self):
        c = QCircuit(1)
        c.push_back(Measurement(0))
        noise = NoiseModel(readout_error=0.1)
        ds = simulate_density(c, noise=noise)
        dist = ds.outcome_distribution()
        assert dist["0"] == pytest.approx(0.9)
        assert dist["1"] == pytest.approx(0.1)


class TestResets:
    def test_reset_mixed_input(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Reset(0))
        ds = simulate_density(c)
        np.testing.assert_allclose(ds.rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_recorded_reset(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Reset(0, record=True))
        ds = simulate_density(c)
        dist = ds.outcome_distribution()
        assert dist["0"] == pytest.approx(0.5)
        assert dist["1"] == pytest.approx(0.5)


class TestTrajectoryCrossValidation:
    """The strongest check: Monte-Carlo trajectories must converge to
    the exact density-matrix outcome distribution."""

    @pytest.mark.parametrize(
        "channel",
        [BitFlip(0.15), Depolarizing(0.2), AmplitudeDamping(0.3)],
        ids=lambda ch: ch.name,
    )
    def test_outcome_distributions_agree(self, channel):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Identity(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Identity(1))
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
        noise = NoiseModel(idle_noise=channel)

        exact = simulate_density(c, noise=noise).outcome_distribution()
        shots = 6000
        sampled = noisy_counts(c, noise, shots=shots, seed=17)
        for outcome, p in exact.items():
            freq = sampled.get(outcome, 0) / shots
            sigma = 3 * np.sqrt(max(p * (1 - p), 1e-4) / shots)
            assert abs(freq - p) < sigma + 5e-3, (outcome, freq, p)

    def test_noiseless_consistency_with_branch_simulator(self):
        c = QCircuit(2)
        c.push_back(RotationY(0, 0.9))
        c.push_back(CZ(0, 1))
        c.push_back(Measurement(0, "y"))
        ds = simulate_density(c)
        sv = c.simulate("00")
        np.testing.assert_allclose(
            sorted(ds.probabilities), sorted(sv.probabilities), atol=1e-12
        )


def random_density_circuit(seed):
    """A seeded 3-qubit circuit with CNOT, CZ, a two-target gate, a
    multi-controlled gate, x/y-basis measurements and both kinds of
    reset."""
    rng = np.random.default_rng(seed)
    c = QCircuit(3)
    for _ in range(2):
        for q in range(3):
            c.push_back(RotationY(q, float(rng.uniform(0, np.pi))))
        a, b, t = (int(q) for q in rng.permutation(3))
        c.push_back(CNOT(a, b))
        c.push_back(iSWAP(min(a, t), max(a, t)))
        c.push_back(RotationXX(min(b, t), max(b, t), float(rng.normal())))
        c.push_back(MCX([a, b], t, [int(rng.integers(2)), 1]))
        c.push_back(CZ(b, t))
        c.push_back(Measurement(int(rng.integers(3)), basis="x"))
        c.push_back(Reset(int(rng.integers(3))))
        c.push_back(Measurement(int(rng.integers(3)), basis="y"))
        c.push_back(Reset(int(rng.integers(3)), record=True))
    return c


def reference_density(circuit, noise, rho=None, atol=1e-12):
    """``(probability, rho, result)`` branches from explicit
    full-register matrices: ``U rho U^dagger``, ``sum_k K rho
    K^dagger`` and index projectors, one branch per outcome as in the
    engine.  ``rho`` is the start (``|0...0>`` when ``None``)."""
    from repro.simulation.backends import SparseKronBackend
    from repro.simulation.plan import GATE, MEASURE, compile_circuit

    n = circuit.nbQubits
    full = SparseKronBackend.extended_operator
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    if rho is None:
        rho = np.zeros((1 << n, 1 << n), dtype=complex)
        rho[0, 0] = 1.0
    branches = [(1.0, rho, "")]

    def measured(branches, qubit, basis_change):
        v = full(basis_change, [qubit], n).toarray()
        bits = (np.arange(1 << n) >> (n - 1 - qubit)) & 1
        out = []
        for p0, rho, result in branches:
            rho = v @ rho @ v.conj().T
            for outcome in (0, 1):
                proj = np.diag((bits == outcome).astype(complex))
                projected = proj @ rho @ proj
                p = np.trace(projected).real
                if p > atol:
                    collapsed = v.conj().T @ (projected / p) @ v
                    out.append((p0 * p, collapsed, result + str(outcome)))
        return out

    for step in compile_circuit(circuit, fuse=False).steps:
        if step.kind == GATE:
            u = full(step.kernel, step.targets, n, step.controls,
                     step.control_states).toarray()
            branches = [(p, u @ r @ u.conj().T, s) for p, r, s in branches]
            channel = noise.channel_for(step.op)
            for q in step.noise_qubits if channel is not None else ():
                ks = [full(k, [q], n).toarray() for k in channel.kraus]
                branches = [
                    (p, sum(k @ r @ k.conj().T for k in ks), s)
                    for p, r, s in branches
                ]
        elif step.kind == MEASURE:
            branches = measured(branches, step.qubit, step.op.basis_change)
            e = noise.readout_error
            flip = {"0": "1", "1": "0"}
            branches = [
                b for p, r, s in branches
                for b in ((p * (1 - e), r, s),
                          (p * e, r, s[:-1] + flip[s[-1]]))
            ]
        else:
            xq = full(x, [step.qubit], n).toarray()
            branches = [
                (p, xq @ r @ xq if s[-1] == "1" else r,
                 s if step.op.record else s[:-1])
                for p, r, s in measured(branches, step.qubit, np.eye(2))
            ]
    return branches


@pytest.mark.parametrize("backend", ["kernel", "sparse"])
@pytest.mark.parametrize(
    "channel", [Depolarizing(0.07), AmplitudeDamping(0.2)],
    ids=["depolarizing", "amplitude_damping"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_doubled_register_matches_explicit_reference(backend, channel, seed):
    c = random_density_circuit(seed)
    noise = NoiseModel(gate_noise=channel, readout_error=0.05)
    # a statevector run first, so the density run replays a plan whose
    # steps already cache their n-qubit operators
    c.simulate("000", options=SimulationOptions(backend=backend, fuse=False))
    ds = simulate_density(
        c, noise=noise, options=SimulationOptions(backend=backend)
    )
    ref = reference_density(c, noise)
    assert ds.results == [s for _, _, s in ref]
    np.testing.assert_allclose(
        ds.probabilities, [p for p, _, _ in ref], atol=1e-12
    )
    for rho, (_, expected, _) in zip(ds.rhos, ref):
        np.testing.assert_allclose(rho, expected, atol=1e-12)
    np.testing.assert_allclose(
        ds.rho, sum(p * r for p, r, _ in ref), atol=1e-12
    )
    dist = {}
    for p, _, s in ref:
        dist[s] = dist.get(s, 0.0) + p
    got = ds.outcome_distribution()
    assert got.keys() == dist.keys()
    for key, p in dist.items():
        assert got[key] == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("backend", ["kernel", "sparse"])
def test_readout_twins_evolve_independently(backend):
    """A readout error splits a branch into kept and flipped twins with
    equal rho; later in-place (diagonal, controlled) applies must act
    on each twin once."""
    c = QCircuit(2)
    c.push_back(Measurement(0))
    c.push_back(RotationZ(1, 0.7))
    c.push_back(CNOT(0, 1))
    psi = np.full(4, 0.5, dtype=complex)
    noise = NoiseModel(readout_error=0.1)
    ds = simulate_density(
        c, start=psi, noise=noise, options=SimulationOptions(backend=backend)
    )
    ref = reference_density(c, noise, rho=np.outer(psi, psi.conj()))
    assert ds.results == [s for _, _, s in ref]
    for rho, (_, expected, _) in zip(ds.rhos, ref):
        np.testing.assert_allclose(rho, expected, atol=1e-12)
