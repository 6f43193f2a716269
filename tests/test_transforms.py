"""Tests for the circuit transformation passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Measurement, QCircuit
from repro.exceptions import CircuitError
from repro.gates import (
    CNOT,
    CPhase,
    CZ,
    Hadamard,
    PauliX,
    Phase,
    RotationX,
    RotationY,
    RotationZ,
    RotationZZ,
    S,
    Sdg,
    SWAP,
    T,
    Tdg,
)
from repro.transforms import (
    cancel_inverses,
    flatten,
    fuse_rotations,
    gate_counts,
    merge_single_qubit_runs,
    optimize,
)


def phase_equal(a, b, atol=1e-10):
    k = np.argmax(np.abs(a))
    if abs(a.flat[k]) < 1e-12:
        return np.allclose(a, b, atol=atol)
    phase = b.flat[k] / a.flat[k]
    return abs(abs(phase) - 1) < atol and np.allclose(a * phase, b, atol=atol)


class TestFlatten:
    def test_expands_nested_blocks(self):
        sub = QCircuit(2, offset=1)
        sub.push_back(CNOT(0, 1))
        outer = QCircuit(3)
        outer.push_back(Hadamard(0))
        outer.push_back(sub)
        with pytest.warns(DeprecationWarning):
            flat = flatten(outer)
        assert len(flat) == 2
        assert flat[1].qubits == (1, 2)
        np.testing.assert_allclose(flat.matrix, outer.matrix)

    def test_copies_do_not_alias(self):
        c = QCircuit(1)
        rx = RotationX(0, 0.5)
        c.push_back(rx)
        flat = flatten(c)
        with pytest.warns(DeprecationWarning):
            flat[0].theta = 1.0
        assert rx.theta == pytest.approx(0.5)

    def test_gate_counts(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Hadamard(1))
        c.push_back(CNOT(0, 1))
        counts = gate_counts(c)
        assert counts == {"Hadamard": 2, "CNOT": 1}


class TestFuseRotations:
    def test_adjacent_same_axis(self):
        c = QCircuit(1)
        c.push_back(RotationX(0, 0.3))
        c.push_back(RotationX(0, 0.4))
        out = fuse_rotations(c)
        assert len(out) == 1
        assert out[0].theta == pytest.approx(0.7)

    def test_inverse_pair_drops(self):
        c = QCircuit(1)
        c.push_back(RotationZ(0, 0.3))
        c.push_back(RotationZ(0, -0.3))
        assert len(fuse_rotations(c)) == 0

    def test_different_axes_untouched(self):
        c = QCircuit(1)
        c.push_back(RotationX(0, 0.3))
        c.push_back(RotationY(0, 0.4))
        assert len(fuse_rotations(c)) == 2

    def test_blocked_by_intervening_gate(self):
        c = QCircuit(1)
        c.push_back(RotationX(0, 0.3))
        c.push_back(Hadamard(0))
        c.push_back(RotationX(0, 0.4))
        assert len(fuse_rotations(c)) == 3

    def test_blocked_by_measurement(self):
        c = QCircuit(1)
        c.push_back(RotationX(0, 0.3))
        c.push_back(Measurement(0))
        c.push_back(RotationX(0, 0.4))
        assert len(fuse_rotations(c)) == 3

    def test_two_qubit_rotations(self):
        c = QCircuit(2)
        c.push_back(RotationZZ(0, 1, 0.3))
        c.push_back(RotationZZ(0, 1, 0.4))
        out = fuse_rotations(c)
        assert len(out) == 1
        assert out[0].theta == pytest.approx(0.7)

    def test_partially_overlapping_not_fused(self):
        c = QCircuit(3)
        c.push_back(RotationZZ(0, 1, 0.3))
        c.push_back(RotationZZ(1, 2, 0.4))
        assert len(fuse_rotations(c)) == 2

    def test_phases_fuse(self):
        c = QCircuit(1)
        c.push_back(Phase(0, 0.3))
        c.push_back(Phase(0, 0.4))
        out = fuse_rotations(c)
        assert len(out) == 1
        assert out[0].theta == pytest.approx(0.7)

    def test_chain_fuses_to_one(self):
        c = QCircuit(1)
        for _ in range(10):
            c.push_back(RotationZ(0, 0.1))
        out = fuse_rotations(c)
        assert len(out) == 1
        assert out[0].theta == pytest.approx(1.0)

    def test_preserves_unitary(self):
        c = QCircuit(2)
        c.push_back(RotationX(0, 0.2))
        c.push_back(RotationX(0, 0.5))
        c.push_back(CNOT(0, 1))
        c.push_back(RotationZ(1, -0.1))
        c.push_back(RotationZ(1, 0.4))
        np.testing.assert_allclose(
            fuse_rotations(c).matrix, c.matrix, atol=1e-12
        )


class TestCancelInverses:
    @pytest.mark.parametrize(
        "a,b",
        [
            (lambda: Hadamard(0), lambda: Hadamard(0)),
            (lambda: PauliX(0), lambda: PauliX(0)),
            (lambda: S(0), lambda: Sdg(0)),
            (lambda: Tdg(0), lambda: T(0)),
        ],
    )
    def test_one_qubit_pairs(self, a, b):
        c = QCircuit(1)
        c.push_back(a())
        c.push_back(b())
        assert len(cancel_inverses(c)) == 0

    def test_cnot_pair(self):
        c = QCircuit(2)
        c.push_back(CNOT(0, 1))
        c.push_back(CNOT(0, 1))
        assert len(cancel_inverses(c)) == 0

    def test_swap_pair(self):
        c = QCircuit(2)
        c.push_back(SWAP(0, 1))
        c.push_back(SWAP(0, 1))
        assert len(cancel_inverses(c)) == 0

    def test_different_qubits_kept(self):
        c = QCircuit(2)
        c.push_back(CNOT(0, 1))
        c.push_back(CNOT(1, 0))
        assert len(cancel_inverses(c)) == 2

    def test_interleaved_not_cancelled(self):
        c = QCircuit(2)
        c.push_back(CNOT(0, 1))
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        assert len(cancel_inverses(c)) == 3

    def test_cascading_cancellation_via_fixpoint(self):
        # H X X H -> H H -> empty, needs two sweeps (optimize loops)
        c = QCircuit(1)
        for g in (Hadamard(0), PauliX(0), PauliX(0), Hadamard(0)):
            c.push_back(g)
        assert len(optimize(c)) == 0

    def test_s_pair_not_cancelled(self):
        # S*S = Z, not identity
        c = QCircuit(1)
        c.push_back(S(0))
        c.push_back(S(0))
        assert len(cancel_inverses(c)) == 2


class TestMergeSingleQubitRuns:
    def test_run_collapses_to_u3(self):
        c = QCircuit(1)
        for g in (Hadamard(0), T(0), RotationX(0, 0.3), S(0)):
            c.push_back(g)
        out = merge_single_qubit_runs(c)
        assert len(out) == 1
        assert phase_equal(c.matrix, out.matrix)

    def test_identity_run_disappears(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Hadamard(0))
        assert len(merge_single_qubit_runs(c)) == 0

    def test_two_qubit_gates_break_runs(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(T(0))
        c.push_back(CNOT(0, 1))
        c.push_back(S(0))
        c.push_back(S(0))
        out = merge_single_qubit_runs(c)
        # H,T merge; S,S merge; CNOT stays
        assert len(out) == 3
        assert phase_equal(c.matrix, out.matrix)


class TestOptimize:
    def test_unknown_pass_rejected(self):
        with pytest.raises(CircuitError):
            optimize(QCircuit(1), passes=("nope",))

    def test_reduces_redundant_circuit(self):
        c = QCircuit(2)
        c.push_back(RotationX(0, 0.2))
        c.push_back(RotationX(0, -0.2))
        c.push_back(Hadamard(1))
        c.push_back(Hadamard(1))
        c.push_back(CNOT(0, 1))
        c.push_back(CNOT(0, 1))
        assert len(optimize(c)) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_unitary_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c = QCircuit(n)
        for _ in range(12):
            q = int(rng.integers(0, n))
            t = int((q + 1) % n)
            roll = rng.integers(0, 6)
            if roll == 0:
                c.push_back(Hadamard(q))
            elif roll == 1:
                c.push_back(RotationZ(q, float(rng.normal())))
            elif roll == 2:
                c.push_back(RotationX(q, float(rng.normal())))
            elif roll == 3 and n > 1:
                c.push_back(CNOT(q, t))
            elif roll == 4 and n > 1:
                c.push_back(CPhase(q, t, float(rng.normal())))
            else:
                c.push_back(T(q))
        out = optimize(c)
        np.testing.assert_allclose(out.matrix, c.matrix, atol=1e-11)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_aggressive_pipeline_up_to_phase(self, seed):
        rng = np.random.default_rng(seed)
        c = QCircuit(2)
        for _ in range(10):
            q = int(rng.integers(0, 2))
            roll = rng.integers(0, 4)
            if roll == 0:
                c.push_back(Hadamard(q))
            elif roll == 1:
                c.push_back(T(q))
            elif roll == 2:
                c.push_back(RotationY(q, float(rng.normal())))
            else:
                c.push_back(CZ(0, 1))
        out = optimize(
            c,
            passes=(
                "fuse_rotations",
                "cancel_inverses",
                "merge_single_qubit_runs",
            ),
        )
        assert phase_equal(c.matrix, out.matrix)

    def test_optimize_keeps_measurements(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        out = optimize(c)
        assert any(isinstance(op, Measurement) for op in out)


class TestOptimizeWithMeasurements:
    @given(st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_property_distribution_preserved(self, seed):
        """Optimization must not move gates across measurements: the
        full branch distribution is invariant."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c = QCircuit(n)
        for _ in range(10):
            q = int(rng.integers(0, n))
            roll = rng.integers(0, 5)
            if roll == 0:
                c.push_back(Hadamard(q))
            elif roll == 1:
                c.push_back(RotationZ(q, float(rng.normal())))
            elif roll == 2 and n > 1:
                c.push_back(CNOT(q, int((q + 1) % n)))
            elif roll == 3:
                c.push_back(Measurement(q))
            else:
                c.push_back(RotationX(q, float(rng.normal())))
        out = optimize(c)
        s1 = c.simulate("0" * n)
        s2 = out.simulate("0" * n)
        assert s1.results == s2.results
        np.testing.assert_allclose(
            s1.probabilities, s2.probabilities, atol=1e-9
        )
        for a, b in zip(s1.states, s2.states):
            np.testing.assert_allclose(a, b, atol=1e-9)
