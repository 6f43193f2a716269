"""The acceleration tier: ``StridedBackend`` (Level 1, pure NumPy)
and ``JitBackend`` (Level 2, optional numba).

The load-bearing contracts:

* the ``out=`` buffer convention is alias-safe — ``out is state``,
  overlapping views, and the ``out=None`` path all produce the
  same bits as each other;
* strided results agree with the reference ``kernel`` backend within
  the conformance statevector tolerance (1e-10) across the
  {fused, unfused} x batched grid;
* the serial-vs-batched trajectory contract (bit-exact equality)
  holds for the strided backend;
* the jit backend registers only when numba imports, and degrades to
  a clean :class:`SimulationError` (not an ImportError) when absent.
"""

import numpy as np
import pytest

from benchmarks.workloads import (
    bell_circuit,
    ghz_circuit,
    nested_circuit,
    random_circuit,
)
from repro.exceptions import SimulationError
from repro.noise import (
    Depolarizing,
    NoiseModel,
    run_trajectories_batched,
    run_trajectory,
)
from repro.simulation import (
    HAVE_NUMBA,
    SimulationOptions,
    StridedBackend,
    available_backends,
    compile_circuit,
    get_backend,
    simulate,
)
from repro.simulation.accel import KRON_GEMM_MAX_RIGHT
from repro.simulation.plan import GATE

TOL = 1e-10  # conformance statevector tolerance


def _random_state(nb_qubits, seed=0, batch=None):
    rng = np.random.default_rng(seed)
    shape = (2**nb_qubits,) if batch is None else (batch, 2**nb_qubits)
    s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    s /= np.linalg.norm(s, axis=-1, keepdims=True)
    return s.astype(np.complex128)


def _gate_steps(circuit, backend="strided"):
    plan = compile_circuit(circuit, backend=backend)
    return plan, [s for s in plan.steps if s.kind == GATE]


CIRCUITS = [
    pytest.param(ghz_circuit(5), id="ghz5"),
    pytest.param(random_circuit(6, 40, seed=7), id="random6"),
    pytest.param(random_circuit(3, 25, seed=3), id="random3"),
]


class TestOutConvention:
    """Satellite 3: buffer-aliasing semantics of ``out=``."""

    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_out_variants_bit_identical(self, circuit):
        nb = circuit.nbQubits
        plan, steps = _gate_steps(circuit)
        eng = plan.engine

        def run(mode):
            state = _random_state(nb, seed=11)
            scratch = np.empty_like(state)
            for step in steps:
                if mode == "none":
                    state = eng.apply_planned(state, step, nb)
                elif mode == "scratch":
                    res = eng.apply_planned(state, step, nb, out=scratch)
                    if res is scratch:
                        scratch = state
                    state = res
                elif mode == "self":
                    state = eng.apply_planned(state, step, nb, out=state)
            return state

        ref = run("none")
        np.testing.assert_array_equal(run("scratch"), ref)
        np.testing.assert_array_equal(run("self"), ref)

    def test_overlapping_out_is_safe(self):
        """``out`` sharing memory with ``state`` (shifted view) must
        not corrupt the result."""
        nb = 4
        circuit = random_circuit(nb, 20, seed=5)
        plan, steps = _gate_steps(circuit)
        eng = plan.engine
        dim = 2**nb

        ref = _random_state(nb, seed=2)
        for step in steps:
            ref = eng.apply_planned(ref, step, nb)

        buf = np.empty(dim + 1, dtype=np.complex128)
        state = buf[:dim]
        state[:] = _random_state(nb, seed=2)
        overlap = buf[1:]
        for step in steps:
            res = eng.apply_planned(state, step, nb, out=overlap)
            if res is not state:
                state[:] = res
        np.testing.assert_array_equal(state, ref)

    def test_noncontiguous_out_falls_back_safely(self):
        nb = 3
        circuit = ghz_circuit(nb)
        plan, steps = _gate_steps(circuit)
        eng = plan.engine
        state = _random_state(nb, seed=9)
        ref = state.copy()
        for step in steps:
            ref = eng.apply_planned(ref, step, nb)
        strided_out = np.empty(2 * 2**nb, dtype=np.complex128)[::2]
        assert not strided_out.flags.c_contiguous
        got = state
        for step in steps:
            res = eng.apply_planned(got, step, nb, out=strided_out)
            got = np.ascontiguousarray(res)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_batched_out_variants_bit_identical(self, circuit):
        nb = circuit.nbQubits
        plan, steps = _gate_steps(circuit)
        eng = plan.engine
        batch = 7

        def run(use_out):
            states = _random_state(nb, seed=4, batch=batch).copy()
            spare = np.empty_like(states) if use_out else None
            for step in steps:
                if use_out:
                    res = eng.apply_planned_batched(
                        states, step, nb, out=spare
                    )
                    if res is spare:
                        spare = states
                    states = res
                else:
                    states = eng.apply_planned_batched(states, step, nb)
            return states

        np.testing.assert_array_equal(run(True), run(False))


class TestStridedConformance:
    """Strided vs kernel across the {fused, unfused} x batched grid."""

    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("fuse", [True, False])
    def test_statevector_matches_kernel(self, circuit, fuse):
        ref = simulate(
            circuit, "0" * circuit.nbQubits,
            options=SimulationOptions(backend="kernel", fuse=fuse),
        )
        got = simulate(
            circuit, "0" * circuit.nbQubits,
            options=SimulationOptions(backend="strided", fuse=fuse),
        )
        assert (
            np.abs(got.states[0] - ref.states[0]).max() <= TOL
        )

    def test_registered_and_instantiable(self):
        assert "strided" in available_backends("statevector")
        be = get_backend("strided")
        assert isinstance(be, StridedBackend)

    def test_nested_circuit_measurements(self):
        c = nested_circuit()
        ref = simulate(
            c, "0" * 5, options=SimulationOptions(backend="kernel", seed=3)
        )
        got = simulate(
            c, "0" * 5, options=SimulationOptions(backend="strided", seed=3)
        )
        for rb, gb in zip(ref.branches, got.branches):
            assert abs(rb.probability - gb.probability) <= 1e-9

    def test_both_gemm_and_broadcast_regimes(self):
        """The 1q kernel switches strategy on the ``right`` stride;
        cover qubit positions on both sides of the cut."""
        nb = 7  # right spans 1..64 => both <= 16 and > 16
        assert 2 ** (nb - 1) > KRON_GEMM_MAX_RIGHT
        from repro.gates import Hadamard, RotationX

        from repro.circuit import QCircuit

        c = QCircuit(nb)
        for q in range(nb):
            c.push_back(Hadamard(q))
            c.push_back(RotationX(q, 0.1 * (q + 1)))
        ref = simulate(
            c, "0" * nb, options=SimulationOptions(backend="kernel")
        )
        got = simulate(
            c, "0" * nb, options=SimulationOptions(backend="strided")
        )
        assert np.abs(got.states[0] - ref.states[0]).max() <= TOL


class TestStridedTrajectories:
    """Serial-vs-batched bit-exactness holds for the strided engine."""

    def test_batched_matches_serial_bitwise(self):
        c = ghz_circuit(4, measure=True)
        noise = NoiseModel(
            gate_noise=Depolarizing(0.05), readout_error=0.02
        )
        opts = SimulationOptions(backend="strided", batch_size=16)
        batched = run_trajectories_batched(
            c, noise, shots=48, seed=13, options=opts, return_states=True
        )
        rng = np.random.default_rng(13)
        serial = [
            run_trajectory(c, noise, rng=rng, backend="strided")
            for _ in range(48)
        ]
        assert batched.results == [t.result for t in serial]

    def test_strided_vs_kernel_distribution(self):
        c = bell_circuit()
        a = run_trajectories_batched(
            c, None, shots=200, seed=7,
            options=SimulationOptions(backend="strided"),
        )
        b = run_trajectories_batched(
            c, None, shots=200, seed=7,
            options=SimulationOptions(backend="kernel"),
        )
        assert a.counts == b.counts


class TestJitTier:
    """Level 2 registers only when numba imports."""

    def test_registry_matches_availability(self):
        names = available_backends("statevector")
        if HAVE_NUMBA:
            assert "jit" in names
        else:
            assert "jit" not in names

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_missing_numba_raises_cleanly(self):
        from repro.simulation.jit import JitBackend

        with pytest.raises(SimulationError, match="numba"):
            JitBackend()
        with pytest.raises(SimulationError):
            get_backend("jit")

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_jit_matches_kernel(self, circuit):
        ref = simulate(
            circuit, "0" * circuit.nbQubits,
            options=SimulationOptions(backend="kernel"),
        )
        got = simulate(
            circuit, "0" * circuit.nbQubits,
            options=SimulationOptions(backend="jit"),
        )
        assert np.abs(got.states[0] - ref.states[0]).max() <= TOL

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_jit_batched_matches_serial(self):
        c = ghz_circuit(4, measure=True)
        noise = NoiseModel(readout_error=0.05)
        opts = SimulationOptions(backend="jit", batch_size=16)
        batched = run_trajectories_batched(
            c, noise, shots=32, seed=5, options=opts
        )
        rng = np.random.default_rng(5)
        serial = [
            run_trajectory(c, noise, rng=rng, backend="jit").result
            for _ in range(32)
        ]
        assert batched.results == serial
