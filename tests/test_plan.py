"""Compiled execution plans: caching, invalidation, fusion, options.

Covers the compile-then-execute layer (:mod:`repro.simulation.plan`),
the unified :class:`SimulationOptions` API with its deprecation shims,
and the public backend registry.
"""

import warnings

import numpy as np
import pytest

from repro.circuit import Barrier, Measurement, QCircuit, Reset
from repro.exceptions import SimulationError
from repro.gates import (
    CNOT,
    CZ,
    Hadamard,
    PauliX,
    PauliZ,
    Phase,
    RotationX,
    RotationY,
    RotationZ,
    S,
    T,
)
from repro.noise import Depolarizing, NoiseModel
from repro.simulation import (
    Backend,
    EinsumBackend,
    KernelBackend,
    SimulationOptions,
    available_backends,
    circuit_signature,
    clear_plan_cache,
    compile_circuit,
    get_backend,
    get_engine,
    get_plan,
    plan_cache_info,
    register_backend,
    simulate,
    simulate_density,
)
from repro.simulation.backends import _REGISTRY
from repro.simulation.plan import GATE
from repro.simulation.simulate import apply_operation
from repro.simulation.state import initial_state


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def bell() -> QCircuit:
    c = QCircuit(2)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(Measurement(0))
    c.push_back(Measurement(1))
    return c


def random_circuit(n, depth, rng) -> QCircuit:
    gates_1q = [
        lambda q: RotationX(q, float(rng.normal())),
        lambda q: RotationY(q, float(rng.normal())),
        lambda q: RotationZ(q, float(rng.normal())),
        lambda q: Phase(q, float(rng.normal())),
        Hadamard,
        PauliX,
        PauliZ,
        S,
        T,
    ]
    c = QCircuit(n)
    for _ in range(depth):
        if rng.random() < 0.3:
            a, b = rng.choice(n, 2, replace=False)
            c.push_back(
                CNOT(int(a), int(b))
                if rng.random() < 0.5
                else CZ(int(a), int(b))
            )
        else:
            q = int(rng.integers(0, n))
            c.push_back(gates_1q[int(rng.integers(0, len(gates_1q)))](q))
    return c


class TestPlanCache:
    def test_repeat_simulate_hits_cache(self):
        c = bell()
        s1 = c.simulate("00")
        assert s1.stats is not None and not s1.stats.cache_hit
        s2 = c.simulate("00")
        assert s2.stats.cache_hit
        info = plan_cache_info()
        assert info["hits"] >= 1 and info["misses"] == 1

    def test_structural_mutation_invalidates(self):
        c = bell()
        c.simulate("00")
        rev = c.revision
        c.push_back(Measurement(0))
        assert c.revision > rev
        s = c.simulate("00")
        assert not s.stats.cache_hit

    def test_parameter_mutation_invalidates(self):
        c = QCircuit(1)
        ry = RotationY(0, 0.5)
        c.push_back(ry)
        sig1 = circuit_signature(c)
        c.simulate("0")
        with pytest.warns(DeprecationWarning):
            ry.theta = 1.5
        assert circuit_signature(c) != sig1
        s = c.simulate("0")
        assert not s.stats.cache_hit
        # the new plan reflects the new angle
        expect = np.array([np.cos(0.75), np.sin(0.75)])
        assert np.allclose(s.states[0], expect)

    def test_distinct_backends_get_distinct_plans(self):
        c = bell()
        c.simulate("00", options=SimulationOptions(backend="kernel"))
        s = c.simulate("00", options=SimulationOptions(backend="sparse"))
        assert not s.stats.cache_hit
        assert plan_cache_info()["size"] == 2

    def test_nested_child_mutation_invalidates(self):
        child = QCircuit(1)
        child.push_back(Hadamard(0))
        parent = QCircuit(2)
        parent.push_back(child)
        sig1 = circuit_signature(parent)
        child.push_back(PauliX(0))
        assert circuit_signature(parent) != sig1

    def test_equivalent_circuits_share_one_plan(self):
        a, b = bell(), bell()
        simulate(a, "00")
        s = simulate(b, "00")
        assert s.stats.cache_hit

    def test_stats_shape(self):
        c = bell()
        st = c.simulate("00").stats
        assert st.nb_source_ops == 4
        assert st.nb_steps == st.nb_gate_steps + 2
        assert st.compile_seconds >= 0.0
        assert st.execute_seconds >= 0.0
        assert st.nb_fused == st.nb_fused_1q + st.nb_diag_merged


class TestFusion:
    def test_adjacent_1q_gates_fuse(self):
        c = QCircuit(1)
        for _ in range(6):
            c.push_back(Hadamard(0))
        plan = compile_circuit(c)
        assert plan.stats.nb_fused_1q == 5
        assert plan.stats.nb_gate_steps == 1

    def test_lookback_fusion_across_disjoint_qubits(self):
        # RY layer then RZ layer: same-qubit pairs are not adjacent in
        # the sequence but commute past the other qubits' gates
        n = 4
        c = QCircuit(n)
        for q in range(n):
            c.push_back(RotationY(q, 0.1 + q))
        for q in range(n):
            c.push_back(RotationZ(q, 0.2 - q))
        plan = compile_circuit(c)
        assert plan.stats.nb_fused_1q == n
        assert plan.stats.nb_gate_steps == n

    def test_diagonal_gates_coalesce(self):
        c = QCircuit(3)
        c.push_back(CZ(0, 1))
        c.push_back(Phase(2, 0.4))
        c.push_back(CZ(1, 2))
        plan = compile_circuit(c)
        assert plan.stats.nb_diag_merged == 2
        assert plan.stats.nb_gate_steps == 1
        step = plan.steps[0]
        assert step.diagonal and step.targets == (0, 1, 2)

    def test_barrier_blocks_fusion(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Barrier([0]))
        c.push_back(Hadamard(0))
        plan = compile_circuit(c)
        assert plan.stats.nb_fused_1q == 0
        assert plan.stats.nb_gate_steps == 2

    def test_measurement_blocks_fusion(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        c.push_back(Hadamard(0))
        plan = compile_circuit(c)
        assert plan.stats.nb_fused_1q == 0

    def test_fuse_false_keeps_every_gate(self):
        c = QCircuit(1)
        for _ in range(4):
            c.push_back(Hadamard(0))
        plan = compile_circuit(c, fuse=False)
        assert plan.stats.nb_fused == 0
        assert plan.stats.nb_gate_steps == 4

    @pytest.mark.parametrize("backend", ["kernel", "sparse", "einsum"])
    def test_randomized_cross_validation(self, backend):
        rng = np.random.default_rng(42)
        for trial in range(5):
            c = random_circuit(4, 25, rng)
            # the paper's Section 3.2 engine, one step per gate
            ref = simulate(
                c,
                "0000",
                options=SimulationOptions(backend="sparse", fuse=False),
            ).states[0]
            for fuse in (True, False):
                got = simulate(
                    c,
                    "0000",
                    options=SimulationOptions(backend=backend, fuse=fuse),
                ).states[0]
                assert np.allclose(got, ref, atol=1e-12), (trial, fuse)

    def test_unfused_plan_is_bit_identical_to_legacy(self):
        """An unfused plan reproduces the per-gate ``apply_operation``
        walk over the op tree bit for bit."""
        rng = np.random.default_rng(3)
        c = random_circuit(3, 20, rng)
        a = simulate(
            c, "000", options=SimulationOptions(fuse=False)
        ).states[0]
        engine = get_backend("kernel")
        b = initial_state("000", 3)
        for gate, offset in c.operations():
            b = apply_operation(engine, b, gate, offset, 3)
        assert np.array_equal(a, b)

    def test_fusion_disabled_under_noise(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        noise = NoiseModel(gate_noise=Depolarizing(0.1))
        rho_noisy = simulate_density(c, noise=noise).rho
        rho_plain = simulate_density(c).rho
        # two lossy H gates + channels != one fused identity + channel
        assert not np.allclose(rho_noisy, rho_plain)
        # plan steps under noise keep per-gate source ops
        from repro.simulation.plan import get_plan as _gp

        plan, _ = _gp(c, "kernel", np.complex128, fuse=False)
        assert all(
            s.op is not None for s in plan.steps if s.kind == GATE
        )


class TestPlanExecution:
    def test_measurement_reset_roundtrip(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(Measurement(0))
        c.push_back(Reset(1))
        for fuse in (True, False):
            s = simulate(c, "00", options=SimulationOptions(fuse=fuse))
            assert sorted(s.results) == ["0", "1"]
            assert np.allclose(s.probabilities, [0.5, 0.5])

    def test_reduced_states_use_producing_backend(self):
        class Spy(KernelBackend):
            name = "spy-kernel"
            calls = 0

            def apply(self, *args, **kwargs):
                type(self).calls += 1
                return super().apply(*args, **kwargs)

        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0, basis="x"))
        sim = simulate(c, "00", options=SimulationOptions(backend=Spy()))
        Spy.calls = 0
        reduced = sim.reducedStates
        assert reduced is not None and Spy.calls > 0

    def test_matrix_via_plan(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        m = c.matrix
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        assert np.allclose(m, cnot @ np.kron(h, np.eye(2)))

    def test_paper_examples_identical_with_and_without_fusion(self):
        from repro.algorithms.teleportation import teleportation_circuit

        qtc = teleportation_circuit()
        a = qtc.simulate("000")
        b = qtc.simulate("000", options=SimulationOptions(fuse=False))
        assert a.results == b.results
        assert np.array_equal(a.probabilities, b.probabilities)
        for x, y in zip(a.states, b.states):
            assert np.array_equal(x, y)


class TestSimulationOptions:
    def test_defaults(self):
        o = SimulationOptions()
        assert o.backend == "kernel"
        assert o.atol == 1e-12
        assert o.dtype is np.complex128
        assert o.fuse

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimulationOptions(atol=-1)
        with pytest.raises(SimulationError):
            SimulationOptions(dtype=np.float64)

    def test_dict_accepted(self):
        s = simulate(bell(), "00", options={"backend": "sparse"})
        assert s.backend == "sparse"

    def test_legacy_keyword_warns(self):
        with pytest.warns(DeprecationWarning):
            s = simulate(bell(), "00", backend="sparse")
        assert s.backend == "sparse"

    def test_positional_backend_rejected(self):
        # the third positional slot is ``options``; backend/atol/dtype
        # are keyword-only
        with pytest.raises(SimulationError):
            simulate(bell(), "00", "sparse")
        with pytest.raises(TypeError):
            simulate(bell(), "00", None, "sparse")

    def test_override_with_options_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = simulate(
                bell(),
                "00",
                options=SimulationOptions(),
                backend="einsum",
            )
        assert s.backend == "einsum"

    def test_density_legacy_keyword_warns(self):
        with pytest.warns(DeprecationWarning):
            simulate_density(bell(), noise=None, backend="sparse")

    def test_all_entry_points_share_keywords(self):
        opts = SimulationOptions(backend="sparse", atol=1e-10)
        c = bell()
        assert simulate(c, "00", options=opts).backend == "sparse"
        assert c.simulate("00", options=opts).backend == "sparse"
        simulate_density(c, options=opts)  # accepts the same object

    def test_seed_threads_through_counts(self):
        c = bell()
        s = c.simulate("00", options=SimulationOptions(seed=7))
        assert np.array_equal(s.counts(100), s.counts(100, seed=7))

    def test_unfused_run_has_stats(self):
        s = simulate(bell(), "00", options=SimulationOptions(fuse=False))
        assert s.stats is not None
        assert s.stats.nb_source_ops == 4  # H, CNOT, 2 measurements
        assert s.stats.nb_steps == 4
        assert s.stats.nb_gate_steps == 2
        assert s.stats.execute_seconds > 0.0
        assert not s.stats.cache_hit


class TestRegistry:
    def test_register_backend_decorator(self):
        @register_backend
        class Doubly(KernelBackend):
            name = "doubly"

        try:
            assert "doubly" in available_backends(kind="statevector")
            assert isinstance(get_backend("doubly"), Doubly)
            s = simulate(bell(), "00", options={"backend": "doubly"})
            assert s.backend == "doubly"
        finally:
            _REGISTRY.pop("doubly", None)
            from repro.simulation.backends import _ENGINES

            _ENGINES.pop("doubly", None)

    def test_get_backend_instance_passthrough(self):
        b = EinsumBackend()
        assert get_backend(b) is b

    def test_unified_namespace(self):
        names = set(available_backends())
        assert {"kernel", "sparse", "einsum", "density", "mps",
                "stabilizer"} <= names
        assert callable(get_engine("mps"))

    def test_register_backend_rejects_non_backend(self):
        with pytest.raises(SimulationError):
            register_backend(dict)

    def test_custom_backend_through_plan(self):
        class Counting(KernelBackend):
            name = "counting"
            planned = 0

            def apply_planned(self, state, step, nb_qubits, out=None):
                type(self).planned += 1
                return super().apply_planned(
                    state, step, nb_qubits, out=out
                )

        eng = Counting()
        s = simulate(bell(), "00", options=SimulationOptions(backend=eng))
        assert Counting.planned > 0
        assert s.backend == "counting"
