"""Parametric plans: Parameter slots, bind()/sweep(), cache contract.

Covers the symbolic-parameter API end to end: uniform parametric-gate
constructors, :class:`~repro.parameter.Parameter` expression algebra,
``QCircuit.bind`` / ``QCircuit.sweep`` differential equality against
recompile-per-point across every statevector backend, the plan-cache
guarantee (zero recompiles across a 100-point sweep of a fixed ansatz),
symbolic pass semantics, and the conformance generator's parametric
mode.
"""

import numpy as np
import pytest

import repro
from repro import (
    BoundCircuit,
    Parameter,
    ParameterExpression,
    QAngle,
    QCircuit,
    QRotation,
    SweepResult,
    UnboundParameterError,
    sweep,
)
from repro.circuit import Measurement
from repro.exceptions import GateError, SimulationError
from repro.gates import (
    ControlledGate,
    ControlledGate1,
    CPhase,
    CRotationX,
    CRotationY,
    CRotationZ,
    CZ,
    Hadamard,
    MCGate,
    MCPhase,
    MCRotationX,
    MCRotationY,
    MCRotationZ,
    Phase,
    RotationX,
    RotationXX,
    RotationY,
    RotationYY,
    RotationZ,
    RotationZZ,
)
from repro.ir import PassManager, lower
from repro.parameter import normalize_values
from repro.simulation import (
    available_backends,
    clear_plan_cache,
    compile_circuit,
    get_plan,
    plan_cache_info,
)

# every registered statevector backend plus the kernel engine pinned to
# each regime of conftest.KERNEL_REGIMES
BACKENDS = sorted(available_backends("statevector")) + ["einsum", "strided"]


def _ansatz(p1, p2, p3):
    """A 3-qubit mixed circuit used throughout the differential tests."""
    c = QCircuit(3)
    c.push_back(Hadamard(0))
    c.push_back(RotationX(0, p1))
    c.push_back(CRotationZ(0, 1, p2))
    c.push_back(RotationYY(1, 2, p3))
    c.push_back(Phase(2, p1))
    c.push_back(Hadamard(2))
    return c


# -- constructor uniformity --------------------------------------------------


class TestConstructorUniformity:
    """float | QAngle | QRotation | Parameter accepted everywhere."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: RotationX(0, a),
            lambda a: RotationY(0, a),
            lambda a: RotationZ(0, a),
            lambda a: Phase(0, a),
            lambda a: RotationXX(0, 1, a),
            lambda a: RotationYY(0, 1, a),
            lambda a: RotationZZ(0, 1, a),
            lambda a: CPhase(0, 1, a),
            lambda a: CRotationX(0, 1, a),
            lambda a: CRotationY(0, 1, a),
            lambda a: CRotationZ(0, 1, a),
        ],
    )
    def test_angle_types_agree(self, make):
        ref = make(0.3).matrix
        assert np.allclose(make(QAngle(0.3)).matrix, ref)
        assert np.allclose(make(QRotation(0.3)).matrix, ref)
        p = Parameter("t")
        g = make(p)
        assert not g.is_bound
        assert g.parameter is p
        assert np.allclose(g.bind_parameters({p: 0.3}).matrix, ref)

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: RotationX(0, a),
            lambda a: Phase(0, a),
            lambda a: RotationZZ(0, 1, a),
            lambda a: CRotationY(0, 1, a),
        ],
    )
    def test_unbound_access_raises(self, make):
        g = make(Parameter("t"))
        with pytest.raises(UnboundParameterError):
            g.matrix
        with pytest.raises(UnboundParameterError):
            g.theta

    def test_bound_gate_is_concrete(self):
        p = Parameter("t")
        g = RotationX(0, 2 * p + 0.5).bind_parameters({p: 0.25})
        assert g.is_bound
        assert g.parameter is None
        assert g.theta == pytest.approx(1.0)


# -- expression algebra ------------------------------------------------------


class TestParameterExpressions:
    def test_affine_arithmetic(self):
        p = Parameter("theta")
        expr = 2 * p + 0.5
        assert isinstance(expr, ParameterExpression)
        assert expr.parameter is p
        assert expr.resolve({p: 1.0}) == pytest.approx(2.5)
        assert (-expr).resolve({p: 1.0}) == pytest.approx(-2.5)
        assert (expr - 0.5).resolve({p: 2.0}) == pytest.approx(4.0)
        assert (p / 2).resolve({p: 3.0}) == pytest.approx(1.5)

    def test_nested_expression_scales_inner_offset(self):
        # 2 * (p + 0.5) + 0.25 == 2p + 1.25
        p = Parameter("theta")
        inner = ParameterExpression(p, 1.0, 0.5)
        assert ParameterExpression(inner, 2.0).resolve({p: 1.0}) == 3.0
        outer = ParameterExpression(inner, 2.0, 0.25)
        assert outer.parameter is p
        assert outer.resolve({p: 0.0}) == pytest.approx(1.25)
        assert outer.resolve({p: 1.0}) == pytest.approx(3.25)

    def test_distinct_slots_same_name(self):
        a, b = Parameter("x"), Parameter("x")
        assert a != b
        expr = 1.0 * a
        with pytest.raises(UnboundParameterError):
            expr.resolve({b: 0.1})

    def test_normalize_values_forms(self):
        a, b = Parameter("a"), Parameter("b")
        by_param = normalize_values((a, b), {a: 1.0, b: 2.0})
        by_name = normalize_values((a, b), {"a": 1.0, "b": 2.0})
        by_seq = normalize_values((a, b), [1.0, 2.0])
        assert by_param == by_name == by_seq == {a: 1.0, b: 2.0}

    def test_normalize_values_errors(self):
        a, b = Parameter("x"), Parameter("x")
        with pytest.raises(UnboundParameterError):
            normalize_values((a, b), {"x": 1.0})  # ambiguous name
        with pytest.raises(UnboundParameterError):
            normalize_values((a,), {})  # missing
        with pytest.raises(UnboundParameterError):
            normalize_values((a,), [1.0, 2.0])  # length mismatch


# -- bind() differential -----------------------------------------------------


class TestBind:
    def test_circuit_parameters_order(self):
        p1, p2, p3 = (Parameter(n) for n in "abc")
        c = _ansatz(p1, p2, p3)
        assert c.parameters == (p1, p2, p3)

    def test_bind_is_cheap_view(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        bound = c.bind({p: 0.5})
        assert isinstance(bound, BoundCircuit)
        assert bound.base is c
        assert bound.parameters == (p,)

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_bind_matches_recompile(self, backend):
        p1, p2, p3 = (Parameter(n) for n in "abc")
        sym = _ansatz(p1, p2, p3)
        rng = np.random.default_rng(7)
        for _ in range(3):
            vals = rng.uniform(-np.pi, np.pi, size=3)
            ref = _ansatz(*vals).simulate("000", {"backend": backend})
            got = sym.bind(dict(zip((p1, p2, p3), vals))).simulate(
                "000", {"backend": backend}
            )
            assert np.allclose(ref.states[0], got.states[0])

    def test_bind_with_measurement_branches(self):
        p = Parameter("t")
        sym = QCircuit(2)
        sym.push_back(RotationY(0, p))
        sym.push_back(Measurement(0))
        ref = QCircuit(2)
        ref.push_back(RotationY(0, 1.1))
        ref.push_back(Measurement(0))
        a = ref.simulate("00")
        b = sym.bind({p: 1.1}).simulate("00")
        assert a.results == b.results
        assert np.allclose(a.probabilities, b.probabilities)

    def test_unbound_simulate_raises(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        with pytest.raises(UnboundParameterError):
            c.simulate("0")
        with pytest.raises(UnboundParameterError):
            c.matrix

    def test_materialize_is_concrete(self):
        p1, p2, p3 = (Parameter(n) for n in "abc")
        sym = _ansatz(p1, p2, p3)
        conc = sym.bind([0.1, 0.2, 0.3]).materialize()
        assert conc.parameters == ()
        ref = _ansatz(0.1, 0.2, 0.3)
        assert np.allclose(conc.matrix, ref.matrix)


# -- plan-cache contract -----------------------------------------------------


class TestPlanCache:
    def test_signature_keys_by_slot(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        clear_plan_cache()
        plan1, _ = get_plan(c, "kernel", np.complex128)
        plan2, _ = get_plan(c, "kernel", np.complex128)
        assert plan1 is plan2
        assert plan1.is_parametric
        assert plan1.parameters == (p,)
        info = plan_cache_info()
        assert info["hits"] >= 1

    def test_zero_recompiles_over_100_point_sweep(self):
        """The acceptance criterion: a 100-point sweep of a fixed
        ansatz never misses the plan cache after the first compile."""
        p1, p2, p3 = (Parameter(n) for n in "abc")
        sym = _ansatz(p1, p2, p3)
        clear_plan_cache()
        thetas = np.linspace(0.0, 2 * np.pi, 100)
        first = sym.bind([thetas[0]] * 3).simulate("000")
        assert first.stats is not None and not first.stats.cache_hit
        misses_after_first = plan_cache_info()["misses"]
        for t in thetas[1:]:
            s = sym.bind([t, 2 * t, -t]).simulate("000")
            assert s.stats.cache_hit
        assert plan_cache_info()["misses"] == misses_after_first

    def test_rebinding_updates_kernels(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        a = c.bind({p: 0.4}).simulate("0").states[0]
        b = c.bind({p: 2.9}).simulate("0").states[0]
        assert not np.allclose(a, b)
        ref = QCircuit(1)
        ref.push_back(RotationY(0, 2.9))
        assert np.allclose(b, ref.simulate("0").states[0])


# -- sweep() -----------------------------------------------------------------


class TestSweep:
    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_sweep_matches_per_point_bind(self, backend):
        p1, p2, p3 = (Parameter(n) for n in "abc")
        sym = _ansatz(p1, p2, p3)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-np.pi, np.pi, size=(17, 3))
        result = sym.sweep(pts, options={"backend": backend})
        assert isinstance(result, SweepResult)
        assert result.states.shape == (17, 8)
        for i, row in enumerate(pts):
            ref = sym.bind(row).simulate("000", {"backend": backend})
            assert np.allclose(result.states[i], ref.states[0])

    def test_sweep_dict_of_arrays(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        thetas = np.linspace(0.0, np.pi, 5)
        result = c.sweep({p: thetas})
        z = result.expectation("z")
        assert np.allclose(z, np.cos(thetas), atol=1e-12)
        assert np.allclose(result.probabilities().sum(axis=1), 1.0)

    def test_free_sweep_function(self):
        p = Parameter("t")
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(CRotationZ(0, 1, p))
        result = sweep(c, {p: [0.0, np.pi]})
        assert result.nb_points == 2
        assert len(result) == 2

    def test_sweep_rejects_measurements(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        c.push_back(Measurement(0))
        with pytest.raises(SimulationError):
            c.sweep({p: [0.1, 0.2]})

    def test_sweep_counts_points_metric(self):
        from repro.observability import instrument
        from repro.observability.metrics import SWEEP_POINTS

        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        with instrument() as inst:
            c.sweep({p: np.linspace(0, 1, 13)})
        assert inst.metrics.counter(SWEEP_POINTS).total() == 13


# -- parametric gates in fused blocks ----------------------------------------


def _parametric_blocks(circuit):
    """The fused plan's parametric blocks and their members."""
    plan = compile_circuit(circuit)
    return plan, [s for s in plan.steps if s.members is not None]


def _assert_matches_unfused(circuit, values):
    """Sweep rows and per-point binds of the fused plan equal the
    unfused plan's, on the kernel engine and the sparse reference."""
    start = "0" * circuit.nbQubits
    for backend in ("kernel", "sparse"):
        fused = {"backend": backend}
        unfused = {"backend": backend, "fuse": False}
        swept = circuit.sweep(values, options=fused).states
        ref = circuit.sweep(values, options=unfused).states
        np.testing.assert_allclose(swept, ref, atol=1e-12)
        for row, want in zip(values, ref):
            got = circuit.bind(row).simulate(start, fused).states[0]
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestParametricBlocks:
    """Parametric gates join fused blocks on registers of 7 or more
    qubits; a block with a parametric member keeps its members and is
    closed per binding."""

    @pytest.mark.parametrize(
        "nb_qubits, widest", [(4, 0), (6, 0), (7, 3), (8, 3), (10, 4)]
    )
    def test_parametric_block_width_follows_the_register(
        self, nb_qubits, widest
    ):
        """A parametric block of ``k`` qubits needs ``4**k < 2**n`` and
        ``k >= 3``; narrower registers keep parametric gates as leaf
        steps, as before parametric fusion."""
        from repro.algorithms import hardware_efficient_ansatz

        circuit = hardware_efficient_ansatz(nb_qubits, 2)
        _plan, blocks = _parametric_blocks(circuit)
        assert max((len(b.targets) for b in blocks), default=0) == widest
        values = np.random.default_rng(nb_qubits).uniform(
            -np.pi, np.pi, (3, len(circuit.parameters))
        )
        _assert_matches_unfused(circuit, values)

    def test_parameter_order_is_source_order(self):
        a, b, c = (Parameter(n) for n in "abc")
        circuit = QCircuit(7)
        for q, p in enumerate((a, b, c)):
            circuit.push_back(RotationY(q, p))
        circuit.push_back(CZ(0, 1))
        circuit.push_back(CZ(1, 2))
        plan, (block,) = _parametric_blocks(circuit)
        assert len(plan.steps) == 1
        member_params = [
            m.param.parameter for m in block.members if m.param is not None
        ]
        assert member_params == [c, a, b]  # not source order
        assert plan.parameters == (a, b, c)
        values = np.array([[0.3, -1.2, 2.5], [1.7, 0.4, -0.9]])
        swept = circuit.sweep(values).states
        for row, state in zip(values, swept):
            ref = circuit.bind(row).simulate("0" * 7).states[0]
            np.testing.assert_allclose(state, ref, atol=1e-12)
        _assert_matches_unfused(circuit, values)

    def test_sweep_writes_no_kernel(self):
        from repro.algorithms import hardware_efficient_ansatz

        circuit = hardware_efficient_ansatz(7, 2)
        plan, _ = get_plan(circuit)
        blocks = [s for s in plan.steps if s.members is not None]
        assert blocks
        plan.bind(np.linspace(0.1, 1.5, len(plan.parameters)))
        kept = [
            (step, step.kernel, step.kernel.copy())
            for step in plan.steps
        ] + [
            (m, m.kernel, None if m.kernel is None else m.kernel.copy())
            for step in blocks for m in step.members
        ]
        values = np.random.default_rng(3).uniform(
            -np.pi, np.pi, (6, len(plan.parameters))
        )
        circuit.sweep(values)
        for step, kernel, copy in kept:
            assert step.kernel is kernel
            if copy is not None:
                np.testing.assert_array_equal(step.kernel, copy)

    def test_threads_sweeping_one_plan_get_serial_results(self):
        import sys
        import threading

        from repro.algorithms import hardware_efficient_ansatz

        circuit = hardware_efficient_ansatz(8, 2)
        nb = len(circuit.parameters)
        rng = np.random.default_rng(5)
        batches = [rng.uniform(-np.pi, np.pi, (8, nb)) for _ in range(2)]
        serial = [circuit.sweep(v).states for v in batches]
        got = [None, None]
        barrier = threading.Barrier(2)

        def work(i):
            barrier.wait()
            for _ in range(5):
                got[i] = circuit.sweep(batches[i]).states

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(2):
            np.testing.assert_array_equal(got[i], serial[i])

    def test_parametric_diagonal_members(self):
        t, u = Parameter("t"), Parameter("u")
        circuit = QCircuit(7)
        circuit.push_back(Hadamard(0))
        circuit.push_back(RotationZ(0, t))
        circuit.push_back(RotationX(1, 0.3))
        circuit.push_back(CPhase(0, 1, u))
        circuit.push_back(RotationY(1, 0.8))
        _plan, blocks = _parametric_blocks(circuit)
        diagonal = [
            type(m.op) for b in blocks for m in b.members
            if m.param is not None and m.diagonal
        ]
        assert diagonal == [RotationZ, CPhase]
        values = np.array([[0.0, 0.0], [0.9, -2.1], [-1.3, 2.8]])
        _assert_matches_unfused(circuit, values)

    def test_controlled_parametric_member(self):
        t = Parameter("t")
        circuit = QCircuit(7)
        for q in range(3):
            circuit.push_back(Hadamard(q))
        circuit.push_back(CRotationY(2, 0, t))
        circuit.push_back(RotationX(1, 0.5))
        circuit.push_back(CRotationY(0, 1, 2 * t, control_state=0))
        _plan, blocks = _parametric_blocks(circuit)
        controlled = [
            m for b in blocks for m in b.members
            if m.param is not None and m.controls
        ]
        assert len(controlled) == 2
        _assert_matches_unfused(circuit, np.array([[0.4], [-2.2], [3.0]]))


# -- controlled wrappers around a slot ---------------------------------------

#: every controlled wrapper, each built around one angle slot ``a``
CONTROLLED_SLOTS = {
    "MCRotationX": lambda a: MCRotationX([0, 1], 2, a),
    "MCRotationY": lambda a: MCRotationY([0, 2], 1, a, control_states=[0, 1]),
    "MCRotationZ": lambda a: MCRotationZ([1, 2], 0, a),
    "MCPhase": lambda a: MCPhase([0, 1], 2, a, control_states=[1, 0]),
    "MCGate": lambda a: MCGate(RotationY(2, a), [0, 1], [0, 1]),
    "ControlledGate1": lambda a: ControlledGate1(RotationZ(0, a), 2, 0),
    "ControlledGate": lambda a: ControlledGate(RotationXX(1, 2, a), 0),
}


def _controlled_circuit(make, a):
    c = QCircuit(3)
    for q in range(3):
        c.push_back(Hadamard(q))
    c.push_back(RotationY(1, 0.4))
    c.push_back(make(a))
    return c


class TestControlledSlots:
    """Controlled and multi-controlled wrappers forward the wrapped
    gate's slot: they report it, bind it, sweep it and invert it."""

    @pytest.mark.parametrize("name", sorted(CONTROLLED_SLOTS))
    def test_slot_is_reported(self, name):
        p = Parameter("t")
        g = CONTROLLED_SLOTS[name](p)
        assert not g.is_bound
        assert g.parameter is p
        assert _controlled_circuit(CONTROLLED_SLOTS[name], p).parameters == (
            p,
        )

    @pytest.mark.parametrize("backend", ["kernel", "sparse"])
    @pytest.mark.parametrize("name", sorted(CONTROLLED_SLOTS))
    def test_bind_and_sweep_match_concrete(self, name, backend):
        make = CONTROLLED_SLOTS[name]
        p = Parameter("t")
        sym = _controlled_circuit(make, p)
        opts = {"backend": backend}
        values = [-2.3, 0.7, 1.9]
        swept = sym.sweep({p: values}, options=opts).states
        for i, v in enumerate(values):
            ref = _controlled_circuit(make, v).simulate("000", opts).states[0]
            got = sym.bind({p: v}).simulate("000", opts).states[0]
            np.testing.assert_allclose(got, ref, atol=1e-12)
            np.testing.assert_allclose(swept[i], ref, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(CONTROLLED_SLOTS))
    def test_ctranspose_binds_to_concrete_inverse(self, name):
        make = CONTROLLED_SLOTS[name]
        p = Parameter("t")
        inv = make(p).ctranspose()
        assert type(inv) is type(make(p))
        assert not inv.is_bound and inv.parameter is p
        bound = inv.bind_parameters({p: 0.7})
        ref = make(0.7).ctranspose()
        assert bound == ref
        np.testing.assert_allclose(bound.matrix, ref.matrix, atol=1e-12)
        product = bound.matrix @ make(0.7).matrix
        np.testing.assert_allclose(product, np.eye(len(product)), atol=1e-12)


# -- symbolic pass semantics -------------------------------------------------


class TestSymbolicPasses:
    def _run_fuse(self, circuit):
        return PassManager(["flatten", "fuse_rotations"]).run(
            lower(circuit)
        )

    def test_same_slot_fuses_to_double_angle(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationX(0, p))
        c.push_back(RotationX(0, p))
        fused = self._run_fuse(c)
        gates = [op for op, _ in fused.flat()]
        assert len(gates) == 1
        expr = gates[0].parameter_expression
        assert expr.resolve({p: 0.7}) == pytest.approx(1.4)

    def test_distinct_slots_bail(self):
        a, b = Parameter("a"), Parameter("b")
        c = QCircuit(1)
        c.push_back(RotationX(0, a))
        c.push_back(RotationX(0, b))
        fused = self._run_fuse(c)
        assert len(list(fused.flat())) == 2

    def test_symbolic_plus_concrete_folds_offset(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationX(0, p))
        c.push_back(RotationX(0, 0.5))
        fused = self._run_fuse(c)
        gates = [op for op, _ in fused.flat()]
        assert len(gates) == 1
        expr = gates[0].parameter_expression
        assert expr.resolve({p: 0.25}) == pytest.approx(0.75)

    def test_symbolic_never_treated_as_identity(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationZ(0, p))
        fused = PassManager(["flatten", "cancel_inverses"]).run(lower(c))
        assert len(list(fused.flat())) == 1

    def test_fused_symbolic_circuit_simulates_correctly(self):
        p = Parameter("t")
        c = QCircuit(1)
        c.push_back(RotationY(0, p))
        c.push_back(RotationY(0, p))
        got = c.bind({p: 0.4}).simulate("0").states[0]
        ref = QCircuit(1)
        ref.push_back(RotationY(0, 0.8))
        assert np.allclose(got, ref.simulate("0").states[0])


# -- VQE integration ---------------------------------------------------------


class TestVQEAnsatz:
    def test_symbolic_ansatz_default(self):
        from repro.algorithms import hardware_efficient_ansatz

        c = hardware_efficient_ansatz(2, 1)
        assert len(c.parameters) == 4
        vals = [0.1, 0.2, 0.3, 0.4]
        conc = hardware_efficient_ansatz(2, 1, np.asarray(vals))
        got = c.bind(vals).simulate("00").states[0]
        assert np.allclose(got, conc.simulate("00").states[0])


# -- conformance parametric mode ---------------------------------------------


class TestConformanceParametric:
    def test_generator_emits_parametric_cases(self):
        from repro.conformance.generator import (
            GeneratorConfig,
            generate_case,
        )

        cfg = GeneratorConfig(
            parametric_fraction=1.0, clifford_fraction=0.0,
            noise_fraction=0.0,
        )
        found = False
        for seed in range(12):
            case = generate_case(seed, cfg)
            assert case.circuit.parameters == ()  # concrete baseline
            if case.symbolic is not None:
                found = True
                assert len(case.parameters) > 0
                assert tuple(case.symbolic.parameters) == tuple(
                    p for p, _ in case.parameters
                )
        assert found

    def test_default_config_streams_unchanged(self):
        from repro.conformance.generator import (
            GeneratorConfig,
            generate_case,
        )

        for seed in range(6):
            a = generate_case(seed)
            b = generate_case(seed, GeneratorConfig())
            assert a.circuit.draw() == b.circuit.draw()
            assert a.symbolic is None and a.parameters == ()

    def test_oracle_parametric_checks_pass(self):
        from repro.conformance.generator import (
            GeneratorConfig,
            generate_case,
        )
        from repro.conformance.oracle import OracleConfig, run_oracle

        cfg = GeneratorConfig(
            parametric_fraction=1.0, clifford_fraction=0.0,
            noise_fraction=0.0,
        )
        oracle = OracleConfig(
            check_density=False, check_trajectory=False,
            check_mps=False, check_stabilizer=False,
            check_passes=False, check_roundtrips=False,
        )
        checked = 0
        for seed in range(10):
            case = generate_case(seed, cfg)
            if case.symbolic is None:
                continue
            failures, _ = run_oracle(case, oracle)
            assert failures == []
            checked += 1
        assert checked >= 2
