"""Cross-validation of the two simulation backends.

The kernel backend (QCLAB++-style) and the sparse-Kronecker backend
(the paper's reference algorithm) must agree with each other — and
with a dense brute-force operator embedding — on every gate class,
qubit placement and control configuration.  The kernel engine's
``out=`` buffer convention, its two one-qubit regimes and its
serial-vs-batched bit-identity are pinned down here too.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import (
    bell_circuit,
    ghz_circuit,
    nested_circuit,
    random_circuit,
)
from repro.circuit import Measurement, QCircuit
from repro.exceptions import SimulationError
from repro.gates import (
    CNOT,
    CPhase,
    CZ,
    Hadamard,
    MCX,
    MCZ,
    MatrixGate,
    PauliX,
    PauliZ,
    RotationX,
    RotationZ,
    RotationZZ,
    SWAP,
    T,
    iSWAP,
)
from repro.gates.base import controlled_matrix
from repro.noise import (
    Depolarizing,
    NoiseModel,
    run_trajectories_batched,
    run_trajectory,
)
from repro.simulation.backends import (
    GEMM_MAX_WIDTH,
    KernelBackend,
    SparseKronBackend,
    available_backends,
    default_backend,
    get_backend,
)
from repro.simulation import SimulationOptions, compile_circuit, simulate
from repro.simulation.plan import GATE
from repro.simulation.simulate import apply_operation
from repro.simulation.state import random_state

from tests.conftest import statevector_variant

BACKENDS = [KernelBackend(), SparseKronBackend()]

#: Per-backend test variants: the registered statevector backends plus
#: the kernel engine pinned to its contraction formulation
#: (``conftest.KERNEL_REGIMES``).
VARIANTS = ["kernel", "sparse", "einsum"]


@pytest.fixture
def backend(request, monkeypatch):
    """Backend object of the variant given by indirect parametrization."""
    return get_backend(statevector_variant(request.param, monkeypatch))


def dense_reference(state, gate, nb_qubits):
    """Brute-force: embed the gate's full matrix with explicit kron."""
    full = np.eye(1, dtype=complex)
    qubits = list(gate.qubits)
    k = len(qubits)
    # build the operator on (sorted qubits) then permute axes into place
    op = gate.matrix
    # operator on the full register via tensor embedding
    big = np.eye(1 << nb_qubits, dtype=complex).reshape(
        (2,) * (2 * nb_qubits)
    )
    t = op.reshape((2,) * (2 * k))
    psi = state.reshape((2,) * nb_qubits)
    out = np.tensordot(t, psi, axes=(list(range(k, 2 * k)), qubits))
    out = np.moveaxis(out, list(range(k)), qubits)
    del big, full
    return out.reshape(-1)


GATES_3Q = [
    Hadamard(0),
    Hadamard(2),
    PauliX(1),
    PauliZ(2),
    T(0),
    RotationX(1, 0.7),
    RotationZ(2, -1.2),
    CNOT(0, 1),
    CNOT(2, 0),
    CNOT(0, 2, control_state=0),
    CZ(0, 2),
    CPhase(1, 2, 0.9),
    SWAP(0, 2),
    iSWAP(1, 2),
    RotationZZ(0, 2, 0.8),
    MCX([0, 1], 2),
    MCX([0, 2], 1, [1, 0]),
    MCZ([1, 2], 0, [0, 0]),
]


class TestBackendAgreement:
    @pytest.mark.parametrize("gate", GATES_3Q, ids=repr)
    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_gate_vs_dense_reference(self, gate, backend):
        n = 3
        state = random_state(n, rng=42)
        want = dense_reference(state.copy(), gate, n)
        got = apply_operation(backend, state.copy(), gate, 0, n)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_offset_shifts_qubits(self, backend):
        n = 4
        state = random_state(n, rng=1)
        shifted = apply_operation(
            backend, state.copy(), Hadamard(0), 2, n
        )
        direct = apply_operation(
            backend, state.copy(), Hadamard(2), 0, n
        )
        np.testing.assert_allclose(shifted, direct, atol=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        state0 = random_state(n, rng=rng)
        gates = []
        for _ in range(8):
            kind = rng.integers(0, 5)
            qs = rng.permutation(n)
            if kind == 0:
                gates.append(Hadamard(int(qs[0])))
            elif kind == 1:
                gates.append(RotationX(int(qs[0]), float(rng.normal())))
            elif kind == 2:
                gates.append(CNOT(int(qs[0]), int(qs[1])))
            elif kind == 3:
                gates.append(CPhase(int(qs[0]), int(qs[1]),
                                    float(rng.normal())))
            else:
                gates.append(SWAP(int(qs[0]), int(qs[1])))
        results = []
        for backend in BACKENDS:
            state = state0.copy()
            for g in gates:
                state = apply_operation(backend, state, g, 0, n)
            results.append(state)
        np.testing.assert_allclose(results[0], results[1], atol=1e-11)

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_norm_preserved(self, backend):
        n = 5
        state = random_state(n, rng=3)
        for g in (Hadamard(2), CNOT(1, 4), MCX([0, 2], 3), SWAP(0, 4)):
            state = apply_operation(backend, state, g, 0, n)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


class TestBatchStates:
    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_batch_matches_column_by_column(self, backend):
        n = 3
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        gate = CNOT(0, 2)
        got = apply_operation(backend, batch.copy(), gate, 0, n)
        for j in range(4):
            col = apply_operation(
                backend, batch[:, j].copy(), gate, 0, n
            )
            np.testing.assert_allclose(got[:, j], col, atol=1e-12)


class TestDiagonalFastPath:
    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    @pytest.mark.parametrize(
        "gate",
        [PauliZ(1), T(2), RotationZ(0, 0.4), CZ(0, 2),
         CPhase(2, 0, 1.1), MCZ([0, 1], 2), RotationZZ(1, 2, 0.6)],
        ids=repr,
    )
    def test_diagonal_gates(self, backend, gate):
        n = 3
        state = random_state(n, rng=11)
        want = dense_reference(state.copy(), gate, n)
        got = apply_operation(backend, state.copy(), gate, 0, n)
        np.testing.assert_allclose(got, want, atol=1e-13)


class TestSparseOperator:
    def test_extended_operator_equals_dense(self):
        n = 4
        gate = MCX([0, 3], 2, [1, 0])
        op = SparseKronBackend.extended_operator(
            gate.target_matrix(),
            list(gate.target_qubits()),
            n,
            controls=list(gate.controls()),
            control_states=list(gate.control_states()),
        )
        dense = np.zeros((16, 16), dtype=complex)
        eye = np.eye(16, dtype=complex)
        for j in range(16):
            dense[:, j] = dense_reference(eye[:, j].copy(), gate, n)
        np.testing.assert_allclose(op.toarray(), dense, atol=1e-14)

    def test_adjacent_gate_is_literal_kron(self):
        """For adjacent target qubits the operator is I (x) U (x) I —
        exactly the paper's Section 3.2 formula."""
        n = 4
        gate = SWAP(1, 2)
        op = SparseKronBackend.extended_operator(
            gate.matrix, [1, 2], n
        ).toarray()
        want = np.kron(np.kron(np.eye(2), gate.matrix), np.eye(2))
        np.testing.assert_allclose(op, want)

    def test_sparsity(self):
        op = SparseKronBackend.extended_operator(
            Hadamard(0).matrix, [5], 10
        )
        assert op.nnz == 2 * (1 << 10)  # 2 nonzeros per column

    @staticmethod
    def _per_entry_operator(kernel, targets, n, controls=(), states=()):
        """The operator built one nonzero kernel entry at a time."""
        from repro.utils.bits import insert_bits

        if controls:
            qubits = sorted(list(targets) + list(controls))
            kernel = controlled_matrix(
                kernel, qubits, list(controls), list(states), list(targets)
            )
        else:
            qubits = sorted(targets)
        k = len(qubits)
        positions = [n - 1 - q for q in qubits]
        coo = sp.coo_matrix(kernel)
        rest = np.arange(1 << (n - k), dtype=np.int64)
        rows, cols, vals = [], [], []
        for a, b, v in zip(coo.row, coo.col, coo.data):
            bits_a = [(int(a) >> (k - 1 - j)) & 1 for j in range(k)]
            bits_b = [(int(b) >> (k - 1 - j)) & 1 for j in range(k)]
            rows.append(insert_bits(rest, positions, bits_a))
            cols.append(insert_bits(rest, positions, bits_b))
            vals.append(np.full(rest.size, v, dtype=np.complex128))
        return sp.csr_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(1 << n, 1 << n),
        )

    @pytest.mark.parametrize(
        "targets, controls, states",
        [
            ((2,), (), ()),
            ((1, 2, 3, 4), (), ()),  # a dense 4-qubit block
            ((0, 3), (), ()),  # gapped targets
            ((4,), (1,), (0,)),  # control state 0
            ((0, 2), (1, 4), (1, 0)),
        ],
    )
    def test_extended_operator_matches_per_entry_build(
        self, targets, controls, states
    ):
        """The gathered build gives the same CSR, entry for entry, as
        depositing each nonzero kernel entry on its own."""
        rng = np.random.default_rng(len(targets) * 7 + len(controls))
        n = 5
        size = 1 << len(targets)
        kernel = rng.normal(size=(size, size)) + 1j * rng.normal(
            size=(size, size)
        )
        kernel[rng.random((size, size)) < 0.3] = 0.0  # some zero entries
        got = SparseKronBackend.extended_operator(
            kernel, list(targets), n, list(controls), list(states)
        )
        want = self._per_entry_operator(kernel, targets, n, controls, states)
        assert got.format == "csr"
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


class TestControlledKernelHelper:
    def test_cz_from_parts(self):
        got = controlled_matrix(
            PauliZ(1).matrix, [0, 1], [0], [1], [1]
        )
        np.testing.assert_allclose(got, CZ(0, 1).matrix)

    def test_requires_sorted(self):
        from repro.exceptions import GateError

        with pytest.raises(GateError):
            controlled_matrix(np.eye(2), [1, 0], [1], [1], [0])


class TestValidationAndRegistry:
    def test_get_backend_by_name(self):
        assert get_backend("kernel").name == "kernel"
        assert get_backend("SPARSE").name == "sparse"

    def test_get_backend_passthrough(self):
        b = KernelBackend()
        assert get_backend(b) is b

    def test_unknown_backend(self):
        with pytest.raises(SimulationError):
            get_backend("gpu")

    def test_registry_contents(self):
        assert available_backends(kind="statevector") == ("kernel", "sparse")
        # the unified namespace also lists the non-statevector engines
        assert {"density", "mps", "stabilizer"} <= set(available_backends())

    def test_registry_matches_availability(self):
        """Every listed statevector name resolves to a backend of that
        name, and the unified namespace lists it too."""
        names = available_backends("statevector")
        for name in names:
            assert get_backend(name).name == name
        assert set(names) <= set(available_backends())

    def test_default_backend(self):
        assert default_backend().name == "kernel"

    @pytest.mark.parametrize("name", ["strided", "einsum", "jit"])
    def test_retired_names_are_unknown(self, name):
        with pytest.raises(SimulationError, match="unknown backend"):
            get_backend(name)

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_rejects_bad_kernel_shape(self, backend):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        with pytest.raises(SimulationError):
            backend.apply(state, np.eye(4), [0], 2)

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_rejects_duplicate_qubits(self, backend):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        with pytest.raises(SimulationError):
            backend.apply(state, np.eye(2), [0], 2, controls=[0],
                          control_states=[1])

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_rejects_unsorted_targets(self, backend):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        with pytest.raises(SimulationError):
            backend.apply(state, np.eye(4), [1, 0], 2)

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_rejects_out_of_range(self, backend):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        with pytest.raises(SimulationError):
            backend.apply(state, np.eye(2), [2], 2)


class TestNonContiguousInputs:
    """Regression: the 1q diagonal fast path must not silently no-op on
    non-contiguous arrays (e.g. transposed density matrices)."""

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    def test_diagonal_gate_on_transposed_batch(self, backend):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        noncontig = batch.conj().T  # a view, not C-contiguous
        assert not noncontig.flags["C_CONTIGUOUS"]
        gate = T(1)
        got = apply_operation(backend, noncontig, gate, 0, 3)
        want = apply_operation(
            backend, np.ascontiguousarray(batch.conj().T), gate, 0, 3
        )
        np.testing.assert_allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("backend", VARIANTS, indirect=True)
    @pytest.mark.parametrize(
        "gate", [PauliZ(0), CZ(0, 2), MCZ([0, 1], 2), Hadamard(1)],
        ids=repr,
    )
    def test_various_gates_on_views(self, backend, gate):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        view = base.conj().T
        got = apply_operation(backend, view.copy(order="K"), gate, 0, 3)
        want = apply_operation(
            backend, np.ascontiguousarray(view), gate, 0, 3
        )
        np.testing.assert_allclose(got, want, atol=1e-13)


# -- the kernel engine's out= convention, regimes and batch identity ---------

TOL = 1e-10  # conformance statevector tolerance


def _random_states(nb_qubits, seed=0, batch=None):
    rng = np.random.default_rng(seed)
    shape = (2**nb_qubits,) if batch is None else (batch, 2**nb_qubits)
    s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    s /= np.linalg.norm(s, axis=-1, keepdims=True)
    return s.astype(np.complex128)


def _gate_steps(circuit):
    plan = compile_circuit(circuit)
    return plan, [s for s in plan.steps if s.kind == GATE]


CIRCUITS = [
    pytest.param(ghz_circuit(5), id="ghz5"),
    pytest.param(random_circuit(6, 40, seed=7), id="random6"),
    pytest.param(random_circuit(3, 25, seed=3), id="random3"),
]


class TestOutConvention:
    """Buffer-aliasing semantics of ``out=`` on the default engine."""

    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_out_variants_bit_identical(self, circuit):
        nb = circuit.nbQubits
        plan, steps = _gate_steps(circuit)
        eng = plan.engine

        def run(mode):
            state = _random_states(nb, seed=11)
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

        ref = _random_states(nb, seed=2)
        for step in steps:
            ref = eng.apply_planned(ref, step, nb)

        buf = np.empty(dim + 1, dtype=np.complex128)
        state = buf[:dim]
        state[:] = _random_states(nb, seed=2)
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
        state = _random_states(nb, seed=9)
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
            states = _random_states(nb, seed=4, batch=batch).copy()
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

    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_batched_rows_match_serial_bitwise(self, circuit):
        """A batch row's arithmetic does not depend on the batch
        width: every row equals the same state run alone."""
        nb = circuit.nbQubits
        plan, steps = _gate_steps(circuit)
        eng = plan.engine
        states = _random_states(nb, seed=6, batch=5)
        rows = [row.copy() for row in states]
        for step in steps:
            states = eng.apply_planned_batched(states, step, nb)
            rows = [eng.apply_planned(r, step, nb) for r in rows]
        for row, batched in zip(rows, states):
            np.testing.assert_array_equal(batched, row)


class TestKernelConformance:
    """The default engine against the sparse reference across the
    {fused, unfused} grid and both one-qubit regimes."""

    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("fuse", [True, False])
    def test_statevector_matches_sparse(self, circuit, fuse):
        ref = simulate(
            circuit, "0" * circuit.nbQubits,
            options=SimulationOptions(backend="sparse", fuse=fuse),
        )
        got = simulate(
            circuit, "0" * circuit.nbQubits,
            options=SimulationOptions(backend="kernel", fuse=fuse),
        )
        assert np.abs(got.states[0] - ref.states[0]).max() <= TOL

    def test_nested_circuit_measurements(self):
        c = nested_circuit()
        ref = simulate(
            c, "0" * 5, options=SimulationOptions(backend="sparse", seed=3)
        )
        got = simulate(
            c, "0" * 5, options=SimulationOptions(backend="kernel", seed=3)
        )
        for rb, gb in zip(ref.branches, got.branches):
            assert abs(rb.probability - gb.probability) <= 1e-9

    def test_both_gemm_and_broadcast_regimes(self):
        """The 1q kernel switches strategy on the ``right`` stride;
        cover qubit positions on both sides of the cut."""
        nb = 7  # right spans 1..64 => both <= 16 and > 16
        assert 2 ** nb > GEMM_MAX_WIDTH
        c = QCircuit(nb)
        for q in range(nb):
            c.push_back(Hadamard(q))
            c.push_back(RotationX(q, 0.1 * (q + 1)))
        ref = simulate(
            c, "0" * nb, options=SimulationOptions(backend="sparse")
        )
        got = simulate(
            c, "0" * nb, options=SimulationOptions(backend="kernel")
        )
        assert np.abs(got.states[0] - ref.states[0]).max() <= TOL

    @pytest.mark.parametrize("nb, target", [(9, 6), (13, 0)])
    def test_split_blas_calls_with_odd_column_count(self, nb, target):
        """A ``(dim, 3)`` matrix makes the GEMM rows (9 qubits, target
        6) and the contraction panels (13 qubits, target 0) exceed one
        BLAS call by a non-power-of-two factor; the split must still
        tile them exactly."""
        rng = np.random.default_rng(4)
        cols = rng.normal(size=(2**nb, 3)) + 1j * rng.normal(size=(2**nb, 3))
        h = Hadamard(0).matrix
        ref = SparseKronBackend().apply(cols.copy(), h, [target], nb)
        got = KernelBackend().apply(cols.copy(), h, [target], nb)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def _contiguous_ranges(nb_qubits):
    return [
        (nb_qubits, tuple(range(lo, lo + k)))
        for k in range(1, 5)
        for lo in range(nb_qubits - k + 1)
    ]


class TestDenseSteps:
    """Uncontrolled steps on contiguous qubits run as one dense product
    (GEMM against ``kron(U, I_right)``, or ``U`` on panels), in every
    input form and in both pinned regimes."""

    @pytest.mark.parametrize(
        "nb, targets", _contiguous_ranges(6) + _contiguous_ranges(3),
        ids=lambda v: str(v),
    )
    @pytest.mark.parametrize("form", ["state", "batch", "matrix"])
    @pytest.mark.parametrize(
        "backend", ["kernel", "einsum", "strided"], indirect=True
    )
    def test_dense_matches_sparse(self, backend, nb, targets, form):
        rng = np.random.default_rng(len(targets) * 10 + targets[0])
        u = np.linalg.qr(
            rng.normal(size=(2 ** len(targets),) * 2)
            + 1j * rng.normal(size=(2 ** len(targets),) * 2)
        )[0]
        shape = {"state": (2**nb,), "batch": (5, 2**nb),
                 "matrix": (2**nb, 3)}[form]
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ref = SparseKronBackend.extended_operator(u, targets, nb)
        if form == "batch":
            got = backend.apply_batched(x.copy(), u, targets, nb)
            np.testing.assert_allclose(got, (ref @ x.T).T, atol=1e-12)
            for row, single in zip(got, x):
                # a row's arithmetic does not depend on the batch width
                np.testing.assert_array_equal(
                    row, backend.apply(single.copy(), u, targets, nb)
                )
            return
        got = backend.apply(x.copy(), u, targets, nb)
        np.testing.assert_allclose(got, ref @ x, atol=1e-12)


class TestKernelTrajectories:
    """Serial-vs-batched bit-exactness holds for the default engine."""

    def test_block_fused_plan_batched_matches_serial_bitwise(self):
        c = QCircuit(5)
        for layer in range(3):
            for q in range(5):
                c.push_back(RotationX(q, 0.3 * q + layer))
            for q in range(layer % 2, 4, 2):
                c.push_back(CNOT(q, q + 1))
        for q in range(5):
            c.push_back(Measurement(q))
        plan = compile_circuit(c)
        assert any(
            len(s.targets) > 1 and not s.controls for s in plan.steps
        ), "no block step"
        batched = run_trajectories_batched(
            c, NoiseModel(), shots=24, seed=5, return_states=True
        )
        rng = np.random.default_rng(5)
        for k in range(24):
            one = run_trajectory(c, NoiseModel(), rng=rng)
            assert one.result == batched.results[k]
            np.testing.assert_array_equal(one.state, batched.states[k])

    def test_batched_matches_serial_bitwise(self):
        c = ghz_circuit(4, measure=True)
        noise = NoiseModel(
            gate_noise=Depolarizing(0.05), readout_error=0.02
        )
        opts = SimulationOptions(backend="kernel", batch_size=16)
        batched = run_trajectories_batched(
            c, noise, shots=48, seed=13, options=opts, return_states=True
        )
        rng = np.random.default_rng(13)
        serial = [
            run_trajectory(c, noise, rng=rng, backend="kernel")
            for _ in range(48)
        ]
        assert batched.results == [t.result for t in serial]

    def test_kernel_vs_sparse_distribution(self):
        c = bell_circuit()
        a = run_trajectories_batched(
            c, None, shots=200, seed=7,
            options=SimulationOptions(backend="kernel"),
        )
        b = run_trajectories_batched(
            c, None, shots=200, seed=7,
            options=SimulationOptions(backend="sparse"),
        )
        assert a.counts == b.counts
