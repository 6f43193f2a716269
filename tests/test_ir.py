"""Tests for the canonical circuit IR and pass pipeline.

Covers the unified lowering semantics (the five historical walkers'
behaviours pinned as regression tests), the revision-keyed lowering
cache, the PassManager pipeline with its signature-validated cache, and
the differential guarantees of the refactor: IR lowering matches the
legacy ``transforms.flatten`` walker op-for-op, and the drawer / QASM /
LaTeX / simulation outputs are byte-identical to fixtures captured
before the refactor.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "benchmarks")
)
import workloads as w  # noqa: E402

from repro.circuit import Barrier, Measurement, QCircuit, Reset
from repro.gates import (
    CNOT,
    CPhase,
    Hadamard,
    PauliX,
    PauliZ,
    RotationX,
    RotationZ,
    S,
    T,
)
from repro.ir import (
    BARRIER,
    BLOCK,
    GATE,
    MEASURE,
    RESET,
    InjectNoise,
    IRError,
    IRProgram,
    PassManager,
    available_passes,
    iter_elements,
    lower,
    make_ir_op,
)
from repro.observability import instrument
from repro.observability.metrics import IR_PASS_RUNS
from repro.simulation.plan import circuit_signature
from repro.transforms import (
    circuits_equivalent,
    gate_counts,
    optimize,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_io.json"
)

CIRCUITS = {
    "bell_measured": lambda: w.bell_circuit(True),
    "bell_unitary": lambda: w.bell_circuit(False),
    "ghz6_measured": lambda: w.ghz_circuit(6, measure=True),
    "random_5q_40g": lambda: w.random_circuit(5, 40, seed=7),
    "layered_4q_3l": lambda: w.layered_circuit(4, 3),
    "nested_measured": lambda: w.nested_circuit(True),
    "nested_unitary": lambda: w.nested_circuit(False),
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def legacy_flatten_walk(circuit, base_offset=0):
    """Verbatim copy of the pre-refactor ``transforms.flatten`` walker
    (via the old ``QCircuit.operations`` recursion), kept here so the
    differential test cannot be fooled by both sides delegating to the
    same new implementation."""
    off = base_offset + circuit.offset
    for op in circuit:
        if isinstance(op, QCircuit):
            yield from legacy_flatten_walk(op, off)
        else:
            yield op, off


# -- unified walker semantics (satellite: walker audit regressions) ----------


class TestLoweringSemantics:
    def test_flat_ops_match_legacy_walker(self):
        for name, build in CIRCUITS.items():
            c = build()
            got = [(op, off) for op, off in lower(c).flat()]
            want = list(legacy_flatten_walk(c))
            assert got == want, name

    def test_nested_offsets_accumulate(self, golden):
        c = w.nested_circuit(True)
        flat = [
            [type(op).__name__, [q + off for q in op.qubits]]
            for op, off in lower(c).flat()
        ]
        assert flat == golden["nested_measured"]["flat_ops"]

    def test_barrier_keeps_absolute_qubits(self):
        # the barrier lives in a sub-circuit at offset 1: its qubits
        # [0,1,2] must surface as absolute [1,2,3]
        c = w.nested_circuit(True)
        barriers = [o for o in lower(c) if o.kind == BARRIER]
        assert len(barriers) == 1
        assert barriers[0].qubits == (1, 2, 3)

    def test_reset_keeps_absolute_qubit_and_kind(self):
        c = w.nested_circuit(True)
        resets = [o for o in lower(c) if o.kind == RESET]
        assert len(resets) == 1
        assert resets[0].qubits == (0,)

    def test_block_kept_whole_in_blocks_mode(self):
        # the 'oracle' block (own offset 1) sits inside a group at
        # offset 1: blocks-mode yields it with the *enclosing* offset
        # only, so its absolute span is qubits (2, 3)
        c = w.nested_circuit(True)
        blocks = [o for o in lower(c, "blocks") if o.kind == BLOCK]
        assert len(blocks) == 1
        assert blocks[0].op.block_label == "oracle"
        assert blocks[0].offset == 1
        assert blocks[0].qubits == (2, 3)

    def test_blocks_mode_plus_flatten_equals_all_mode(self):
        c = w.nested_circuit(True)
        flat = PassManager(["flatten"]).run(lower(c, "blocks"))
        assert [o.signature() for o in flat] == [
            o.signature() for o in lower(c)
        ]

    def test_none_mode_yields_direct_children_only(self):
        c = w.nested_circuit(True)
        kids = [op for op, _off in iter_elements(c, "none")]
        assert kids == list(c)
        assert any(isinstance(op, QCircuit) for op in kids)

    def test_unknown_expand_mode_raises(self):
        c = w.bell_circuit()
        with pytest.raises(IRError, match="expand mode"):
            lower(c, "everything")
        with pytest.raises(IRError, match="expand mode"):
            list(iter_elements(c, "everything"))

    def test_operations_delegates_to_canonical_walker(self):
        c = w.nested_circuit(True)
        assert list(c.operations()) == list(iter_elements(c, "all"))


class TestIROpRecords:
    def test_gate_record_resolves_controls(self):
        c = QCircuit(3, 1)
        c.push_back(CNOT(0, 1))
        (irop,) = lower(c)
        assert irop.kind == GATE
        assert irop.qubits == (1, 2)
        assert irop.controls == (1,)
        assert irop.targets == (2,)
        assert irop.control_states == (1,)

    def test_kernel_raises_for_non_gates(self):
        c = QCircuit(1)
        c.push_back(Measurement(0))
        (irop,) = lower(c)
        assert irop.kind == MEASURE
        with pytest.raises(IRError, match="no kernel"):
            irop.kernel()

    def test_make_ir_op_rejects_unknown_elements(self):
        with pytest.raises(IRError, match="cannot lower"):
            make_ir_op(object(), 0)

    def test_to_circuit_requires_flattened_blocks(self):
        c = w.nested_circuit(True)
        with pytest.raises(IRError, match="flatten"):
            lower(c, "blocks").to_circuit()

    def test_gate_counts_recurse_into_blocks(self):
        c = w.nested_circuit(True)
        assert lower(c, "blocks").gate_counts() == lower(c).gate_counts()


class TestLoweringCache:
    def test_unchanged_circuit_returns_cached_program(self):
        c = w.bell_circuit()
        assert lower(c) is lower(c)

    def test_structural_edit_invalidates(self):
        c = w.bell_circuit(False)
        p1 = lower(c)
        c.push_back(Hadamard(1))
        p2 = lower(c)
        assert p2 is not p1
        assert len(p2) == len(p1) + 1

    def test_nested_child_edit_invalidates_parent(self):
        inner = QCircuit(2)
        inner.push_back(Hadamard(0))
        outer = QCircuit(3)
        outer.push_back(inner)
        p1 = lower(outer)
        inner.push_back(CNOT(0, 1))
        p2 = lower(outer)
        assert p2 is not p1 and len(p2) == 2

    def test_parameter_mutation_reads_through_backpointer(self):
        # an in-place fuse does NOT bump the revision counter, and
        # does not need to: IR ops hold back-pointers, not copied kernels
        c = QCircuit(1)
        g = RotationX(0, 0.5)
        c.push_back(g)
        p1 = lower(c)
        k1 = p1[0].kernel().copy()
        sig1 = p1.signature()
        g.fuse(RotationX(0, 0.75))  # in place: 0.5 + 0.75
        p2 = lower(c)
        assert p2 is p1  # cache hit: structure unchanged
        assert not np.allclose(p2[0].kernel(), k1)
        # ...but a fresh signature walk sees the new parameter
        assert IRProgram(p2.nb_qubits, p2.ops).signature() != sig1

    def test_signature_matches_plan_signature(self):
        for build in CIRCUITS.values():
            c = build()
            assert lower(c).signature() == circuit_signature(c)


# -- the pass pipeline -------------------------------------------------------


class TestPassManager:
    def test_registry_exposes_builtin_passes(self):
        names = available_passes()
        for expected in (
            "flatten", "fuse_rotations", "cancel_inverses", "fuse_1q",
            "merge_single_qubit_runs", "coalesce_diagonals",
        ):
            assert expected in names

    def test_unknown_pass_raises(self):
        with pytest.raises(IRError, match="unknown pass"):
            PassManager(["not_a_pass"])

    def test_pipeline_preserves_unitary(self):
        c = w.random_circuit(4, 30, seed=11)
        out = PassManager(
            ["fuse_rotations", "cancel_inverses", "fuse_1q",
             "coalesce_diagonals"]
        ).run_on(c)
        assert circuits_equivalent(c, out.to_circuit())

    def test_cancel_inverses_drops_pairs(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Hadamard(0))
        c.push_back(CNOT(0, 1))
        c.push_back(CNOT(0, 1))
        out = PassManager(["cancel_inverses"]).run_on(c)
        assert len(out) == 0

    def test_fusion_blocked_across_measurement(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Measurement(0))
        c.push_back(Hadamard(0))
        out = PassManager(["cancel_inverses", "fuse_1q"]).run_on(c)
        assert len(out) == 3

    def test_fusion_blocked_across_barrier(self):
        c = QCircuit(1)
        c.push_back(Hadamard(0))
        c.push_back(Barrier([0]))
        c.push_back(Hadamard(0))
        out = PassManager(["cancel_inverses"]).run_on(c)
        assert [o.kind for o in out] == [GATE, BARRIER, GATE]

    def test_coalesce_diagonals_merges_runs(self):
        c = QCircuit(2)
        c.push_back(S(0))
        c.push_back(T(1))
        c.push_back(CPhase(0, 1, 0.5))
        out = PassManager(["coalesce_diagonals"]).run_on(c)
        assert len(out) == 1
        assert out[0].is_diagonal
        assert out[0].qubits == (0, 1)
        assert circuits_equivalent(c, out.to_circuit())

    def test_pipeline_cache_hits_until_mutation(self):
        c = w.random_circuit(3, 15, seed=2)
        pm = PassManager(["fuse_rotations", "cancel_inverses"])
        out1 = pm.run_on(c)
        assert pm.run_on(c) is out1
        rot = next(
            op for op, _ in lower(c).flat()
            if isinstance(op, (RotationX, RotationZ))
        )
        rot.fuse(type(rot)(rot.qubit, 0.1))
        out2 = pm.run_on(c)
        assert out2 is not out1

    def test_parameterized_pipeline_not_cached(self):
        from repro.noise import Depolarizing, NoiseModel

        c = w.bell_circuit(False)
        model = NoiseModel(gate_noise=Depolarizing(0.01))
        pm = PassManager([InjectNoise(model)])
        assert pm._cache_key() is None
        out1 = pm.run_on(c)
        assert pm.run_on(c) is not out1

    def test_spans_and_metrics_recorded(self):
        c = w.random_circuit(3, 10, seed=0)
        with instrument() as inst:
            PassManager(["fuse_rotations", "cancel_inverses"]).run_on(c)
        names = [s.name for s in inst.tracer.spans]
        assert "ir.pipeline" in names
        assert "ir.pass.fuse_rotations" in names
        assert "ir.pass.cancel_inverses" in names
        runs = inst.metrics.get(IR_PASS_RUNS)
        assert runs is not None and runs.total() == 2.0

    def test_inject_noise_attaches_channels(self):
        from repro.noise import Depolarizing, NoiseModel

        c = w.nested_circuit(True)
        model = NoiseModel(gate_noise=Depolarizing(0.02))
        out = PassManager([InjectNoise(model)]).run(lower(c))
        gates = [o for o in out if o.kind == GATE]
        assert gates and all(o.channel is not None for o in gates)
        others = [o for o in out if o.kind != GATE]
        assert all(o.channel is None for o in others)

    def test_replace_ops_records_pass_history(self):
        c = w.bell_circuit(False)
        out = PassManager(["fuse_rotations", "cancel_inverses"]).run_on(c)
        assert out.passes == ("fuse_rotations", "cancel_inverses")
        assert isinstance(out, IRProgram)


# -- circuit-level wrappers -------------------------------------------------


class TestTransformsWrappers:
    def test_optimize_runs_through_ir(self):
        c = QCircuit(2)
        c.push_back(RotationX(0, 0.4))
        c.push_back(RotationX(0, -0.4))
        c.push_back(Hadamard(1))
        c.push_back(Hadamard(1))
        out = optimize(c)
        assert len(out) == 0

    def test_gate_counts_uses_canonical_lowering(self):
        c = w.nested_circuit(True)
        counts = gate_counts(c)
        assert counts["Measurement"] == 2
        assert counts["Barrier"] == 1
        assert counts["Reset"] == 1
        assert counts["PauliZ"] == 1


# -- differential fixtures (satellite: pre/post refactor byte equality) ------


class TestGoldenDifferential:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_flat_ops_match_prerefactor(self, golden, name):
        c = CIRCUITS[name]()
        flat = [
            [type(op).__name__, [q + off for q in op.qubits]]
            for op, off in lower(c).flat()
        ]
        assert flat == golden[name]["flat_ops"]

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_draw_bytes_unchanged(self, golden, name):
        c = CIRCUITS[name]()
        assert c.draw(output="str") == golden[name]["draw"]

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_qasm_bytes_unchanged(self, golden, name):
        c = CIRCUITS[name]()
        assert c.toQASM() == golden[name]["qasm"]

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_qasm3_bytes_unchanged(self, golden, name):
        from repro.io.qasm3_export import circuit_to_qasm3

        c = CIRCUITS[name]()
        assert circuit_to_qasm3(c) == golden[name]["qasm3"]

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_latex_bytes_unchanged(self, golden, name):
        c = CIRCUITS[name]()
        assert c.toTex() == golden[name]["tex"]

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_simulation_results_unchanged(self, golden, name):
        c = CIRCUITS[name]()
        sim = c.simulate("0" * c.nbQubits)
        assert list(sim.results) == golden[name]["sim_results"]
        for p, want in zip(
            sim.probabilities, golden[name]["sim_probabilities"]
        ):
            assert abs(float(p) - want) < 1e-9
        for st, want in zip(
            sim.states, golden[name]["state_fingerprints"]
        ):
            mags = np.abs(st) ** 2
            fp = float(np.dot(mags, np.arange(st.size)))
            assert abs(fp - want) < 1e-8
