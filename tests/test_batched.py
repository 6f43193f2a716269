"""The batched trajectory engine (``run_trajectories_batched``).

The load-bearing property is the seed contract: for a fixed seed the
batched engine must reproduce a serial :func:`run_trajectory` loop
sharing one generator *shot for shot*, independent of ``batch_size``
and ``max_workers``.  The differential tests here enforce it across
noise models, workloads and backends; the rest covers the batched
backend kernels, the options knobs and the observability wiring.
"""

import numpy as np
import pytest

from benchmarks.workloads import bell_circuit, ghz_circuit, nested_circuit
from repro.circuit import Measurement, QCircuit, Reset
from repro.exceptions import SimulationError
from repro.gates import CNOT, Hadamard, RotationY, RotationZ
from repro.noise import (
    AmplitudeDamping,
    BatchedTrajectoryResult,
    Depolarizing,
    NoiseModel,
    noisy_counts,
    run_trajectories_batched,
    run_trajectory,
)
from repro.observability import (
    BATCH_SIZE,
    BATCHED_SHOTS,
    EV_BATCH_FANOUT,
    EV_STEP_DISPATCH,
    MetricsRegistry,
    TRAJECTORIES,
    flight_recorder,
)
from repro.simulation import SimulationOptions, get_backend
from repro.simulation.options import resolve_simulation_options


def serial_results(circuit, noise, shots, seed, backend=None):
    """The reference: a serial loop sharing one generator."""
    rng = np.random.default_rng(seed)
    return [
        run_trajectory(
            circuit, noise, rng=rng, backend=backend
        ).result
        for _ in range(shots)
    ]


WORKLOADS = [
    pytest.param(bell_circuit(), id="bell"),
    pytest.param(ghz_circuit(4, measure=True), id="ghz4"),
    pytest.param(nested_circuit(), id="nested"),
]

NOISES = [
    pytest.param(NoiseModel(), id="noiseless"),
    pytest.param(
        NoiseModel(gate_noise=Depolarizing(0.1)), id="depolarizing"
    ),
    pytest.param(NoiseModel(readout_error=0.1), id="readout"),
    pytest.param(
        NoiseModel(gate_noise=Depolarizing(0.05), readout_error=0.03),
        id="depol+readout",
    ),
]


class TestDifferential:
    """Batched == serial, shot for shot."""

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("circuit", WORKLOADS)
    def test_matches_serial_loop(self, circuit, noise):
        shots = 150
        expected = serial_results(circuit, noise, shots, seed=42)
        got = run_trajectories_batched(
            circuit, noise, shots=shots, seed=42
        )
        assert got.results == expected

    @pytest.mark.parametrize("noise", NOISES)
    def test_histogram_matches_serial(self, noise):
        c = ghz_circuit(3, measure=True)
        shots = 200
        expected = {}
        for r in serial_results(c, noise, shots, seed=9):
            expected[r] = expected.get(r, 0) + 1
        assert noisy_counts(c, noise, shots=shots, seed=9) == expected

    def test_odd_batch_size_partitioning(self):
        """A batch size that does not divide the shot count must not
        change the outcome sequence (partial final batch)."""
        c = bell_circuit()
        noise = NoiseModel(gate_noise=Depolarizing(0.1))
        expected = serial_results(c, noise, 50, seed=7)
        got = run_trajectories_batched(
            c, noise, shots=50, seed=7,
            options=SimulationOptions(batch_size=7),
        )
        assert got.results == expected
        assert got.batch_size == 7

    @pytest.mark.parametrize(
        "backend", ["kernel", "sparse", "einsum"], indirect=True
    )
    def test_all_backends(self, backend):
        c = nested_circuit()
        noise = NoiseModel(gate_noise=Depolarizing(0.08))
        expected = serial_results(c, noise, 60, seed=3, backend=backend)
        got = run_trajectories_batched(
            c, noise, shots=60, seed=3, backend=backend
        )
        assert got.results == expected

    def test_final_states_match_serial(self):
        c = bell_circuit()
        res = run_trajectories_batched(
            c, None, shots=12, seed=5, return_states=True
        )
        assert res.states.shape == (12, 4)
        rng = np.random.default_rng(5)
        for i in range(12):
            ref = run_trajectory(c, rng=rng)
            np.testing.assert_allclose(res.states[i], ref.state)


class TestNoisyFinalStates:
    """Noisy final states are bit-identical serial vs batched: both
    engines select and apply Kraus branches through one shared path,
    the serial state being a one-row batch."""

    @pytest.mark.parametrize("batch_size", [1, 7, None])
    @pytest.mark.parametrize(
        "channel",
        [Depolarizing(0.1), AmplitudeDamping(0.3)],
        ids=["depolarizing", "amplitude-damping"],
    )
    @pytest.mark.parametrize("measure", [False, True])
    def test_states_equal_serial(self, channel, batch_size, measure):
        c = nested_circuit(measure=measure)
        noise = NoiseModel(gate_noise=channel)
        shots = 30
        res = run_trajectories_batched(
            c, noise, shots=shots, seed=13, return_states=True,
            options=SimulationOptions(batch_size=batch_size),
        )
        rng = np.random.default_rng(13)
        serial = [run_trajectory(c, noise, rng=rng) for _ in range(shots)]
        assert res.results == [t.result for t in serial]
        assert np.array_equal(res.states, np.stack([t.state for t in serial]))


class TestWorkerInvariance:
    """Same seed => same results, whatever the fan-out."""

    def test_1_vs_4_workers(self):
        c = ghz_circuit(4, measure=True)
        noise = NoiseModel(
            gate_noise=Depolarizing(0.05), readout_error=0.02
        )
        opts1 = SimulationOptions(batch_size=32, max_workers=1)
        opts4 = SimulationOptions(
            batch_size=32, max_workers=4, min_shots_per_worker=1
        )
        a = run_trajectories_batched(
            c, noise, shots=256, seed=11, options=opts1
        )
        b = run_trajectories_batched(
            c, noise, shots=256, seed=11, options=opts4
        )
        assert a.results == b.results
        assert a.counts == b.counts
        assert b.workers == 4

    def test_worker_counts_match_serial(self):
        c = bell_circuit()
        noise = NoiseModel(readout_error=0.05)
        expected = serial_results(c, noise, 64, seed=21)
        got = run_trajectories_batched(
            c, noise, shots=64, seed=21,
            options=SimulationOptions(
                batch_size=16, max_workers=3, min_shots_per_worker=1
            ),
        )
        assert got.results == expected

    def test_small_jobs_auto_inline(self):
        """Below the shots-per-worker floor the fan-out collapses to
        an inline run, and the decision lands in the flight recorder."""
        rec = flight_recorder()
        rec.clear()
        c = ghz_circuit(4, measure=True)
        noise = NoiseModel(readout_error=0.02)
        res = run_trajectories_batched(
            c, noise, shots=64, seed=3,
            options=SimulationOptions(
                batch_size=16, max_workers=4,
                min_shots_per_worker=4096,
            ),
        )
        assert res.workers == 1  # 64 shots < 4 * 4096 => inline
        evs = rec.events(EV_BATCH_FANOUT)
        assert len(evs) == 1
        ev = evs[0].data
        assert ev["shots"] == 64
        assert ev["requested"] == 4
        assert ev["workers"] == 1
        assert ev["inline"] is True

    def test_fanout_floor_validation(self):
        with pytest.raises(SimulationError):
            SimulationOptions(min_shots_per_worker=0)
        opts = SimulationOptions(min_shots_per_worker=10)
        assert opts.min_shots_per_worker == 10


class TestBatchedBackends:
    """apply_batched / apply_planned_batched == per-row apply."""

    @pytest.mark.parametrize(
        "backend", ["kernel", "sparse", "einsum"], indirect=True
    )
    def test_apply_batched_equals_rows(self, backend):
        be = get_backend(backend)
        rng = np.random.default_rng(0)
        nb = 3
        states = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        states = states.astype(np.complex128)
        h = Hadamard(0).matrix
        expected = np.stack([
            be.apply(states[i].copy(), h, [1], nb)
            for i in range(5)
        ])
        got = be.apply_batched(states.copy(), h, [1], nb)
        np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize(
        "backend", ["kernel", "sparse", "einsum"], indirect=True
    )
    def test_apply_batched_controlled(self, backend):
        be = get_backend(backend)
        rng = np.random.default_rng(1)
        nb = 3
        states = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        states = states.astype(np.complex128)
        x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        expected = np.stack([
            be.apply(
                states[i].copy(), x, [2], nb,
                controls=[0], control_states=[1],
            )
            for i in range(4)
        ])
        got = be.apply_batched(
            states.copy(), x, [2], nb,
            controls=[0], control_states=[1],
        )
        np.testing.assert_allclose(got, expected)

    def test_batch_shape_validation(self):
        be = get_backend("kernel")
        h = Hadamard(0).matrix
        with pytest.raises(SimulationError):
            be.apply_batched(np.zeros((3, 5), dtype=complex), h, [0], 2)
        with pytest.raises(SimulationError):
            be.apply_batched(np.zeros(4, dtype=complex), h, [0], 2)


class TestOptionsAndResult:
    def test_batch_size_validation(self):
        with pytest.raises(SimulationError):
            SimulationOptions(batch_size=0)
        with pytest.raises(SimulationError):
            SimulationOptions(max_workers=0)
        opts = SimulationOptions(batch_size=8, max_workers=2)
        assert opts.batch_size == 8 and opts.max_workers == 2

    def test_options_survive_resolution(self):
        opts = resolve_simulation_options(
            {"batch_size": 16, "max_workers": 2}
        )
        assert opts.batch_size == 16
        assert opts.max_workers == 2

    def test_counts_sorted_by_bitstring(self):
        c = QCircuit(2)
        c.push_back(Hadamard(0))
        c.push_back(Hadamard(1))
        c.push_back(Measurement(0))
        c.push_back(Measurement(1))
        counts = noisy_counts(c, shots=400, seed=2)
        assert list(counts) == sorted(counts)
        assert sum(counts.values()) == 400

    def test_result_counts_property(self):
        res = BatchedTrajectoryResult(
            results=["11", "00", "11", "01"],
            shots=4, batch_size=4, workers=1,
        )
        assert res.counts == {"00": 1, "01": 1, "11": 2}
        assert list(res.counts) == ["00", "01", "11"]

    def test_zero_shots(self):
        res = run_trajectories_batched(bell_circuit(), shots=0, seed=0)
        assert res.results == []
        assert res.counts == {}

    def test_negative_shots_rejected(self):
        with pytest.raises(SimulationError):
            run_trajectories_batched(bell_circuit(), shots=-1)


class TestObservability:
    def test_batched_metrics_wired(self):
        reg = MetricsRegistry()
        opts = SimulationOptions(metrics=reg, batch_size=32)
        run_trajectories_batched(
            bell_circuit(), None, shots=100, seed=0, options=opts
        )
        assert reg.get(BATCHED_SHOTS).total() == 100
        assert reg.get(TRAJECTORIES).total() == 100
        assert reg.get(BATCH_SIZE).value() == 32

    def test_batch_spans_recorded(self):
        from repro.observability import Tracer

        tracer = Tracer()
        opts = SimulationOptions(trace=tracer)
        run_trajectories_batched(
            bell_circuit(), None, shots=10, seed=0, options=opts
        )
        names = [s.name for s in tracer.spans]
        assert "batch.trajectories" in names
        assert "batch.execute" in names


def reset_circuit():
    """Gates, an x-basis mid-circuit measurement, a recorded and an
    unrecorded reset, then every qubit measured."""
    c = QCircuit(4)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(RotationY(2, 0.7))
    c.push_back(Measurement(1, "x"))
    c.push_back(CNOT(1, 2))
    c.push_back(Reset(0, record=True))
    c.push_back(RotationZ(3, 0.3))
    c.push_back(Hadamard(3))
    c.push_back(Reset(3))
    c.push_back(CNOT(2, 3))
    c.push_back(Hadamard(0))
    for q in range(4):
        c.push_back(Measurement(q))
    return c


def replay_rows(run):
    """``run()``'s result and its ``step.dispatch`` events as
    ``(op, live rows)`` pairs, in plan order."""
    rec = flight_recorder()
    mark = rec.recorded
    result = run()
    return result, [
        (e.data["op"], e.data["branches"])
        for e in rec.events(EV_STEP_DISPATCH) if e.seq > mark
    ]


class TestSharedRows:
    """A trajectory row is a state plus the shots that reached it: the
    batch starts as one row and splits only where shots diverge, with
    outcomes and states bit-identical to one-shot runs."""

    @pytest.mark.parametrize("batch_size", [1, 7, None])
    @pytest.mark.parametrize(
        "channel",
        [Depolarizing(0.1), AmplitudeDamping(0.2)],
        ids=["depolarizing", "amplitude-damping"],
    )
    @pytest.mark.parametrize("backend", ["kernel", "sparse"])
    def test_equal_to_one_shot_runs(self, backend, channel, batch_size):
        c = reset_circuit()
        noise = NoiseModel(gate_noise=channel, readout_error=0.1)
        shots = 40
        res = run_trajectories_batched(
            c, noise, shots=shots, seed=17, return_states=True,
            options=SimulationOptions(
                backend=backend, batch_size=batch_size
            ),
        )
        rng = np.random.default_rng(17)
        serial = [
            run_trajectory(c, noise, rng=rng, backend=backend)
            for _ in range(shots)
        ]
        assert res.results == [t.result for t in serial]
        assert np.array_equal(res.states, np.stack([t.state for t in serial]))

    def test_rare_noise_keeps_one_row(self):
        """At ``Depolarizing(1e-6)`` no shot draws an error, so every
        gate step before the first measurement runs one row for all
        256 shots; no step ever holds more rows than shots."""
        shots = 256
        c = ghz_circuit(4, measure=True)
        noise = NoiseModel(gate_noise=Depolarizing(1e-6))
        _, steps = replay_rows(
            lambda: run_trajectories_batched(c, noise, shots=shots, seed=3)
        )
        first = [op for op, _ in steps].index("measure")
        assert first > 0
        assert all(rows == 1 for _, rows in steps[:first])
        # the GHZ measurement splits the one row into two, once
        assert [rows for _, rows in steps[first:]] == [2] * (
            len(steps) - first
        )
        assert max(rows for _, rows in steps) <= shots

    def test_worst_case_identical(self):
        """At ``Depolarizing(0.5)`` the shots soon hold a row each (the
        grouping is then skipped); results stay identical."""
        shots = 64
        c = nested_circuit()
        noise = NoiseModel(gate_noise=Depolarizing(0.5), readout_error=0.1)
        res, steps = replay_rows(
            lambda: run_trajectories_batched(
                c, noise, shots=shots, seed=8, return_states=True
            )
        )
        assert max(rows for _, rows in steps) == shots
        rng = np.random.default_rng(8)
        serial = [run_trajectory(c, noise, rng=rng) for _ in range(shots)]
        assert res.results == [t.result for t in serial]
        assert np.array_equal(res.states, np.stack([t.state for t in serial]))


def deep_noisy_circuit():
    """Two qubits, 100 noisy gates: 102 uniforms per shot."""
    c = QCircuit(2)
    for _ in range(50):
        c.push_back(Hadamard(0))
        c.push_back(Hadamard(1))
    c.push_back(Measurement(0))
    c.push_back(Measurement(1))
    return c


class TestPerBatchUniforms:
    """An inline run draws each batch's uniforms just before the batch
    runs, in the same stream order as drawing them all up front."""

    NOISE = NoiseModel(gate_noise=Depolarizing(0.2))

    def test_batch_size_does_not_change_the_stream(self):
        c = deep_noisy_circuit()
        shots = 150
        runs = [
            run_trajectories_batched(
                c, self.NOISE, shots=shots, seed=4, return_states=True,
                options=SimulationOptions(batch_size=size),
            )
            for size in (7, 64, shots)
        ]
        for res in runs[1:]:
            assert res.counts == runs[0].counts
            assert res.results == runs[0].results
            assert np.array_equal(res.states, runs[0].states)

    def test_one_batch_of_uniforms_alive_at_a_time(self):
        import tracemalloc

        c = deep_noisy_circuit()
        shots, size = 2000, 8
        uniforms_bytes = shots * 102 * 8
        opts = SimulationOptions(batch_size=size)
        # a first run compiles the plan and fills the flight
        # recorder's bounded ring, outside the measurement
        run_trajectories_batched(
            c, self.NOISE, shots=shots, seed=0, options=opts
        )
        tracemalloc.start()
        try:
            res = run_trajectories_batched(
                c, self.NOISE, shots=shots, seed=4, options=opts
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.results) == shots
        assert peak < uniforms_bytes
