"""Per-step cost accounting and cancellation of the plan-replay loops.

Every pipeline (statevector, density, serial and batched trajectories)
times each plan step once: gate steps count one apply per stack row
under their gate kind, attached noise channels count apart under
``kind="kraus"``, and collapses land in the measurement histogram.
Every pipeline also checks a job's cancellation once per step.
"""

import time

import numpy as np
import pytest

from repro.circuit import Measurement, QCircuit
from repro.exceptions import JobCancelledError
from repro.execution import (
    DENSITY,
    SWEEP,
    TRAJECTORY_BATCH,
    ExecutionRequest,
    default_executor,
)
from repro.gates import CNOT, Hadamard, RotationY, RotationZ
from repro.noise import Depolarizing, NoiseModel
from repro.noise.trajectory import run_trajectories_batched, run_trajectory
from repro.observability import (
    BRANCHES_MAX,
    EV_STEP_DISPATCH,
    GATE_APPLIES,
    KERNEL_SECONDS,
    MEASUREMENTS,
    STATE_BYTES_MAX,
    flight_recorder,
    instrument,
)
from repro.parameter import Parameter
from repro.simulation import (
    SimulationOptions,
    compile_circuit,
    simulate,
    simulate_density,
)
from repro.simulation.backends import KernelBackend
from repro.simulation.plan import GATE


def x_measured_bell():
    c = QCircuit(2)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(Measurement(0, "x"))
    return c


def applies_by_kind(inst) -> dict:
    counter = inst.metrics.get(GATE_APPLIES)
    return {
        labels["kind"]: counter.value(**labels)
        for labels in counter.labelsets()
    }


RUNS = {
    "simulate": (lambda c: simulate(c, "00"), 1),
    "run_trajectory": (lambda c: run_trajectory(c, NoiseModel(), rng=3), 1),
    "simulate_density": (lambda c: simulate_density(c), 1),
    "run_trajectories_batched": (
        lambda c: run_trajectories_batched(c, NoiseModel(), shots=10, seed=3),
        10,
    ),
}


@pytest.mark.parametrize("entry", sorted(RUNS))
def test_gate_applies_mean_one_thing(entry):
    """One apply per gate step per run or shot — measurement basis
    changes and the density conjugation's two sides are not applies.
    H and CNOT fuse into one two-qubit block step."""
    run, shots = RUNS[entry]
    with instrument() as inst:
        run(x_measured_bell())
    assert applies_by_kind(inst) == {"kq": shots}


def noisy_circuit():
    c = QCircuit(3)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(RotationZ(2, 0.3))
    c.push_back(CNOT(1, 2))
    for q in range(3):
        c.push_back(Measurement(q))
    return c


def test_noisy_batched_run_shows_channel_cost_apart():
    circuit = noisy_circuit()
    noise = NoiseModel(gate_noise=Depolarizing(0.1))
    shots = 16
    with instrument() as inst:
        run_trajectories_batched(
            circuit, noise, shots=shots, seed=5,
            options=SimulationOptions(batch_size=8),
        )
    gate_steps = [
        s for s in compile_circuit(circuit, fuse=False).steps
        if s.kind == GATE
    ]
    applies = applies_by_kind(inst)
    kraus = applies.pop("kraus")
    assert sum(applies.values()) == len(gate_steps) * shots
    # one reading per noisy qubit, counted in rows
    assert kraus == shots * sum(len(s.noise_qubits) for s in gate_steps)
    # every reading is taken once, inside the run's span
    (span,) = [
        s for s in inst.tracer.spans if s.name == "batch.trajectories"
    ]
    accounted = (
        inst.metrics.get(KERNEL_SECONDS).total_sum()
        + inst.metrics.get(MEASUREMENTS).total_sum()
    )
    assert 0.0 < accounted <= span.wall_seconds


def test_noisy_density_and_serial_runs_show_kraus_rows():
    circuit = noisy_circuit()
    noise = NoiseModel(gate_noise=Depolarizing(0.1))
    for run in (
        lambda: simulate_density(circuit, noise=noise),
        lambda: run_trajectory(circuit, noise, rng=7),
    ):
        with instrument() as inst:
            run()
        kinds = {r["kind"] for r in inst.report().op_table()}
        assert "kraus" in kinds
        assert inst.metrics.get(MEASUREMENTS).total_sum() > 0


def test_high_water_gauges_count_branches_only():
    """Trajectory shots and sweep points are rows of the same stack as
    branches, but only a statevector run sets the branch and byte
    high-water gauges."""
    with instrument() as inst:
        run_trajectories_batched(
            noisy_circuit(), NoiseModel(gate_noise=Depolarizing(0.1)),
            shots=32, seed=5,
        )
        c = QCircuit(2)
        c.push_back(RotationY(0, Parameter("t")))
        c.sweep({"t": np.linspace(0.0, 1.0, 16)})
    assert inst.metrics.get(BRANCHES_MAX) is None
    assert inst.metrics.get(STATE_BYTES_MAX) is None
    with instrument() as inst:
        simulate(x_measured_bell(), "00")
    assert inst.metrics.get(BRANCHES_MAX).value() == 2
    assert inst.metrics.get(STATE_BYTES_MAX).value() == 2 * 4 * 16


def _replay(check):
    from repro.execution.dispatch import run_plan
    from repro.simulation.state import initial_state

    plan = compile_circuit(x_measured_bell(), fuse=False)
    with instrument() as inst:
        try:
            run_plan(plan, initial_state("00", 2), 1e-12, inst, check=check)
        except RuntimeError:
            pass
    return plan, inst


def test_readings_leave_out_time_between_steps():
    """Each reading is a window around its step's own work: time spent
    between steps (here a slow cancellation hook) lands in none."""
    pause = 0.005
    plan, inst = _replay(lambda: time.sleep(pause))
    accounted = (
        inst.metrics.get(KERNEL_SECONDS).total_sum()
        + inst.metrics.get(MEASUREMENTS).total_sum()
    )
    assert accounted < 0.5 * pause * len(plan.steps)


def test_cancelled_replay_still_records_the_steps_it_ran():
    calls = []

    def check():
        calls.append(None)
        if len(calls) == 3:  # abort before the measurement step
            raise RuntimeError("cancelled")

    _, inst = _replay(check)
    assert applies_by_kind(inst) == {"1q": 1, "controlled": 1}


class _CancelInFirstStep(KernelBackend):
    """Cancels :attr:`job` from inside every kernel call and counts the
    calls.  A pipeline that checks cancellation once per step runs the
    step it was cancelled in, and no other."""

    name = "cancel-in-first-step"
    job = None
    calls = 0

    def _call(self):
        type(self).calls += 1
        type(self).job.cancel()

    def apply(self, *args, **kwargs):
        self._call()
        return super().apply(*args, **kwargs)

    def apply_planned_batched(self, *args, **kwargs):
        self._call()
        return super().apply_planned_batched(*args, **kwargs)

    def apply_planned_sweep(self, *args, **kwargs):
        self._call()
        return super().apply_planned_sweep(*args, **kwargs)


def _layer(theta):
    c = QCircuit(3)
    for q in range(3):
        c.push_back(RotationY(q, theta))
    c.push_back(CNOT(0, 1))
    c.push_back(CNOT(1, 2))
    return c


@pytest.mark.parametrize(
    "kind, extra, calls_per_step, dispatches",
    [
        # noisy: unfused, with channels that stay out of the count
        (TRAJECTORY_BATCH, dict(
            noise=NoiseModel(gate_noise=Depolarizing(0.1)), shots=4,
            seed=1,
        ), 1, 1),
        # the density loop conjugates each step with two applies and
        # records no step.dispatch events
        (DENSITY, {}, 2, 0),
        (SWEEP, dict(values=np.linspace(0.0, 1.0, 5)), 1, 1),
    ],
    ids=["trajectory", "density", "sweep"],
)
def test_cancelled_pipeline_stops_within_one_step(
    kind, extra, calls_per_step, dispatches
):
    theta = Parameter("theta") if kind == SWEEP else 0.4
    circuit = _layer(theta)
    options = SimulationOptions(backend=_CancelInFirstStep(), fuse=False)
    assert len(compile_circuit(circuit, fuse=False).steps) == 5
    executor = default_executor()
    job = executor.prepare(
        ExecutionRequest(circuit, kind=kind, options=options, **extra)
    )
    # a deadline (far off) engages the per-step checks
    job.deadline = time.perf_counter() + 3600.0
    _CancelInFirstStep.job, _CancelInFirstStep.calls = job, 0
    rec = flight_recorder()
    mark = rec.recorded
    executor.execute(job)
    with pytest.raises(JobCancelledError):
        job.result()
    assert _CancelInFirstStep.calls == calls_per_step
    steps = [e for e in rec.events(EV_STEP_DISPATCH) if e.seq > mark]
    assert len(steps) == dispatches
