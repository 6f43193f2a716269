"""Statevector dispatch loops — THE place compiled plans execute.

:func:`run_plan` is the single branch-replay loop every statevector
run goes through — parameterized by instrumentation instead of
duplicated for it; unfused execution is a plan compiled with
``fuse=False``.  Every ``step.dispatch`` flight-recorder event, kernel
metric and state high-water mark the statevector engines emit comes
from here; the density and trajectory loops record their per-step
kernel metrics through the same :class:`StepMeter`.

The loops return raw data (branches, recorded measurements, stats);
materializing user-facing result objects is the caller's job — see
:meth:`repro.execution.Executor.submit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Mapping

import numpy as np

from repro.gates.base import QGate
from repro.observability.instrument import current_instrumentation
from repro.observability.metrics import (
    BRANCHES_MAX,
    GATE_APPLIES,
    KERNEL_BYTES,
    KERNEL_SECONDS,
    MEASUREMENTS,
    RNG_DRAWS,
    SHOTS_SAMPLED,
    STATE_BYTES_MAX,
    SWEEP_POINTS,
)
from repro.observability.tracer import NULL_SPAN
from repro.observability.recorder import (
    EV_PLAN_SWEEP,
    EV_STATE_HIGHWATER,
    EV_STEP_DISPATCH,
    record_event,
)
from repro.simulation.backends import Backend
from repro.simulation.plan import GATE, MEASURE

__all__ = [
    "Branch",
    "KRAUS",
    "StepMeter",
    "apply_operation",
    "run_plan",
    "run_sweep",
    "run_unitary",
    "record_shots",
    "step_kind",
    "step_meter",
]

#: Kernel-series ``kind`` of the noise channels attached to gate steps.
KRAUS = "kraus"


@dataclass
class Branch:
    """One measurement branch: a collapsed state with its probability
    and the concatenated outcomes observed along the way."""

    probability: float
    state: np.ndarray
    result: str


def step_kind(step) -> str:
    """Structural class of a compiled gate step: ``diag``,
    ``controlled``, ``1q`` or ``kq``."""
    if step.diagonal:
        return "diag"
    if step.controls:
        return "controlled"
    if len(step.targets) == 1:
        return "1q"
    return "kq"


class StepMeter:
    """Per-step cost accounting for one instrumented plan replay.

    Every plan-replay loop (:func:`run_plan`, and the density and
    trajectory loops) times each plan step once, around the step's own
    work, and hands that one reading here:

    * gate steps -> ``repro_gate_applies_total`` /
      ``repro_kernel_seconds`` / ``repro_kernel_bytes_total`` under
      ``kind=step_kind(step)``, one apply per state row per branch;
    * noise channels attached to a gate step -> the same series under
      ``kind="kraus"``, one reading per noisy qubit;
    * measure/reset steps (basis changes and reset flips included) ->
      ``repro_measurements_total`` under ``kind="measure"``/``"reset"``.

    While the replay runs the meter only appends each reading to a
    list, outside the reading; :meth:`flush` folds them into the
    registry once, when the replay is done.
    """

    def __init__(self, metrics, backend: str):
        self._metrics = metrics
        self._backend = backend
        self._kernels: list = []  # (kind, applies, bytes, seconds)
        self._collapses: list = []  # (kind, seconds)

    def kernel(self, kind: str, applies: int, nbytes, seconds: float):
        """Account one gate step (or attached channel) of ``kind``."""
        self._kernels.append((kind, applies, nbytes, seconds))

    def collapse(self, kind: str, seconds: float) -> None:
        """Account one measure/reset step."""
        self._collapses.append((kind, seconds))

    def flush(self) -> None:
        """Fold the accounted readings into the metrics registry."""
        metrics = self._metrics
        if self._kernels:
            applies_c = metrics.counter(
                GATE_APPLIES, "gate-kernel applications by backend and kind"
            )
            seconds_h = metrics.histogram(
                KERNEL_SECONDS, "wall seconds of each gate step or channel"
            )
            bytes_c = metrics.counter(
                KERNEL_BYTES, "approximate bytes touched by backend kernels"
            )
            # kind -> bound (applies, seconds, bytes) children
            handles: dict = {}
            for kind, applies, nbytes, seconds in self._kernels:
                bound = handles.get(kind)
                if bound is None:
                    labels = {"backend": self._backend, "kind": kind}
                    bound = handles[kind] = (
                        applies_c.labels(**labels),
                        seconds_h.labels(**labels),
                        bytes_c.labels(**labels),
                    )
                bound[0].inc(applies)
                bound[1].observe(seconds)
                bound[2].inc(nbytes)
        if self._collapses:
            hist = metrics.histogram(
                MEASUREMENTS, "wall seconds collapsing measurements/resets"
            )
            for kind, seconds in self._collapses:
                hist.observe(seconds, kind=kind)
        self._kernels.clear()
        self._collapses.clear()


def step_meter(inst, engine):
    """A :class:`StepMeter` for an enabled instrumentation bundle, else
    ``None`` — the loops test for ``None`` and read no extra clock."""
    if inst is None or not inst.enabled:
        return None
    return StepMeter(inst.metrics, engine.name)


def apply_operation(
    backend: Backend,
    state: np.ndarray,
    gate: QGate,
    offset: int,
    nb_qubits: int,
) -> np.ndarray:
    """Apply one gate (shifted by ``offset``) to a state via ``backend``."""
    targets = [q + offset for q in gate.target_qubits()]
    controls = [q + offset for q in gate.controls()]
    return backend.apply(
        state,
        gate.target_matrix(),
        targets,
        nb_qubits,
        controls=controls,
        control_states=list(gate.control_states()),
        diagonal=gate.is_diagonal,
    )


def _branch_probabilities(state: np.ndarray, qubit: int, nb_qubits: int):
    """P(0), P(1) of measuring ``qubit`` — Section 3.3's amplitude sums."""
    left = 1 << qubit
    right = 1 << (nb_qubits - 1 - qubit)
    view = state.reshape(left, 2, right)
    mags = np.abs(view) ** 2
    p0 = float(np.sum(mags[:, 0, :]))
    p1 = float(np.sum(mags[:, 1, :]))
    return p0, p1


def _collapse(
    state: np.ndarray, qubit: int, nb_qubits: int, outcome: int, prob: float
) -> np.ndarray:
    """Collapsed, renormalized copy of ``state`` after observing ``outcome``."""
    left = 1 << qubit
    collapsed = state.copy()
    view = collapsed.reshape(left, 2, -1)
    view[:, 1 - outcome, :] = 0.0
    collapsed *= 1.0 / np.sqrt(prob)
    return collapsed


def _measure(engine, branches, qubit, meas, nb_qubits, atol, record):
    """Split every branch on a measurement of ``qubit``."""
    non_z = meas.basis != "z"
    out = []
    for branch in branches:
        state = branch.state
        if non_z:
            state = engine.apply(
                state, meas.basis_change, [qubit], nb_qubits
            )
        p0, p1 = _branch_probabilities(state, qubit, nb_qubits)
        total = p0 + p1
        children = []
        for outcome, p in ((0, p0), (1, p1)):
            if p / total <= atol:
                continue
            collapsed = _collapse(state, qubit, nb_qubits, outcome, p / total)
            if non_z:
                collapsed = engine.apply(
                    collapsed,
                    meas.basis_change_dagger,
                    [qubit],
                    nb_qubits,
                )
            result = branch.result + (str(outcome) if record else "")
            children.append(
                Branch(branch.probability * (p / total), collapsed, result)
            )
        out.extend(children)
    return out


def _reset(engine, branches, qubit, nb_qubits, atol, record):
    """Reset ``qubit`` to |0> in every branch (measure + conditional X)."""
    out = []
    left = 1 << qubit
    for branch in branches:
        state = branch.state
        p0, p1 = _branch_probabilities(state, qubit, nb_qubits)
        total = p0 + p1
        for outcome, p in ((0, p0), (1, p1)):
            if p / total <= atol:
                continue
            collapsed = state.copy()
            view = collapsed.reshape(left, 2, -1)
            if outcome == 1:
                view[:, 0, :] = view[:, 1, :]
            view[:, 1, :] = 0.0
            collapsed *= 1.0 / np.sqrt(p / total)
            result = branch.result + (str(outcome) if record else "")
            out.append(
                Branch(branch.probability * (p / total), collapsed, result)
            )
    return out


def run_plan(plan, state, atol, inst=None, check=None):
    """Replay a compiled plan branch-wise from an initial state.

    THE dispatch loop — the only place planned statevector steps
    execute.  ``inst`` parameterizes instrumentation: with an enabled
    :class:`~repro.observability.instrument.Instrumentation` the replay
    runs inside a ``simulate.execute`` span, and each step's one
    wall-time reading (the same one its ``step.dispatch`` event
    carries) goes to a :class:`StepMeter`, which accounts gate steps as
    kernel applies/seconds/bytes and collapses in the measurement
    histogram.  The meter's totals and the state/branch high-water
    gauges are folded into the registry once, after the span closes —
    also when the replay is cancelled.  With ``None`` (or a disabled
    bundle) the loop pays none of that.

    ``check`` is the cancellation hook: a zero-argument callable
    invoked once per plan step (not per branch) that raises to abort
    the replay — the executor threads
    :meth:`repro.execution.Job.check_cancelled` through here for jobs
    carrying a deadline or a cancel request, which is how a service
    request timeout interrupts a simulation *mid-execution*.  ``None``
    (every ordinary run) costs nothing.

    Either way every step adds one ``step.dispatch`` event (op kind,
    qubit count, wall ns, branch count) to the always-on flight
    recorder — an O(1) ring append per *step*, not per branch, so the
    overhead stays in the noise (the guard test holds it under 5%).
    The loop keeps each step's reading and appends the events in step
    order when the replay ends, also when it is cancelled or fails:
    time spent building an event between two readings would land in
    neither, and with few fused steps that gap is a visible share of
    the execute span.
    """
    engine = plan.engine
    nb_qubits = plan.nb_qubits
    branches = [Branch(1.0, state, "")]
    measurements = []
    highwater = state.nbytes
    # double-buffered scratch pair: one spare statevector flips with
    # each branch state per step, so backends that write into ``out``
    # allocate no per-step result arrays.  The invariant (the spare
    # never aliases any branch's current state) holds because a swap
    # always retires the buffer the branch just left.
    spare = None
    dispatched = []  # (op kind, seconds, branches) per step run
    meter = step_meter(inst, engine)
    span = (
        NULL_SPAN if meter is None
        else inst.span("simulate.execute", backend=engine.name)
    )
    try:
        with span:
            for step in plan.steps:
                if check is not None:
                    check()
                t0 = perf_counter()
                if step.kind == GATE:
                    for branch in branches:
                        if (
                            spare is None
                            or spare.shape != branch.state.shape
                            or spare.dtype != branch.state.dtype
                        ):
                            spare = np.empty_like(branch.state)
                        res = engine.apply_planned(
                            branch.state, step, nb_qubits, out=spare
                        )
                        if res is spare:
                            spare = branch.state
                        branch.state = res
                    dt = perf_counter() - t0
                    kind = step_kind(step)
                    dispatched.append((kind, dt, len(branches)))
                    if meter is not None:
                        meter.kernel(
                            kind, len(branches),
                            len(branches) * engine.planned_bytes(
                                step, res, nb_qubits
                            ),
                            dt,
                        )
                    continue
                if step.kind == MEASURE:
                    measurements.append((step.qubit, step.op))
                    branches = _measure(
                        engine, branches, step.qubit, step.op, nb_qubits,
                        atol, record=True,
                    )
                    op_kind = "measure"
                else:  # RESET
                    if step.op.record:
                        measurements.append((step.qubit, step.op))
                    branches = _reset(
                        engine, branches, step.qubit, nb_qubits, atol,
                        record=step.op.record,
                    )
                    op_kind = "reset"
                dt = perf_counter() - t0
                dispatched.append((op_kind, dt, len(branches)))
                if meter is not None:
                    meter.collapse(op_kind, dt)
                live = sum(b.state.nbytes for b in branches)
                if live > highwater:
                    highwater = live
                    record_event(
                        EV_STATE_HIGHWATER, bytes=live,
                        branches=len(branches),
                    )
    finally:
        for op_kind, dt, nb_branches in dispatched:
            record_event(
                EV_STEP_DISPATCH, op=op_kind, nq=nb_qubits,
                ns=int(dt * 1e9), branches=nb_branches,
            )
        if meter is not None:
            meter.flush()
            # branches only ever split, so the final count and the
            # byte high-water mark are the run's maxima
            inst.metrics.gauge(
                STATE_BYTES_MAX,
                "high-water statevector bytes across branches",
            ).set_max(highwater)
            inst.metrics.gauge(
                BRANCHES_MAX, "high-water simultaneous measurement branches"
            ).set_max(len(branches))
    return branches, measurements


def run_sweep(plan, cols: Mapping, nb_points: int, start=None) -> np.ndarray:
    """Execute a plan for a whole matrix of parameter points.

    One vectorized pass per plan step runs all ``nb_points`` points at
    once: concrete steps broadcast their single kernel over the
    ``(P, 2**n)`` state batch, parametric steps apply a per-point
    kernel stack along the parameter axis.  ``cols`` maps each
    :class:`~repro.parameter.Parameter` to its length-``P`` value
    column (validated by :meth:`~repro.simulation.CompiledPlan.sweep`,
    which is the public entry).  Emits the ``param.sweep`` span,
    the swept-points metric and the ``plan.sweep`` recorder event —
    all from this one loop.
    """
    from repro.simulation.state import initial_state

    dtype = plan.dtype
    nb_qubits = plan.nb_qubits
    if start is None:
        start = "0" * nb_qubits
    init = initial_state(start, nb_qubits, dtype=dtype)
    states = np.tile(init, (nb_points, 1))
    engine = plan.engine
    inst = current_instrumentation()
    t_sweep = perf_counter()
    with inst.span(
        "param.sweep",
        points=nb_points,
        backend=engine.name,
        nb_params=len(cols),
    ):
        # every step double-buffers the whole (P, 2**n) batch — the
        # same zero-allocation flip as run_plan
        spare = np.empty_like(states)
        for step in plan.steps:
            if step.param is None:
                res = engine.apply_planned_batched(
                    states, step, nb_qubits, out=spare
                )
                if res is spare:
                    spare = states
                states = res
                continue
            thetas = step.param.resolve_batch(cols)
            kernels = np.ascontiguousarray(
                step.op.kernel_values(thetas).astype(dtype, copy=False)
            )
            res = engine.apply_planned_sweep(
                states, step, nb_qubits, kernels, out=spare
            )
            if res is spare:
                spare = states
            states = res
        if inst.enabled:
            inst.metrics.counter(
                SWEEP_POINTS,
                "parameter points executed by vectorized sweeps",
            ).inc(nb_points)
    record_event(
        EV_PLAN_SWEEP,
        points=nb_points,
        backend=engine.name,
        ns=int((perf_counter() - t_sweep) * 1e9),
    )
    return states


def run_unitary(plan) -> np.ndarray:
    """Accumulate a measurement-free plan's ``2**n x 2**n`` unitary.

    Applies each prepared step to the columns of the identity through
    the plan's backend, so no full gate operator is ever materialized.
    Backs :attr:`repro.circuit.QCircuit.matrix`.
    """
    nb_qubits = plan.nb_qubits
    state = np.eye(1 << nb_qubits, dtype=np.complex128)
    spare = np.empty_like(state)
    for step in plan.steps:
        res = plan.engine.apply_planned(state, step, nb_qubits, out=spare)
        if res is spare:
            spare = state
        state = res
    return state


def record_shots(inst, shots: int) -> None:
    """Record shot sampling into a run's (or the ambient) metrics.

    The one emission point for the ``counts()``-style sampling
    metrics — :meth:`Simulation.counts`, :meth:`Simulation.counts_dict`
    and the noisy-counts path all funnel through here.
    """
    if inst is None or not inst.enabled:
        inst = current_instrumentation()
    if inst.enabled:
        inst.metrics.counter(
            SHOTS_SAMPLED, "shots sampled via counts()"
        ).inc(int(shots))
        inst.metrics.counter(
            RNG_DRAWS, "random draws consumed"
        ).inc()  # one multinomial draw over the branch distribution
