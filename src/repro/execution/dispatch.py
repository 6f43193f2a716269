"""Plan replay — THE loop compiled statevector plans execute through.

:func:`run_plan` replays a plan on a ``(B, 2**n)`` stack of rows, each
with a weight and the outcomes it recorded: one row for ``simulate``,
one that holds every shot for a trajectory batch
(:func:`~repro.execution.trajectory.execute_batch`), one per point for
a sweep (:func:`run_sweep`).  Measure and reset steps go to one
:func:`collapse` helper under a policy: :class:`Branching` splits each
row per outcome, :class:`~repro.execution.trajectory.Sampling` draws
one per shot and splits a row only where its shots disagree.  The
per-step cancellation hook, every ``step.dispatch``
flight-recorder event, the :class:`StepMeter` readings and the
high-water gauges live only in this loop.  :func:`run_unitary` keeps
the ``(dim, m)`` column form of ``QCircuit.matrix``.  Result objects
are the caller's job — see :meth:`repro.execution.Executor.submit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Mapping, NamedTuple

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
from repro.simulation.state import initial_state

__all__ = [
    "Branch",
    "Branching",
    "KRAUS",
    "Replay",
    "StepMeter",
    "apply_operation",
    "collapse",
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

    Both plan-replay loops (:func:`run_plan` and the density loop)
    time each plan step once, around the step's own work, and hand
    that one reading here:

    * gate steps -> ``repro_gate_applies_total`` /
      ``repro_kernel_seconds`` / ``repro_kernel_bytes_total`` under
      ``kind=step_kind(step)``, one apply per branch, shot or sweep
      point;
    * noise channels attached to a gate step -> the same series under
      ``kind="kraus"``, one reading per noisy qubit;
    * measure/reset steps (basis changes included) ->
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


class Branching:
    """The statevector collapse policy: every row splits into one child
    row per outcome whose probability is above ``atol``.  Children keep
    their parent's order, outcome 0 first.

    A collapse policy has three hooks and one attribute.
    :meth:`choose` picks the outcomes of a measure/reset step and lays
    out the child rows; :meth:`observed` maps a recorded step's
    outcomes to the recorded ones; ``noise``, when not ``None``, runs
    after every gate step; ``shot_row``, when not ``None``, maps each
    shot to the row that holds its state, and the results are per
    shot instead of per row.  Only the trajectory policy
    (:class:`repro.execution.trajectory.Sampling`) does anything in the
    last three.
    """

    #: Statevector gate steps carry no channels.
    noise = None
    #: Every branch row is its own result.
    shot_row = None

    def __init__(self, atol):
        self.atol = atol

    def choose(self, blocks, rows, qubit, nb_qubits):
        """``(blocks, parents, outcomes, probs)``: the child rows, the
        row each child copies, the outcome it keeps and that outcome's
        probability.  When every row keeps exactly one outcome the
        rows are the children and ``parents`` is ``None``; otherwise
        each child is a copy of its parent row in a one-row block of
        its own, the per-branch layout."""
        parents, outcomes, probs = [], [], []
        flat = [row for block in blocks for row in block]
        for i, row in enumerate(flat):
            # P(0), P(1): Section 3.3's amplitude sums
            mags = np.abs(row.reshape(1 << qubit, 2, -1)) ** 2
            p0 = float(mags[:, 0, :].sum())
            p1 = float(mags[:, 1, :].sum())
            total = p0 + p1
            for outcome, p in ((0, p0), (1, p1)):
                if p / total <= self.atol:
                    continue
                parents.append(i)
                outcomes.append(outcome)
                probs.append(p / total)
        if parents == list(range(len(flat))):
            parents = None
        else:
            blocks = [flat[i][None].copy() for i in parents]
            parents = np.array(parents, dtype=np.intp)
        return (
            blocks, parents,
            np.array(outcomes, dtype=np.int64),
            np.array(probs, dtype=float),
        )

    def observed(self, outcomes, measured):
        """Branches record the outcomes they collapsed to."""
        return outcomes


def _live(block, rows):
    """A block's live rows: its first ``rows``, or the whole block when
    it holds no room past them."""
    return block if len(block) <= rows else block[:rows]


def collapse(engine, blocks, rows, step, nb_qubits, policy):
    """Measure or reset ``step.qubit`` on the ``rows`` live rows of the
    stack (a list of row blocks).

    ``policy.choose`` picks each child row's parent, outcome and
    probability and lays the children out: the rows themselves when
    every row keeps one outcome (``parents`` is ``None``), one-row
    copies per branch (:class:`Branching`), or the rows plus appended
    copies (:class:`~repro.execution.trajectory.Sampling`).  A
    measurement zeroes the other outcome's half of the row; a reset
    moves the kept half to ``|0>`` and zeroes ``|1>`` (the
    copy-and-zero rule).  Either way the row is then renormalized.
    Other bases rotate to Z before and back after.  Returns
    ``(blocks, parents, outcomes, probs)``.
    """
    qubit = step.qubit
    meas = step.op if step.kind == MEASURE else None
    rotate = meas is not None and meas.basis != "z"
    if rotate:
        blocks = [
            engine.apply_batched(
                _live(b, rows), meas.basis_change, [qubit], nb_qubits
            )
            for b in blocks
        ]
    blocks, parents, outcomes, probs = policy.choose(
        blocks, rows, qubit, nb_qubits
    )
    rows = len(outcomes)
    scale = (1.0 / np.sqrt(probs))[:, None]
    start = 0
    for block in blocks:
        states = _live(block, rows)
        n = len(states)
        at = slice(start, start + n)
        view = states.reshape(n, 1 << qubit, 2, -1)
        if n == 1:  # one row: plain slices, no index arrays
            kept = int(outcomes[start])
            if meas is not None:
                view[:, :, 1 - kept, :] = 0.0
            else:
                if kept:
                    view[:, :, 0, :] = view[:, :, 1, :]
                view[:, :, 1, :] = 0.0
        elif meas is not None:
            view[np.arange(n), :, 1 - outcomes[at], :] = 0.0
        else:
            ones = outcomes[at] == 1
            view[ones, :, 0, :] = view[ones, :, 1, :]
            view[:, :, 1, :] = 0.0
        states *= scale[at]
        start += n
    if rotate:
        blocks = [
            engine.apply_batched(
                _live(b, rows), meas.basis_change_dagger, [qubit],
                nb_qubits,
            )
            for b in blocks
        ]
    return blocks, parents, outcomes, probs


class Replay(NamedTuple):
    """What :func:`run_plan` returns: the final stack as row blocks (one
    block unless branches split), each row's weight (the probability of
    the outcomes it collapsed to), the recorded outcome strings, the
    recorded ``(qubit, op)`` pairs in plan order, and the policy's
    ``shot_row`` map.  The strings are per row when ``shot_row`` is
    ``None``, else per shot, and shot ``i``'s state is row
    ``shot_row[i]``."""

    blocks: list
    weights: np.ndarray
    results: List[str]
    measurements: list
    shot_row: np.ndarray

    def branches(self) -> List[Branch]:
        """The rows as :class:`Branch` objects; each state is a row
        view of its final block."""
        rows = (row for block in self.blocks for row in block)
        return [
            Branch(w, row, r)
            for w, row, r in zip(self.weights.tolist(), rows, self.results)
        ]


def _bit_matrix_to_strings(columns: list, rows: int) -> List[str]:
    """Recorded outcome columns -> per-row result strings."""
    if not columns:
        return [""] * rows
    width = len(columns)
    text = (np.array(columns, dtype=np.uint8).T + ord("0")).tobytes()
    text = text.decode("ascii")
    return [text[i:i + width] for i in range(0, len(text), width)]


def _gate(plan, block, rows, step, spare, cols):
    """One gate step on a block's live rows, written into ``spare``
    where the backend can; returns the new ``(block, spare)`` pair."""
    states = _live(block, rows)
    if (
        spare is None
        or len(spare) < len(states)
        or spare.shape[1:] != states.shape[1:]
        or spare.dtype != states.dtype
    ):
        spare = np.empty_like(block)
    out = _live(spare, len(states))
    if cols is not None and step.is_parametric:
        res = plan.engine.apply_planned_sweep(
            states, step, plan.nb_qubits, plan.step_kernels(step, cols),
            out=out,
        )
    else:
        res = plan.engine.apply_planned_batched(
            states, step, plan.nb_qubits, out=out
        )
    if res is out:
        return spare, block
    return (block if res is states else res), spare


def run_plan(plan, state, atol, inst=None, check=None, *, policy=None,
             cols=None, span="simulate.execute"):
    """Replay a compiled plan on a stack of rows — THE replay loop.

    ``state`` is one ``(2**n,)`` state or a ``(B, 2**n)`` stack; every
    row starts with weight 1 and no outcomes; the replay owns the
    array.  The stack is one block of rows until a collapse splits
    them into one block per row (:class:`Branching`, see
    :func:`collapse`).  A trajectory batch
    (:class:`~repro.execution.trajectory.Sampling`) instead starts as
    one row that holds every shot and stays one block: a step whose
    shots disagree appends rows to it, and ``rows`` counts the live
    ones.  Gate steps run once per block, on its live rows, through
    ``apply_planned_batched``, double-buffered against one spare.
    Given sweep value columns ``cols``, a parametric step (leaf or
    block) applies one kernel per row from
    :meth:`~repro.simulation.CompiledPlan.step_kernels` through
    ``apply_planned_sweep`` instead; without them it uses the plan's
    bound kernel.  Measure and reset steps go to :func:`collapse`
    under ``policy`` — :class:`Branching` with ``atol`` when
    ``None``.

    ``check`` is the cancellation hook: a zero-argument callable
    invoked once per plan step (not per row) that raises to abort the
    replay — the executor passes
    :meth:`repro.execution.Job.check_cancelled` for jobs carrying a
    deadline or a cancel request.  ``None`` costs nothing.

    Every step adds one ``step.dispatch`` event (op kind, qubit count,
    wall ns, live rows after the step) to the always-on flight
    recorder.  The loop keeps each step's reading and appends the
    events in step order when the replay ends, also when it is
    cancelled or fails: time spent building an event between two
    readings would land in neither.  With an enabled ``inst`` each
    reading also goes to a :class:`StepMeter` (gate applies count one
    per row, or one per shot under a ``shot_row`` map), folded into
    the registry when the replay ends.  A statevector run also gets
    its ``span`` span and, after it closes, the byte and branch
    high-water gauges; the adapters pass ``span=None``, as their own
    spans and metrics cover the batch.
    """
    engine = plan.engine
    nb_qubits = plan.nb_qubits
    if policy is None:
        policy = Branching(atol)
    shot_row = policy.shot_row  # None: every row is its own result
    blocks = [state.reshape(-1, state.shape[-1])]
    del state  # the stack views it; once a collapse drops it, it is freed
    rows = len(blocks[0])
    weights = np.ones(rows)
    columns: list = []  # recorded outcome columns, one per record
    measurements = []
    row_bytes = blocks[0][0].nbytes
    # a trajectory stack may grow to one row per shot
    highwater = (rows if shot_row is None else len(shot_row)) * row_bytes
    # one spare for every block: a swap always retires the buffer the
    # block just left, so it never aliases a live block
    spare = None
    dispatched = []  # (op kind, seconds, rows) per step run
    meter = step_meter(inst, engine)
    scope = (
        NULL_SPAN if meter is None or span is None
        else inst.span(span, backend=engine.name)
    )
    try:
        with scope:
            for step in plan.steps:
                if check is not None:
                    check()
                t0 = perf_counter()
                if step.kind == GATE:
                    for i, block in enumerate(blocks):
                        blocks[i], spare = _gate(
                            plan, block, rows, step, spare, cols
                        )
                    op_kind = step_kind(step)
                    if meter is not None:
                        meter.kernel(
                            op_kind,
                            rows if shot_row is None else len(shot_row),
                            sum(
                                engine.planned_bytes(
                                    step, _live(b, rows), nb_qubits
                                )
                                for b in blocks
                            ),
                            perf_counter() - t0,
                        )
                    if policy.noise is not None:
                        blocks, parents = policy.noise(
                            engine, blocks, rows, step, nb_qubits, meter
                        )
                        if parents is not None:
                            rows = len(parents)
                            weights = weights[parents]
                    dispatched.append((op_kind, perf_counter() - t0, rows))
                    continue
                spare = None  # freed before the children are made
                blocks, parents, outcomes, probs = collapse(
                    engine, blocks, rows, step, nb_qubits, policy
                )
                if parents is not None:
                    rows = len(parents)
                    weights = weights[parents]
                    if shot_row is None:
                        columns = [c[parents] for c in columns]
                weights = weights * probs
                measured = step.kind == MEASURE
                op_kind = "measure" if measured else "reset"
                if measured or step.op.record:
                    measurements.append((step.qubit, step.op))
                    columns.append(policy.observed(outcomes, measured))
                dt = perf_counter() - t0
                dispatched.append((op_kind, dt, rows))
                if meter is not None:
                    meter.collapse(op_kind, dt)
                live = rows * row_bytes
                if live > highwater:
                    highwater = live
                    record_event(
                        EV_STATE_HIGHWATER, bytes=live, branches=rows,
                    )
    finally:
        for op_kind, dt, nb_rows in dispatched:
            record_event(
                EV_STEP_DISPATCH, op=op_kind, nq=nb_qubits,
                ns=int(dt * 1e9), branches=nb_rows,
            )
        if meter is not None:
            meter.flush()
        if meter is not None and span is not None:
            # rows only ever split, so the final count and the byte
            # high-water mark are the run's maxima
            inst.metrics.gauge(
                STATE_BYTES_MAX,
                "high-water statevector bytes across branches",
            ).set_max(highwater)
            inst.metrics.gauge(
                BRANCHES_MAX, "high-water simultaneous measurement branches"
            ).set_max(rows)
    return Replay(
        [_live(b, rows) for b in blocks], weights,
        _bit_matrix_to_strings(
            columns, rows if shot_row is None else len(shot_row)
        ),
        measurements, shot_row,
    )


def run_sweep(plan, cols: Mapping, nb_points: int, start=None,
              check=None) -> np.ndarray:
    """Execute a plan for a whole matrix of parameter points: one row
    of the :func:`run_plan` stack per point.

    ``cols`` maps each :class:`~repro.parameter.Parameter` to its
    length-``P`` value column (validated by
    :meth:`~repro.simulation.CompiledPlan.sweep`, which is the public
    entry).  Emits the ``param.sweep`` span, the swept-points metric
    and the ``plan.sweep`` recorder event.
    """
    init = initial_state(start, plan.nb_qubits, plan.dtype)
    inst = current_instrumentation()
    t_sweep = perf_counter()
    with inst.span(
        "param.sweep",
        points=nb_points,
        backend=plan.engine.name,
        nb_params=len(cols),
    ):
        (states,) = run_plan(
            plan, np.tile(init, (nb_points, 1)), None, inst, check,
            cols=cols, span=None,
        ).blocks
        if inst.enabled:
            inst.metrics.counter(
                SWEEP_POINTS,
                "parameter points executed by vectorized sweeps",
            ).inc(nb_points)
    record_event(
        EV_PLAN_SWEEP,
        points=nb_points,
        backend=plan.engine.name,
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
