"""Monte-Carlo trajectory dispatch — serial and batched step loops.

Moved here from :mod:`repro.noise.trajectory` so the execution core
owns every plan-replay loop.  Two engines share this module:

:func:`run_trajectory_plan`
    One shot, one ``(2**n,)`` state — the reference path.

:func:`execute_batch`
    ``B`` shots as one ``(B, 2**n)`` array; every compiled plan step
    executes once across the whole batch and all stochastic choices
    (Kraus selection, measurement collapse, readout flips) are
    vectorized over the batch axis.

Both consume the SAME underlying uniform stream in the same order, so
for a fixed seed the batched engine is shot-for-shot reproducible
against a serial loop sharing one generator —
:func:`draws_per_shot` states the contract.  The public entry points
and result objects stay in ``repro.noise.trajectory``; this module
returns raw outcome strings and states.

Deliberately imports nothing from :mod:`repro.noise` at module level
(the noise model arrives duck-typed) — ``repro.noise.trajectory``
imports *us*, and a module-level back-edge would deadlock package
initialization.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.circuit.measurement import Measurement
from repro.exceptions import SimulationError
from repro.simulation.plan import GATE, MEASURE, get_plan
from repro.simulation.state import initial_state

__all__ = [
    "run_trajectory_plan",
    "execute_batch",
    "batch_worker",
    "channel_map",
    "draws_per_shot",
    "default_batch_size",
    "CountingRNG",
]

#: Auto batch sizing: keep one batch around this many amplitudes ...
BATCH_TARGET_ELEMS = 1 << 22
#: ... and never wider than this many rows.
BATCH_MAX_ROWS = 4096


class CountingRNG:
    """Thin proxy counting ``random()`` draws (instrumented runs)."""

    __slots__ = ("rng", "draws")

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def random(self):
        """One uniform draw from the wrapped generator, counted."""
        self.draws += 1
        return self.rng.random()


def channel_map(circuit, noise) -> dict:
    """``{gate class: NoiseChannel}`` for every noisy gate of the circuit.

    Built by running the ``inject_noise`` IR pass over the canonical
    (revision-cached) lowering.  Batch runs build this once, so every
    shot resolves channels with one dict lookup per gate instead of
    re-matching the noise model's rules.

    Keyed by gate *class*, matching :meth:`NoiseModel.channel_for`'s
    resolution — deliberately not by gate identity: the plan cache may
    hand back a plan compiled from a different but signature-equal
    circuit, whose step back-pointers are different objects of the same
    classes.
    """
    if noise.is_trivial:
        return {}
    from repro.ir.lower import lower
    from repro.ir.passes import InjectNoise, PassManager

    program = PassManager([InjectNoise(noise)]).run(lower(circuit))
    return {
        type(irop.op): irop.channel
        for irop in program
        if irop.channel is not None
    }


def default_batch_size(shots: int, nb_qubits: int) -> int:
    """Memory-aware batch width: aim for :data:`BATCH_TARGET_ELEMS`
    amplitudes per batch, capped at :data:`BATCH_MAX_ROWS` rows."""
    rows = max(1, BATCH_TARGET_ELEMS >> nb_qubits)
    return max(1, min(int(shots), rows, BATCH_MAX_ROWS))


def draws_per_shot(plan, channels: dict, noise) -> int:
    """Uniform variates one trajectory consumes, in plan order.

    This is the contract that keeps the batched engine shot-for-shot
    reproducible against the serial loop: every shot consumes a FIXED
    number of draws (Kraus sites with >1 operator, measurements,
    readout checks, resets), so shot ``i`` owns variates
    ``[i*D, (i+1)*D)`` of the stream in both engines.
    """
    draws = 0
    readout = 1 if noise.readout_error > 0.0 else 0
    for step in plan.steps:
        if step.kind == GATE:
            channel = (
                channels.get(type(step.op))
                if step.op is not None
                else None
            )
            if channel is not None and len(channel.kraus) > 1:
                draws += len(step.noise_qubits)
        elif step.kind == MEASURE:
            draws += 1 + readout
        else:  # RESET
            draws += 1
    return draws


# -- the serial engine -------------------------------------------------------


def _apply_kraus(engine, state, kraus, qubit, nb_qubits, rng):
    """Select and apply one Kraus operator (Monte-Carlo branch)."""
    if len(kraus) == 1:
        out = engine.apply(state, kraus[0], [qubit], nb_qubits)
        norm = np.linalg.norm(out)
        return out / norm
    r = float(rng.random())
    acc = 0.0
    for k in kraus:
        candidate = engine.apply(state.copy(), k, [qubit], nb_qubits)
        p = float(np.linalg.norm(candidate) ** 2)
        acc += p
        if r < acc or k is kraus[-1]:
            if p <= 1e-300:
                continue  # zero-probability op; keep scanning
            return candidate / np.sqrt(p)
    raise SimulationError("Kraus sampling failed to select an operator")


def _sample_measurement(engine, state, meas, qubit, nb_qubits, rng):
    """Collapse one measurement randomly; returns (outcome, state)."""
    if meas.basis != "z":
        state = engine.apply(state, meas.basis_change, [qubit], nb_qubits)
    left = 1 << qubit
    view = state.reshape(left, 2, -1)
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    outcome = 1 if rng.random() < p1 else 0
    prob = p1 if outcome == 1 else 1.0 - p1
    view[:, 1 - outcome, :] = 0.0
    state = state * (1.0 / np.sqrt(prob))
    if meas.basis != "z":
        state = engine.apply(
            state, meas.basis_change_dagger, [qubit], nb_qubits
        )
    return outcome, state


def run_trajectory_plan(plan, engine, channels, noise, start, rng):
    """Sample ONE noisy path through a compiled plan.

    Returns ``(result, state)`` — the recorded outcome string and the
    final ``(2**n,)`` state.  ``engine`` is passed separately from
    ``plan.engine`` so instrumented runs route gate applies through the
    wrapper while collapse bookkeeping stays raw.
    """
    nb_qubits = plan.nb_qubits
    if start is None:
        start = "0" * nb_qubits
    state = initial_state(start, nb_qubits, dtype=plan.dtype)
    outcomes = []

    for step in plan.steps:
        if step.kind == GATE:
            state = engine.apply_planned(state, step, nb_qubits)
            channel = (
                channels.get(type(step.op))
                if step.op is not None
                else None
            )
            if channel is not None:
                for q in step.noise_qubits:
                    state = _apply_kraus(
                        engine, state, channel.kraus, q, nb_qubits, rng
                    )
            continue
        if step.kind == MEASURE:
            outcome, state = _sample_measurement(
                engine, state, step.op, step.qubit, nb_qubits, rng
            )
            if noise.readout_error > 0.0 and (
                rng.random() < noise.readout_error
            ):
                outcome = 1 - outcome
            outcomes.append(str(outcome))
            continue
        # RESET
        meas = Measurement(step.op.qubit)
        outcome, state = _sample_measurement(
            engine, state, meas, step.qubit, nb_qubits, rng
        )
        if outcome == 1:
            from repro.gates import PauliX

            state = engine.apply(
                state, PauliX(0).matrix, [step.qubit], nb_qubits
            )
        if step.op.record:
            outcomes.append(str(outcome))

    return "".join(outcomes), state


# -- the batched engine ------------------------------------------------------


def _apply_kraus_batched(engine, states, kraus, qubit, nb_qubits, r):
    """Vectorized Monte-Carlo Kraus branch over a ``(B, dim)`` batch.

    ``r`` is one uniform variate per row (``None`` for single-operator
    channels, which draw nothing).  Selection replays the serial
    scan — first operator with cumulative probability past ``r`` (or
    the last), skipping zero-probability branches — via boolean masks.
    """
    if len(kraus) == 1:
        out = engine.apply_batched(states, kraus[0], [qubit], nb_qubits)
        norms = np.linalg.norm(out, axis=1)
        out /= norms[:, None]
        return out
    batch = states.shape[0]
    acc = np.zeros(batch)
    assigned = np.zeros(batch, dtype=bool)
    out = np.empty_like(states)
    last = len(kraus) - 1
    for i, k in enumerate(kraus):
        candidate = engine.apply_batched(
            states.copy(), k, [qubit], nb_qubits
        )
        p = np.linalg.norm(candidate, axis=1) ** 2
        acc += p
        sel = ~assigned & ((r < acc) | (i == last)) & (p > 1e-300)
        if sel.any():
            out[sel] = candidate[sel] / np.sqrt(p[sel])[:, None]
            assigned |= sel
    if not assigned.all():
        raise SimulationError("Kraus sampling failed to select an operator")
    return out


def _sample_measurement_batched(engine, states, meas, qubit, nb_qubits, r):
    """Collapse one measurement across the batch; returns
    ``(outcomes, states)`` with ``outcomes`` a ``(B,)`` int array."""
    if meas.basis != "z":
        states = engine.apply_batched(
            states, meas.basis_change, [qubit], nb_qubits
        )
    batch = states.shape[0]
    left = 1 << qubit
    view = states.reshape(batch, left, 2, -1)
    p1 = np.sum(np.abs(view[:, :, 1, :]) ** 2, axis=(1, 2))
    outcomes = (r < p1).astype(np.int64)
    ones = outcomes.astype(bool)
    view[ones, :, 0, :] = 0.0
    view[~ones, :, 1, :] = 0.0
    prob = np.where(ones, p1, 1.0 - p1)
    states *= (1.0 / np.sqrt(prob))[:, None]
    if meas.basis != "z":
        states = engine.apply_batched(
            states, meas.basis_change_dagger, [qubit], nb_qubits
        )
    return outcomes, states


def _bit_matrix_to_strings(columns: list, batch: int) -> List[str]:
    """Recorded outcome columns -> per-shot result strings."""
    if not columns:
        return [""] * batch
    mat = np.stack(columns, axis=1).astype(np.uint8) + ord("0")
    return [bytes(row).decode("ascii") for row in mat]


def execute_batch(plan, engine, channels, noise, start, draws, dtype):
    """Run one batch of trajectories through a compiled plan.

    ``draws`` is the pre-drawn ``(B, draws_per_shot)`` uniform matrix;
    column ``j`` holds every row's ``j``-th stochastic choice, matching
    the serial engine's shot-major consumption of the same stream.
    """
    nb_qubits = plan.nb_qubits
    batch = draws.shape[0]
    base = initial_state(
        start if start is not None else "0" * nb_qubits,
        nb_qubits,
        dtype=dtype,
    )
    states = np.tile(base, (batch, 1))
    col = 0
    recorded: list = []
    x_kernel = None
    # double-buffered scratch pair: gate steps flip between `states`
    # and one spare (B, dim) array, so backends that write into `out`
    # allocate nothing per step.  Noise/measurement paths below may
    # rebind `states` to fresh arrays; the spare stays disjoint either
    # way (a swap only ever retires the buffer states just left)
    spare = np.empty_like(states)

    for step in plan.steps:
        if step.kind == GATE:
            new = engine.apply_planned_batched(
                states, step, nb_qubits, out=spare
            )
            if new is spare:
                spare = states
            states = new
            channel = (
                channels.get(type(step.op))
                if step.op is not None
                else None
            )
            if channel is not None:
                kraus = channel.kraus
                needs_draw = len(kraus) > 1
                for q in step.noise_qubits:
                    r = None
                    if needs_draw:
                        r = draws[:, col]
                        col += 1
                    states = _apply_kraus_batched(
                        engine, states, kraus, q, nb_qubits, r
                    )
            continue
        if step.kind == MEASURE:
            outcomes, states = _sample_measurement_batched(
                engine, states, step.op, step.qubit, nb_qubits,
                draws[:, col],
            )
            col += 1
            if noise.readout_error > 0.0:
                flips = draws[:, col] < noise.readout_error
                col += 1
                outcomes = outcomes ^ flips.astype(np.int64)
            recorded.append(outcomes)
            continue
        # RESET
        meas = Measurement(step.op.qubit)
        outcomes, states = _sample_measurement_batched(
            engine, states, meas, step.qubit, nb_qubits, draws[:, col]
        )
        col += 1
        ones = outcomes.astype(bool)
        if ones.any():
            if x_kernel is None:
                from repro.gates import PauliX

                x_kernel = PauliX(0).matrix
            states[ones] = engine.apply_batched(
                np.ascontiguousarray(states[ones]), x_kernel,
                [step.qubit], nb_qubits,
            )
        if step.op.record:
            recorded.append(outcomes)

    return _bit_matrix_to_strings(recorded, batch), states


def batch_worker(payload):
    """Process-pool entry point: run one pre-seeded batch.

    Receives everything it needs (circuit, channels, the pre-drawn
    uniform matrix) so results do not depend on which worker — or how
    many workers — execute the batch.  Compiled plans memoize per
    process, so a worker pays compilation at most once per circuit.
    """
    (circuit, noise, channels, start, opts, use_fuse, draws,
     keep_states) = payload
    plan, _stats = get_plan(
        circuit, opts.backend, opts.dtype, fuse=use_fuse
    )
    results, states = execute_batch(
        plan, plan.engine, channels, noise, start, draws, opts.dtype
    )
    return results, (states if keep_states else None)
