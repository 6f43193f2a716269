"""Monte-Carlo trajectory dispatch — the one trajectory step loop.

Moved here from :mod:`repro.noise.trajectory` so the execution core
owns every plan-replay loop.  :func:`execute_batch` runs ``B`` shots
as one ``(B, 2**n)`` array: every compiled plan step executes once
across the whole batch and all stochastic choices (Kraus selection,
measurement collapse, readout flips) are vectorized over the batch
axis.  A single trajectory is a one-row batch.

Shot ``i`` consumes uniforms ``[i*D, (i+1)*D)`` of the seed stream
(:func:`draws_per_shot` states the contract), so for a fixed seed the
outcomes do not depend on the batch size or the worker count, and a
loop of one-shot runs sharing one generator reproduces a batched run
shot for shot.  The public entry points and result objects stay in
``repro.noise.trajectory``; this module returns raw outcome strings
and states.

Deliberately imports nothing from :mod:`repro.noise` at module level
(the noise model arrives duck-typed) — ``repro.noise.trajectory``
imports *us*, and a module-level back-edge would deadlock package
initialization.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

import numpy as np

from repro.circuit.measurement import Measurement
from repro.execution.dispatch import KRAUS, step_kind, step_meter
from repro.simulation.plan import GATE, MEASURE, get_plan
from repro.simulation.state import initial_state

__all__ = [
    "execute_batch",
    "batch_worker",
    "channel_map",
    "draws_per_shot",
    "default_batch_size",
]

#: Auto batch sizing: keep one batch around this many amplitudes ...
BATCH_TARGET_ELEMS = 1 << 22
#: ... and never wider than this many rows.
BATCH_MAX_ROWS = 4096

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


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

    This is the contract that keeps trajectories shot-for-shot
    reproducible at any batch size: every shot consumes a FIXED number
    of draws (Kraus sites with >1 operator, measurements, readout
    checks, resets), so shot ``i`` owns variates ``[i*D, (i+1)*D)`` of
    the stream however the shots are batched.
    """
    draws = 0
    readout = 1 if noise.readout_error > 0.0 else 0
    for step in plan.steps:
        if step.kind == GATE:
            # fused steps carry no op: type(None) maps to no channel
            channel = channels.get(type(step.op))
            if channel is not None and len(channel.kraus) > 1:
                draws += len(step.noise_qubits)
        elif step.kind == MEASURE:
            draws += 1 + readout
        else:  # RESET
            draws += 1
    return draws


# -- stochastic steps --------------------------------------------------------


def _apply_channel(engine, states, channel, qubit, nb_qubits, r):
    """Monte-Carlo Kraus branch over a ``(B, dim)`` batch.

    ``r`` holds one uniform per row, ``None`` for a single-operator
    channel (no draw; its operator is applied and renormalized).  Each
    branch :meth:`NoiseChannel.select` picks is applied to its rows
    only, so identity rows stay untouched.  Returns ``(states, nbytes)``.
    """
    if r is None:
        out = engine.apply_batched(states, channel.kraus[0], [qubit],
                                   nb_qubits)
        out /= np.linalg.norm(out, axis=1)[:, None]
        return out, 2 * out.nbytes
    index, branches, probs = channel.select(states, qubit, r)
    nbytes = 0 if probs is None else states.nbytes
    for i in np.flatnonzero(np.bincount(index, minlength=len(branches))):
        op = branches[i]
        if op is None:
            continue
        rows = np.flatnonzero(index == i)
        picked = engine.apply_batched(states[rows], op, [qubit], nb_qubits)
        if probs is not None:
            picked *= (1.0 / np.sqrt(probs[rows, i]))[:, None]
        states[rows] = picked
        nbytes += 2 * picked.nbytes
    return states, nbytes


def _sample_measurement(engine, states, meas, qubit, nb_qubits, r):
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


def _reset(engine, states, qubit, nb_qubits, r):
    """Measure ``qubit`` across the batch and flip the rows that read
    1 back to ``|0>``; returns ``(outcomes, states)``."""
    outcomes, states = _sample_measurement(
        engine, states, Measurement(qubit), qubit, nb_qubits, r
    )
    ones = np.flatnonzero(outcomes)
    if len(ones):
        states[ones] = engine.apply_batched(
            states[ones], _X, [qubit], nb_qubits
        )
    return outcomes, states


# -- the step loop -----------------------------------------------------------


def _bit_matrix_to_strings(columns: list, batch: int) -> List[str]:
    """Recorded outcome columns -> per-shot result strings."""
    if not columns:
        return [""] * batch
    mat = np.stack(columns, axis=1).astype(np.uint8) + ord("0")
    return [bytes(row).decode("ascii") for row in mat]


def execute_batch(plan, channels, noise, start, draws, dtype, inst=None):
    """Run one batch of trajectories through a compiled plan.

    ``draws`` is the pre-drawn ``(B, draws_per_shot)`` uniform matrix;
    column ``j`` holds every row's ``j``-th stochastic choice, so the
    stream is consumed shot-major.  Returns ``(results, states)``: the
    per-shot outcome strings and the final ``(B, 2**n)`` states.  With
    an enabled ``inst`` every step is timed once, around its own work,
    and accounted through a
    :class:`~repro.execution.dispatch.StepMeter` as ``B`` applies: the
    gate apply under its gate kind, each attached channel under
    ``kraus``, collapses in the measurement histogram.
    """
    engine = plan.engine
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
    # double-buffered scratch pair: gate steps flip between `states`
    # and one spare (B, dim) array, so backends that write into `out`
    # allocate nothing per step.  Noise/measurement paths below may
    # rebind `states` to fresh arrays; the spare stays disjoint either
    # way (a swap only ever retires the buffer states just left)
    spare = np.empty_like(states)
    meter = step_meter(inst, engine)

    for step in plan.steps:
        if meter is not None:
            t0 = perf_counter()
        if step.kind == GATE:
            new = engine.apply_planned_batched(
                states, step, nb_qubits, out=spare
            )
            if new is spare:
                spare = states
            states = new
            if meter is not None:
                dt = perf_counter() - t0
                meter.kernel(
                    step_kind(step), batch,
                    engine.planned_bytes(step, states, nb_qubits), dt,
                )
            channel = channels.get(type(step.op))
            if channel is not None:
                needs_draw = len(channel.kraus) > 1
                for q in step.noise_qubits:
                    if meter is not None:
                        t0 = perf_counter()
                    r = None
                    if needs_draw:
                        r = draws[:, col]
                        col += 1
                    states, nbytes = _apply_channel(
                        engine, states, channel, q, nb_qubits, r
                    )
                    if meter is not None:
                        dt = perf_counter() - t0
                        meter.kernel(KRAUS, batch, nbytes, dt)
            continue
        if step.kind == MEASURE:
            outcomes, states = _sample_measurement(
                engine, states, step.op, step.qubit, nb_qubits,
                draws[:, col],
            )
            col += 1
            if noise.readout_error > 0.0:
                flips = draws[:, col] < noise.readout_error
                col += 1
                outcomes = outcomes ^ flips.astype(np.int64)
            recorded.append(outcomes)
            if meter is not None:
                meter.collapse("measure", perf_counter() - t0)
            continue
        # RESET
        outcomes, states = _reset(
            engine, states, step.qubit, nb_qubits, draws[:, col]
        )
        col += 1
        if step.op.record:
            recorded.append(outcomes)
        if meter is not None:
            meter.collapse("reset", perf_counter() - t0)
    if meter is not None:
        meter.flush()

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
        plan, channels, noise, start, draws, opts.dtype
    )
    return results, (states if keep_states else None)
