"""Monte-Carlo trajectories — the :class:`Sampling` collapse policy.

:func:`execute_batch` runs ``B`` shots as the ``B`` rows of one
:func:`~repro.execution.dispatch.run_plan` stack: every compiled plan
step executes once across the whole batch, and all stochastic choices
(Kraus selection, measurement collapse, readout flips) are vectorized
over the rows by the :class:`Sampling` policy.  A single trajectory is
a one-row batch.

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

import numpy as np

from repro.execution.dispatch import KRAUS, run_plan
from repro.simulation.plan import GATE, MEASURE, get_plan
from repro.simulation.state import initial_state

__all__ = [
    "Sampling",
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


class Sampling:
    """The trajectory collapse policy (see
    :class:`~repro.execution.dispatch.Branching` for the hooks).

    ``draws`` is the pre-drawn ``(B, draws_per_shot)`` uniform matrix;
    column ``j`` holds every row's ``j``-th stochastic choice and the
    hooks consume the columns in plan order: one per Kraus site with
    more than one operator, one per measurement collapse followed by
    one per readout check, one per reset.
    """

    def __init__(self, draws, channels, readout_error):
        self._draws = draws
        self._col = 0
        self._channels = channels
        self._readout_error = readout_error

    def _uniforms(self):
        r = self._draws[:, self._col]
        self._col += 1
        return r

    def choose(self, blocks, qubit, nb_qubits):
        """Each row's outcome from its own uniform, as
        ``(None, outcomes, probs)``: every row collapses in place, so
        the batch stays the one block it started as."""
        (states,) = blocks
        view = states.reshape(states.shape[0], 1 << qubit, 2, -1)
        p1 = np.sum(np.abs(view[:, :, 1, :]) ** 2, axis=(1, 2))
        outcomes = (self._uniforms() < p1).astype(np.int64)
        return None, outcomes, np.where(outcomes.astype(bool), p1, 1.0 - p1)

    def observed(self, outcomes):
        """Readout error: flip each recorded bit with its probability."""
        if self._readout_error > 0.0:
            flips = self._uniforms() < self._readout_error
            outcomes = outcomes ^ flips.astype(np.int64)
        return outcomes

    def noise(self, engine, states, step, nb_qubits, meter):
        """The channel attached to the step's gate, on each noisy
        qubit; each one reading under ``kind="kraus"``."""
        channel = self._channels.get(type(step.op))
        if channel is None:
            return states
        needs_draw = len(channel.kraus) > 1
        for q in step.noise_qubits:
            t0 = perf_counter()
            r = self._uniforms() if needs_draw else None
            states, nbytes = _apply_channel(
                engine, states, channel, q, nb_qubits, r
            )
            if meter is not None:
                meter.kernel(KRAUS, len(states), nbytes, perf_counter() - t0)
        return states


def execute_batch(plan, channels, noise, start, draws, dtype, inst=None,
                  check=None):
    """Run one batch of trajectories through a compiled plan.

    ``draws`` is the pre-drawn ``(B, draws_per_shot)`` uniform matrix,
    consumed shot-major by a :class:`Sampling` policy.  Returns
    ``(results, states)``: the per-shot outcome strings and the final
    ``(B, 2**n)`` states.  ``inst`` and ``check`` are
    :func:`~repro.execution.dispatch.run_plan`'s.
    """
    base = initial_state(start, plan.nb_qubits, dtype)
    replay = run_plan(
        plan, np.tile(base, (draws.shape[0], 1)), None, inst, check,
        policy=Sampling(draws, channels, noise.readout_error), span=None,
    )
    (states,) = replay.blocks
    return replay.results, states


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
