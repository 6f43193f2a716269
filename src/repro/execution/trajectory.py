"""Monte-Carlo trajectories — the :class:`Sampling` collapse policy.

:func:`execute_batch` runs a batch of ``B`` shots through one
:func:`~repro.execution.dispatch.run_plan` stack whose rows are the
batch's distinct states: it starts as one row that holds every shot,
and a stochastic step (Kraus selection, measurement collapse, reset)
appends a row only where the shots of a row pick different branches.
Every compiled plan step executes once across the live rows, so shots
that share a state share its cost; the :class:`Sampling` policy keeps
the shot-to-row map and vectorizes each choice over the shots.
Outcomes and readout flips are per shot.  A single trajectory is a
one-shot batch.

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
from repro.simulation.plan import GATE, MEASURE, PlanStep, get_plan
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


class Sampling:
    """The trajectory collapse policy (see
    :class:`~repro.execution.dispatch.Branching` for the hooks).

    A stack row is a state plus the shots that reached it:
    ``shot_row[i]`` is the row of shot ``i``, and the batch starts as
    one row that holds every shot.  At each stochastic step (a Kraus
    site, a measurement or a reset) every shot picks its branch from
    its own uniform; a row whose shots all pick alike is updated in
    place, and otherwise the shots of each further pick move to a copy
    appended to the stack (:meth:`_split`).  Rows past the live ones
    are room for those copies, up to one row per shot.  Recorded
    outcomes and readout flips are per shot.

    ``draws`` is the pre-drawn ``(B, draws_per_shot)`` uniform matrix;
    column ``j`` holds every shot's ``j``-th stochastic choice and the
    hooks consume the columns in plan order: one per Kraus site with
    more than one operator, one per measurement collapse followed by
    one per readout check, one per reset.
    """

    def __init__(self, draws, channels, readout_error):
        self._draws = draws
        self._col = 0
        self._channels = channels
        self._readout_error = readout_error
        self.shot_row = np.zeros(draws.shape[0], dtype=np.intp)
        self._branch_steps: dict = {}

    def _branch_step(self, op, qubit, dtype):
        """The batch's one plan step for Kraus branch ``op`` on
        ``qubit``, so that the engine derives its operands (the
        ``kron`` operator, the sparse extended operator) once per batch
        and keeps them on the step."""
        key = (id(op), qubit)
        hit = self._branch_steps.get(key)
        if hit is not None and hit[0] is op:
            return hit[1]
        step = PlanStep(GATE)
        step.kernel = np.ascontiguousarray(op, dtype=dtype)
        step.targets = (qubit,)
        self._branch_steps[key] = (op, step)
        return step

    def _uniforms(self):
        r = self._draws[:, self._col]
        self._col += 1
        return r

    def _split(self, blocks, rows, picks, width):
        """Split the live rows where their shots' ``picks`` (one per
        shot, each below ``width``) disagree: a row keeps the shots of
        its lowest pick, and the shots of every other pick move to a
        copy of the row appended past the live rows, in ``(row, pick)``
        order (a block without that room first moves into one of a row
        per shot).  Returns ``(blocks, parents, row_picks)``:
        ``parents`` maps every row to the row it copies (``None`` when
        no row split) and ``row_picks`` holds each row's pick."""
        shot_row = self.shot_row
        if rows >= len(shot_row):  # a row per shot: nothing can split
            row_picks = np.zeros(rows, dtype=picks.dtype)
            row_picks[shot_row] = picks
            return blocks, None, row_picks
        row_picks = np.full(rows, width, dtype=picks.dtype)
        np.minimum.at(row_picks, shot_row, picks)
        moving = np.flatnonzero(picks != row_picks[shot_row])
        if not len(moving):
            return blocks, None, row_picks
        # one new row per distinct (row, pick) key, found by marking
        # the keys in a table (cheaper than sorting them)
        keys = shot_row[moving] * width + picks[moving]
        seen = np.zeros(rows * width, dtype=bool)
        seen[keys] = True
        found = np.flatnonzero(seen)
        extra, extra_picks = np.divmod(found, width)
        shot_row[moving] = rows + np.searchsorted(found, keys)
        (block,) = blocks
        grown = rows + len(extra)
        if len(block) < grown:
            room = np.empty((len(shot_row), block.shape[1]), block.dtype)
            room[:rows] = block[:rows]
            block = room
        block[rows:grown] = block[extra]
        return (
            [block], np.concatenate([np.arange(rows), extra]),
            np.concatenate([row_picks, extra_picks]),
        )

    def choose(self, blocks, rows, qubit, nb_qubits):
        """Each shot's outcome from its own uniform; rows whose shots
        disagree split (:meth:`_split`).  Returns ``(blocks, parents,
        outcomes, probs)`` with one outcome and probability per row."""
        (block,) = blocks
        view = block[:rows].reshape(rows, 1 << qubit, 2, -1)
        p1 = np.sum(np.abs(view[:, :, 1, :]) ** 2, axis=(1, 2))
        picks = (self._uniforms() < p1[self.shot_row]).astype(np.int64)
        blocks, parents, outcomes = self._split(blocks, rows, picks, 2)
        if parents is not None:
            p1 = p1[parents]
        return (
            blocks, parents, outcomes,
            np.where(outcomes.astype(bool), p1, 1.0 - p1),
        )

    def observed(self, outcomes, measured):
        """Each shot's row outcome; a measurement's recorded bit is
        then flipped with the readout-error probability."""
        outcomes = outcomes[self.shot_row]
        if measured and self._readout_error > 0.0:
            flips = self._uniforms() < self._readout_error
            outcomes = outcomes ^ flips.astype(np.int64)
        return outcomes

    def noise(self, engine, blocks, rows, step, nb_qubits, meter):
        """The channel attached to the step's gate, on each noisy
        qubit; each one reading under ``kind="kraus"``, counted in
        shots.  Returns ``(blocks, parents)``, ``parents`` as
        :meth:`_split`'s across the step's sites."""
        channel = self._channels.get(type(step.op))
        if channel is None:
            return blocks, None
        needs_draw = len(channel.kraus) > 1
        parents = None
        for q in step.noise_qubits:
            t0 = perf_counter()
            r = self._uniforms() if needs_draw else None
            blocks, grown, nbytes = self._channel(
                engine, blocks, rows, channel, q, nb_qubits, r
            )
            if grown is not None:
                parents = grown if parents is None else parents[grown]
                rows = len(grown)
            if meter is not None:
                meter.kernel(
                    KRAUS, len(self.shot_row), nbytes, perf_counter() - t0
                )
        return blocks, parents

    def _channel(self, engine, blocks, rows, channel, qubit, nb_qubits, r):
        """One Monte-Carlo Kraus site on the live rows.

        ``r`` holds one uniform per shot, ``None`` for a
        single-operator channel (no draw; its operator is applied and
        renormalized).  :meth:`NoiseChannel.select` picks each shot's
        branch; rows split where their shots disagree, and each branch
        is applied to its rows only, so identity rows stay untouched.
        Returns ``(blocks, parents, nbytes)``.
        """
        (block,) = blocks
        if r is None:
            out = engine.apply_planned_batched(
                block[:rows],
                self._branch_step(channel.kraus[0], qubit, block.dtype),
                nb_qubits,
            )
            out /= np.linalg.norm(out, axis=1)[:, None]
            return [out], None, 2 * out.nbytes
        index, branches, probs = channel.select(
            block[:rows], qubit, r, self.shot_row
        )
        nbytes = 0 if probs is None else rows * block[0].nbytes
        blocks, parents, picks = self._split(
            blocks, rows, index, len(branches)
        )
        if parents is not None:
            rows = len(parents)
            if probs is not None:
                probs = probs[parents]
        states = blocks[0][:rows]
        for i in np.flatnonzero(np.bincount(picks, minlength=len(branches))):
            op = branches[i]
            if op is None:
                continue
            sel = np.flatnonzero(picks == i)
            picked = engine.apply_planned_batched(
                states[sel], self._branch_step(op, qubit, states.dtype),
                nb_qubits,
            )
            if probs is not None:
                picked *= (1.0 / np.sqrt(probs[sel, i]))[:, None]
            states[sel] = picked
            nbytes += 2 * picked.nbytes
        return blocks, parents, nbytes


def execute_batch(plan, channels, noise, start, draws, dtype, inst=None,
                  check=None, keep_states=True):
    """Run one batch of trajectories through a compiled plan.

    ``draws`` is the pre-drawn ``(B, draws_per_shot)`` uniform matrix,
    consumed shot-major by a :class:`Sampling` policy.  Returns
    ``(results, states)``: the per-shot outcome strings and, when
    ``keep_states``, the final ``(B, 2**n)`` per-shot states (gathered
    from the shared rows), else ``None``.  ``inst`` and ``check`` are
    :func:`~repro.execution.dispatch.run_plan`'s.
    """
    replay = run_plan(
        plan, initial_state(start, plan.nb_qubits, dtype), None, inst,
        check, policy=Sampling(draws, channels, noise.readout_error),
        span=None,
    )
    (rows,) = replay.blocks
    return replay.results, (rows[replay.shot_row] if keep_states else None)


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
    return execute_batch(
        plan, channels, noise, start, draws, opts.dtype,
        keep_states=keep_states,
    )
