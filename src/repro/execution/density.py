"""Density-matrix dispatch — the exact open-system step loop.

:func:`run_density_plan` walks a compiled plan once per branch set and
returns raw branches.  The public entry point and the
:class:`~repro.simulation.DensitySimulation` result object live in
:mod:`repro.simulation.density_sim`.

A ``2^n x 2^n`` density matrix is a state vector of ``2n`` qubits: row
qubit ``q`` is qubit ``q`` and column qubit ``q`` is qubit ``q + n``.
So ``U rho U^dagger`` is ``U`` on the row qubits followed by ``conj(U)``
on the column qubits, and a channel is one ``4 x 4`` superoperator
``S = sum_k K_k (x) conj(K_k)`` on the pair ``(q, q + n)`` (the
Liouville form), each through the backend's plain ``apply``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.circuit.measurement import Measurement
from repro.exceptions import StateError
from repro.execution.dispatch import KRAUS, step_kind, step_meter
from repro.simulation.plan import GATE, MEASURE
from repro.simulation.state import initial_state

__all__ = ["DensityBranch", "initial_density", "run_density_plan"]

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


@dataclass
class DensityBranch:
    """One measurement branch of a density-matrix simulation."""

    probability: float
    rho: np.ndarray
    result: str


def _conjugate(engine, rho, kernel, targets, nb_qubits, controls=(),
               control_states=(), diagonal=False):
    """``K rho K^dagger``: ``K`` on the row qubits of the ``(dim, dim)``
    array, then ``conj(K)`` on the column qubits of its ``2n``-qubit
    flattening.  May update ``rho`` in place."""
    rows = engine.apply(
        rho, kernel, targets, nb_qubits, controls, control_states, diagonal
    )
    both = engine.apply(
        rows.reshape(-1), np.conj(kernel), [t + nb_qubits for t in targets],
        2 * nb_qubits, [c + nb_qubits for c in controls], control_states,
        diagonal,
    )
    return both.reshape(rho.shape)


def _measure_density(engine, branches, meas, qubit, nb_qubits, atol):
    """Selective measurement: split every branch on the outcome."""
    out = []
    non_z = meas.basis != "z"
    left, right = 1 << qubit, 1 << (nb_qubits - 1 - qubit)
    for branch in branches:
        rho = branch.rho
        if non_z:
            rho = _conjugate(
                engine, rho, meas.basis_change, [qubit], nb_qubits
            )
        # rows (left, bit, right) times columns (left, bit, right), with
        # the row's right and the column's left merged into one axis
        view = rho.reshape(left, 2, right * left, 2, right)
        for outcome in (0, 1):
            projected = np.zeros_like(rho)
            block = projected.reshape(view.shape)
            block[:, outcome, :, outcome] = view[:, outcome, :, outcome]
            p = float(np.real(np.trace(projected)))
            if p <= atol:
                continue
            collapsed = projected / p
            if non_z:
                collapsed = _conjugate(
                    engine, collapsed, meas.basis_change_dagger, [qubit],
                    nb_qubits,
                )
            out.append(
                DensityBranch(
                    branch.probability * p,
                    collapsed,
                    branch.result + str(outcome),
                )
            )
    return out


def _flip_readouts(branches, p):
    """Classical readout error: each branch splits into kept/flipped."""
    out = []
    for b in branches:
        kept = DensityBranch(b.probability * (1 - p), b.rho, b.result)
        flipped_result = b.result[:-1] + ("1" if b.result[-1] == "0" else "0")
        # its own copy: later steps update a branch's rho in place
        flipped = DensityBranch(b.probability * p, b.rho.copy(),
                                flipped_result)
        out.extend([kept, flipped])
    return out


def _reset_density(engine, branches, op, qubit, nb_qubits, atol):
    """Non-selective reset: project both outcomes, map 1 -> 0, merge."""
    split = _measure_density(
        engine, branches, Measurement(op.qubit), qubit, nb_qubits, atol
    )
    for b in split:
        if b.result[-1] == "1":
            b.rho = _conjugate(engine, b.rho, _PAULI_X, [qubit], nb_qubits)
        if not op.record:
            b.result = b.result[:-1]
    return split


def initial_density(start, nb_qubits, dtype) -> np.ndarray:
    """Initial ``2^n x 2^n`` density matrix from a start specifier
    (bitstring, state vector, or density matrix; ``None`` = all zeros)."""
    dim = 1 << nb_qubits
    arr = np.asarray(start) if not isinstance(start, str) else None
    if arr is not None and arr.ndim == 2:
        rho0 = np.array(arr, dtype=dtype)
        if rho0.shape != (dim, dim):
            raise StateError(
                f"density matrix of shape {rho0.shape}; expected "
                f"({dim}, {dim})"
            )
        if abs(np.trace(rho0) - 1.0) > 1e-8:
            raise StateError("density matrix must have unit trace")
        return rho0
    psi = initial_state(start, nb_qubits, dtype=dtype)
    return np.outer(psi, psi.conj())


def run_density_plan(plan, rho0, noise, atol, inst=None, check=None):
    """Replay a compiled plan on a density matrix, branch-wise.

    Channels resolve per source gate via ``noise.channel_for``; readout
    errors mix branch probabilities classically after each measurement.
    With an enabled ``inst`` each step is timed once, around its own
    work, and accounted through a
    :class:`~repro.execution.dispatch.StepMeter`: one apply per branch
    for a gate step's ``U rho U^dagger``, one ``kraus`` reading per
    noisy qubit (one superoperator pass over each branch), collapses in
    the measurement histogram.  ``check`` is the cancellation hook,
    called once per plan step as in
    :func:`~repro.execution.dispatch.run_plan`.  Returns the final
    :class:`DensityBranch` list.
    """
    engine = plan.engine
    nb_qubits = plan.nb_qubits
    branches = [DensityBranch(1.0, rho0, "")]
    meter = step_meter(inst, engine)

    for step in plan.steps:
        if check is not None:
            check()
        if meter is not None:
            t0 = perf_counter()
        if step.kind == GATE:
            # the step's n-qubit plan caches (``aux``) must not meet the
            # 2n-qubit column side, so both sides use the plain apply
            for branch in branches:
                branch.rho = _conjugate(
                    engine, branch.rho, step.kernel, step.targets,
                    nb_qubits, step.controls, step.control_states,
                    step.diagonal,
                )
            if meter is not None:
                dt = perf_counter() - t0
                meter.kernel(
                    step_kind(step), len(branches),
                    2 * len(branches)
                    * engine.planned_bytes(step, rho0, nb_qubits),
                    dt,
                )
            channel = None if step.op is None else noise.channel_for(step.op)
            if channel is not None and not channel.is_identity:
                # the channel's Liouville matrix on (row q, column q)
                sop = sum(np.kron(k, np.conj(k)) for k in channel.kraus)
                for q in step.noise_qubits:
                    if meter is not None:
                        t0 = perf_counter()
                    for branch in branches:
                        branch.rho = engine.apply(
                            branch.rho.reshape(-1), sop, [q, q + nb_qubits],
                            2 * nb_qubits,
                        ).reshape(branch.rho.shape)
                    if meter is not None:
                        dt = perf_counter() - t0
                        meter.kernel(
                            KRAUS, len(branches),
                            2 * len(branches) * rho0.nbytes, dt,
                        )
            continue
        if step.kind == MEASURE:
            branches = _measure_density(
                engine, branches, step.op, step.qubit, nb_qubits, atol
            )
            if noise.readout_error > 0.0:
                branches = _flip_readouts(branches, noise.readout_error)
            if meter is not None:
                meter.collapse("measure", perf_counter() - t0)
            continue
        # RESET
        branches = _reset_density(
            engine, branches, step.op, step.qubit, nb_qubits, atol
        )
        if meter is not None:
            meter.collapse("reset", perf_counter() - t0)
    if meter is not None:
        meter.flush()
    return branches
