"""Density-matrix dispatch — the exact open-system step loop.

Moved here from :mod:`repro.simulation.density_sim` so the execution
core owns every plan-replay loop: :func:`run_density_plan` walks a
compiled plan once per branch set, applying gates as
``U rho U^dagger``, channels exactly as ``sum_k K_k rho K_k^dagger``,
and measurements selectively.  The public entry point and the
:class:`~repro.simulation.DensitySimulation` result object stay in
``density_sim``; this module returns raw branches.
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
from repro.utils.bits import gather_indices

__all__ = ["DensityBranch", "initial_density", "run_density_plan"]


@dataclass
class DensityBranch:
    """One measurement branch of a density-matrix simulation."""

    probability: float
    rho: np.ndarray
    result: str


def _conjugate_apply(engine, rho, kernel, qubits, nb_qubits):
    """``K rho K^dagger`` via two batched backend applications."""
    left = engine.apply(rho, kernel, qubits, nb_qubits)
    # right-multiplication by K^dagger: (K left^dagger)^dagger
    return engine.apply(
        np.ascontiguousarray(left.conj().T), kernel, qubits, nb_qubits
    ).conj().T


def _apply_channel(engine, rho, kraus, qubit, nb_qubits):
    """Exact channel action ``sum_k K_k rho K_k^dagger``."""
    out = np.zeros_like(rho)
    for k in kraus:
        out += _conjugate_apply(engine, rho.copy(), k, [qubit], nb_qubits)
    return out


def _measure_density(engine, branches, meas, qubit, nb_qubits, atol):
    """Selective measurement: split every branch on the outcome."""
    out = []
    non_z = meas.basis != "z"
    for branch in branches:
        rho = branch.rho
        if non_z:
            rho = _conjugate_apply(
                engine, rho.copy(), meas.basis_change, [qubit], nb_qubits
            )
        for outcome in (0, 1):
            idx = gather_indices(nb_qubits, [qubit], [outcome])
            projected = np.zeros_like(rho)
            projected[np.ix_(idx, idx)] = rho[np.ix_(idx, idx)]
            p = float(np.real(np.trace(projected)))
            if p <= atol:
                continue
            collapsed = projected / p
            if non_z:
                collapsed = _conjugate_apply(
                    engine,
                    collapsed,
                    meas.basis_change_dagger,
                    [qubit],
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
        flipped = DensityBranch(b.probability * p, b.rho, flipped_result)
        out.extend([kept, flipped])
    return out


def _reset_density(engine, branches, op, qubit, nb_qubits, atol):
    """Non-selective reset: project both outcomes, map 1 -> 0, merge."""
    from repro.gates import PauliX

    meas = Measurement(op.qubit)
    split = _measure_density(
        engine,
        [DensityBranch(b.probability, b.rho, b.result) for b in branches],
        meas,
        qubit,
        nb_qubits,
        atol,
    )
    out = []
    for b in split:
        outcome = b.result[-1]
        rho = b.rho
        if outcome == "1":
            x = PauliX(0).matrix
            rho = _conjugate_apply(engine, rho.copy(), x, [qubit], nb_qubits)
        result = b.result if op.record else b.result[:-1]
        out.append(DensityBranch(b.probability, rho, result))
    return out


def initial_density(start, nb_qubits, dtype) -> np.ndarray:
    """Initial ``2^n x 2^n`` density matrix from a start specifier
    (bitstring, state vector, or density matrix; ``None`` = all zeros)."""
    dim = 1 << nb_qubits
    if start is None:
        start = "0" * nb_qubits
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


def run_density_plan(plan, rho0, noise, atol, inst=None):
    """Replay a compiled plan on a density matrix, branch-wise.

    Channels resolve per source gate via ``noise.channel_for``; readout
    errors mix branch probabilities classically after each measurement.
    With an enabled ``inst`` each step is timed once, around its own
    work, and accounted through a
    :class:`~repro.execution.dispatch.StepMeter`: one apply per branch
    for a gate step's ``U rho U^dagger``, one ``kraus`` reading per
    noisy qubit, collapses in the measurement histogram.  Returns the
    final :class:`DensityBranch` list.
    """
    engine = plan.engine
    nb_qubits = plan.nb_qubits
    branches = [DensityBranch(1.0, rho0, "")]
    meter = step_meter(inst, engine)

    for step in plan.steps:
        if meter is not None:
            t0 = perf_counter()
        if step.kind == GATE:
            for branch in branches:
                # U rho U^dagger via two planned applies (column- then
                # row-wise through the conjugate transpose)
                left = engine.apply_planned(branch.rho, step, nb_qubits)
                right = engine.apply_planned(
                    np.ascontiguousarray(left.conj().T), step,
                    nb_qubits,
                )
                branch.rho = right.conj().T
            if meter is not None:
                dt = perf_counter() - t0
                meter.kernel(
                    step_kind(step), len(branches),
                    2 * len(branches)
                    * engine.planned_bytes(step, rho0, nb_qubits),
                    dt,
                )
            channel = (
                noise.channel_for(step.op)
                if step.op is not None
                else None
            )
            if channel is not None and not channel.is_identity:
                for q in step.noise_qubits:
                    if meter is not None:
                        t0 = perf_counter()
                    for branch in branches:
                        branch.rho = _apply_channel(
                            engine, branch.rho, channel.kraus, q,
                            nb_qubits,
                        )
                    if meter is not None:
                        dt = perf_counter() - t0
                        meter.kernel(
                            KRAUS, len(branches),
                            4 * len(channel.kraus) * len(branches)
                            * rho0.nbytes,
                            dt,
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
