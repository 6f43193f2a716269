"""Exact density-matrix simulation (extension).

Evolves the full density matrix ``rho`` (``2^n x 2^n``) instead of a
state vector.  ``rho`` is treated as a state of ``2n`` qubits (row
qubit ``q`` is qubit ``q``, column qubit ``q`` is qubit ``q + n``):
gates act as ``U rho U^dagger`` by applying ``U`` on the row qubits and
``conj(U)`` on the column qubits, noise channels act *exactly* as one
``4 x 4`` superoperator ``sum_k K_k (x) conj(K_k)`` on ``(q, q + n)``,
and measurements branch selectively like the state-vector simulator.

:func:`simulate_density` is a thin wrapper over the unified execution
core: it resolves options and submits one ``DENSITY``
:class:`~repro.execution.ExecutionRequest`; the step loop itself lives
in :mod:`repro.execution.density`.

This is the exact counterpart of the Monte-Carlo trajectory engine in
:mod:`repro.noise.trajectory` — the test-suite cross-validates the two,
which is the strongest correctness check available for open-system
simulation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.execution.density import DensityBranch
from repro.noise.model import NoiseModel
from repro.simulation.options import (
    SimulationOptions,
    resolve_simulation_options,
)

__all__ = ["DensityBranch", "DensitySimulation", "simulate_density"]


class DensitySimulation:
    """Result of :func:`simulate_density`.

    ``results`` / ``probabilities`` / ``rhos`` mirror the state-vector
    :class:`~repro.simulation.simulate.Simulation`; ``rho`` gives the
    outcome-averaged (non-selective) density matrix.
    """

    def __init__(self, nb_qubits: int, branches: List[DensityBranch]):
        self._nb_qubits = nb_qubits
        self._branches = branches

    @property
    def nbQubits(self) -> int:
        """Register width."""
        return self._nb_qubits

    @property
    def branches(self) -> List[DensityBranch]:
        """All measurement branches."""
        return list(self._branches)

    @property
    def results(self) -> List[str]:
        """Outcome strings per branch."""
        return [b.result for b in self._branches]

    @property
    def probabilities(self) -> np.ndarray:
        """Branch probabilities."""
        return np.array([b.probability for b in self._branches])

    @property
    def rhos(self) -> List[np.ndarray]:
        """Post-measurement density matrices per branch."""
        return [b.rho for b in self._branches]

    @property
    def rho(self) -> np.ndarray:
        """The outcome-averaged density matrix ``sum_b p_b rho_b``."""
        dim = 1 << self._nb_qubits
        out = np.zeros((dim, dim), dtype=np.complex128)
        for b in self._branches:
            out += b.probability * b.rho
        return out

    def outcome_distribution(self) -> dict:
        """``{result: probability}`` over recorded outcomes."""
        dist: dict = {}
        for b in self._branches:
            dist[b.result] = dist.get(b.result, 0.0) + b.probability
        return dist

    def __repr__(self) -> str:
        return (
            f"DensitySimulation(nbQubits={self._nb_qubits}, "
            f"nbBranches={len(self._branches)})"
        )


def simulate_density(
    circuit,
    start=None,
    noise: Optional[NoiseModel] = None,
    options: Optional[SimulationOptions] = None,
) -> DensitySimulation:
    """Exact (noisy) density-matrix simulation of a circuit.

    Parameters
    ----------
    circuit:
        The :class:`~repro.circuit.QCircuit`.
    start:
        Bitstring, state vector, or density matrix (``2^n x 2^n``);
        ``None`` means ``|0...0>``.
    noise:
        Optional :class:`~repro.noise.NoiseModel`; channels are applied
        **exactly** (one superoperator ``sum_k K_k (x) conj(K_k)`` per
        noisy qubit), readout errors mix branch probabilities
        classically.
    options:
        A :class:`~repro.simulation.SimulationOptions` (or a dict of
        its fields) — the same object every simulation entry point
        accepts.

    The request executes through the shared
    :class:`~repro.execution.Executor` pipeline: the circuit compiles
    through the same plan cache as every other engine (gate fusion is
    disabled automatically while a non-trivial noise model is active,
    because channels attach per source gate) and the step loop in
    :mod:`repro.execution.density` replays it branch-wise.
    """
    from repro.execution.executor import default_executor
    from repro.execution.request import DENSITY, ExecutionRequest

    opts = resolve_simulation_options(options)
    job = default_executor().submit(
        ExecutionRequest(
            circuit,
            kind=DENSITY,
            start=start,
            options=opts,
            noise=noise,
        )
    )
    return job.result()


from repro.simulation.backends import register_engine  # noqa: E402

register_engine("density", "density", simulate_density)
