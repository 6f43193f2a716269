"""Vectorized parameter sweeps over compiled plans.

:func:`sweep` evaluates a parametric circuit at a whole matrix of
parameter points in one pass: the circuit compiles once (the plan
cache keys parametric gates by slot identity), the ``(P, 2**n)`` state
batch initializes once, and every plan step executes a single
vectorized application across all ``P`` points — concrete steps
broadcast their one kernel over the batch, parametric steps apply a
per-point kernel stack via the backends' ``apply_planned_sweep`` hook.

This replaces the bind-per-point loop when all points are known up
front (a VQE line search, a dissociation curve, a phase diagram).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.simulation.options import (
    SimulationOptions,
    resolve_simulation_options,
)

__all__ = ["SweepResult", "sweep"]


class SweepResult:
    """Final states of a parameter sweep, one row per point.

    Thin wrapper over the ``(P, 2**n)`` state matrix adding the
    parameter axis metadata and vectorized observable evaluation.
    """

    def __init__(self, states: np.ndarray, parameters: tuple, stats):
        self._states = states
        self._parameters = parameters
        self._stats = stats

    @property
    def states(self) -> np.ndarray:
        """The ``(P, 2**n)`` final states (row ``i`` = point ``i``)."""
        return self._states

    @property
    def parameters(self) -> tuple:
        """The plan's :class:`~repro.parameter.Parameter` slots, in
        the column order used for array-form value matrices."""
        return self._parameters

    @property
    def nb_points(self) -> int:
        """Number of parameter points swept."""
        return self._states.shape[0]

    @property
    def stats(self):
        """The :class:`~repro.simulation.plan.PlanStats` of the
        underlying plan lookup (one compile for the whole sweep)."""
        return self._stats

    def probabilities(self) -> np.ndarray:
        """Per-point computational-basis probabilities, ``(P, 2**n)``."""
        return np.abs(self._states) ** 2

    def expectation(self, observable) -> np.ndarray:
        """Per-point expectation values, shape ``(P,)``.

        ``observable`` is a Pauli string, a
        :class:`~repro.simulation.observables.PauliSum`, or a dense
        Hermitian matrix; evaluation is one einsum across all points.
        """
        from repro.simulation.observables import PauliSum, pauli_matrix

        if isinstance(observable, str):
            matrix = pauli_matrix(observable)
        elif isinstance(observable, PauliSum):
            matrix = observable.matrix()
        else:
            matrix = np.asarray(observable)
        dim = self._states.shape[1]
        if matrix.shape != (dim, dim):
            raise SimulationError(
                f"observable shape {matrix.shape} does not match state "
                f"dimension {dim}"
            )
        s = self._states
        return np.einsum("pi,ij,pj->p", s.conj(), matrix, s).real

    def __len__(self) -> int:
        return self.nb_points

    def __repr__(self) -> str:
        return (
            f"SweepResult(points={self.nb_points}, "
            f"dim={self._states.shape[1]}, "
            f"parameters={[p.name for p in self._parameters]!r})"
        )


def sweep(
    circuit,
    values,
    parameters=None,
    start=None,
    options: Optional[SimulationOptions] = None,
) -> SweepResult:
    """Evaluate a parametric circuit at many parameter points at once.

    Parameters
    ----------
    circuit:
        A measurement-free :class:`~repro.circuit.QCircuit` built over
        :class:`~repro.parameter.Parameter` slots.
    values:
        A ``(P, K)`` matrix whose columns follow ``parameters`` (1-D
        arrays are treated as a single column), or a mapping from
        Parameter/name to a length-``P`` value array.
    parameters:
        Optional explicit column order for the array form; defaults to
        the plan's first-appearance order.
    start:
        Initial state specifier (default: all-zeros).
    options:
        A :class:`~repro.simulation.SimulationOptions` (or dict)
        selecting backend, dtype and fusion, as in :func:`simulate`.

    Returns
    -------
    SweepResult
        The ``(P, 2**n)`` final states with observable helpers.

    >>> import numpy as np
    >>> from repro import Parameter, QCircuit
    >>> from repro.gates import RotationY
    >>> theta = Parameter("theta")
    >>> circuit = QCircuit(1)
    >>> _ = circuit.push_back(RotationY(0, theta))
    >>> result = circuit.sweep(np.linspace(0.0, np.pi, 5))
    >>> np.round(result.expectation('z'), 6)
    array([ 1.      ,  0.707107,  0.      , -0.707107, -1.      ])
    """
    from repro.execution.executor import default_executor
    from repro.execution.request import SWEEP, ExecutionRequest

    opts = resolve_simulation_options(options)
    job = default_executor().submit(
        ExecutionRequest(
            circuit,
            kind=SWEEP,
            start=start,
            options=opts,
            values=values,
            parameters=parameters,
        )
    )
    return job.result()
