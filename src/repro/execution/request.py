"""The :class:`ExecutionRequest` — everything one run needs, as data.

A request is the frozen input half of the execution core's contract: a
circuit reference, the fully resolved
:class:`~repro.simulation.SimulationOptions`, the seed, any parameter
bindings, and the kind-specific extras (noise model, shot count, sweep
value matrix).  Because a request is plain data, it can be validated
once at construction, logged, hashed for a result cache, or shipped to
a worker — which is exactly what the service gateway
(``python -m repro.serve``) will do with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.exceptions import SimulationError
from repro.simulation.options import SimulationOptions

__all__ = [
    "STATEVECTOR",
    "DENSITY",
    "TRAJECTORY",
    "TRAJECTORY_BATCH",
    "SWEEP",
    "REQUEST_KINDS",
    "ExecutionRequest",
]

#: Request kinds — one per execution pipeline the executor can drive.
STATEVECTOR = "statevector"
DENSITY = "density"
TRAJECTORY = "trajectory"
TRAJECTORY_BATCH = "trajectory-batch"
SWEEP = "sweep"

#: Every kind the executor accepts.
REQUEST_KINDS = (STATEVECTOR, DENSITY, TRAJECTORY, TRAJECTORY_BATCH, SWEEP)


@dataclass
class ExecutionRequest:
    """One unit of work for an :class:`~repro.execution.Executor`.

    Parameters
    ----------
    circuit:
        The :class:`~repro.circuit.QCircuit` to execute.
    kind:
        Which pipeline to run — one of :data:`REQUEST_KINDS`.
    start:
        Initial state specifier (bitstring, vector, or — for density
        runs — a density matrix); ``None`` means all-zeros.
    options:
        A resolved :class:`~repro.simulation.SimulationOptions` (plain
        dicts are accepted and coerced).
    seed:
        Seed or :class:`numpy.random.Generator` for stochastic
        pipelines (trajectories) and shot-sampling defaults.  Falls
        back to ``options.seed`` when ``None``.
    param_values:
        Normalized ``{Parameter: value}`` binding for parametric
        circuits (statevector runs).
    noise:
        A :class:`~repro.noise.NoiseModel` for density/trajectory
        pipelines (``None`` = noiseless).
    shots:
        Shot count for ``TRAJECTORY_BATCH`` requests.
    values, parameters:
        Sweep value matrix and optional explicit column order for
        ``SWEEP`` requests.
    return_states:
        Whether a batched-trajectory result keeps the final
        ``(shots, 2**n)`` state matrix.
    """

    circuit: Any
    kind: str = STATEVECTOR
    start: Any = None
    options: SimulationOptions = field(default_factory=SimulationOptions)
    seed: Any = None
    param_values: Optional[dict] = None
    noise: Any = None
    shots: int = 0
    values: Any = None
    parameters: Any = None
    return_states: bool = False

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise SimulationError(
                f"unknown execution kind {self.kind!r}; expected one "
                f"of {', '.join(REQUEST_KINDS)}"
            )
        if self.options is None:
            self.options = SimulationOptions()
        elif isinstance(self.options, dict):
            self.options = SimulationOptions(**self.options)
        elif not isinstance(self.options, SimulationOptions):
            raise SimulationError(
                "options must be a SimulationOptions (or dict), got "
                f"{type(self.options).__name__}"
            )
        if self.seed is None:
            self.seed = self.options.seed
        if self.kind == TRAJECTORY_BATCH and int(self.shots) < 0:
            raise SimulationError(
                f"shots must be >= 0, got {self.shots}"
            )

    def __repr__(self) -> str:
        nq = getattr(self.circuit, "nbQubits", "?")
        return (
            f"ExecutionRequest(kind={self.kind!r}, nbQubits={nq}, "
            f"backend={self.options.backend!r})"
        )
