"""The unified execution core: request -> job -> result.

Every run path of the toolbox — state-vector, density-matrix, serial
and batched Monte-Carlo trajectories, and vectorized parameter sweeps
— executes through this package:

:class:`ExecutionRequest`
    One run as plain data: circuit reference, resolved
    :class:`~repro.simulation.SimulationOptions`, seed, parameter
    bindings, and kind-specific extras.

:class:`Job`
    The handle :meth:`Executor.submit` returns: a
    ``PENDING -> COMPILED -> RUNNING -> DONE/FAILED`` state machine
    carrying the compiled plan, per-stage timings, run statistics and
    any captured error.

:class:`Executor`
    The pipeline driver — owns plan-cache access, backend resolution,
    instrumentation/recorder hooks, and a thread-safe submit path.

The dispatch loops themselves live in the sibling modules
(:mod:`~repro.execution.dispatch`, :mod:`~repro.execution.density`,
:mod:`~repro.execution.trajectory`) — the ONLY place compiled plans
are replayed, which is what keeps spans, flight-recorder events,
metrics and seed contracts consistent across engines.

>>> from repro import QCircuit
>>> from repro.gates import Hadamard
>>> from repro.execution import ExecutionRequest, default_executor
>>> circuit = QCircuit(1)
>>> _ = circuit.push_back(Hadamard(0))
>>> job = default_executor().submit(ExecutionRequest(circuit))
>>> job.state
'DONE'
>>> len(job.result().states[0])
2
"""

from repro.execution.request import (
    DENSITY,
    REQUEST_KINDS,
    STATEVECTOR,
    SWEEP,
    TRAJECTORY,
    TRAJECTORY_BATCH,
    ExecutionRequest,
)
from repro.execution.job import (
    COMPILED,
    DONE,
    FAILED,
    JOB_STATES,
    PENDING,
    RUNNING,
    Job,
    JobTimings,
)
from repro.execution.executor import Executor, default_executor

__all__ = [
    "ExecutionRequest",
    "STATEVECTOR",
    "DENSITY",
    "TRAJECTORY",
    "TRAJECTORY_BATCH",
    "SWEEP",
    "REQUEST_KINDS",
    "Job",
    "JobTimings",
    "PENDING",
    "COMPILED",
    "RUNNING",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "Executor",
    "default_executor",
]
