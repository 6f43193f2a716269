"""Monte-Carlo wavefunction (quantum trajectory) simulation.

Instead of tracking every measurement branch (as
:func:`repro.simulation.simulate` does), a trajectory run samples ONE
path: each measurement collapses randomly according to its outcome
probabilities and each noise channel applies one Kraus operator drawn
with probability ``||K_i psi||^2``.  Averaging over shots reproduces
the open-system statistics exactly, at state-vector cost per shot.

Two entry points share this module — both thin wrappers submitting a
request to the unified execution core, whose one replay loop
(:func:`repro.execution.dispatch.run_plan`) runs each batch of shots
on one stack (:func:`repro.execution.trajectory.execute_batch`):

:func:`run_trajectory`
    One shot, one ``(2**n,)`` state: a one-shot batch.

:func:`run_trajectories_batched`
    ``B`` shots per batch on one ``(rows, 2**n)`` stack whose rows are
    the batch's distinct states: it starts as one row holding every
    shot and splits a row only where its shots draw different
    branches, so every compiled plan step executes ONCE across the
    live rows and all stochastic choices (Kraus selection, measurement
    collapse, readout flips) are vectorized over the shots.  Shot
    counts beyond one batch fan out over worker processes.  Shot ``i``
    consumes its own fixed slice of the seed stream, so for a fixed
    seed the outcomes are independent of ``batch_size`` and
    ``max_workers``, and identical to a loop of :func:`run_trajectory`
    calls sharing one generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.noise.model import NoiseModel
from repro.observability.instrument import (
    activate,
    resolve_instrumentation,
)
from repro.observability.metrics import SHOTS_SAMPLED
from repro.simulation.options import (
    SimulationOptions,
    resolve_simulation_options,
)

__all__ = [
    "TrajectoryResult",
    "BatchedTrajectoryResult",
    "run_trajectory",
    "run_trajectories_batched",
    "noisy_counts",
]


@dataclass
class TrajectoryResult:
    """One sampled path: recorded outcomes and the final state."""

    result: str
    state: np.ndarray


@dataclass
class BatchedTrajectoryResult:
    """All sampled paths of one batched run.

    ``results`` lists the per-shot outcome strings in shot order —
    identical to what a serial :func:`run_trajectory` loop sharing one
    generator would produce for the same seed.  ``counts`` aggregates
    them into a histogram ordered lexicographically by bitstring.
    """

    results: List[str]
    shots: int
    batch_size: int
    workers: int
    #: Final ``(shots, 2**n)`` states when requested, else ``None``.
    states: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def counts(self) -> Dict[str, int]:
        """``{outcome: count}``, insertion-ordered by bitstring."""
        return dict(sorted(Counter(self.results).items()))


def run_trajectory(
    circuit,
    noise: Optional[NoiseModel] = None,
    rng=None,
    start=None,
    backend=None,
    options: Optional[SimulationOptions] = None,
) -> TrajectoryResult:
    """Sample a single noisy run of ``circuit``.

    Parameters
    ----------
    circuit:
        The :class:`~repro.circuit.QCircuit` to run.
    noise:
        A :class:`NoiseModel` (``None`` = noiseless trajectory).
    rng:
        Seed or :class:`numpy.random.Generator`.
    start:
        Initial state (bitstring or vector).
    backend:
        Backend name or instance; overrides ``options``.
    options:
        A :class:`~repro.simulation.SimulationOptions`; the circuit is
        executed through a compiled plan, so repeated trajectories of
        the same circuit reuse one compilation.  Gate fusion is
        disabled automatically while a non-trivial noise model is
        active (channels attach per source gate).
    """
    from repro.execution.executor import default_executor
    from repro.execution.request import TRAJECTORY, ExecutionRequest

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    opts = resolve_simulation_options(options)
    if backend is not None:
        opts = opts.replace(backend=backend)
    job = default_executor().submit(
        ExecutionRequest(
            circuit,
            kind=TRAJECTORY,
            start=start,
            options=opts,
            seed=rng,
            noise=noise,
        )
    )
    return job.result()


def run_trajectories_batched(
    circuit,
    noise: Optional[NoiseModel] = None,
    shots: int = 1000,
    seed=None,
    start=None,
    backend=None,
    options: Optional[SimulationOptions] = None,
    return_states: bool = False,
) -> BatchedTrajectoryResult:
    """Sample ``shots`` noisy trajectories through the batched engine.

    The shots are partitioned into batches of
    ``options.batch_size`` shots (memory-aware default) and each batch
    executes on ONE stack of at most ``batch_size`` rows, one per
    distinct state: the batch starts as one row holding every shot,
    every compiled plan step is applied once across the live rows, and
    the stochastic choices are vectorized over the shots — Kraus
    selection via one uniform per shot and a cumulative-probability
    scan, measurement collapse via per-shot outcome sampling, readout
    error as a per-shot bit flip.  Only where the shots of a row pick
    different branches is the row copied; each branch is applied to
    the rows that drew it (identity rows of a Pauli channel are not
    touched).

    The seed stream is drawn from in batch order: an inline run draws
    each batch's uniforms just before the batch runs, and with
    ``options.max_workers > 1`` (a process-pool fan-out) the parent
    draws every batch's uniforms *before* dispatch.  Either way the
    outcome sequence is bit-reproducible for a fixed seed regardless
    of the batch size and worker count — and identical to a serial
    :func:`run_trajectory` loop sharing one generator.

    ``return_states=True`` additionally gathers each shot's final
    state from its row into a ``(shots, 2**n)`` array on the result
    (memory permitting); without it no per-shot states are built.
    """
    from repro.execution.executor import default_executor
    from repro.execution.request import (
        TRAJECTORY_BATCH,
        ExecutionRequest,
    )

    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    opts = resolve_simulation_options(options)
    if backend is not None:
        opts = opts.replace(backend=backend)
    job = default_executor().submit(
        ExecutionRequest(
            circuit,
            kind=TRAJECTORY_BATCH,
            start=start,
            options=opts,
            seed=rng,
            noise=noise,
            shots=int(shots),
            return_states=bool(return_states),
        )
    )
    return job.result()


def noisy_counts(
    circuit,
    noise: Optional[NoiseModel] = None,
    shots: int = 1000,
    seed=None,
    start=None,
    backend=None,
    options: Optional[SimulationOptions] = None,
) -> Dict[str, int]:
    """Outcome histogram over ``shots`` independent noisy trajectories.

    Executes through the batched engine
    (:func:`run_trajectories_batched`): all shots replay one compiled
    plan and each plan step runs once per batch, across its distinct
    states, so the per-shot cost is linear algebra rather than
    interpreter overhead.
    For a fixed seed the histogram is identical to a
    :func:`run_trajectory` loop's, independent of
    ``batch_size``/``max_workers``.  The
    returned dict is insertion-ordered by bitstring.
    """
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    opts = resolve_simulation_options(options)
    if backend is not None:
        opts = opts.replace(backend=backend)
    inst = resolve_instrumentation(opts.trace, opts.metrics)
    if inst.enabled:
        # share this run's tracer/registry with the batched engine
        # instead of letting it allocate fresh ones
        opts = opts.replace(trace=inst.tracer, metrics=inst.metrics)
    with activate(inst), inst.span("noisy_counts", shots=int(shots)):
        if inst.enabled:
            inst.metrics.counter(
                SHOTS_SAMPLED, "shots sampled via counts()"
            ).inc(int(shots))
        return run_trajectories_batched(
            circuit, noise, shots=shots, seed=rng, start=start,
            options=opts,
        ).counts
