"""The unified :class:`SimulationOptions` API.

Every simulation entry point — :func:`repro.simulation.simulate`,
:meth:`repro.circuit.QCircuit.simulate` and
:func:`repro.simulation.simulate_density` — accepts the same options
object through the ``options=`` argument::

    opts = SimulationOptions(backend='sparse', atol=1e-10)
    circuit.simulate('00', options=opts)

``options=`` is the only way to configure a run; a plain dict of
fields is accepted too and turned into a :class:`SimulationOptions`
by :func:`resolve_simulation_options`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["SimulationOptions", "resolve_simulation_options"]


@dataclass(frozen=True)
class SimulationOptions:
    """Options shared by all simulation entry points.

    Parameters
    ----------
    backend:
        Registry name (``'kernel'``, ``'sparse'`` or a user-registered
        name) or a :class:`~repro.simulation.Backend` instance.
    atol:
        Probability threshold below which measurement branches are
        pruned.
    dtype:
        Working precision: ``complex128`` (default) or ``complex64``
        (mirrors QCLAB++'s single-precision template instantiation).
    seed:
        Default seed (int or :class:`numpy.random.Generator`) for
        shot sampling helpers that do not receive an explicit one.
    fuse:
        Merge adjacent same-qubit one-qubit gates and coalesce
        consecutive diagonal gates when compiling the circuit's
        :class:`~repro.simulation.CompiledPlan` (default ``True``).
        ``False`` keeps one plan step per source gate.
    trace:
        Tracing for this run: ``True`` records nested timing spans
        into a fresh :class:`~repro.observability.Tracer`, or pass a
        ``Tracer`` instance to accumulate across runs.  The default
        (``None``) inherits whatever
        :func:`repro.observability.instrument` made ambient — i.e.
        nothing, unless the call happens inside an ``instrument()``
        block.
    metrics:
        Metrics for this run: ``True`` for a fresh
        :class:`~repro.observability.MetricsRegistry`, or an explicit
        registry to share one across runs.  Defaults like ``trace``.
        When either field is set, ``Simulation.report()`` returns the
        run's :class:`~repro.observability.ProfileReport`.
    batch_size:
        Number of Monte-Carlo trajectories executed simultaneously as
        one ``(B, 2**n)`` batch by the batched trajectory engine
        (:func:`repro.noise.run_trajectories_batched`).  ``None``
        (default) picks a memory-aware size automatically; explicit
        values must be >= 1.
    max_workers:
        Process fan-out for trajectory batches: shot counts exceeding
        one batch are distributed over this many worker processes via
        :mod:`concurrent.futures`.  Results are bit-reproducible for a
        fixed seed regardless of the worker count (the parent draws
        every batch's randomness up front).  Default 1 = in-process.
    min_shots_per_worker:
        Fan-out floor: process workers are only spawned while every
        worker gets at least this many shots, so small jobs never pay
        process start-up + state pickling that dwarfs the simulation
        itself.  ``max_workers`` is the ceiling, this is the
        efficiency guard; set to 1 to force the requested fan-out.
    """

    backend: Any = "kernel"
    atol: float = 1e-12
    dtype: Any = np.complex128
    seed: Any = None
    fuse: bool = True
    trace: Any = None
    metrics: Any = None
    batch_size: Optional[int] = None
    max_workers: int = 1
    min_shots_per_worker: int = 8192

    def __post_init__(self):
        if self.atol < 0:
            raise SimulationError(f"atol must be >= 0, got {self.atol!r}")
        dt = np.dtype(self.dtype)
        if dt.kind != "c":
            raise SimulationError(
                f"dtype must be a complex floating type, got {dt}"
            )
        object.__setattr__(self, "dtype", dt.type)
        if self.batch_size is not None:
            if int(self.batch_size) < 1:
                raise SimulationError(
                    f"batch_size must be >= 1, got {self.batch_size!r}"
                )
            object.__setattr__(self, "batch_size", int(self.batch_size))
        if int(self.max_workers) < 1:
            raise SimulationError(
                f"max_workers must be >= 1, got {self.max_workers!r}"
            )
        object.__setattr__(self, "max_workers", int(self.max_workers))
        if int(self.min_shots_per_worker) < 1:
            raise SimulationError(
                "min_shots_per_worker must be >= 1, got "
                f"{self.min_shots_per_worker!r}"
            )
        object.__setattr__(
            self, "min_shots_per_worker", int(self.min_shots_per_worker)
        )

    def replace(self, **changes) -> "SimulationOptions":
        """A copy of the options with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def resolve_simulation_options(
    options: Optional[SimulationOptions],
) -> SimulationOptions:
    """``options`` as a :class:`SimulationOptions`: ``None`` gives the
    defaults and a dict is taken as its fields."""
    if options is None:
        return SimulationOptions()
    if isinstance(options, SimulationOptions):
        return options
    if isinstance(options, dict):
        return SimulationOptions(**options)
    raise SimulationError(
        "options must be a SimulationOptions (or dict), got "
        f"{type(options).__name__}"
    )
