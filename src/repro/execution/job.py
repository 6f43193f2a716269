"""The :class:`Job` handle — one submitted execution, observable end to end.

A job is what :meth:`~repro.execution.Executor.submit` returns: a
small state machine that travels through the pipeline stages

``PENDING -> COMPILED -> RUNNING -> DONE`` (or ``FAILED``)

carrying the compiled plan, the per-stage wall timings, the run
statistics and — crucially — any error *captured* instead of raised
mid-pipeline.  Callers decide when (and whether) an error surfaces by
calling :meth:`Job.result`, which re-raises the original exception
with its traceback intact.  This is the decoupling the service
gateway needs: submission never throws, and a finished job is a plain
value that can cross thread (and, later, process/network) boundaries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

from repro.exceptions import JobCancelledError, SimulationError

__all__ = [
    "PENDING",
    "COMPILED",
    "RUNNING",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JobTimings",
    "Job",
]

#: Job lifecycle states, in pipeline order.
PENDING = "PENDING"
COMPILED = "COMPILED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"

#: Every legal state, in lifecycle order.
JOB_STATES = (PENDING, COMPILED, RUNNING, DONE, FAILED)


@dataclass
class JobTimings:
    """Per-stage wall timings of one job (seconds).

    ``submitted_at`` is ``perf_counter``-relative (process-local);
    ``compile_seconds`` covers plan lookup + compilation (zero on a
    cache hit does *not* hold — the lookup itself is timed),
    ``execute_seconds`` covers the dispatch loop, and
    ``total_seconds`` the whole submit pipeline including result
    materialization.
    """

    submitted_at: float = field(default_factory=perf_counter)
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0


class Job:
    """Handle for one execution submitted to an :class:`Executor`.

    The executor drives the state transitions; user code observes them
    through :attr:`state` and collects the outcome through
    :meth:`result` / :meth:`stats` / :attr:`timings`.  A job whose
    pipeline raised holds the exception in :attr:`error` (state
    ``FAILED``) — nothing escapes ``submit()`` itself.
    """

    __slots__ = (
        "id", "request", "state", "plan", "error", "timings",
        "deadline", "_result", "_stats", "_instrumentation", "_stage",
        "_cancelled", "_done_event",
    )

    def __init__(self, request, job_id: int = 0):
        self.id = job_id
        self.request = request
        self.state = PENDING
        #: the :class:`~repro.simulation.CompiledPlan` once compiled
        #: (``None`` until then).
        self.plan = None
        #: the captured exception when :attr:`state` is ``FAILED``.
        self.error: Optional[BaseException] = None
        self.timings = JobTimings()
        #: optional absolute ``perf_counter`` deadline — set by callers
        #: (the service gateway) before execution; the pipeline aborts
        #: with :class:`~repro.exceptions.JobCancelledError` at the
        #: first cancellation checkpoint past it.
        self.deadline: Optional[float] = None
        self._result: Any = None
        self._stats = None
        self._instrumentation = None
        #: pipeline stage label for error attribution (``where`` on the
        #: recorder's ``error`` event).
        self._stage: Optional[str] = None
        self._cancelled = False
        self._done_event = threading.Event()

    # -- state transitions (driven by the executor) -------------------------

    def _compiled(self, plan, stats) -> None:
        self.plan = plan
        self._stats = stats
        self.state = COMPILED

    def _running(self) -> None:
        self.state = RUNNING

    def _finish(self, result) -> None:
        self._result = result
        self.state = DONE
        self._done_event.set()

    def _fail(self, error: BaseException) -> None:
        self.error = error
        self.state = FAILED
        self._done_event.set()

    # -- cancellation --------------------------------------------------------

    def cancel(self) -> bool:
        """Request cancellation of a not-yet-finished job.

        Cancellation is *cooperative*: the flag is observed at the
        pipeline's cancellation checkpoints (stage boundaries and, for
        planned statevector runs, every plan step), where the run
        aborts with :class:`~repro.exceptions.JobCancelledError`.
        Returns ``False`` when the job already reached a terminal
        state (too late to cancel), ``True`` otherwise.
        """
        if self.done:
            return False
        self._cancelled = True
        return True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was requested (terminal or not)."""
        return self._cancelled

    def check_cancelled(self) -> None:
        """Raise :class:`~repro.exceptions.JobCancelledError` when the
        job was cancelled or its :attr:`deadline` has passed.

        Called by the executor at stage boundaries and threaded into
        the plan dispatch loop as its per-step ``check`` hook; a no-op
        for jobs with no deadline and no cancel request.
        """
        if self._cancelled:
            raise JobCancelledError(f"job {self.id} cancelled")
        if self.deadline is not None and perf_counter() > self.deadline:
            self._cancelled = True
            raise JobCancelledError(
                f"job {self.id} exceeded its deadline"
            )

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state.

        Returns ``True`` when the job finished within ``timeout``
        seconds (``None`` = wait forever), ``False`` on timeout.  Only
        meaningful for jobs executed on another thread (the service
        gateway's worker pool); ``Executor.submit`` returns finished
        jobs, for which this returns immediately.
        """
        return self._done_event.wait(timeout)

    # -- outcome ------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state (DONE or FAILED)."""
        return self.state in (DONE, FAILED)

    @property
    def ok(self) -> bool:
        """Whether the job finished successfully."""
        return self.state == DONE

    def result(self):
        """The materialized result of a finished job.

        Returns the kind-specific result object (a
        :class:`~repro.simulation.Simulation`,
        :class:`~repro.simulation.DensitySimulation`,
        :class:`~repro.noise.trajectory.BatchedTrajectoryResult`, ...).
        Re-raises the captured exception — original traceback
        preserved — when the pipeline failed, and raises
        :class:`~repro.exceptions.SimulationError` on a job that never
        ran to completion.
        """
        if self.state == FAILED:
            raise self.error
        if self.state != DONE:
            raise SimulationError(
                f"job {self.id} has no result (state {self.state})"
            )
        return self._result

    def stats(self):
        """The run's :class:`~repro.simulation.PlanStats` (``None``
        until the compile stage finished)."""
        return self._stats

    def report(self):
        """The job's :class:`~repro.observability.ProfileReport` —
        instrumented spans/metrics when the run was traced, otherwise
        the plan-stats timings alone."""
        from repro.observability.exporters import ProfileReport

        if self._instrumentation is not None:
            return self._instrumentation.report(stats=self._stats)
        return ProfileReport(stats=self._stats)

    def __repr__(self) -> str:
        kind = getattr(self.request, "kind", "?")
        return f"Job(id={self.id}, kind={kind!r}, state={self.state})"
