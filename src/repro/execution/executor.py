"""The :class:`Executor`: one submit path for every execution pipeline.

The executor is the seam the whole refactor exists for: submission
(:meth:`Executor.submit`) takes an
:class:`~repro.execution.ExecutionRequest`, drives it through the
compile -> bind -> dispatch -> materialize stages, and returns a
finished :class:`~repro.execution.Job` — never raising.  Every public
run entry point (``simulate``, ``simulate_density``,
``run_trajectory``, ``run_trajectories_batched``, ``sweep``) is a thin
wrapper over one submit, so plan-cache traffic, spans, flight-recorder
events and seed handling are emitted in exactly one place per stage.

Thread safety: ``submit`` may be called from many threads sharing one
executor.  Plan-cache lookups serialize inside
:func:`repro.simulation.plan.get_plan` (exact hit/miss accounting),
non-parametric plans replay read-only state, and parametric plans
bind+execute under their per-plan lock (binding mutates kernels in
place).  Instrumentation activates per calling thread via a
context-variable, so concurrent instrumented runs keep separate span
trees.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter

import numpy as np

from repro.exceptions import SimulationError, UnboundParameterError
from repro.execution import trajectory as traj
from repro.execution.dispatch import run_plan
from repro.execution.density import initial_density, run_density_plan
from repro.execution.job import DONE, FAILED, PENDING, Job
from repro.execution.request import (
    DENSITY,
    STATEVECTOR,
    SWEEP,
    TRAJECTORY,
    TRAJECTORY_BATCH,
    ExecutionRequest,
)
from repro.observability.backend import InstrumentedBackend
from repro.observability.instrument import (
    activate,
    resolve_instrumentation,
)
from repro.observability.metrics import (
    BATCH_SIZE,
    BATCH_WORKERS,
    BATCHED_SHOTS,
    RNG_DRAWS,
    TRAJECTORIES,
)
from repro.observability.recorder import (
    EV_BATCH_EXECUTE,
    EV_BATCH_FANOUT,
    EV_ERROR,
    EV_JOB_DONE,
    EV_JOB_SUBMIT,
    EV_TRAJECTORY,
    record_event,
)
from repro.simulation.backends import get_backend
from repro.simulation.plan import (
    clear_plan_cache,
    get_plan,
    plan_cache_info,
)
from repro.simulation.state import initial_state

__all__ = ["Executor", "default_executor"]


class Executor:
    """Owns the compile -> dispatch -> materialize pipeline.

    One executor (usually the process-wide :func:`default_executor`)
    serves every engine: the request ``kind`` selects the pipeline and
    the executor guarantees the shared pieces — plan-cache access,
    backend resolution, instrumentation activation, recorder events,
    error capture — behave identically across all of them.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._runners = {
            STATEVECTOR: Executor._run_statevector,
            DENSITY: Executor._run_density,
            TRAJECTORY: Executor._run_trajectory,
            TRAJECTORY_BATCH: Executor._run_trajectory_batch,
            SWEEP: Executor._run_sweep,
        }

    # -- the submit path -----------------------------------------------------

    def prepare(self, request: ExecutionRequest) -> Job:
        """Create a :class:`Job` handle for a request *without* running
        it.

        The prepare/execute split exists for callers that queue work
        and need the handle up front — the service gateway hands the
        prepared job to a waiting HTTP handler (so it can ``wait()``,
        set a ``deadline`` or ``cancel()``) while a worker thread
        drives :meth:`execute`.  :meth:`submit` is the inline
        composition of the two.
        """
        return Job(request, next(self._ids))

    def execute(self, job: Job) -> Job:
        """Drive a prepared :class:`Job` through its full pipeline;
        returns the same job in a terminal state (``DONE`` or
        ``FAILED``).

        Never raises: pipeline exceptions — including
        :class:`~repro.exceptions.JobCancelledError` from a
        ``cancel()`` or an expired ``deadline`` — are captured on the
        job and surface only through :meth:`Job.result`.  A job may
        execute at most once.
        """
        request = job.request
        if job.state != PENDING:
            raise SimulationError(
                f"job {job.id} already executed (state {job.state})"
            )
        with self._lock:
            self._submitted += 1
        record_event(
            EV_JOB_SUBMIT,
            id=job.id,
            pipeline=request.kind,
            backend=request.options.backend
            if isinstance(request.options.backend, str)
            else getattr(request.options.backend, "name", "?"),
        )
        t0 = perf_counter()
        inst = resolve_instrumentation(
            request.options.trace, request.options.metrics
        )
        job._instrumentation = inst if inst.enabled else None
        try:
            job.check_cancelled()
            with activate(inst):
                result = self._runners[request.kind](self, job, inst)
            job._finish(result)
            with self._lock:
                self._completed += 1
        except Exception as exc:  # noqa: BLE001 — captured, not lost
            record_event(
                EV_ERROR,
                error=type(exc).__name__,
                where=job._stage or f"executor.{request.kind}",
            )
            job._fail(exc)
            with self._lock:
                self._failed += 1
        job.timings.total_seconds = perf_counter() - t0
        record_event(
            EV_JOB_DONE,
            id=job.id,
            pipeline=request.kind,
            state=DONE if job.state == DONE else FAILED,
            ns=int(job.timings.total_seconds * 1e9),
        )
        return job

    def submit(self, request: ExecutionRequest) -> Job:
        """Execute one request through its full pipeline; returns the
        finished :class:`Job` (state ``DONE`` or ``FAILED``).

        Never raises: pipeline exceptions are captured on the job and
        surface when (and only when) :meth:`Job.result` is called.
        Safe under concurrent callers sharing this executor — see the
        module docstring for the locking contract.
        """
        return self.execute(self.prepare(request))

    def run(self, request: ExecutionRequest):
        """Submit and immediately materialize: returns the result
        object, re-raising any captured pipeline error."""
        return self.submit(request).result()

    # -- bookkeeping ---------------------------------------------------------

    def stats(self) -> dict:
        """Executor-level counters plus the shared plan-cache view."""
        with self._lock:
            out = {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
            }
        out["plan_cache"] = self.cache_info()
        return out

    def cache_info(self) -> dict:
        """The shared compiled-plan cache counters (see
        :func:`repro.simulation.plan_cache_info`)."""
        return plan_cache_info()

    def clear_cache(self) -> None:
        """Empty the shared compiled-plan cache."""
        clear_plan_cache()

    # -- pipelines -----------------------------------------------------------

    def _run_statevector(self, job: Job, inst):
        req = job.request
        opts = req.options
        circuit = req.circuit
        engine = get_backend(opts.backend)
        nb_qubits = circuit.nbQubits
        start = "0" * nb_qubits if req.start is None else req.start
        state = initial_state(start, nb_qubits, dtype=opts.dtype)
        from repro.simulation.simulate import Simulation

        with inst.span(
            "simulate", backend=engine.name, nb_qubits=nb_qubits
        ):
            job._stage = "plan.get"
            t_c = perf_counter()
            plan, stats = get_plan(
                circuit, engine, opts.dtype, fuse=opts.fuse
            )
            job.timings.compile_seconds = perf_counter() - t_c
            job._compiled(plan, stats)
            # per-step cancellation only engages for deadline/cancel
            # jobs, so plain simulate() wrappers pay nothing extra
            check = (
                job.check_cancelled
                if job.deadline is not None or job.cancelled
                else None
            )
            if check is not None:
                check()
            if plan.is_parametric and req.param_values is None:
                raise UnboundParameterError(
                    "circuit has unbound parameter(s) "
                    + ", ".join(repr(p.name) for p in plan.parameters)
                    + "; simulate through circuit.bind(values)"
                )
            # binding mutates the plan's kernels in place, so a
            # parametric plan binds AND executes under its lock;
            # non-parametric replay is read-only and runs lock-free
            with plan.lock if plan.is_parametric else _NULL_LOCK:
                if plan.is_parametric:
                    # always (re-)bind: a cached plan may carry kernels
                    # from a previous binding's values
                    job._stage = "param.bind"
                    plan.bind(req.param_values)
                job._running()
                job._stage = "simulate.execute"
                t0 = perf_counter()
                if inst.enabled:
                    with inst.span(
                        "simulate.execute", backend=plan.engine.name
                    ):
                        branches, measurements = run_plan(
                            plan, state, opts.atol, inst, check=check
                        )
                else:
                    branches, measurements = run_plan(
                        plan, state, opts.atol, check=check
                    )
                stats.execute_seconds = perf_counter() - t0
            job._stats = stats
            job.timings.execute_seconds = stats.execute_seconds
            return Simulation._from_run(
                nb_qubits, branches, measurements, plan.end_measured,
                plan.engine.name, engine=plan.engine, stats=stats,
                seed=req.seed,
                instrumentation=inst if inst.enabled else None,
            )

    def _run_density(self, job: Job, inst):
        req = job.request
        opts = req.options
        circuit = req.circuit
        noise = req.noise if req.noise is not None else _trivial_noise()
        nb_qubits = circuit.nbQubits
        from repro.simulation.density_sim import DensitySimulation

        with inst.span(
            "simulate_density", nb_qubits=nb_qubits
        ) as span:
            # gate fusion would merge the per-gate channel attach
            # points away, so it is on only for trivial noise
            use_fuse = opts.fuse and noise.is_trivial
            job._stage = "plan.get"
            t_c = perf_counter()
            plan, stats = get_plan(
                circuit, opts.backend, opts.dtype, fuse=use_fuse
            )
            job.timings.compile_seconds = perf_counter() - t_c
            job._compiled(plan, stats)
            job.check_cancelled()
            engine = plan.engine
            span.set(backend=engine.name)
            if inst.enabled:
                # every K rho K^dagger conjugation is a gate apply;
                # route them through the instrumented wrapper
                engine = InstrumentedBackend(engine, inst.metrics)
            rho0 = initial_density(req.start, nb_qubits, opts.dtype)
            job._running()
            job._stage = "simulate_density"
            t0 = perf_counter()
            branches = run_density_plan(
                plan, engine, rho0, noise, opts.atol
            )
            stats.execute_seconds = perf_counter() - t0
            job._stats = stats
            job.timings.execute_seconds = stats.execute_seconds
            return DensitySimulation(nb_qubits, branches)

    def _run_trajectory(self, job: Job, inst):
        req = job.request
        opts = req.options
        circuit = req.circuit
        noise = req.noise if req.noise is not None else _trivial_noise()
        rng = (
            req.seed
            if isinstance(req.seed, np.random.Generator)
            else np.random.default_rng(req.seed)
        )
        nb_qubits = circuit.nbQubits
        channels = (
            req.channels
            if req.channels is not None
            else traj.channel_map(circuit, noise)
        )
        from repro.noise.trajectory import TrajectoryResult

        t_traj = perf_counter()
        with inst.span("trajectory", nb_qubits=nb_qubits) as span:
            use_fuse = opts.fuse and noise.is_trivial
            job._stage = "plan.get"
            t_c = perf_counter()
            plan, stats = get_plan(
                circuit, opts.backend, opts.dtype, fuse=use_fuse
            )
            job.timings.compile_seconds = perf_counter() - t_c
            job._compiled(plan, stats)
            job.check_cancelled()
            engine = plan.engine
            if inst.enabled:
                span.set(backend=engine.name)
                engine = InstrumentedBackend(engine, inst.metrics)
                inst.metrics.counter(
                    TRAJECTORIES, "Monte-Carlo trajectories executed"
                ).inc()
                rng = traj.CountingRNG(rng)
            job._running()
            job._stage = "trajectory"
            t0 = perf_counter()
            result, state = traj.run_trajectory_plan(
                plan, engine, channels, noise, req.start, rng
            )
            stats.execute_seconds = perf_counter() - t0
            job._stats = stats
            job.timings.execute_seconds = stats.execute_seconds
            if isinstance(rng, traj.CountingRNG) and rng.draws:
                inst.metrics.counter(
                    RNG_DRAWS, "random draws consumed"
                ).inc(rng.draws)
            record_event(
                EV_TRAJECTORY,
                nq=nb_qubits,
                ns=int((perf_counter() - t_traj) * 1e9),
            )
            return TrajectoryResult(result=result, state=state)

    def _run_trajectory_batch(self, job: Job, inst):
        req = job.request
        opts = req.options
        circuit = req.circuit
        noise = req.noise if req.noise is not None else _trivial_noise()
        shots = int(req.shots)
        rng = (
            req.seed
            if isinstance(req.seed, np.random.Generator)
            else np.random.default_rng(req.seed)
        )
        nb_qubits = circuit.nbQubits
        return_states = bool(req.return_states)
        from repro.noise.trajectory import BatchedTrajectoryResult

        with inst.span(
            "batch.trajectories", shots=shots, nb_qubits=nb_qubits
        ) as span:
            use_fuse = opts.fuse and noise.is_trivial
            job._stage = "plan.get"
            t_c = perf_counter()
            plan, stats = get_plan(
                circuit, opts.backend, opts.dtype, fuse=use_fuse
            )
            job.timings.compile_seconds = perf_counter() - t_c
            job._compiled(plan, stats)
            job.check_cancelled()
            channels = (
                req.channels
                if req.channels is not None
                else traj.channel_map(circuit, noise)
            )
            draws_per_shot = traj.draws_per_shot(plan, channels, noise)
            batch_size = opts.batch_size or traj.default_batch_size(
                shots, nb_qubits
            )
            sizes = [
                min(batch_size, shots - done)
                for done in range(0, shots, batch_size)
            ] or []
            # the parent owns the stream: every batch's uniforms are
            # drawn here, in order, so workers receive randomness
            # instead of seeds
            draw_blocks = [
                rng.random((size, draws_per_shot)) for size in sizes
            ]

            requested = min(int(opts.max_workers), max(1, len(sizes)))
            workers = requested
            floor = int(opts.min_shots_per_worker)
            if requested > 1 and shots < requested * floor:
                # process start-up + per-worker pickling costs a fixed
                # ~100ms each; below the floor the fan-out is slower
                # than just simulating inline, so shrink it
                workers = max(1, shots // floor)
            if inst.enabled:
                # instrumented runs execute in-process so every kernel
                # application lands in this run's registry
                workers = 1
            record_event(
                EV_BATCH_FANOUT,
                shots=shots,
                requested=requested,
                workers=workers,
                floor=floor,
                inline=workers <= 1,
            )
            engine = plan.engine
            if inst.enabled:
                span.set(
                    backend=engine.name,
                    batch_size=batch_size,
                    workers=workers,
                    draws_per_shot=draws_per_shot,
                )
                engine = InstrumentedBackend(engine, inst.metrics)
                inst.metrics.counter(
                    TRAJECTORIES, "Monte-Carlo trajectories executed"
                ).inc(shots)
                inst.metrics.counter(
                    BATCHED_SHOTS, "shots executed by the batched engine"
                ).inc(shots)
                inst.metrics.gauge(
                    BATCH_SIZE, "high-water trajectory batch size"
                ).set_max(batch_size)
                inst.metrics.gauge(
                    BATCH_WORKERS, "high-water batch worker fan-out"
                ).set_max(workers)
                if shots and draws_per_shot:
                    inst.metrics.counter(
                        RNG_DRAWS, "random draws consumed"
                    ).inc(shots * draws_per_shot)

            job._running()
            job._stage = "batch.execute"
            t_exec = perf_counter()
            results: list = []
            state_blocks: list = []
            if workers > 1:
                import concurrent.futures

                child_opts = opts.replace(trace=None, metrics=None)
                payloads = [
                    (circuit, noise, channels, req.start, child_opts,
                     use_fuse, block, return_states)
                    for block in draw_blocks
                ]
                t_pool = perf_counter()
                with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers
                ) as pool:
                    for res, states in pool.map(
                        traj.batch_worker, payloads
                    ):
                        results.extend(res)
                        if return_states:
                            state_blocks.append(states)
                # child processes own their rings; one parent-side
                # event summarizes the whole fan-out
                record_event(
                    EV_BATCH_EXECUTE,
                    batch=shots,
                    workers=workers,
                    ns=int((perf_counter() - t_pool) * 1e9),
                )
            else:
                for block in draw_blocks:
                    t_block = perf_counter()
                    with inst.span(
                        "batch.execute", batch=block.shape[0]
                    ):
                        res, states = traj.execute_batch(
                            plan, engine, channels, noise, req.start,
                            block, opts.dtype,
                        )
                    record_event(
                        EV_BATCH_EXECUTE,
                        batch=block.shape[0],
                        workers=1,
                        ns=int((perf_counter() - t_block) * 1e9),
                    )
                    results.extend(res)
                    if return_states:
                        state_blocks.append(states)
            stats.execute_seconds = perf_counter() - t_exec
            job._stats = stats
            job.timings.execute_seconds = stats.execute_seconds

            return BatchedTrajectoryResult(
                results=results,
                shots=shots,
                batch_size=batch_size,
                workers=workers,
                states=(
                    np.concatenate(state_blocks, axis=0)
                    if return_states and state_blocks
                    else None
                ),
            )

    def _run_sweep(self, job: Job, inst):
        req = job.request
        opts = req.options
        from repro.simulation.sweep import SweepResult

        job._stage = "plan.get"
        t_c = perf_counter()
        plan, stats = get_plan(
            req.circuit, opts.backend, opts.dtype, fuse=opts.fuse
        )
        job.timings.compile_seconds = perf_counter() - t_c
        job._compiled(plan, stats)
        job.check_cancelled()
        job._running()
        job._stage = "param.sweep"
        t0 = perf_counter()
        # a sweep never mutates the plan's bound kernels (it broadcasts
        # the value columns per step), but it must not interleave with a
        # concurrent bind+execute on the same cached plan object
        with plan.lock if plan.is_parametric else _NULL_LOCK:
            states = plan.sweep(
                req.values, parameters=req.parameters, start=req.start
            )
        stats.execute_seconds = perf_counter() - t0
        job._stats = stats
        job.timings.execute_seconds = stats.execute_seconds
        return SweepResult(states, plan.parameters, stats)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Executor(submitted={self._submitted}, "
                f"completed={self._completed}, failed={self._failed})"
            )


class _NullLock:
    """No-op context manager for the lock-free (read-only) replay path."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_LOCK = _NullLock()


def _trivial_noise():
    """The shared no-noise model (lazy: repro.noise imports us)."""
    from repro.noise.model import NoiseModel

    return NoiseModel()


_DEFAULT: Executor = None
_DEFAULT_LOCK = threading.Lock()


def default_executor() -> Executor:
    """The process-wide executor every thin wrapper submits through."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = Executor()
    return _DEFAULT
