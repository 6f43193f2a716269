"""Instrumentation: tracing spans, metrics, exporters, profiles.

A zero-dependency observability layer for the simulator, in four
pieces:

:class:`Tracer` / :class:`Span`
    Nested, thread-safe timing spans with attributes; near-zero
    overhead when disabled.
:class:`MetricsRegistry`
    Counters, gauges and fixed-bucket histograms (gate applies by
    kind, kernel seconds, plan-cache hits/misses, statevector bytes
    high-water, RNG draws, shots sampled, ...).
Exporters
    :func:`to_json`, :func:`to_chrome_trace` (``chrome://tracing`` /
    Perfetto), :func:`to_prometheus` (text exposition),
    :func:`to_collapsed_stacks` (speedscope / ``flamegraph.pl``) and
    the human-readable :class:`ProfileReport`.
:class:`FlightRecorder`
    An always-on bounded ring buffer of structured events (plan-cache
    traffic, per-step kernel dispatches, trajectory batches, memory
    high-water marks); dump on demand or on exception, read back with
    ``python -m repro.obs``.
:func:`instrument`
    Context manager activating ambient instrumentation that every
    simulation seam — plan compilation, the plan-replay loops
    (statevector, density, serial and batched trajectories, each
    timing every plan step once and recording it as gate-kind or
    ``kraus`` kernel cost or as a measurement), shot sampling, QASM
    io — reports into::

        from repro.observability import instrument

        with instrument() as inst:
            simulation = circuit.simulate('00')
        print(inst.report())                      # profile table
        trace = to_chrome_trace(inst.tracer)      # chrome://tracing

    The same machinery activates per run through
    ``SimulationOptions(trace=True, metrics=True)``, in which case
    ``Simulation.report()`` returns the run's profile.
"""

from repro.observability.exporters import (
    ProfileReport,
    dumps_json,
    to_chrome_trace,
    to_collapsed_stacks,
    to_json,
    to_prometheus,
)
from repro.observability.instrument import (
    Instrumentation,
    activate,
    current_instrumentation,
    instrument,
    resolve_instrumentation,
)
from repro.observability.metrics import (
    BATCH_SIZE,
    BATCH_WORKERS,
    BATCHED_SHOTS,
    BRANCHES_MAX,
    CONFORMANCE_CHECKS,
    CONFORMANCE_CIRCUITS,
    CONFORMANCE_FAILURES,
    Counter,
    FUSED_STEPS,
    GATE_APPLIES,
    Gauge,
    Histogram,
    KERNEL_BYTES,
    KERNEL_SECONDS,
    MEASUREMENTS,
    MetricsRegistry,
    PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES,
    RNG_DRAWS,
    SERVICE_INFLIGHT,
    SERVICE_LATENCY,
    SERVICE_QUEUE_DEPTH,
    SERVICE_REQUESTS,
    SERVICE_RESULT_CACHE_HITS,
    SERVICE_RESULT_CACHE_MISSES,
    SERVICE_THROTTLES,
    SERVICE_TIMEOUTS,
    SHOTS_SAMPLED,
    STATE_BYTES_MAX,
    TRAJECTORIES,
)
from repro.observability.recorder import (
    DEFAULT_CAPACITY,
    EV_BATCH_EXECUTE,
    EV_BATCH_FANOUT,
    EV_ERROR,
    EV_JOB_DONE,
    EV_JOB_SUBMIT,
    EV_REQUEST_ACCEPT,
    EV_REQUEST_DONE,
    EV_REQUEST_REJECT,
    EV_REQUEST_TIMEOUT,
    EV_PLAN_BIND,
    EV_PLAN_COMPILE,
    EV_PLAN_EVICT,
    EV_PLAN_HIT,
    EV_PLAN_MISS,
    EV_PLAN_SWEEP,
    EV_STATE_HIGHWATER,
    EV_STEP_DISPATCH,
    FlightRecorder,
    RecorderEvent,
    flight_recorder,
    record_event,
)
from repro.observability.tracer import Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "instrument",
    "activate",
    "current_instrumentation",
    "resolve_instrumentation",
    "ProfileReport",
    "to_json",
    "dumps_json",
    "to_chrome_trace",
    "to_prometheus",
    "to_collapsed_stacks",
    "FlightRecorder",
    "RecorderEvent",
    "flight_recorder",
    "record_event",
    "DEFAULT_CAPACITY",
    "EV_PLAN_COMPILE",
    "EV_PLAN_HIT",
    "EV_PLAN_MISS",
    "EV_PLAN_EVICT",
    "EV_PLAN_BIND",
    "EV_PLAN_SWEEP",
    "EV_STEP_DISPATCH",
    "EV_BATCH_EXECUTE",
    "EV_BATCH_FANOUT",
    "EV_STATE_HIGHWATER",
    "EV_JOB_SUBMIT",
    "EV_JOB_DONE",
    "EV_ERROR",
    "EV_REQUEST_ACCEPT",
    "EV_REQUEST_DONE",
    "EV_REQUEST_REJECT",
    "EV_REQUEST_TIMEOUT",
    "GATE_APPLIES",
    "KERNEL_SECONDS",
    "KERNEL_BYTES",
    "FUSED_STEPS",
    "PLAN_CACHE_HITS",
    "PLAN_CACHE_MISSES",
    "STATE_BYTES_MAX",
    "RNG_DRAWS",
    "SHOTS_SAMPLED",
    "TRAJECTORIES",
    "MEASUREMENTS",
    "BRANCHES_MAX",
    "BATCHED_SHOTS",
    "BATCH_SIZE",
    "BATCH_WORKERS",
    "CONFORMANCE_CIRCUITS",
    "CONFORMANCE_CHECKS",
    "CONFORMANCE_FAILURES",
    "SERVICE_REQUESTS",
    "SERVICE_LATENCY",
    "SERVICE_QUEUE_DEPTH",
    "SERVICE_INFLIGHT",
    "SERVICE_THROTTLES",
    "SERVICE_TIMEOUTS",
    "SERVICE_RESULT_CACHE_HITS",
    "SERVICE_RESULT_CACHE_MISSES",
]
