"""Counters, gauges and fixed-bucket histograms in a registry.

The model follows Prometheus conventions (instrument name + label set
-> numeric series) without any dependency: a :class:`MetricsRegistry`
get-or-creates instruments by name, every instrument keeps one value
per label set, and all mutation is lock-protected so concurrent
trajectory shots can record safely.

The canonical instrument names used by the simulation seams live here
as module constants (``GATE_APPLIES``, ``PLAN_CACHE_HITS``, ...) so
exporters, reports and tests agree on spelling.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GATE_APPLIES",
    "KERNEL_SECONDS",
    "KERNEL_BYTES",
    "FUSED_STEPS",
    "PLAN_CACHE_HITS",
    "PLAN_CACHE_MISSES",
    "PARAM_BINDS",
    "SWEEP_POINTS",
    "IR_PASS_RUNS",
    "IR_PIPELINE_CACHE_HITS",
    "IR_PIPELINE_CACHE_MISSES",
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

# -- canonical instrument names ----------------------------------------------

#: Gate-kernel applications, labelled by ``backend`` and ``kind``
#: (``1q`` / ``diag`` / ``kq`` / ``controlled``, and ``kraus`` for
#: noise channels); one per state row per branch per plan step.
GATE_APPLIES = "repro_gate_applies_total"
#: Wall seconds of each gate step or attached noise channel, timed
#: around its own work (same labels).
KERNEL_SECONDS = "repro_kernel_seconds"
#: Approximate bytes read+written by backend kernels (same labels).
KERNEL_BYTES = "repro_kernel_bytes_total"
#: Source gates merged away by plan fusion, labelled by ``kind``
#: (``1q`` / ``diag`` / ``block``).
FUSED_STEPS = "repro_fused_steps_total"
#: Plan-cache hits / misses observed by instrumented runs.
PLAN_CACHE_HITS = "repro_plan_cache_hits_total"
PLAN_CACHE_MISSES = "repro_plan_cache_misses_total"
#: Parameter-binding passes over compiled plans (one per ``bind``).
PARAM_BINDS = "repro_param_binds_total"
#: Parameter points executed through vectorized ``sweep`` runs.
SWEEP_POINTS = "repro_sweep_points_total"
#: IR pass executions, labelled by ``pass`` name.
IR_PASS_RUNS = "repro_ir_pass_runs_total"
#: Per-circuit IR pass-pipeline cache hits / misses.
IR_PIPELINE_CACHE_HITS = "repro_ir_pipeline_cache_hits_total"
IR_PIPELINE_CACHE_MISSES = "repro_ir_pipeline_cache_misses_total"
#: High-water mark of statevector bytes live across branches.
STATE_BYTES_MAX = "repro_statevector_bytes_max"
#: Random draws consumed (trajectory Kraus/measurement sampling, shots).
RNG_DRAWS = "repro_rng_draws_total"
#: Shots sampled through ``counts``/``counts_dict``/``noisy_counts``.
SHOTS_SAMPLED = "repro_shots_sampled_total"
#: Monte-Carlo trajectories executed.
TRAJECTORIES = "repro_trajectories_total"
#: Measurement/reset collapses performed, labelled by ``kind``.
MEASUREMENTS = "repro_measurements_total"
#: High-water mark of simultaneous measurement branches.
BRANCHES_MAX = "repro_branches_max"
#: Shots executed through the batched trajectory engine.
BATCHED_SHOTS = "repro_batched_shots_total"
#: High-water mark of the trajectory batch size in use.
BATCH_SIZE = "repro_batch_size"
#: High-water mark of the worker-process fan-out in use.
BATCH_WORKERS = "repro_batch_workers"
#: Circuits generated and oracled by the conformance harness.
CONFORMANCE_CIRCUITS = "repro_conformance_circuits_total"
#: Conformance check groups executed, labelled by ``check`` family.
CONFORMANCE_CHECKS = "repro_conformance_checks_total"
#: Conformance failures detected, labelled by ``check`` name.
CONFORMANCE_FAILURES = "repro_conformance_failures_total"
#: Service gateway requests, labelled by ``route`` and ``status``.
SERVICE_REQUESTS = "repro_service_requests_total"
#: End-to-end service request wall seconds, labelled by ``route``.
SERVICE_LATENCY = "repro_service_request_seconds"
#: Current depth of the gateway's bounded submission queue.
SERVICE_QUEUE_DEPTH = "repro_service_queue_depth"
#: Requests currently executing on gateway workers.
SERVICE_INFLIGHT = "repro_service_inflight"
#: Requests rejected by quota or backpressure, labelled by ``reason``.
SERVICE_THROTTLES = "repro_service_throttles_total"
#: Requests cancelled because they overran their deadline.
SERVICE_TIMEOUTS = "repro_service_timeouts_total"
#: Service result-cache hits / misses.
SERVICE_RESULT_CACHE_HITS = "repro_service_result_cache_hits_total"
SERVICE_RESULT_CACHE_MISSES = "repro_service_result_cache_misses_total"

#: Default histogram bucket upper bounds (seconds): 1 us .. 10 s.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


def _label_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared name/help/label bookkeeping for all instrument types."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[tuple, object] = {}

    def labelsets(self) -> List[dict]:
        """Recorded label sets, as plain dicts."""
        with self._lock:
            return [dict(k) for k in self._series]


class _BoundCounter:
    """A :class:`Counter` child with its label key pre-resolved.

    Hot paths (per-gate recording) use this to skip the label sort and
    keyword plumbing of :meth:`Counter.inc`.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: tuple):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        counter = self._counter
        with counter._lock:
            counter._series[self._key] = (
                counter._series.get(self._key, 0.0) + amount
            )


class Counter(_Instrument):
    """Monotonically increasing per-labelset totals."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def labels(self, **labels) -> _BoundCounter:
        """A bound child for repeated increments of one label set."""
        return _BoundCounter(self, _label_key(labels))

    def value(self, **labels) -> float:
        """Current total of the labelled series (0.0 if never hit)."""
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(_Instrument):
    """Last-write-wins values, with a high-water-mark helper."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the labelled series to ``value``."""
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def set_max(self, value: float, **labels) -> None:
        """Raise the labelled series to ``value`` if it is larger."""
        key = _label_key(labels)
        with self._lock:
            cur = self._series.get(key)
            if cur is None or value > cur:
                self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative) to the labelled series."""
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value of the labelled series (0.0 if never set)."""
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class _BoundHistogram:
    """A :class:`Histogram` child with its label key pre-resolved."""

    __slots__ = ("_hist", "_key")

    def __init__(self, hist: "Histogram", key: tuple):
        self._hist = hist
        self._key = key

    def observe(self, value: float) -> None:
        hist = self._hist
        idx = bisect_left(hist.buckets, value)
        with hist._lock:
            series = hist._series.get(self._key)
            if series is None:
                series = hist._series[self._key] = (
                    [0] * (len(hist.buckets) + 1), 0.0, 0,
                )
            counts, total, n = series
            counts[idx] += 1
            hist._series[self._key] = (counts, total + value, n + 1)


class Histogram(_Instrument):
    """Fixed-bucket histogram: cumulative counts, sum and count.

    ``buckets`` are ascending upper bounds; an implicit ``+Inf`` bucket
    catches the rest (Prometheus ``le`` semantics).
    """

    kind = "histogram"

    def __init__(self, name, help="", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labelled series."""
        key = _label_key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                # [per-bucket counts..., +Inf count, sum, count]
                series = self._series[key] = (
                    [0] * (len(self.buckets) + 1), 0.0, 0,
                )
            counts, total, n = series
            counts[idx] += 1
            self._series[key] = (counts, total + value, n + 1)

    def sum(self, **labels) -> float:
        """Sum of observations of the labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return float(series[1]) if series else 0.0

    def count(self, **labels) -> int:
        """Number of observations of the labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return int(series[2]) if series else 0

    def bucket_counts(self, **labels) -> List[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` last."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return [0] * (len(self.buckets) + 1)
            return list(series[0])

    def labels(self, **labels) -> _BoundHistogram:
        """A bound child for repeated observations of one label set."""
        return _BoundHistogram(self, _label_key(labels))

    def total_sum(self) -> float:
        """Sum of observations over every label set."""
        with self._lock:
            return float(sum(s[1] for s in self._series.values()))


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Re-requesting a name returns the existing instrument; asking for it
    as a different type raises.  ``snapshot()`` flattens everything into
    plain dicts for export.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get(self, cls, name, help, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name, help, **kwargs)
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the named :class:`Histogram`."""
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        """The named instrument, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        """All instruments, sorted by name."""
        with self._lock:
            return sorted(
                self._instruments.values(), key=lambda i: i.name
            )

    def clear(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> dict:
        """Plain-dict dump: ``{name: {kind, help, series: [...]}}``.

        Histogram series carry ``buckets``/``counts``/``sum``/``count``;
        counter and gauge series carry ``value``.
        """
        out = {}
        for inst in self.instruments():
            series = []
            if isinstance(inst, Histogram):
                for labels in inst.labelsets():
                    series.append(
                        {
                            "labels": labels,
                            "buckets": list(inst.buckets),
                            "counts": inst.bucket_counts(**labels),
                            "sum": inst.sum(**labels),
                            "count": inst.count(**labels),
                        }
                    )
            else:
                for labels in inst.labelsets():
                    series.append(
                        {"labels": labels, "value": inst.value(**labels)}
                    )
            out[inst.name] = {
                "kind": inst.kind,
                "help": inst.help,
                "series": series,
            }
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self.instruments())} instrument(s))"
