"""The flight recorder: an always-on bounded ring of structured events.

Unlike the :class:`~repro.observability.Tracer` (opt-in, unbounded,
span-shaped), the flight recorder is *always on*: a process-wide
bounded ring buffer that every simulation seam appends lightweight
structured events into — plan-cache traffic (compile / hit / miss /
evict), per-step kernel dispatches (op kind, qubit count, wall
nanoseconds), parametric bind / sweep passes, trajectory batches and
allocation high-water marks.  Because the buffer is bounded
(:data:`DEFAULT_CAPACITY` events, oldest dropped first) and an append
is a couple of attribute lookups plus one ``deque.append``, the
recorder can stay enabled in production at negligible cost and still
answer *"what was the engine doing just before this?"* — dump it on
demand with :meth:`FlightRecorder.dump`, or automatically on a crash
with :meth:`FlightRecorder.dump_on_exception`::

    from repro.observability import flight_recorder

    rec = flight_recorder()
    with rec.dump_on_exception("crash_dump.json"):
        simulate(circuit, "0000")
    print(rec.summary())

The global recorder is shared by the whole process; ``python -m
repro.obs`` reads its dumps back and prints the hot-kernel / cache /
memory digest.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
from collections import Counter, deque
from time import perf_counter
from typing import Any, Dict, List, Optional

__all__ = [
    "RecorderEvent",
    "FlightRecorder",
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
]

#: Default ring capacity (events); the oldest events drop first.
DEFAULT_CAPACITY = 4096

# -- canonical event kinds ----------------------------------------------------

#: A plan was compiled (payload: backend, ops, steps, fused, blocks,
#: ns, table_bytes); ``blocks`` is the part of ``fused`` merged into
#: dense blocks.
EV_PLAN_COMPILE = "plan.compile"
#: Plan-cache lookup outcomes (payload: backend, signature).
EV_PLAN_HIT = "plan.hit"
EV_PLAN_MISS = "plan.miss"
#: A plan fell off the LRU (payload: backend, signature).
EV_PLAN_EVICT = "plan.evict"
#: A parametric plan was re-bound in place (payload: params, steps, ns).
EV_PLAN_BIND = "plan.bind"
#: A vectorized parameter sweep ran (payload: points, backend, ns).
EV_PLAN_SWEEP = "plan.sweep"
#: One compiled plan step executed (payload: op, nq, ns, branches).
EV_STEP_DISPATCH = "step.dispatch"
#: One trajectory batch executed (payload: batch, ns).
EV_BATCH_EXECUTE = "batch.execute"
#: Fan-out decision for a trajectory batch (payload: shots, requested,
#: workers, floor, inline).
EV_BATCH_FANOUT = "batch.fanout"
#: Statevector allocation high-water mark rose (payload: bytes,
#: branches).
EV_STATE_HIGHWATER = "state.highwater"
#: A job entered the executor (payload: id, pipeline, backend).
EV_JOB_SUBMIT = "job.submit"
#: A job reached a terminal state (payload: id, pipeline, state, ns).
EV_JOB_DONE = "job.done"
#: An exception escaped an instrumented seam (payload: error, where).
EV_ERROR = "error"
#: A service request was admitted by the gateway (payload: id, tenant,
#: pipeline, qubits).
EV_REQUEST_ACCEPT = "request.accept"
#: A service request finished (payload: id, tenant, status, ns,
#: cached).
EV_REQUEST_DONE = "request.done"
#: A service request was rejected before execution (payload: tenant,
#: status, reason).
EV_REQUEST_REJECT = "request.reject"
#: A service request was cancelled at its deadline (payload: id,
#: tenant, ns).
EV_REQUEST_TIMEOUT = "request.timeout"


class RecorderEvent:
    """One recorded event: monotonic sequence number, timestamp
    (``perf_counter`` seconds, process-relative), kind string and a
    small payload dict."""

    __slots__ = ("seq", "ts", "kind", "data")

    def __init__(self, seq: int, ts: float, kind: str, data: Dict[str, Any]):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.data = data

    def to_dict(self) -> dict:
        """Plain-dict form used by :meth:`FlightRecorder.dump`."""
        out = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        out.update(self.data)
        return out

    def __repr__(self) -> str:
        return f"RecorderEvent({self.seq}, {self.kind!r}, {self.data!r})"


class FlightRecorder:
    """A bounded, thread-safe ring buffer of :class:`RecorderEvent` s.

    Appends are O(1) and rely on the atomicity of
    ``deque.append``/``itertools.count`` under the GIL, so the hot
    path takes no lock; snapshots (:meth:`events`, :meth:`dump`) copy
    the ring under a lock.  When the ring is full the oldest events
    drop silently — :attr:`dropped` counts how many.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self.enabled = bool(enabled)
        self._capacity = int(capacity)
        self._events: deque = deque(maxlen=self._capacity)
        # itertools.count: the one GIL-atomic counter — appends take no
        # lock, so the sequence number doubles as the total-appended tally
        self._seq = itertools.count(1)
        self._base = 0  # `recorded` watermark at the last clear()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def record(self, kind: str, **data) -> None:
        """Append one event (no-op when disabled).

        ``data`` values should be small JSON-serializable scalars; the
        recorder never inspects them.
        """
        if not self.enabled:
            return
        self._events.append(
            RecorderEvent(next(self._seq), perf_counter(), kind, data)
        )

    # -- inspection ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of retained events."""
        return self._capacity

    @property
    def recorded(self) -> int:
        """Total events ever appended (including dropped ones)."""
        # the counter pickles as (count, (next_value,)): read it back
        # without consuming a value
        return self._seq.__reduce__()[1][0] - 1

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound since the last clear."""
        return max(0, self.recorded - self._base - len(self._events))

    def events(self, kind: Optional[str] = None) -> List[RecorderEvent]:
        """Retained events oldest-first, optionally of one kind."""
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        """``{kind: retained-event count}``, sorted by kind."""
        return dict(sorted(Counter(e.kind for e in self.events()).items()))

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        """Drop every retained event and reset the drop counter (the
        sequence numbers keep running)."""
        with self._lock:
            self._events.clear()
            self._base = self.recorded

    # -- dumping ------------------------------------------------------------

    def dump(self) -> dict:
        """The whole ring as one JSON-serializable dict."""
        return {
            "format": "repro-flight-recorder",
            "version": 1,
            "capacity": self._capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": [e.to_dict() for e in self.events()],
        }

    def dump_json(self, path=None, indent: int = 2) -> str:
        """Serialize :meth:`dump`; also write it to ``path`` if given.

        The write is atomic (tempfile + ``os.replace`` in the target's
        directory), so a reader — ``python -m repro.obs --dump`` against
        a still-running process — never observes a half-written file.
        """
        text = json.dumps(self.dump(), indent=indent) + "\n"
        if path is not None:
            path = os.fspath(path)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        return text

    @contextlib.contextmanager
    def dump_on_exception(self, path):
        """Context manager writing the ring to ``path`` when an
        exception escapes the block (the exception still propagates)::

            with flight_recorder().dump_on_exception("crash.json"):
                simulate(circuit, "00")
        """
        try:
            yield self
        except BaseException as exc:
            self.record(EV_ERROR, error=type(exc).__name__)
            self.dump_json(path)
            raise

    # -- digesting ----------------------------------------------------------

    def summary_lines(self) -> List[str]:
        """A short human-readable digest of the retained events."""
        lines = [
            f"FlightRecorder: {len(self)} event(s) retained "
            f"(capacity {self._capacity}, {self.dropped} dropped)"
        ]
        counts = self.counts_by_kind()
        if counts:
            lines.append(
                "  by kind: "
                + ", ".join(f"{k}={n}" for k, n in counts.items())
            )
        steps = self.events(EV_STEP_DISPATCH)
        if steps:
            per_op: Dict[str, List[float]] = {}
            for e in steps:
                per_op.setdefault(e.data.get("op", "?"), []).append(
                    float(e.data.get("ns", 0))
                )
            rows = sorted(
                per_op.items(), key=lambda kv: -sum(kv[1])
            )
            lines.append("  step dispatch ns by op kind:")
            for op, ns in rows:
                lines.append(
                    f"    {op:<12} {len(ns):>6} dispatch(es)  "
                    f"{int(sum(ns)):>12} ns"
                )
        hw = self.events(EV_STATE_HIGHWATER)
        if hw:
            peak = max(int(e.data.get("bytes", 0)) for e in hw)
            lines.append(f"  statevector high-water: {peak} bytes")
        return lines

    def summary(self) -> str:
        """:meth:`summary_lines`, joined."""
        return "\n".join(self.summary_lines())

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"FlightRecorder({state}, {len(self)}/{self._capacity} "
            f"event(s), {self.dropped} dropped)"
        )


#: The process-wide recorder every simulation seam reports into.
_GLOBAL = FlightRecorder()


def flight_recorder() -> FlightRecorder:
    """The process-wide :class:`FlightRecorder` singleton."""
    return _GLOBAL


#: Append one event to the global recorder: the singleton's bound
#: ``record``, so hot paths skip the lookup and a second keyword repack.
record_event = _GLOBAL.record
