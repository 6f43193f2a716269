"""Exporters: JSON, Chrome trace-event, Prometheus text, and the
human-readable :class:`ProfileReport`.

All exporters are pure functions of a :class:`~repro.observability.Tracer`
and/or :class:`~repro.observability.MetricsRegistry` — they never mutate
what they read, so exporting mid-run is safe.

* :func:`to_json` — one dict holding the span list and the metrics
  snapshot; round-trips through ``json``.
* :func:`to_chrome_trace` — the ``chrome://tracing`` / Perfetto
  trace-event format (``X`` complete events, microsecond timestamps).
* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP``/``# TYPE`` plus ``_bucket``/``_sum``/``_count`` series
  for histograms).
* :func:`to_collapsed_stacks` — the collapsed-stack text format
  (``root;child;leaf <self-time-us>`` lines) consumed by
  https://speedscope.app and ``flamegraph.pl``.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.observability.metrics import (
    GATE_APPLIES,
    KERNEL_BYTES,
    KERNEL_SECONDS,
    MEASUREMENTS,
    MetricsRegistry,
    PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES,
    STATE_BYTES_MAX,
    Counter,
    Gauge,
    Histogram,
)
from repro.observability.tracer import Span, Tracer

__all__ = [
    "to_json",
    "dumps_json",
    "to_chrome_trace",
    "to_prometheus",
    "to_collapsed_stacks",
    "ProfileReport",
]


# -- JSON ---------------------------------------------------------------------


def to_json(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> dict:
    """Spans and metrics as one JSON-serializable dict."""
    out: dict = {"format": "repro-observability", "version": 1}
    if tracer is not None:
        out["spans"] = [s.to_dict() for s in tracer.spans]
    if metrics is not None:
        out["metrics"] = metrics.snapshot()
    return out


def dumps_json(tracer=None, metrics=None, indent: int = 2) -> str:
    """:func:`to_json`, serialized."""
    return json.dumps(to_json(tracer, metrics), indent=indent)


# -- Chrome trace-event -------------------------------------------------------


def to_chrome_trace(tracer: Tracer) -> dict:
    """Spans in Chrome trace-event JSON (open via ``chrome://tracing``
    or https://ui.perfetto.dev).

    Each span becomes one ``"ph": "X"`` complete event; timestamps are
    microseconds relative to the earliest recorded span.
    """
    spans = tracer.spans
    t0 = min((s.start for s in spans), default=0.0)
    events = []
    for s in spans:
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.wall_seconds * 1e6,
                "pid": 0,
                "tid": s.thread_id,
                "cat": "repro",
                "args": {
                    str(k): v for k, v in s.attributes.items()
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- collapsed stacks (speedscope / flamegraph.pl) ----------------------------


def to_collapsed_stacks(tracer: Tracer) -> str:
    """Spans in the collapsed-stack text format.

    One line per unique root-to-span path, ``a;b;c <self-us>``, where
    the weight is the span's *self* time (wall time minus child wall
    time) in integer microseconds.  The output drops straight into
    https://speedscope.app or Brendan Gregg's ``flamegraph.pl``.
    Identical paths (e.g. repeated ``simulate.execute`` calls) merge
    into one line with summed weight; zero-weight paths are kept only
    when the span has no children, so leaf spans never vanish.
    """
    weights: dict = {}

    def visit(span: Span, prefix: str) -> None:
        path = f"{prefix};{span.name}" if prefix else span.name
        children = tracer.children(span)
        child_wall = sum(c.wall_seconds for c in children)
        self_us = int(round(max(0.0, span.wall_seconds - child_wall) * 1e6))
        if self_us > 0 or not children:
            weights[path] = weights.get(path, 0) + self_us
        for child in children:
            visit(child, path)

    for root in tracer.roots():
        visit(root, "")
    lines = [f"{path} {us}" for path, us in sorted(weights.items())]
    return "\n".join(lines) + ("\n" if lines else "")


# -- Prometheus text exposition ----------------------------------------------


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def to_prometheus(metrics: MetricsRegistry) -> str:
    """Metrics in the Prometheus text exposition format."""
    lines: List[str] = []
    for inst in metrics.instruments():
        if inst.help:
            lines.append(f"# HELP {inst.name} {inst.help}")
        lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, Histogram):
            for labels in inst.labelsets():
                counts = inst.bucket_counts(**labels)
                cumulative = 0
                for bound, c in zip(inst.buckets, counts):
                    cumulative += c
                    le = dict(labels, le=repr(float(bound)))
                    lines.append(
                        f"{inst.name}_bucket{_fmt_labels(le)} "
                        f"{cumulative}"
                    )
                cumulative += counts[-1]
                le = dict(labels, le="+Inf")
                lines.append(
                    f"{inst.name}_bucket{_fmt_labels(le)} {cumulative}"
                )
                lines.append(
                    f"{inst.name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(inst.sum(**labels))}"
                )
                lines.append(
                    f"{inst.name}_count{_fmt_labels(labels)} "
                    f"{inst.count(**labels)}"
                )
        elif isinstance(inst, (Counter, Gauge)):
            for labels in inst.labelsets():
                lines.append(
                    f"{inst.name}{_fmt_labels(labels)} "
                    f"{_fmt_value(inst.value(**labels))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# -- the human-readable profile report ---------------------------------------


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:8.3f} s "
    if s >= 1e-3:
        return f"{s * 1e3:8.3f} ms"
    return f"{s * 1e6:8.1f} us"


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"


class ProfileReport:
    """Per-run profile: the span tree plus a kernel-time breakdown.

    Render with ``str(report)`` (or ``print(report)``); the structured
    accessors (:attr:`wall_seconds`, :meth:`kernel_seconds`,
    :meth:`coverage`) back the acceptance tests.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        stats=None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        #: Optional :class:`~repro.simulation.PlanStats` of the run.
        self.stats = stats

    # -- structured accessors ------------------------------------------------

    def _named_spans(self, name: str) -> List[Span]:
        if self.tracer is None:
            return []
        return [s for s in self.tracer.spans if s.name == name]

    @property
    def wall_seconds(self) -> float:
        """Total wall time of the root span(s); falls back to
        ``PlanStats`` stage times when the run was not traced."""
        if self.tracer is not None and len(self.tracer):
            return sum(s.wall_seconds for s in self.tracer.roots())
        if self.stats is not None:
            return (
                self.stats.signature_seconds
                + self.stats.compile_seconds
                + self.stats.execute_seconds
            )
        return 0.0

    @property
    def execute_seconds(self) -> float:
        """Wall time of the execution span(s) (plan replay)."""
        total = sum(
            s.wall_seconds for s in self._named_spans("simulate.execute")
        )
        if total == 0.0 and self.stats is not None:
            return self.stats.execute_seconds
        return total

    def kernel_seconds(self, backend: Optional[str] = None) -> float:
        """Wall seconds measured inside backend kernels, optionally
        restricted to one backend name."""
        if self.metrics is None:
            return 0.0
        hist = self.metrics.get(KERNEL_SECONDS)
        if not isinstance(hist, Histogram):
            return 0.0
        total = 0.0
        for labels in hist.labelsets():
            if backend is not None and labels.get("backend") != backend:
                continue
            total += hist.sum(**labels)
        return total

    def kernel_breakdown(self) -> List[dict]:
        """Rows ``{backend, kind, calls, seconds}``, slowest first."""
        if self.metrics is None:
            return []
        hist = self.metrics.get(KERNEL_SECONDS)
        counter = self.metrics.get(GATE_APPLIES)
        if not isinstance(hist, Histogram):
            return []
        rows = []
        for labels in hist.labelsets():
            calls = hist.count(**labels)
            if isinstance(counter, Counter):
                calls = int(counter.value(**labels)) or calls
            rows.append(
                {
                    "backend": labels.get("backend", "?"),
                    "kind": labels.get("kind", "?"),
                    "calls": calls,
                    "seconds": hist.sum(**labels),
                }
            )
        rows.sort(key=lambda r: -r["seconds"])
        return rows

    def op_table(self) -> List[dict]:
        """The per-op cost attribution table: rows ``{backend, kind,
        calls, seconds, bytes}``, slowest first.

        Extends :meth:`kernel_breakdown` with the approximate bytes
        touched per (backend, kind) series from
        ``repro_kernel_bytes_total``, so hot kernels can be ranked by
        time or memory traffic.  Each plan-replay loop records one
        reading per step: gate kinds count one call per state row per
        branch, and noise channels attached to gate steps appear apart
        as ``kind="kraus"``.
        """
        rows = self.kernel_breakdown()
        nbytes = (
            self.metrics.get(KERNEL_BYTES)
            if self.metrics is not None
            else None
        )
        for r in rows:
            r["bytes"] = (
                int(nbytes.value(backend=r["backend"], kind=r["kind"]))
                if isinstance(nbytes, Counter)
                else 0
            )
        return rows

    def coverage(self) -> float:
        """Fraction of execution wall time accounted for by kernel +
        measurement timings (1.0 = fully explained)."""
        exe = self.execute_seconds
        if exe <= 0.0:
            return 0.0
        accounted = self.kernel_seconds()
        if self.metrics is not None:
            meas = self.metrics.get(MEASUREMENTS)
            if isinstance(meas, Histogram):
                accounted += meas.total_sum()
        return accounted / exe

    # -- rendering -----------------------------------------------------------

    def _render_span(self, span: Span, depth: int, lines: List[str]):
        attrs = ""
        interesting = {
            k: v
            for k, v in span.attributes.items()
            if k in ("backend", "nb_qubits", "steps", "cache_hit",
                     "error", "shots", "nb_ops")
        }
        if interesting:
            attrs = "  " + ", ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())
            )
        lines.append(
            f"  {_fmt_seconds(span.wall_seconds)}  "
            f"{'  ' * depth}{span.name}{attrs}"
        )
        for child in self.tracer.children(span):
            self._render_span(child, depth + 1, lines)

    def lines(self) -> List[str]:
        """The rendered report, one string per line."""
        out: List[str] = ["ProfileReport"]
        if self.stats is not None:
            st = self.stats
            out.append(
                f"  plan: {st.nb_source_ops} source ops -> "
                f"{st.nb_steps} steps ({st.nb_fused} fused), "
                f"cache_hit={st.cache_hit}"
            )
        if self.tracer is not None and len(self.tracer):
            out.append("  spans (wall time):")
            for root in self.tracer.roots():
                self._render_span(root, 1, out)
        rows = self.op_table()
        if rows:
            out.append("  kernel time by backend/kind:")
            for r in rows:
                mem = (
                    f", {_fmt_bytes(r['bytes'])}" if r["bytes"] else ""
                )
                out.append(
                    f"  {_fmt_seconds(r['seconds'])}  "
                    f"{r['backend']}/{r['kind']}  "
                    f"({r['calls']} applies{mem})"
                )
            exe = self.execute_seconds
            if exe > 0:
                out.append(
                    f"  kernels account for {100 * self.coverage():.1f}% "
                    f"of execute wall time ({_fmt_seconds(exe).strip()})"
                )
        if self.metrics is not None:
            extras = []
            for name, label in (
                (PLAN_CACHE_HITS, "plan-cache hits"),
                (PLAN_CACHE_MISSES, "plan-cache misses"),
            ):
                c = self.metrics.get(name)
                if isinstance(c, Counter) and c.total():
                    extras.append(f"{label}={int(c.total())}")
            g = self.metrics.get(STATE_BYTES_MAX)
            if isinstance(g, Gauge) and g.value():
                extras.append(
                    f"statevector high-water={int(g.value())} bytes"
                )
            if extras:
                out.append("  " + ", ".join(extras))
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())

    def __repr__(self) -> str:
        return (
            f"ProfileReport(wall={self.wall_seconds * 1e3:.3f}ms, "
            f"kernels={self.kernel_seconds() * 1e3:.3f}ms)"
        )
