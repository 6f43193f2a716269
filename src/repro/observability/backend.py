"""A :class:`Backend` decorator that measures every kernel application.

:class:`InstrumentedBackend` wraps any gate-apply backend and records,
into a :class:`~repro.observability.MetricsRegistry`:

* ``repro_gate_applies_total{backend,kind}`` — application counts,
* ``repro_kernel_seconds{backend,kind}`` — wall time per application,
* ``repro_kernel_bytes_total{backend,kind}`` — approximate bytes
  read+written per application (the backend's ``planned_bytes``
  estimate for planned steps, full-state streaming otherwise),
* ``repro_plan_prepare_seconds{backend,stage}`` — wall time inside
  the ``prepare_step``/``refresh_step`` compile-time hooks,

where ``kind`` classifies the gate structurally (``1q`` / ``diag`` /
``kq`` / ``controlled``), matching the gate classes benchmarked by
``bench_b2``.  Together the three kernel series back the per-op cost
attribution table (:meth:`~repro.observability.ProfileReport.op_table`).
The wrapper is applied by the simulation drivers only when
instrumentation is enabled, so the uninstrumented hot path never sees
it.
"""

from __future__ import annotations

from time import perf_counter

from repro.observability.metrics import (
    GATE_APPLIES,
    KERNEL_BYTES,
    KERNEL_SECONDS,
    PLAN_PREP_SECONDS,
    MetricsRegistry,
)

__all__ = ["InstrumentedBackend", "step_kind", "gate_kind"]


def gate_kind(targets, controls, diagonal) -> str:
    """Structural gate class: ``diag``, ``controlled``, ``1q``, ``kq``."""
    if diagonal:
        return "diag"
    if controls:
        return "controlled"
    if len(targets) == 1:
        return "1q"
    return "kq"


def step_kind(step) -> str:
    """Structural class of a compiled :class:`PlanStep`."""
    return gate_kind(step.targets, step.controls, step.diagonal)


class InstrumentedBackend:
    """Wraps a backend; delegates everything, timing each apply.

    Deliberately *not* a :class:`~repro.simulation.Backend` subclass —
    it duck-types the ``prepare_step``/``apply_planned``/``apply``
    surface instead, which keeps :mod:`repro.observability` free of
    simulation imports (the simulation layer imports observability,
    not the other way around).
    """

    kind = "statevector"

    def __init__(self, inner, metrics: MetricsRegistry):
        self.inner = inner
        self.name = inner.name
        self._applies = metrics.counter(
            GATE_APPLIES, "gate-kernel applications by backend and kind"
        )
        self._seconds = metrics.histogram(
            KERNEL_SECONDS, "wall seconds inside backend kernels"
        )
        self._bytes = metrics.counter(
            KERNEL_BYTES, "approximate bytes touched by backend kernels"
        )
        self._prep = metrics.histogram(
            PLAN_PREP_SECONDS,
            "wall seconds inside prepare_step/refresh_step hooks",
        )
        # pre-bound label children per gate kind: keeps the per-apply
        # recording gap (which lands inside the execute span but outside
        # the timed kernel region) as small as possible
        self._handles = {
            kind: (
                self._applies.labels(backend=self.name, kind=kind),
                self._seconds.labels(backend=self.name, kind=kind),
                self._bytes.labels(backend=self.name, kind=kind),
            )
            for kind in ("1q", "diag", "kq", "controlled")
        }

    def planned_bytes(self, step, states, nb_qubits):
        """Delegate the byte estimate to ``inner``."""
        return self.inner.planned_bytes(step, states, nb_qubits)

    def prepare_step(self, step, nb_qubits, tables):
        """Timed pass-through to ``inner.prepare_step``, labelled by
        the step's structural kind for per-kind attribution."""
        t0 = perf_counter()
        self.inner.prepare_step(step, nb_qubits, tables)
        self._prep.observe(
            perf_counter() - t0, backend=self.name, stage="prepare",
            kind=step_kind(step),
        )

    def refresh_step(self, step, nb_qubits, tables):
        """Timed pass-through to ``inner.refresh_step``, labelled by
        the step's structural kind for per-kind attribution."""
        t0 = perf_counter()
        self.inner.refresh_step(step, nb_qubits, tables)
        self._prep.observe(
            perf_counter() - t0, backend=self.name, stage="refresh",
            kind=step_kind(step),
        )

    def apply_planned(self, state, step, nb_qubits, out=None):
        """Timed pass-through to ``inner.apply_planned``, forwarding
        the scratch buffer."""
        applies, seconds, nbytes = self._handles[step_kind(step)]
        t0 = perf_counter()
        res = self.inner.apply_planned(state, step, nb_qubits, out=out)
        dt = perf_counter() - t0
        applies.inc()
        seconds.observe(dt)
        nbytes.inc(self.inner.planned_bytes(step, res, nb_qubits))
        return res

    def apply_planned_batched(self, states, step, nb_qubits, out=None):
        """Timed pass-through to ``inner.apply_planned_batched``;
        counts one apply per batch row."""
        # one batched call applies the kernel to B trajectories; count
        # B applies so per-shot accounting matches the serial runner
        applies, seconds, nbytes = self._handles[step_kind(step)]
        batch = states.shape[0]
        t0 = perf_counter()
        res = self.inner.apply_planned_batched(
            states, step, nb_qubits, out=out
        )
        dt = perf_counter() - t0
        applies.inc(batch)
        seconds.observe(dt)
        nbytes.inc(self.inner.planned_bytes(step, res, nb_qubits))
        return res

    def apply_batched(
        self,
        states,
        kernel,
        targets,
        nb_qubits,
        controls=(),
        control_states=(),
        diagonal=False,
    ):
        """Timed pass-through to ``inner.apply_batched``; counts one
        apply per batch row."""
        applies, seconds, nbytes = self._handles[
            gate_kind(targets, controls, diagonal)
        ]
        batch = states.shape[0]
        t0 = perf_counter()
        out = self.inner.apply_batched(
            states,
            kernel,
            targets,
            nb_qubits,
            controls=controls,
            control_states=control_states,
            diagonal=diagonal,
        )
        dt = perf_counter() - t0
        applies.inc(batch)
        seconds.observe(dt)
        nbytes.inc(2 * out.nbytes)  # unplanned: full-batch streaming
        return out

    def apply(
        self,
        state,
        kernel,
        targets,
        nb_qubits,
        controls=(),
        control_states=(),
        diagonal=False,
    ):
        """Timed pass-through to ``inner.apply``, metering applies,
        kernel seconds and bytes by gate kind."""
        applies, seconds, nbytes = self._handles[
            gate_kind(targets, controls, diagonal)
        ]
        t0 = perf_counter()
        out = self.inner.apply(
            state,
            kernel,
            targets,
            nb_qubits,
            controls=controls,
            control_states=control_states,
            diagonal=diagonal,
        )
        dt = perf_counter() - t0
        applies.inc()
        seconds.observe(dt)
        nbytes.inc(2 * out.nbytes)  # unplanned: full-state streaming
        return out

    def __repr__(self) -> str:
        return f"InstrumentedBackend({self.inner!r})"
