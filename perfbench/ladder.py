"""``sv-ladder``: library ``simulate()`` at 12, 16 and 18 qubits, three
circuit shapes per rung, warm (cached plans) and cold (empty cache).

Each circuit's times are reduced to a median first; a rung's pass
time is the sum of its circuits' medians, so a run can stop after any
circuit.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import stats
import workloads as W
from procs import self_peak_rss_mb, time_setup_probe

TOLERANCE = 1e-10
SETUPS = 5
#: Warm calls of each circuit after its cold call, per visit.
WARM_REPEATS = 2
#: Reported names of the flight recorder's step kinds.
KINDS = {"1q": "1q", "kq": "2q", "diag": "diag", "controlled": "ctrl",
         "measure": "measure"}


def setup(seed):
    """What a fresh process needs before the first timed call."""
    return W.ladder_circuits(seed)


class _Checker:
    """Every branch normalised; 12-qubit outputs equal the ``sparse``
    reference backend's."""

    def __init__(self, circuits):
        import repro
        from repro.simulation import SimulationOptions

        opts = SimulationOptions(backend="sparse")
        self.refs = {
            i: repro.simulate(c, "0" * n, opts)
            for i, (n, _shape, c) in enumerate(circuits) if n == 12
        }
        self.wrong = 0
        self.problems = []

    def __call__(self, i, sim):
        ok = all(
            abs(np.linalg.norm(s) - 1.0) <= TOLERANCE for s in sim.states
        ) and abs(float(np.sum(sim.probabilities)) - 1.0) <= TOLERANCE
        ref = self.refs.get(i)
        if ref is not None:
            ok = ok and ref.results == sim.results and all(
                np.max(np.abs(a - b)) <= TOLERANCE
                for a, b in zip(ref.states, sim.states)
            ) and np.allclose(
                ref.probabilities, sim.probabilities, rtol=0, atol=TOLERANCE
            )
        if not ok:
            self.wrong += 1
            if len(self.problems) < 5:
                self.problems.append(f"sv-ladder circuit {i}: wrong output")


def _cycles(circuits, seconds, check, observe=None, call=None):
    """Round-robin over the circuits until ``seconds`` have passed and
    every circuit ran: each visit clears the plan cache, runs the
    circuit once cold and then :data:`WARM_REPEATS` times warm on the
    plan that call compiled.

    Returns ``(cold, warm, calls)``: per-circuit lists of cold and warm
    seconds, and the simulate calls made.  ``observe(i, sim, cold)``
    sees every result outside the timing; ``call`` replaces the plain
    ``simulate`` call (tracing).
    """
    import repro
    from repro.simulation import clear_plan_cache

    cold = [[] for _ in circuits]
    warm = [[] for _ in circuits]
    calls = 0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or not all(cold):
        n, _shape, circuit = circuits[i]
        clear_plan_cache()
        start = "0" * n
        for rep in range(WARM_REPEATS + 1):
            t0 = perf_counter()
            if call is None:
                sim = repro.simulate(circuit, start)
            else:
                sim = call(circuit, start)
            (warm[i] if rep else cold[i]).append(perf_counter() - t0)
            calls += 1
            check(i, sim)
            if observe is not None:
                observe(i, sim, rep == 0)
        i = (i + 1) % len(circuits)
    return cold, warm, calls


def _cold_s(cold, warm):
    """Summed first-call time of the circuits: each visit's cold call
    is paired with the first warm call after it (see
    :func:`stats.first_call`)."""
    return sum(
        stats.first_call(list(zip(c, w[::WARM_REPEATS])), w)
        for c, w in zip(cold, warm)
    )


def _rung_sum(circuits, per_circuit, n):
    """Sum over rung ``n``'s circuits of each circuit's value."""
    return sum(v for (m, _s, _c), v in zip(circuits, per_circuit) if m == n)


def run(root, workdir, seed, seconds, trace):
    circuits = setup(seed)
    check = _Checker(circuits)
    if trace:
        metrics, calls = _run_traced(workdir, circuits, seconds, check)
    else:
        setups = [time_setup_probe(root, "sv-ladder", seed)
                  for _ in range(SETUPS)]
        cold, warm, calls = _cycles(circuits, seconds, check)
        pass_s = sum(stats.median(w) for w in warm)
        metrics = {
            "setup_s": stats.median(setups),
            "peak_rss_mb": self_peak_rss_mb(),
            "p50_ms": pass_s * 1e3,
            "ops_per_s": len(circuits) / pass_s,
            "cold_s": _cold_s(cold, warm),
        }
    notes = [f"sv-ladder: {calls} simulate calls"] + check.problems
    return metrics, calls, check.wrong, notes


class _Recorder:
    """Per-call reads of the program's flight recorder: step dispatch
    times, compile events and appends."""

    def __init__(self, circuits):
        from repro.observability import flight_recorder

        self.rec = flight_recorder()
        self.circuits = circuits
        self.mark = self.rec.recorded
        self.events_per_call = []
        #: per circuit: one {kind | "overhead" | "bytes" | "gate_s":
        #: value} dict per warm call
        self.warm = [[] for _ in circuits]
        #: per circuit: (compile seconds, table bytes) per cold call
        self.cold = [[] for _ in circuits]
        self.hits = self.lookups = 0

    def __call__(self, i, sim, cold):
        events = [e for e in self.rec.events() if e.seq > self.mark]
        self.events_per_call.append(self.rec.recorded - self.mark)
        try:
            self._observe(i, sim.stats, events, cold)
        finally:
            # reads below append events too; leave them out of the count
            self.mark = self.rec.recorded

    def _observe(self, i, st, events, cold):
        from repro.observability.recorder import (
            EV_PLAN_COMPILE,
            EV_STEP_DISPATCH,
        )

        self.lookups += 1
        self.hits += int(st.cache_hit)
        if cold:
            table = sum(
                e.data["table_bytes"] for e in events
                if e.kind == EV_PLAN_COMPILE
            )
            self.cold[i].append((st.compile_seconds, table))
            return
        steps = [e for e in events if e.kind == EV_STEP_DISPATCH]
        acc = dict.fromkeys(set(KINDS.values()), 0.0)
        for e in steps:
            acc[KINDS[e.data["op"]]] += e.data["ns"] * 1e-6
        acc["overhead"] = 1e3 * (
            st.execute_seconds - sum(e.data["ns"] for e in steps) * 1e-9
        )
        acc["bytes"] = self._bytes(i, steps)
        acc["gate_s"] = 1e-9 * sum(
            e.data["ns"] for e in steps if e.data["op"] != "measure"
        )
        self.warm[i].append(acc)

    def _bytes(self, i, steps):
        """Kernel bytes the backend reports for this call's gate steps
        (``planned_bytes`` times the live branch count)."""
        from repro.simulation import SimulationOptions
        from repro.simulation.plan import GATE, get_plan

        n, _shape, circuit = self.circuits[i]
        opts = SimulationOptions()
        plan, _ = get_plan(circuit, opts.backend, opts.dtype, fuse=opts.fuse)
        state = np.empty(1 << n, dtype=opts.dtype)
        total = 0
        for step, e in zip(plan.steps, steps):
            if step.kind == GATE:
                total += plan.engine.planned_bytes(step, state, n) * (
                    e.data["branches"]
                )
        return total

    def metrics(self):
        def rung(key, n, source=None):
            """Rung sum of each circuit's median ``key``."""
            per_circuit = [
                stats.median([call[key] for call in calls])
                for calls in (source or self.warm)
            ]
            return _rung_sum(self.circuits, per_circuit, n)

        out = {}
        for kind in sorted(set(KINDS.values())):
            for n in W.RUNGS:
                out[f"dispatch.step_ms.{kind}.q{n}"] = rung(kind, n)
        out["dispatch.overhead_ms.q12"] = rung("overhead", 12)
        for n in (16, 18):
            out[f"kernel.computed_gbps.q{n}"] = (
                rung("bytes", n) / rung("gate_s", n) / 1e9
            )
        for n in W.RUNGS:
            shapes = len(W.SHAPES)
            out[f"plan.compile_ms.q{n}"] = (
                1e3 * rung(0, n, self.cold) / shapes
            )
            out[f"plan.table_mb.q{n}"] = (
                rung(1, n, self.cold) / shapes / 2**20
            )
        out["obs.events_per_run"] = stats.median(self.events_per_call)
        out["plan.hit_ratio"] = self.hits / max(1, self.lookups)
        return out


def _run_traced(workdir, circuits, seconds, check):
    """Untraced half (program counters, recorder), then traced half
    (spans from the benchmark's wrappers)."""
    import repro
    from tracing import SpanLog, call_metrics

    half = seconds / 2.0
    recorder = _Recorder(circuits)
    cold, warm, calls = _cycles(circuits, half, check, observe=recorder)
    metrics = recorder.metrics()
    warm_med = [stats.median(w) for w in warm]
    for n in W.RUNGS:
        metrics[f"ladder.q{n}_ms"] = 1e3 * _rung_sum(circuits, warm_med, n)
    metrics["ladder.cold_s"] = _cold_s(cold, warm)

    log = SpanLog().install()
    try:
        def traced_call(circuit, start):
            return log.call("call", repro.simulate, circuit, start)

        _cold_t, warm_t, calls_t = _cycles(
            circuits, half, check, call=traced_call
        )
    finally:
        log.uninstall()
    log.dump(workdir / "sv-ladder-spans.json")
    traced = sum(stats.median(w) for w in warm_t)
    metrics.update(call_metrics(log.spans))
    metrics["trace.overhead"] = traced / sum(warm_med) - 1.0
    metrics["error_rate"] = stats.error_rate(
        calls + calls_t, 0, check.wrong
    )
    return metrics, calls + calls_t
