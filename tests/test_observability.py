"""Tests for :mod:`repro.observability` and its simulation hooks."""

import json
import threading
import warnings
from time import perf_counter

import numpy as np
import pytest

from repro.circuit import Measurement, QCircuit, Reset
from repro.gates import CNOT, CZ, Hadamard, RotationX, RotationZ
from repro.noise import Depolarizing, NoiseModel, noisy_counts, run_trajectory
from repro.observability import (
    GATE_APPLIES,
    KERNEL_BYTES,
    KERNEL_SECONDS,
    PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES,
    RNG_DRAWS,
    SHOTS_SAMPLED,
    STATE_BYTES_MAX,
    TRAJECTORIES,
    Instrumentation,
    MetricsRegistry,
    ProfileReport,
    Tracer,
    instrument,
    to_chrome_trace,
    to_collapsed_stacks,
    to_json,
    to_prometheus,
)
from repro.simulation import (
    SimulationOptions,
    clear_plan_cache,
    simulate,
    simulate_density,
)


def bell():
    c = QCircuit(2)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(Measurement(0))
    c.push_back(Measurement(1))
    return c


def deep_circuit(n=8, layers=8):
    c = QCircuit(n)
    for layer in range(layers):
        for q in range(n):
            c.push_back(RotationX(q, 0.1 * (layer + 1) + 0.01 * q))
        for q in range(n):
            c.push_back(RotationZ(q, 0.2 - 0.01 * q))
        for q in range(0, n - 1, 2):
            c.push_back(CZ(q, q + 1))
    return c


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_ordering(self):
        t = Tracer()
        with t.span("outer", tag="a"):
            with t.span("inner1"):
                pass
            with t.span("inner2"):
                pass
        spans = {s.name: s for s in t.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner1"].parent_id == spans["outer"].span_id
        assert spans["inner2"].parent_id == spans["outer"].span_id
        assert spans["inner1"].start <= spans["inner2"].start
        # children close before parents (post-order)
        names = [s.name for s in t.spans]
        assert names.index("inner1") < names.index("outer")
        roots = t.roots()
        assert [s.name for s in roots] == ["outer"]
        kids = t.children(roots[0])
        assert [s.name for s in kids] == ["inner1", "inner2"]

    def test_exception_closes_and_tags_spans(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError("boom")
        spans = {s.name: s for s in t.spans}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"].attributes["error"] == "ValueError"
        assert spans["outer"].attributes["error"] == "ValueError"
        assert spans["inner"].parent_id == spans["outer"].span_id
        for s in spans.values():
            assert s.end >= s.start
        # the tracer is reusable afterwards: the open-span stack unwound
        with t.span("after"):
            pass
        assert t.spans[-1].parent_id is None

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("x", a=1) as sp:
            sp.set(b=2)  # no-op handle supports set()
        assert len(t) == 0

    def test_wall_and_cpu_time_recorded(self):
        t = Tracer()
        with t.span("work"):
            sum(i * i for i in range(10000))
        (s,) = t.spans
        assert s.wall_seconds > 0
        assert s.cpu_seconds >= 0


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        c = m.counter("c", "help")
        c.inc()
        c.inc(2, kind="x")
        assert c.value() == 1
        assert c.value(kind="x") == 2
        assert c.total() == 3
        with pytest.raises(ValueError):
            c.inc(-1)
        g = m.gauge("g")
        g.set(5)
        g.set_max(3)
        assert g.value() == 5
        g.set_max(9)
        assert g.value() == 9
        h = m.histogram("h", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(50.0)
        assert h.count() == 3
        assert h.sum() == pytest.approx(50.55)
        assert h.bucket_counts() == [1, 1, 1]

    def test_type_conflict_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_thread_safety_raw_counters(self):
        m = MetricsRegistry()
        c = m.counter("n")
        h = m.histogram("h")

        def work():
            for _ in range(2000):
                c.inc()
                h.observe(1e-4)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.total() == 16000
        assert h.count() == 16000

    def test_concurrent_trajectory_runs_share_registry(self):
        # the ISSUE's thread-safety case: many noisy trajectory shots
        # recording into one shared registry from worker threads
        circuit = bell()
        noise = NoiseModel()
        registry = MetricsRegistry()
        opts = SimulationOptions(metrics=registry)
        shots, n_threads = 25, 4

        def work(seed):
            noisy_counts(
                circuit, noise, shots=shots, seed=seed, options=opts
            )

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = shots * n_threads
        assert registry.counter(TRAJECTORIES).total() == total
        assert registry.counter(SHOTS_SAMPLED).total() == total
        # 2 measurement draws per bell trajectory
        assert registry.counter(RNG_DRAWS).total() == 2 * total
        applies = registry.counter(GATE_APPLIES).total()
        # H and CNOT fuse into one block step per trajectory
        assert applies == total


# -- exporters ---------------------------------------------------------------


class TestExporters:
    def _instrumented_run(self):
        clear_plan_cache()
        with instrument() as inst:
            simulate(bell(), "00")
        return inst

    def test_json_round_trip(self):
        inst = self._instrumented_run()
        payload = to_json(inst.tracer, inst.metrics)
        loaded = json.loads(json.dumps(payload))
        assert loaded["format"] == "repro-observability"
        names = {s["name"] for s in loaded["spans"]}
        assert {"simulate", "plan.get", "simulate.execute"} <= names
        assert GATE_APPLIES in loaded["metrics"]
        # parent links survive the round trip
        by_id = {s["span_id"]: s for s in loaded["spans"]}
        for s in loaded["spans"]:
            if s["parent_id"] is not None:
                assert s["parent_id"] in by_id

    def test_chrome_trace_round_trip(self):
        inst = self._instrumented_run()
        trace = to_chrome_trace(inst.tracer)
        loaded = json.loads(json.dumps(trace))
        events = loaded["traceEvents"]
        assert len(events) == len(inst.tracer.spans)
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0.0
            assert ev["dur"] >= 0.0
            assert isinstance(ev["name"], str)
        # nesting holds on the timeline: simulate contains execute
        sim = next(e for e in events if e["name"] == "simulate")
        exe = next(e for e in events if e["name"] == "simulate.execute")
        assert sim["ts"] <= exe["ts"]
        assert sim["ts"] + sim["dur"] >= exe["ts"] + exe["dur"]

    def test_prometheus_exposition(self):
        inst = self._instrumented_run()
        text = to_prometheus(inst.metrics)
        assert f"# TYPE {GATE_APPLIES} counter" in text
        assert f"# TYPE {KERNEL_SECONDS} histogram" in text
        assert f"{KERNEL_SECONDS}_bucket" in text
        assert 'le="+Inf"' in text
        # every sample line parses as "name{labels} value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part.startswith("repro_")

    def test_profile_report_renders(self):
        inst = self._instrumented_run()
        report = inst.report()
        text = str(report)
        assert "ProfileReport" in text
        assert "simulate" in text
        assert "kernel" in text
        assert report.wall_seconds > 0

    def test_exporters_handle_empty_registry_and_tracer(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        assert to_prometheus(metrics) == ""
        assert to_collapsed_stacks(tracer) == ""
        payload = to_json(tracer, metrics)
        assert payload["spans"] == []
        assert payload["metrics"] == {}
        assert to_chrome_trace(tracer)["traceEvents"] == []
        report = ProfileReport(tracer, metrics)
        assert report.op_table() == []
        assert "ProfileReport" in str(report)

    def test_prometheus_known_good_fixture(self):
        """Exact-text round trip: a registry with one of each
        instrument type must serialize to this fixture verbatim
        (histogram ``_bucket``/``_sum``/``_count`` with ``le``
        labels included)."""
        metrics = MetricsRegistry()
        c = metrics.counter("repro_test_total", "a counter")
        c.inc(3, backend="kernel")
        g = metrics.gauge("repro_test_gauge", "a gauge")
        g.set(7.5)
        h = metrics.histogram(
            "repro_test_seconds", "a histogram", buckets=(0.1, 1.0)
        )
        h.observe(0.05, kind="1q")
        h.observe(0.5, kind="1q")
        h.observe(5.0, kind="1q")
        expected = "\n".join(
            [
                "# HELP repro_test_gauge a gauge",
                "# TYPE repro_test_gauge gauge",
                "repro_test_gauge 7.5",
                "# HELP repro_test_seconds a histogram",
                "# TYPE repro_test_seconds histogram",
                'repro_test_seconds_bucket{kind="1q",le="0.1"} 1',
                'repro_test_seconds_bucket{kind="1q",le="1.0"} 2',
                'repro_test_seconds_bucket{kind="1q",le="+Inf"} 3',
                'repro_test_seconds_sum{kind="1q"} 5.55',
                'repro_test_seconds_count{kind="1q"} 3',
                "# HELP repro_test_total a counter",
                "# TYPE repro_test_total counter",
                'repro_test_total{backend="kernel"} 3',
                "",
            ]
        )
        assert to_prometheus(metrics) == expected

    def test_collapsed_stacks_shape(self):
        inst = self._instrumented_run()
        text = to_collapsed_stacks(inst.tracer)
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            path, weight = line.rsplit(" ", 1)
            assert int(weight) >= 0
            assert path
        # nested spans appear as semicolon-joined root-to-leaf paths
        assert any(
            ln.startswith("simulate;simulate.execute ") for ln in lines
        )
        # self time never exceeds total wall time of the roots
        total_us = sum(int(ln.rsplit(" ", 1)[1]) for ln in lines)
        roots_us = sum(
            s.wall_seconds for s in inst.tracer.roots()
        ) * 1e6
        assert total_us <= roots_us * 1.01 + 10

    def test_op_table_carries_bytes_and_prep_timings(self):
        inst = self._instrumented_run()
        rows = inst.report().op_table()
        assert rows
        for r in rows:
            assert set(r) == {
                "backend", "kind", "calls", "seconds", "bytes",
            }
        applied = [r for r in rows if r["calls"] > 0]
        assert applied
        # a 2-qubit statevector is 64 bytes; every kernel streams it
        # in and out at least once
        assert all(r["bytes"] >= 64 for r in applied)
        nbytes = inst.metrics.get(KERNEL_BYTES)
        assert nbytes is not None and nbytes.total() > 0


# -- simulation hooks --------------------------------------------------------


class TestSimulationHooks:
    def test_options_trace_metrics_and_report(self):
        clear_plan_cache()
        sim = simulate(
            bell(), "00", options=SimulationOptions(trace=True, metrics=True)
        )
        report = sim.report()
        assert isinstance(report, ProfileReport)
        assert report.kernel_seconds() > 0
        assert report.kernel_seconds("kernel") == report.kernel_seconds()
        assert report.stats is sim.stats
        m = report.metrics
        assert m.counter(PLAN_CACHE_MISSES).total() == 1
        assert m.gauge(STATE_BYTES_MAX).value() >= 4 * 16

    def test_plan_cache_hit_counter(self):
        clear_plan_cache()
        c = bell()
        registry = MetricsRegistry()
        opts = SimulationOptions(metrics=registry)
        simulate(c, "00", options=opts)
        simulate(c, "00", options=opts)
        assert registry.counter(PLAN_CACHE_MISSES).total() == 1
        assert registry.counter(PLAN_CACHE_HITS).total() == 1

    def test_uninstrumented_run_has_plain_report(self):
        sim = simulate(bell(), "00")
        report = sim.report()
        assert report.tracer is None
        assert report.stats is sim.stats
        assert report.wall_seconds > 0  # falls back to PlanStats times

    def test_unfused_run_instrumented(self):
        sim = simulate(
            bell(),
            "00",
            options=SimulationOptions(fuse=False, trace=True),
        )
        assert sim.stats is not None
        assert sim.stats.nb_source_ops == 4
        names = {s.name for s in sim.report().tracer.spans}
        assert {"simulate", "simulate.execute"} <= names
        assert sim.report().kernel_seconds() > 0

    def test_counts_records_shots(self):
        with instrument() as inst:
            sim = simulate(bell(), "00")
            sim.counts(100, seed=1)
            sim.counts_dict(50, seed=2)
        assert inst.metrics.counter(SHOTS_SAMPLED).total() == 150
        assert inst.metrics.counter(RNG_DRAWS).total() == 2

    def test_density_instrumented(self):
        sim = simulate_density(
            bell(), options=SimulationOptions(trace=True, metrics=True)
        )
        assert sim.outcome_distribution()["00"] == pytest.approx(0.5)

    def test_density_ambient_spans(self):
        with instrument() as inst:
            simulate_density(bell())
        names = {s.name for s in inst.tracer.spans}
        assert "simulate_density" in names
        assert inst.metrics.counter(GATE_APPLIES).total() > 0

    def test_qasm_io_spans(self):
        c = bell()
        with instrument() as inst:
            text = c.toQASM()
            from repro.io.qasm_import import parse_qasm

            parse_qasm(text)
        names = [s.name for s in inst.tracer.spans]
        assert "io.qasm.export" in names
        assert "io.qasm.parse" in names

    def test_instrumented_matches_uninstrumented_states(self):
        c = deep_circuit(n=5, layers=3)
        ref = simulate(c, "0" * 5)
        traced = simulate(
            c, "0" * 5, options=SimulationOptions(trace=True, metrics=True)
        )
        assert np.allclose(ref.states[0], traced.states[0], atol=1e-12)

    def test_results_unchanged_across_backends_instrumented(self):
        c = bell()
        for backend in ("kernel", "sparse"):
            sim = simulate(
                c,
                "00",
                options=SimulationOptions(
                    backend=backend, trace=True, metrics=True
                ),
            )
            assert sorted(sim.results) == ["00", "11"]
            assert sim.report().metrics.counter(GATE_APPLIES).value(
                backend=backend, kind="kq"
            ) >= 1


# -- one trajectory: counters and stream consumption -------------------------


def noisy_reset_circuit():
    c = QCircuit(3)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(RotationX(2, 0.4))
    c.push_back(Measurement(0, "x"))
    c.push_back(Reset(1, record=True))
    c.push_back(CZ(1, 2))
    c.push_back(Measurement(1))
    c.push_back(Measurement(2))
    return c


def noisy_model():
    return NoiseModel(gate_noise=Depolarizing(0.2), readout_error=0.05)


def expected_draws(circuit, noise):
    """Uniforms one trajectory consumes: the per-shot draw contract."""
    from repro.execution.trajectory import channel_map, draws_per_shot
    from repro.simulation import compile_circuit

    # noisy runs compile unfused: channels attach per source gate
    plan = compile_circuit(circuit, fuse=False)
    return draws_per_shot(plan, channel_map(circuit, noise), noise)


class TestSingleTrajectoryAccounting:
    def test_instrumented_trajectory_counts_one_shot_and_its_draws(self):
        circuit, noise = noisy_reset_circuit(), noisy_model()
        draws = expected_draws(circuit, noise)
        assert draws > 0
        with instrument() as inst:
            run_trajectory(circuit, noise, rng=11)
        assert inst.metrics.counter(TRAJECTORIES).total() == 1
        assert inst.metrics.counter(RNG_DRAWS).total() == draws

    def test_trajectory_advances_generator_by_draws_per_shot(self):
        circuit, noise = noisy_reset_circuit(), noisy_model()
        draws = expected_draws(circuit, noise)
        g = np.random.default_rng(2024)
        run_trajectory(circuit, noise, rng=g)
        fresh = np.random.default_rng(2024)
        fresh.random(draws)
        assert g.bit_generator.state == fresh.bit_generator.state
        assert g.random() == fresh.random()


# -- acceptance: Grover profile + trace ---------------------------------------


class TestGroverAcceptance:
    def test_grover_profile_and_chrome_trace(self):
        from repro.algorithms import grover_circuit
        from repro.observability import MEASUREMENTS

        # wide enough that kernel work dominates the per-apply
        # bookkeeping gap inside the execute span
        marked = "1011010110"
        clear_plan_cache()
        c = grover_circuit(marked)
        with instrument() as inst:
            sim = simulate(c, "0" * len(marked))
        assert sim.nbQubits == len(marked)
        assert sim.results == [marked] or marked in sim.counts_dict(
            200, seed=7
        )
        # valid Chrome trace-event JSON
        trace = json.loads(json.dumps(to_chrome_trace(inst.tracer)))
        assert trace["traceEvents"]
        # kernel times sum to within 10% of the execute span's wall time
        report = inst.report()
        exe = report.execute_seconds
        assert exe > 0
        accounted = report.kernel_seconds()
        hist = inst.metrics.get(MEASUREMENTS)
        if hist is not None:
            accounted += hist.total_sum()
        assert accounted == pytest.approx(exe, rel=0.10)
        assert report.coverage() == pytest.approx(
            accounted / exe, rel=1e-6
        )


# -- overhead guard ----------------------------------------------------------


class TestOverheadGuard:
    def test_disabled_instrumentation_within_noise(self):
        """Default (uninstrumented) simulate must stay within noise of
        a hand-rolled raw plan replay — i.e. the instrumentation seams
        cost effectively nothing when disabled."""
        from repro.simulation.plan import get_plan
        from repro.simulation.state import initial_state

        c = deep_circuit(n=8, layers=10)
        start = "0" * 8
        clear_plan_cache()
        simulate(c, start)  # warm the plan cache & allocators

        plan, _ = get_plan(c)

        def raw():
            state = initial_state(start, 8)
            for step in plan.steps:
                state = plan.engine.apply_planned(state, step, 8)
            return state

        def full():
            return simulate(c, start)

        def best_of(fn, k=7):
            best = float("inf")
            for _ in range(k):
                t0 = perf_counter()
                fn()
                best = min(best, perf_counter() - t0)
            return best

        raw()  # warmup
        t_raw = best_of(raw)
        t_full = best_of(full)
        # simulate() adds option resolution, plan lookup and branch
        # bookkeeping on top of the raw replay; disabled observability
        # must not add more than that envelope
        assert t_full <= t_raw * 2.0 + 2e-3, (
            f"disabled-instrumentation simulate too slow: "
            f"{t_full * 1e3:.3f}ms vs raw replay {t_raw * 1e3:.3f}ms"
        )


# -- instrumentation plumbing -------------------------------------------------


class TestInstrumentationPlumbing:
    def test_trace_options_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(
                bell(),
                "00",
                options=SimulationOptions(trace=True, metrics=True),
            )

    def test_disabled_singleton_is_inert(self):
        from repro.observability import current_instrumentation

        inst = current_instrumentation()
        assert not inst.enabled
        with inst.span("nothing"):
            pass
        assert len(inst.tracer) == 0

    def test_explicit_tracer_and_registry_are_reused(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        opts = SimulationOptions(trace=tracer, metrics=registry)
        simulate(bell(), "00", options=opts)
        simulate(bell(), "00", options=opts)
        assert len(tracer.roots()) == 2
        assert registry.counter(GATE_APPLIES).total() > 0

    def test_instrumentation_report_helper(self):
        inst = Instrumentation()
        with inst.span("x"):
            pass
        rep = inst.report()
        assert isinstance(rep, ProfileReport)
        assert rep.tracer is inst.tracer
