"""``serve-mix``: two closed-loop keep-alive clients against the
service running in its own process."""

from __future__ import annotations

import http.client
import json
import os
import threading
from time import perf_counter

import numpy as np

import stats
import workloads as W
from procs import Server, cpu_split

#: Fresh service start-ups measured per run for ``setup_s``.
SETUPS = 5
CLIENTS = 2
TOLERANCE = 1e-10


def _setup(root, workdir, pool, cpus, trace_out=None):
    """Start a service and send one request per pool signature.

    Returns ``(server, setup_seconds)``: start to warmed.
    """
    t0 = perf_counter()
    server = Server(root, workdir, cpus, trace_out).start()
    try:
        for body in W.warmup_bodies(pool):
            status, payload = server.request("POST", "/v1/simulate", body)
            if status != 200:
                raise RuntimeError(
                    f"warm-up request answered {status}: {payload[:300]!r}"
                )
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - t0


def _drive(server, requests, seconds):
    """Closed loop: each client sends the next request as soon as its
    previous one completes, until ``seconds`` have passed.

    Returns ``(records, wall)``; a record is ``(index, latency, status,
    payload)`` in completion order.
    """
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    records: list = []
    errors: list = []
    start = threading.Barrier(CLIENTS + 1)
    box = {}

    def client():
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            start.wait()
            while perf_counter() < box["deadline"]:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    errors.append("request list exhausted")
                    return
                t0 = perf_counter()
                try:
                    conn.request(
                        "POST", "/v1/simulate", requests[i]["body"],
                        {"X-Bench-Id": str(i)},
                    )
                    resp = conn.getresponse()
                    payload = resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    status, payload = 0, b""
                records.append((i, perf_counter() - t0, status, payload))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    t0 = perf_counter()
    box["deadline"] = t0 + seconds
    start.wait()
    for t in threads:
        t.join()
    wall = perf_counter() - t0
    if errors:
        raise RuntimeError(errors[0])
    return records, wall


class _Reference:
    """Direct ``simulate()`` of the circuit each request carries."""

    def __init__(self):
        self._sims: dict = {}

    def sim(self, spec: dict):
        import repro
        from repro.io import circuit_from_dict, fromQASM

        key = json.dumps(spec, sort_keys=True)
        sim = self._sims.get(key)
        if sim is None:
            circuit = (
                fromQASM(spec["qasm"]) if "qasm" in spec
                else circuit_from_dict(spec["json"])
            )
            sim = repro.simulate(circuit, "0" * circuit.nbQubits)
            self._sims[key] = sim
        return sim


def check(records, requests, ref):
    """``(refused, wrong, problems)`` over completed records.

    A response is right when its outcomes and probabilities match a
    direct ``simulate()`` within 1e-10, its counts sum to ``shots``
    over observed outcomes, and any expectations match too.
    """
    refused = wrong = 0
    problems = []
    for i, _lat, status, payload in records:
        if status != 200:
            refused += 1
            if len(problems) < 5:
                problems.append(f"request {i}: HTTP {status}")
            continue
        body = json.loads(requests[i]["body"])
        out = json.loads(payload)
        sim = ref.sim(body["circuit"])
        expected = dict(zip(sim.results, sim.probabilities))
        got = dict(zip(out["results"], out["probabilities"]))
        ok = (
            set(got) == set(expected)
            and all(abs(got[k] - expected[k]) <= TOLERANCE for k in got)
            and out.get("shots") == body["shots"]
            and sum(out["counts"].values()) == body["shots"]
            and set(out["counts"]) <= set(expected)
        )
        for pauli in body.get("expectations", ()):
            value = out.get("expectations", {}).get(pauli)
            ok = ok and value is not None and (
                abs(value - sim.expectation(pauli)) <= TOLERANCE
            )
        if body.get("return_state"):
            for entry in out.get("states", ()):
                norm = np.linalg.norm(
                    np.asarray(entry["re"]) + 1j * np.asarray(entry["im"])
                )
                ok = ok and abs(norm - 1.0) <= TOLERANCE
            ok = ok and len(out.get("states", ())) == len(expected)
        if not ok:
            wrong += 1
            if len(problems) < 5:
                problems.append(f"request {i}: wrong output")
    return refused, wrong, problems


def _ok_latencies(records):
    """Latencies of the requests answered 200."""
    return [lat for _i, lat, status, _p in records if status == 200]


def _phase(root, workdir, pool, cpus, requests, seconds, trace_out=None):
    """One server life: set up, drive, read its counters, stop."""
    server, _setup_s = _setup(root, workdir, pool, cpus, trace_out)
    try:
        before = server.metrics()
        stats_before = server.get_json("/v1/stats")["plan_cache"]
        rec_before = server.get_json("/debug/recorder")["recorded"]
        records, wall = _drive(server, requests, seconds)
        dump = server.get_json("/debug/recorder")
        after = server.metrics()
        stats_after = server.get_json("/v1/stats")["plan_cache"]
    finally:
        server.stop()
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    return {
        "records": records,
        "wall": wall,
        "counters": delta,
        "plan_hits": stats_after["hits"] - stats_before["hits"],
        "plan_misses": stats_after["misses"] - stats_before["misses"],
        "events": dump["recorded"] - rec_before,
        # the ring keeps the last few thousand events: recent compiles
        "table_bytes": [
            e["table_bytes"] for e in dump["events"]
            if e["kind"] == "plan.compile"
        ],
    }


def run(root, workdir, seed, seconds, trace):
    """Run the workload; returns ``(metrics, attempted, failed, notes)``."""
    pool = W.serve_pool(seed)
    # twice the ~200 requests/s the closed loop reaches on two CPUs
    requests = W.serve_requests(seed, int(seconds * 400) + 100, pool)
    ref = _Reference()
    # the service and this load generator run on separate CPUs: sharing
    # them made the median latency swing by a quarter between runs
    service_cpus, load_cpus = cpu_split()
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, load_cpus)
    try:
        if not trace:
            return _run_plain(
                root, workdir, pool, service_cpus, requests, seconds, ref
            )
        return _run_traced(
            root, workdir, pool, service_cpus, requests, seconds, ref
        )
    finally:
        os.sched_setaffinity(0, own)


def _run_plain(root, workdir, pool, cpus, requests, seconds, ref):
    setups = []
    server = None
    for k in range(SETUPS):
        server, setup_s = _setup(root, workdir, pool, cpus)
        setups.append(setup_s)
        if k < SETUPS - 1:
            server.stop()
    try:
        records, wall = _drive(server, requests, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    refused, wrong, problems = check(records, requests, ref)
    lat = _ok_latencies(records)
    completed = len(lat)
    # cold: requests whose circuit is new to the service, so they miss
    # the plan cache and compile
    novel = [
        rec[1] for rec in records
        if rec[2] == 200 and requests[rec[0]]["kind"] == "novel"
    ]
    metrics = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": rss,
        "p50_ms": stats.median(lat) * 1e3,
        "ops_per_s": completed / wall,
        "cold_s": stats.median(novel),
    }
    notes = [f"serve-mix: {len(records)} requests, {completed} ok"] + problems
    return metrics, len(records), refused + wrong, notes


def _run_traced(root, workdir, pool, cpus, requests, seconds, ref):
    from tracing import load

    half = seconds / 2.0
    plain = _phase(root, workdir, pool, cpus, requests, half)
    trace_path = workdir / "serve-spans.json"
    traced = _phase(root, workdir, pool, cpus, requests, half,
                    trace_path)
    spans, attrs = load(trace_path)

    refused = wrong = attempted = 0
    problems = []
    for ph in (plain, traced):
        r, w, p = check(ph["records"], requests, ref)
        refused, wrong = refused + r, wrong + w
        attempted += len(ph["records"])
        problems += p

    lat = _ok_latencies(plain["records"])
    lat_t = _ok_latencies(traced["records"])
    c = plain["counters"]
    hits = c.get("repro_service_result_cache_hits_total", 0.0)
    misses = c.get("repro_service_result_cache_misses_total", 0.0)
    lookups = plain["plan_hits"] + plain["plan_misses"]
    p99, p99_supported = stats.tail(lat, 0.99)
    metrics = {
        "serve.rps": len(lat) / plain["wall"],
        "serve.p50_ms": stats.median(lat) * 1e3,
        "serve.p99_ms": p99 * 1e3,
        "serve.result_cache_hit_ratio": hits / max(1.0, hits + misses),
        "serve.throttles": c.get("repro_service_throttles_total", 0.0),
        "serve.timeouts": c.get("repro_service_timeouts_total", 0.0),
        "plan.hit_ratio": plain["plan_hits"] / max(1, lookups),
        "obs.events_per_run": plain["events"] / max(1, len(plain["records"])),
        "plan.table_mb.q12": stats.median(plain["table_bytes"]) / 2**20,
        "error_rate": stats.error_rate(attempted, refused, wrong),
        "trace.overhead": stats.median(lat_t) / stats.median(lat) - 1.0,
    }
    metrics.update(_layers(spans, attrs, traced["records"]))
    notes = [
        f"serve-mix traced: {len(plain['records'])} untraced and "
        f"{len(traced['records'])} traced requests; p99 over {len(lat)}"
        + ("" if p99_supported else " samples is unsupported: max shown")
    ] + problems
    return metrics, attempted, refused + wrong, notes


def _layers(spans, attrs, records):
    """Per-layer numbers from the traced service's spans (warm-up
    requests, which carry no bench id, are left out)."""
    bench = {
        sid: int(a["bench_id"]) for sid, a in attrs.items()
        if a.get("bench_id") is not None
    }
    spans = [s for s in spans if s[2] in bench]
    # a synthetic queue-wait span per job: prepared -> picked up
    queue_waits = []
    next_sid = max((s[0] for s in spans), default=0) + 1
    for sid, parent, root, name, start, _end in list(spans):
        if name == "execution":
            submitted = attrs[sid]["submitted_at"]
            queue_waits.append(start - submitted)
            spans.append((next_sid, parent, root, "serve.queue_wait",
                          submitted, start))
            next_sid += 1
    totals = stats.per_name(spans)
    sig_calls: dict = {}
    executed = set()
    for _sid, _p, root, name, _s, _e in spans:
        if name == "ir.signature":
            sig_calls[root] = sig_calls.get(root, 0) + 1
        if name == "execution":
            executed.add(root)

    def mean_ms(name):
        return stats.mean_self_ms(totals, name)

    handle = {bench[s[0]]: s[5] - s[4] for s in spans if s[0] in bench}
    transport = [
        lat - handle[i] for i, lat, status, _p in records
        if status == 200 and i in handle
    ]
    wall = sum(lat for _i, lat, _s, _p in records)
    return {
        "serve.parse_ms": mean_ms("serve.parse"),
        "io.json_decode_ms": mean_ms("io.json_decode"),
        "io.qasm_parse_ms": mean_ms("io.qasm_parse"),
        "ir.signature_ms": mean_ms("ir.signature"),
        "ir.signature_calls_per_request": (
            sum(sig_calls.get(r, 0) for r in executed) / max(1, len(executed))
        ),
        "serve.queue_wait_p50_ms": 1e3 * stats.median(queue_waits),
        "serve.queue_wait_p99_ms": 1e3 * stats.tail(queue_waits, 0.99)[0],
        "serve.transport_ms": 1e3 * stats.median(transport),
        "plan.lookup_ms": mean_ms("plan.lookup"),
        "plan.compile_ms.q12": mean_ms("plan.compile"),
        "simulate.sample_ms": mean_ms("simulate.sample"),
        "simulate.expectation_ms": mean_ms("simulate.expectation"),
        "trace.coverage": stats.coverage(spans, wall),
    }
