"""Service-gateway tests: protocol validation, quotas, backpressure,
deadlines, result caching, plan-cache coalescing, and the stdlib HTTP
server end to end.

The concurrency test pins the tentpole contract: 8 concurrent
signature-equal requests through the gateway cost exactly **one** plan
compile (1 plan-cache miss, 7 hits) — the RLock'd ``get_plan`` path is
the coalescing mechanism, so the service inherits it for free.  The
timeout test pins the other critical invariant: a request cancelled
mid-execution leaves the executor (and the worker pool) fully
reusable.
"""

import json
import http.client
import threading

import pytest

from repro import Measurement
from repro.circuit import QCircuit
from repro.execution import Executor
from repro.gates import CNOT, Hadamard, RotationY
from repro.io import circuit_to_dict
from repro.serve import (
    Gateway,
    Limits,
    QuotaManager,
    ServiceConfig,
    ServiceError,
    TokenBucket,
    parse_simulation_request,
    start_in_thread,
)
from repro.simulation import clear_plan_cache, plan_cache_info

BELL_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[2];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
)


def simulate_body(**fields):
    body = {"qasm": BELL_QASM}
    body.update(fields)
    return json.dumps(body).encode()


@pytest.fixture
def gateway():
    with Gateway(ServiceConfig(workers=2)) as gw:
        yield gw


def post(gw, body, headers=None):
    status, hdrs, payload = gw.handle(
        "POST", "/v1/simulate", body, headers or {}
    )
    return status, dict(hdrs), json.loads(payload)


# -- protocol validation -------------------------------------------------------


class TestProtocolErrors:
    def test_bad_json_is_400(self, gateway):
        status, _, body = post(gateway, b"{not json")
        assert status == 400
        assert body["error"]["code"] == "bad-json"

    def test_non_object_body_is_400(self, gateway):
        status, _, body = post(gateway, b"[1, 2, 3]")
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_missing_circuit_is_400(self, gateway):
        status, _, body = post(gateway, b'{"shots": 5}')
        assert status == 400
        assert body["error"]["code"] == "missing-circuit"

    def test_malformed_qasm_is_400(self, gateway):
        status, _, body = post(
            gateway, json.dumps({"qasm": "qreg nonsense["}).encode()
        )
        assert status == 400
        assert body["error"]["code"] == "bad-circuit"

    def test_malformed_serialized_circuit_is_400(self, gateway):
        status, _, body = post(
            gateway,
            json.dumps({"circuit": {"json": {"bogus": 1}}}).encode(),
        )
        assert status == 400
        assert body["error"]["code"] == "bad-circuit"

    def test_both_qasm_and_json_is_400(self, gateway):
        status, _, body = post(
            gateway,
            json.dumps(
                {"circuit": {"qasm": BELL_QASM, "json": {}}}
            ).encode(),
        )
        assert status == 400
        assert body["error"]["code"] == "bad-circuit"

    def test_unknown_option_is_400(self, gateway):
        status, _, body = post(
            gateway, simulate_body(options={"max_workers": 64})
        )
        assert status == 400
        assert body["error"]["code"] == "bad-options"
        assert "max_workers" in body["error"]["message"]

    def test_compile_option_is_400(self, gateway):
        status, _, body = post(
            gateway, simulate_body(options={"compile": False})
        )
        assert status == 400
        assert body["error"]["code"] == "bad-options"
        assert "compile" in body["error"]["message"]
        assert body["error"]["detail"]["allowed"] == [
            "backend", "atol", "dtype", "fuse",
        ]

    @pytest.mark.parametrize("name", ["nosuch", "density", "einsum"])
    def test_unknown_backend_is_400(self, gateway, name):
        status, _, body = post(
            gateway, simulate_body(options={"backend": name})
        )
        assert status == 400
        assert body["error"]["code"] == "bad-options"
        assert body["error"]["detail"]["allowed"] == ["kernel", "sparse"]

    def test_bad_dtype_is_400(self, gateway):
        status, _, body = post(
            gateway, simulate_body(options={"dtype": "float64"})
        )
        assert status == 400
        assert body["error"]["code"] == "bad-options"

    def test_bad_expectation_string_is_400(self, gateway):
        status, _, body = post(
            gateway, simulate_body(expectations=["ZQ"])
        )
        assert status == 400
        assert body["error"]["code"] == "bad-expectations"

    def test_expectation_wrong_width_is_400(self, gateway):
        status, _, body = post(
            gateway, simulate_body(expectations=["ZZZ"])
        )
        assert status == 400
        assert body["error"]["code"] == "bad-expectations"

    def test_bad_start_is_400(self, gateway):
        status, _, body = post(gateway, simulate_body(start="abc"))
        assert status == 400
        assert body["error"]["code"] == "bad-start"

    def test_negative_shots_is_400(self, gateway):
        status, _, body = post(gateway, simulate_body(shots=-1))
        assert status == 400
        assert body["error"]["code"] == "bad-shots"

    def test_oversized_body_is_413(self):
        limits = Limits(max_body_bytes=64)
        with pytest.raises(ServiceError) as exc:
            parse_simulation_request(b"x" * 65, limits)
        assert exc.value.status == 413

    def test_too_many_qubits_is_400(self, gateway):
        wide = QCircuit(3)
        wide.push_back(Hadamard(0))
        body = json.dumps(
            {"circuit": {"json": circuit_to_dict(wide)}}
        ).encode()
        with pytest.raises(ServiceError) as exc:
            parse_simulation_request(body, Limits(max_qubits=2))
        assert exc.value.status == 400
        assert exc.value.code == "circuit-too-large"

    def test_shots_without_measurement_is_400(self, gateway):
        status, _, body = post(gateway, simulate_body(shots=10, seed=1))
        assert status == 400
        assert body["error"]["code"] == "no-measurements"

    def test_unknown_path_is_404(self, gateway):
        status, _, payload = gateway.handle("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, gateway):
        status, _, payload = gateway.handle("GET", "/v1/simulate")
        assert status == 405


# -- happy paths ---------------------------------------------------------------


class TestSimulate:
    def test_bell_probabilities_and_expectation(self, gateway):
        status, _, body = post(
            gateway, simulate_body(expectations=["ZZ", "XX"])
        )
        assert status == 200
        assert body["qubits"] == 2
        assert body["probabilities"] == pytest.approx([1.0])
        assert body["expectations"]["ZZ"] == pytest.approx(1.0)
        assert body["expectations"]["XX"] == pytest.approx(1.0)

    def test_return_state_carries_amplitudes(self, gateway):
        status, _, body = post(gateway, simulate_body(return_state=True))
        assert status == 200
        (branch,) = body["states"]
        assert branch["re"] == pytest.approx(
            [2 ** -0.5, 0.0, 0.0, 2 ** -0.5]
        )

    def test_seeded_shots_are_deterministic(self, gateway):
        circuit = QCircuit(1)
        circuit.push_back(Hadamard(0))
        circuit.push_back(Measurement(0))
        body = json.dumps({
            "circuit": {"json": circuit_to_dict(circuit)},
            "shots": 64, "seed": 3,
        }).encode()
        _, _, first = post(gateway, body)
        _, _, second = post(gateway, body)
        assert first["counts"] == second["counts"]
        assert sum(first["counts"].values()) == 64

    def test_deterministic_request_hits_result_cache(self, gateway):
        body = simulate_body(expectations=["ZZ"])
        _, headers, first = post(gateway, body)
        assert first["cached"] is False
        _, headers, second = post(gateway, body)
        assert second["cached"] is True
        assert headers["x-cache"] == "hit"

    def test_unseeded_shots_are_never_cached(self, gateway):
        circuit = QCircuit(1)
        circuit.push_back(Hadamard(0))
        circuit.push_back(Measurement(0))
        body = json.dumps({
            "circuit": {"json": circuit_to_dict(circuit)},
            "shots": 16,
        }).encode()
        _, _, first = post(gateway, body)
        _, _, second = post(gateway, body)
        assert first["cached"] is False
        assert second["cached"] is False

    def test_healthz_metrics_stats_recorder(self, gateway):
        post(gateway, simulate_body())
        status, _, payload = gateway.handle("GET", "/healthz")
        assert status == 200
        assert json.loads(payload)["status"] == "ok"
        status, _, payload = gateway.handle("GET", "/metrics")
        text = payload.decode()
        assert status == 200
        assert "repro_service_requests_total" in text
        assert "repro_service_request_seconds" in text
        status, _, payload = gateway.handle("GET", "/v1/stats")
        stats = json.loads(payload)
        assert stats["queue"]["capacity"] == 64
        assert "plan_cache" in stats
        status, _, payload = gateway.handle("GET", "/debug/recorder")
        dump = json.loads(payload)
        assert dump["format"] == "repro-flight-recorder"
        assert dump["version"] == 1


# -- quotas and backpressure ---------------------------------------------------


class TestThrottling:
    def test_quota_exhaustion_is_429_with_retry_after(self):
        config = ServiceConfig(
            workers=1, quota_rate=0.001, quota_burst=2
        )
        with Gateway(config) as gw:
            for _ in range(2):
                status, _, _ = post(gw, simulate_body())
                assert status == 200
            status, headers, body = post(gw, simulate_body())
            assert status == 429
            assert body["error"]["code"] == "quota-exceeded"
            assert int(headers["retry-after"]) >= 1

    def test_quota_is_per_tenant(self):
        config = ServiceConfig(
            workers=1, quota_rate=0.001, quota_burst=1
        )
        with Gateway(config) as gw:
            status, _, _ = post(gw, simulate_body(), {"X-Tenant": "a"})
            assert status == 200
            status, _, _ = post(gw, simulate_body(), {"X-Tenant": "a"})
            assert status == 429
            status, _, _ = post(gw, simulate_body(), {"X-Tenant": "b"})
            assert status == 200

    def test_full_queue_is_429_backpressure(self):
        # no started workers: the first request parks in the size-1
        # queue until its (tiny) deadline, the second bounces off the
        # full queue immediately
        gw = Gateway(ServiceConfig(workers=1, queue_size=1))
        try:
            status, _, body = post(
                gw, simulate_body(), {"X-Timeout": "0.05"}
            )
            assert status == 504
            status, headers, body = post(gw, simulate_body(seed=1))
            assert status == 429
            assert body["error"]["code"] == "queue-full"
            assert "retry-after" in headers
        finally:
            gw.close()

    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        ok, _ = bucket.acquire(now=0.0)
        assert ok
        ok, retry = bucket.acquire(now=0.0)
        assert not ok and retry == pytest.approx(0.1)
        ok, _ = bucket.acquire(now=0.2)
        assert ok

    def test_quota_manager_disabled_by_default(self):
        quotas = QuotaManager()
        assert not quotas.enabled
        assert quotas.acquire("anyone") == (True, 0.0)


# -- deadlines -----------------------------------------------------------------


def _slow_circuit(nb_qubits=17, layers=60):
    """A circuit slow enough to out-live a millisecond deadline."""
    circuit = QCircuit(nb_qubits)
    for _ in range(layers):
        for q in range(nb_qubits):
            circuit.push_back(RotationY(q, 0.3))
        for q in range(nb_qubits - 1):
            circuit.push_back(CNOT(q, q + 1))
    return circuit


class TestDeadlines:
    def test_timeout_mid_execution_leaves_executor_reusable(self):
        body = json.dumps(
            {"circuit": {"json": circuit_to_dict(_slow_circuit())}}
        ).encode()
        with Gateway(ServiceConfig(workers=1, timeout=30.0)) as gw:
            status, _, payload = post(
                gw, body, {"X-Timeout": "0.001"}
            )
            assert status == 504
            assert payload["error"]["code"] == "deadline-exceeded"
            # the same worker (and executor) must serve the next
            # request normally
            status, _, payload = post(gw, simulate_body())
            assert status == 200
            assert payload["probabilities"] == pytest.approx([1.0])
            assert gw.metrics.counter(
                "repro_service_timeouts_total", ""
            ).total() >= 1

    def test_bad_timeout_header_is_400(self, gateway):
        status, _, body = post(
            gateway, simulate_body(), {"X-Timeout": "soon"}
        )
        assert status == 400
        assert body["error"]["code"] == "bad-timeout"


# -- plan-cache coalescing -----------------------------------------------------


class TestCoalescing:
    def test_eight_concurrent_identical_requests_compile_once(self):
        """The tentpole assertion: 8 concurrent signature-equal
        requests incur exactly 1 plan compile (1 miss, 7 hits)."""
        circuit = QCircuit(6)
        for q in range(6):
            circuit.push_back(RotationY(q, 0.123 + q))
        for q in range(5):
            circuit.push_back(CNOT(q, q + 1))
        body = json.dumps(
            {"circuit": {"json": circuit_to_dict(circuit)}}
        ).encode()

        clear_plan_cache()
        before = plan_cache_info()
        config = ServiceConfig(workers=8, result_cache_size=0)
        results = []
        barrier = threading.Barrier(8)

        with Gateway(config) as gw:
            def fire():
                barrier.wait()
                results.append(post(gw, body))

            threads = [
                threading.Thread(target=fire) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert len(results) == 8
        assert all(status == 200 for status, _, _ in results)
        probabilities = {
            tuple(body["probabilities"]) for _, _, body in results
        }
        assert len(probabilities) == 1  # bit-identical answers
        info = plan_cache_info()
        assert info["misses"] - before["misses"] == 1
        assert info["hits"] - before["hits"] == 7


# -- the wire ------------------------------------------------------------------


class TestHTTPServer:
    def test_end_to_end_over_a_real_socket(self):
        config = ServiceConfig(port=0, workers=2)
        with start_in_thread(config) as handle:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            conn.request(
                "POST", "/v1/simulate",
                simulate_body(expectations=["ZZ"]),
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 200
            assert body["expectations"]["ZZ"] == pytest.approx(1.0)
            # keep-alive: same connection serves more requests
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            assert resp.status == 200
            assert b"repro_service_requests_total" in resp.read()
            conn.close()

    def test_malformed_http_is_400(self):
        with start_in_thread(ServiceConfig(port=0, workers=1)) as handle:
            import socket

            with socket.create_connection(
                (handle.host, handle.port), timeout=5
            ) as sock:
                sock.sendall(b"NOT A REQUEST\r\n\r\n")
                reply = sock.recv(4096)
            assert reply.startswith(b"HTTP/1.1 400")

    def test_injected_executor_is_shared(self):
        executor = Executor()
        with Gateway(
            ServiceConfig(workers=1), executor=executor
        ) as gw:
            assert gw.executor is executor
            status, _, _ = post(gw, simulate_body())
            assert status == 200
