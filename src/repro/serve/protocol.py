"""Wire protocol of the simulation service: schemas, limits, errors.

This module is the *pure* half of the gateway — no threads, no
sockets.  It turns an HTTP request body (bytes) into a validated
:class:`ParsedRequest` wrapping a ready-to-run
:class:`~repro.execution.ExecutionRequest`, and turns every failure
mode into a :class:`ServiceError` carrying an HTTP status plus a
stable machine-readable ``code`` so clients can branch on failures
without parsing prose.

A simulate request body is a JSON object::

    {
      "circuit": {"qasm": "..."}        # or {"json": {...}} —
                                        #   serialized circuit dict
      "shots": 0,                       # 0 = exact amplitudes
      "seed": 1234,                     # required for cacheable shots
      "start": "00",                    # optional initial bitstring
      "expectations": ["ZZ", "XI"],     # optional Pauli strings
      "return_state": false,            # include amplitudes in reply
      "options": {"backend": "kernel", "atol": 1e-12,
                  "dtype": "complex128", "fuse": true}
    }

``{"qasm": "..."}`` at the top level is accepted as shorthand for
``{"circuit": {"qasm": "..."}}``.  Every field other than the circuit
is optional.  The accepted ``options`` keys are exactly the
:data:`OPTION_KEYS` subset of
:class:`~repro.simulation.SimulationOptions` that is safe to expose to
untrusted callers (notably *not* ``max_workers`` — process fan-out is
an operator decision, not a request knob).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.exceptions import QCLabError
from repro.execution import ExecutionRequest
from repro.io import fromQASM, circuit_from_dict
from repro.simulation import SimulationOptions
from repro.simulation.plan import circuit_signature

__all__ = [
    "ServiceError",
    "ParsedRequest",
    "Limits",
    "OPTION_KEYS",
    "parse_body",
    "parse_simulation_request",
    "error_body",
]

#: ``options`` keys a request may set; everything else is operator-only.
OPTION_KEYS = ("backend", "atol", "dtype", "fuse")

#: Service-facing dtype spellings -> numpy complex types.
_DTYPES = {
    "complex128": np.complex128,
    "complex64": np.complex64,
}

_PAULI_RE = re.compile(r"^[IXYZ]+$")
_BITSTRING_RE = re.compile(r"^[01]+$")


class ServiceError(QCLabError):
    """A request failure mapped to an HTTP response.

    Carries the HTTP ``status``, a stable machine-readable ``code``
    (kebab-case, e.g. ``bad-json``, ``quota-exceeded``), a human
    ``message`` and an optional ``detail`` payload.  ``retry_after``
    (seconds) is surfaced as a ``Retry-After`` header on throttling
    responses.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Any = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.detail = detail
        self.retry_after = retry_after

    def body(self) -> dict:
        """The structured JSON error body for this failure."""
        return error_body(self.code, self.message, self.detail)


def error_body(code: str, message: str, detail: Any = None) -> dict:
    """Build the canonical ``{"error": {...}}`` response body."""
    err: dict = {"code": code, "message": message}
    if detail is not None:
        err["detail"] = detail
    return {"error": err}


@dataclass(frozen=True)
class Limits:
    """Admission limits the protocol layer enforces per request.

    ``max_body_bytes`` bounds the raw HTTP body, ``max_qubits`` the
    circuit width (statevector memory is ``2**n``), ``max_shots`` the
    sampling work, and ``max_expectations`` the number of Pauli
    observables evaluated per request.
    """

    max_body_bytes: int = 1_000_000
    max_qubits: int = 22
    max_shots: int = 1_000_000
    max_expectations: int = 64


@dataclass(frozen=True)
class ParsedRequest:
    """A fully validated simulate request, ready for the executor.

    ``request`` is the :class:`~repro.execution.ExecutionRequest` to
    submit; ``cache_key`` is a hashable key over everything that
    determines the response (circuit signature, options, start, seed,
    shots, expectations, state flag); ``cacheable`` is ``True`` only
    when the response is deterministic — exact runs, or sampled runs
    with an explicit seed.
    """

    request: ExecutionRequest
    shots: int
    seed: Optional[int]
    expectations: Tuple[str, ...]
    return_state: bool
    cache_key: tuple
    cacheable: bool
    nb_qubits: int


def parse_body(raw: bytes, limits: Limits) -> dict:
    """Decode a request body into a JSON object, or raise 4xx.

    Oversized bodies raise 413; undecodable/ill-typed ones raise 400
    with codes ``bad-json`` / ``bad-request`` so clients can tell
    transport corruption from schema mistakes.
    """
    if len(raw) > limits.max_body_bytes:
        raise ServiceError(
            413, "body-too-large",
            f"request body exceeds {limits.max_body_bytes} bytes",
        )
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(
            400, "bad-json", f"request body is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ServiceError(
            400, "bad-request",
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}",
        )
    return payload


def _parse_circuit(payload: dict):
    """Materialize the circuit from ``qasm`` or serialized ``json``."""
    spec = payload.get("circuit")
    if spec is None and "qasm" in payload:
        spec = {"qasm": payload["qasm"]}
    if spec is None:
        raise ServiceError(
            400, "missing-circuit",
            'request must carry a circuit: {"circuit": {"qasm": ...}} '
            'or {"circuit": {"json": {...}}}',
        )
    if not isinstance(spec, dict):
        raise ServiceError(
            400, "bad-circuit",
            f"circuit must be an object, got {type(spec).__name__}",
        )
    if ("qasm" in spec) == ("json" in spec):
        raise ServiceError(
            400, "bad-circuit",
            'circuit must carry exactly one of "qasm" or "json"',
        )
    try:
        if "qasm" in spec:
            if not isinstance(spec["qasm"], str):
                raise ServiceError(
                    400, "bad-circuit", "circuit.qasm must be a string"
                )
            return fromQASM(spec["qasm"])
        return circuit_from_dict(spec["json"])
    except ServiceError:
        raise
    except QCLabError as exc:
        raise ServiceError(
            400, "bad-circuit", f"circuit failed to parse: {exc}"
        ) from None
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ServiceError(
            400, "bad-circuit",
            f"circuit failed to parse: {type(exc).__name__}: {exc}",
        ) from None


def _parse_options(payload: dict) -> Tuple[SimulationOptions, tuple]:
    """Resolve the ``options`` object and its canonical cache key."""
    raw = payload.get("options", {})
    if not isinstance(raw, dict):
        raise ServiceError(
            400, "bad-options",
            f"options must be an object, got {type(raw).__name__}",
        )
    unknown = sorted(set(raw) - set(OPTION_KEYS))
    if unknown:
        raise ServiceError(
            400, "bad-options",
            f"unknown option(s): {', '.join(unknown)}",
            detail={"allowed": list(OPTION_KEYS)},
        )
    fields = dict(raw)
    if "backend" in fields and not isinstance(fields["backend"], str):
        raise ServiceError(
            400, "bad-options", "options.backend must be a string"
        )
    if "dtype" in fields:
        dt = fields["dtype"]
        if dt not in _DTYPES:
            raise ServiceError(
                400, "bad-options",
                f"options.dtype must be one of {sorted(_DTYPES)}, "
                f"got {dt!r}",
            )
        fields["dtype"] = _DTYPES[dt]
    try:
        options = SimulationOptions(**fields)
    except QCLabError as exc:
        raise ServiceError(
            400, "bad-options", f"invalid options: {exc}"
        ) from None
    key = (
        options.backend if isinstance(options.backend, str) else
        type(options.backend).__name__,
        options.atol,
        np.dtype(options.dtype).name,
        options.fuse,
    )
    return options, key


def _parse_int(payload: dict, name: str, default, minimum, maximum):
    """Pull an optional bounded integer field, or raise 400."""
    value = payload.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            400, f"bad-{name}", f"{name} must be an integer"
        )
    if not (minimum <= value <= maximum):
        raise ServiceError(
            400, f"bad-{name}",
            f"{name} must be between {minimum} and {maximum}, "
            f"got {value}",
        )
    return value


def parse_simulation_request(
    raw: bytes, limits: Limits
) -> ParsedRequest:
    """Validate a simulate body end to end into a :class:`ParsedRequest`.

    Performs every admission check that does not require running the
    circuit: JSON shape, circuit parse, width limit, option allowlist,
    shot/seed bounds, expectation Pauli strings and the initial
    bitstring.  Anything that fails raises :class:`ServiceError` with
    a 4xx status — by the time this returns, the only remaining
    failure modes are executor-side (and those get captured on the
    job, not raised).
    """
    payload = parse_body(raw, limits)
    circuit = _parse_circuit(payload)
    nb_qubits = circuit.nbQubits
    if nb_qubits > limits.max_qubits:
        raise ServiceError(
            400, "circuit-too-large",
            f"circuit has {nb_qubits} qubits; this service accepts at "
            f"most {limits.max_qubits}",
        )
    options, options_key = _parse_options(payload)
    shots = _parse_int(payload, "shots", 0, 0, limits.max_shots) or 0
    seed = _parse_int(payload, "seed", None, 0, 2**63 - 1)

    start = payload.get("start")
    if start is not None:
        if not isinstance(start, str) or not _BITSTRING_RE.match(start):
            raise ServiceError(
                400, "bad-start",
                "start must be a bitstring of 0s and 1s",
            )
        if len(start) != nb_qubits:
            raise ServiceError(
                400, "bad-start",
                f"start has {len(start)} bits for a {nb_qubits}-qubit "
                "circuit",
            )

    expectations = payload.get("expectations", [])
    if not isinstance(expectations, list):
        raise ServiceError(
            400, "bad-expectations", "expectations must be a list"
        )
    if len(expectations) > limits.max_expectations:
        raise ServiceError(
            400, "bad-expectations",
            f"at most {limits.max_expectations} expectations per "
            f"request, got {len(expectations)}",
        )
    for pauli in expectations:
        if not isinstance(pauli, str) or not _PAULI_RE.match(pauli):
            raise ServiceError(
                400, "bad-expectations",
                f"expectation {pauli!r} is not a Pauli string over "
                "I/X/Y/Z",
            )
        if len(pauli) != nb_qubits:
            raise ServiceError(
                400, "bad-expectations",
                f"expectation {pauli!r} has {len(pauli)} factors for "
                f"a {nb_qubits}-qubit circuit",
            )

    return_state = payload.get("return_state", False)
    if not isinstance(return_state, bool):
        raise ServiceError(
            400, "bad-return_state", "return_state must be a boolean"
        )

    request = ExecutionRequest(
        circuit=circuit, start=start, options=options, seed=seed
    )
    cache_key = (
        circuit_signature(circuit),
        options_key,
        start,
        shots,
        seed,
        tuple(expectations),
        return_state,
    )
    # sampled runs without a seed are nondeterministic by design;
    # caching one would silently freeze its randomness
    cacheable = shots == 0 or seed is not None
    return ParsedRequest(
        request=request,
        shots=shots,
        seed=seed,
        expectations=tuple(expectations),
        return_state=return_state,
        cache_key=cache_key,
        cacheable=cacheable,
        nb_qubits=nb_qubits,
    )
