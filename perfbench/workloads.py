"""Seeded workload inputs: every function here is a pure function of
the benchmark's ``--seed``; the program sees only what they return."""

from __future__ import annotations

import json

import numpy as np

from repro import Measurement, QCircuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.vqe import hardware_efficient_ansatz
from repro.gates import (
    CNOT,
    CPhase,
    CZ,
    Hadamard,
    RotationX,
    RotationZ,
    SWAP,
)
from repro.io import circuit_to_dict

#: Ladder rungs (qubits) and shapes.  18 is the top rung: a 20-qubit
#: random circuit already needs about 2.9 GB on the kernel backend.
RUNGS = (12, 16, 18)
SHAPES = ("brickwork", "qft", "brickwork-mid")
LADDER_LAYERS = 8

#: Batched workload sizes.
SWEEP_QUBITS, SWEEP_LAYERS, SWEEP_POINTS = 10, 4, 128
TRAJ_QUBITS, TRAJ_LAYERS, TRAJ_SHOTS = 8, 4, 512
TRAJ_DEPOLARIZING, TRAJ_READOUT = 0.01, 0.02

#: Service mix: share of requests of each kind (the rest are plain
#: sampled runs of a pool circuit).
REPEAT, NOVEL, EXPECT, STATE = 0.20, 0.10, 0.10, 0.05
#: Repeats copy a body sent between these many requests earlier, so
#: the original has usually completed and sits in the result cache.
REPEAT_LAG = (5, 30)
#: Pool circuits (kind, qubits), each sent as JSON and as QASM: 12
#: signatures.
POOL = (("brickwork", 10), ("qft", 8), ("ghz", 8), ("random", 10),
        ("brickwork", 12), ("random", 9))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def brickwork(n, layers, rng, mid_measurements=0, measure=(),
              entangler=CZ):
    """RX/RZ on every qubit then a brick layer of ``entangler`` gates,
    ``layers`` times; optional mid-circuit and final measurements."""
    c = QCircuit(n)
    mids = {
        int(layer): q
        for q, layer in enumerate(
            np.linspace(1, layers - 2, mid_measurements).round()
        )
    } if mid_measurements else {}
    for layer in range(layers):
        for q in range(n):
            c.push_back(RotationX(q, float(rng.uniform(0, 2 * np.pi))))
            c.push_back(RotationZ(q, float(rng.uniform(0, 2 * np.pi))))
        for q in range(layer % 2, n - 1, 2):
            c.push_back(entangler(q, q + 1))
        if layer in mids:
            c.push_back(Measurement(mids[layer]))
    for q in measure:
        c.push_back(Measurement(q))
    return c


def random_circuit(n, nb_gates, rng, measure=()):
    """A random mix of 1q rotations and 2q gates on ``n`` qubits."""
    c = QCircuit(n)
    for _ in range(nb_gates):
        roll = int(rng.integers(0, 6))
        q = int(rng.integers(0, n))
        t = int((q + 1 + rng.integers(0, n - 1)) % n)
        angle = float(rng.normal())
        if roll == 0:
            c.push_back(Hadamard(q))
        elif roll == 1:
            c.push_back(RotationX(q, angle))
        elif roll == 2:
            c.push_back(RotationZ(q, angle))
        elif roll == 3:
            c.push_back(CNOT(q, t))
        elif roll == 4:
            c.push_back(CPhase(q, t, angle))
        else:
            c.push_back(SWAP(q, t))
    for q in measure:
        c.push_back(Measurement(q))
    return c


def ghz(n):
    """GHZ preparation measured on every qubit (two branches)."""
    c = QCircuit(n)
    c.push_back(Hadamard(0))
    for q in range(n - 1):
        c.push_back(CNOT(q, q + 1))
    for q in range(n):
        c.push_back(Measurement(q))
    return c


# -- sv-ladder ----------------------------------------------------------------


def ladder_circuits(seed):
    """``[(rung, shape, circuit)]`` for every rung and shape."""
    rng = _rng(seed, 1)
    out = []
    for n in RUNGS:
        out.append((n, "brickwork", brickwork(n, LADDER_LAYERS, rng)))
        out.append((n, "qft", qft_circuit(n)))
        out.append((
            n, "brickwork-mid",
            brickwork(n, LADDER_LAYERS, rng, mid_measurements=2,
                      entangler=CNOT),
        ))
    return out


# -- batched ------------------------------------------------------------------


def batched_inputs(seed):
    """The parametric ansatz, the noisy trajectory circuit and its
    noise model."""
    from repro.noise import NoiseModel
    from repro.noise.channels import Depolarizing

    rng = _rng(seed, 2)
    ansatz = hardware_efficient_ansatz(SWEEP_QUBITS, SWEEP_LAYERS)
    traj = brickwork(
        TRAJ_QUBITS, TRAJ_LAYERS, rng, measure=range(TRAJ_QUBITS)
    )
    noise = NoiseModel(
        gate_noise=Depolarizing(TRAJ_DEPOLARIZING),
        readout_error=TRAJ_READOUT,
    )
    return ansatz, traj, noise


def batched_round(seed, k, nb_parameters):
    """Round ``k``'s sweep value matrix and trajectory seed."""
    rng = _rng(seed, 1000 + k)
    values = rng.uniform(0, 2 * np.pi, (SWEEP_POINTS, nb_parameters))
    return values, int(rng.integers(0, 2**31))


# -- serve-mix ----------------------------------------------------------------


def _pool_circuit(kind, n, rng):
    if kind == "brickwork":
        return brickwork(n, 4, rng, measure=(0, n - 1))
    if kind == "qft":
        c = QCircuit(n)
        # seeded rotations in, so the QFT output is not uniform
        for q in range(n):
            c.push_back(RotationX(q, float(rng.uniform(0, 2 * np.pi))))
        c.push_back(qft_circuit(n))
        for q in range(3):
            c.push_back(Measurement(q))
        return c
    if kind == "ghz":
        return ghz(n)
    return random_circuit(n, 6 * n, rng, measure=(0, 1))


def _spec(circuit, form):
    """The ``circuit`` member of a request body, as JSON text."""
    if form == "qasm":
        return json.dumps({"qasm": circuit.toQASM()})
    return '{"json": ' + json.dumps(circuit_to_dict(circuit)) + "}"


def serve_pool(seed):
    """``[(spec_json, nb_qubits)]``: the pool circuits, each in both
    wire forms.  Kinds and widths are fixed, so every seed costs the
    same; the seed picks angles and random gates."""
    rng = _rng(seed, 3)
    pool = []
    for kind, n in POOL:
        circuit = _pool_circuit(kind, n, rng)
        for form in ("json", "qasm"):
            pool.append((_spec(circuit, form), n))
    return pool


def _body(spec, shots, seed, expectations=None, return_state=False):
    parts = ['{"circuit": ', spec, f', "shots": {shots}, "seed": {seed}']
    if expectations:
        parts.append(', "expectations": ' + json.dumps(expectations))
    if return_state:
        parts.append(', "return_state": true')
    parts.append("}")
    return "".join(parts).encode()


def warmup_bodies(pool):
    """One request per pool signature, sent while setting up."""
    return [_body(spec, 256, 0) for spec, _n in pool]


def serve_requests(seed, count, pool):
    """``count`` request records, in send order.

    Each record is a dict with the ``body`` bytes and its ``kind``
    (``plain``, ``repeat``, ``novel``, ``expect`` or ``state``).
    """
    rng = _rng(seed, 4)
    out = []
    for i in range(count):
        u = rng.random()
        if u < REPEAT and i >= REPEAT_LAG[1]:
            j = i - int(rng.integers(REPEAT_LAG[0], REPEAT_LAG[1] + 1))
            out.append({"body": out[j]["body"], "kind": "repeat"})
            continue
        shots = 256 if rng.random() < 0.5 else 1024
        req_seed = int(rng.integers(1, 2**62))
        if u < REPEAT + NOVEL:
            n = int(rng.integers(8, 11))
            circuit = random_circuit(n, 5 * n, rng, measure=(0, 1))
            form = "qasm" if rng.random() < 0.5 else "json"
            body = _body(_spec(circuit, form), shots, req_seed)
            out.append({"body": body, "kind": "novel"})
            continue
        spec, n = pool[int(rng.integers(0, len(pool)))]
        if u < REPEAT + NOVEL + EXPECT:
            paulis = [
                "".join(rng.choice(list("IXYZ"), size=n)) for _ in range(2)
            ]
            body = _body(spec, shots, req_seed, expectations=paulis)
            kind = "expect"
        elif u < REPEAT + NOVEL + EXPECT + STATE:
            body = _body(spec, shots, req_seed, return_state=True)
            kind = "state"
        else:
            body = _body(spec, shots, req_seed)
            kind = "plain"
        out.append({"body": body, "kind": kind})
    return out
