"""The differential + metamorphic oracle.

Given one generated case, the oracle executes the circuit across every
applicable execution path and compares the outcomes:

Differential checks (same circuit, different engine)
    * every registered statevector backend x {fused, unfused}
      against the fused ``kernel`` reference (branch results,
      probabilities and full state vectors);
    * the exact density-matrix engine against the reference ensemble
      ``sum_b p_b |psi_b><psi_b|``;
    * one-shot :func:`~repro.noise.run_trajectory` runs sharing one
      generator against ``batch_size=5`` batches, shot for shot, per
      statevector backend (the strict seed contract makes this an
      *exact* comparison);
    * batched trajectory counts against the exact density-matrix
      outcome distribution (binomial bound);
    * the MPS engine — exact statevector comparison for
      measurement-free circuits, sampled counts otherwise;
    * the stabilizer engine for Clifford cases (sampled counts).

Metamorphic checks (transformed circuit, same engine)
    * every registered optimization pass (``fuse_1q``,
      ``fuse_rotations``, ``coalesce_diagonals``, ``cancel_inverses``)
      applied through the IR pipeline must preserve simulation
      semantics;
    * the JSON serializer and the QASM export->import round-trip must
      preserve semantics (QASM only for circuits whose semantics QASM
      can express — Z-basis measurements, unrecorded resets);
    * for parametric cases (``--parametric``), ``bind(values)`` on the
      cached plan against a from-scratch recompile of the materialized
      circuit, vectorized ``sweep()`` rows against per-point binds, and
      the guarantee that re-binding never misses the plan cache.

Every check returns the *deviation* it measured so failures carry a
magnitude, and every failure carries a ``replay`` closure the shrinker
uses to re-test candidate minimizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.circuit import QCircuit
from repro.io import dumps_circuit, fromQASM, loads_circuit
from repro.ir import PassManager, lower
from repro.noise import (
    NoiseModel,
    run_trajectories_batched,
    run_trajectory,
)
from repro.simulation import (
    SimulationOptions,
    available_backends,
    simulate,
    simulate_density,
)
from repro.simulation.mps import mps_counts, simulate_mps
from repro.simulation.stabilizer import stabilizer_counts

from repro.conformance.generator import GeneratedCase
from repro.conformance.tolerances import counts_deviation, tolerance_for

__all__ = ["CheckFailure", "OracleConfig", "run_oracle"]

#: Deviation reported for structural mismatches (different branch
#: results, different shot strings) where no numeric distance applies.
STRUCTURAL_MISMATCH = float("inf")

#: Optimization passes whose semantics-preservation is checked.
CHECKED_PASSES = (
    "fuse_1q",
    "fuse_rotations",
    "coalesce_diagonals",
    "cancel_inverses",
)


@dataclass
class CheckFailure:
    """One failed conformance check, replayable on candidate circuits."""

    check: str
    seed: int
    deviation: float
    tolerance: float
    message: str
    #: ``replay(circuit, noise)`` re-runs this check on a candidate and
    #: returns its deviation (``None`` when the check does not apply).
    replay: Callable[
        [QCircuit, Optional[NoiseModel]], Optional[float]
    ] = field(repr=False, default=None)

    def still_fails(
        self, circuit: QCircuit, noise: Optional[NoiseModel]
    ) -> Optional[float]:
        """Deviation of the candidate if it still trips this check."""
        try:
            deviation = self.replay(circuit, noise)
        except Exception:
            # A candidate that crashes the engine is not a valid
            # minimization of a *numerical* disagreement.
            return None
        if deviation is not None and deviation > self.tolerance:
            return deviation
        return None


@dataclass(frozen=True)
class OracleConfig:
    """Which checks run, and how hard the sampling checks sample."""

    backends: Optional[Tuple[str, ...]] = None  # None = all registered
    trajectory_shots: int = 12
    sampling_shots: int = 192
    tolerances: Optional[Dict[str, float]] = None
    check_density: bool = True
    check_trajectory: bool = True
    check_mps: bool = True
    check_stabilizer: bool = True
    check_passes: bool = True
    check_roundtrips: bool = True
    check_parametric: bool = True

    def tol(self, check: str) -> float:
        """Tolerance for ``check``, honoring :attr:`tolerances`."""
        return tolerance_for(check, self.tolerances)


def _start(circuit: QCircuit) -> str:
    return "0" * circuit.nbQubits


def _simulate(circuit, backend, fuse=True):
    opts = SimulationOptions(backend=backend, fuse=fuse)
    return simulate(circuit, _start(circuit), options=opts)


def _align_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b`` with its global phase rotated onto ``a`` (for comparisons
    that must be phase-invariant, e.g. after ``fuse_1q`` which drops
    the unobservable global phase on re-synthesis)."""
    i = int(np.argmax(np.abs(a)))
    if abs(a[i]) < 1e-12 or abs(b[i]) < 1e-12:
        return b
    phase = a[i] / b[i]
    return b * (phase / abs(phase))


def _branch_deviation(ref, sim, up_to_phase=False) -> Tuple[float, str]:
    """Max deviation between two Simulation objects (results,
    probabilities, states); structural mismatch is infinite."""
    if ref.results != sim.results:
        return STRUCTURAL_MISMATCH, (
            f"branch results differ: {ref.results} vs {sim.results}"
        )
    dev = float(
        np.max(np.abs(ref.probabilities - sim.probabilities))
        if len(ref.probabilities)
        else 0.0
    )
    worst = "probabilities"
    for i, (a, b) in enumerate(zip(ref.states, sim.states)):
        if up_to_phase:
            b = _align_phase(a, b)
        d = float(np.max(np.abs(a - b)))
        if d > dev:
            dev, worst = d, f"state of branch {i} ({ref.results[i]!r})"
    return dev, f"max |delta| = {dev:.3e} in {worst}"


def _distribution(sim) -> Dict[str, float]:
    """Exact outcome distribution of a branching simulation."""
    dist: Dict[str, float] = {}
    for result, p in zip(sim.results, sim.probabilities):
        dist[result] = dist.get(result, 0.0) + float(p)
    return dist


def _ensemble_rho(sim) -> np.ndarray:
    out = None
    for p, state in zip(sim.probabilities, sim.states):
        rho = float(p) * np.outer(state, state.conj())
        out = rho if out is None else out + rho
    return out


# -- individual checks -------------------------------------------------------


def _statevector_replay(backend, fuse):
    def replay(circuit, noise):
        ref = _simulate(circuit, "kernel")
        sim = _simulate(circuit, backend, fuse=fuse)
        dev, _ = _branch_deviation(ref, sim)
        return dev

    return replay


def _check_statevector(case: GeneratedCase, config: OracleConfig):
    failures = []
    tol = config.tol("statevector")
    ref = _simulate(case.circuit, "kernel")
    backends = config.backends or available_backends("statevector")
    for backend in backends:
        for fuse in (True, False):
            if backend == "kernel" and fuse:
                continue  # the reference itself
            sim = _simulate(case.circuit, backend, fuse=fuse)
            dev, msg = _branch_deviation(ref, sim)
            if dev <= tol:
                continue
            mode = "fused" if fuse else "unfused"
            failures.append(
                CheckFailure(
                    check=f"statevector:{backend}/{mode}",
                    seed=case.seed,
                    deviation=dev,
                    tolerance=tol,
                    message=(
                        f"{backend}/{mode} disagrees with "
                        f"kernel/fused: {msg}"
                    ),
                    replay=_statevector_replay(backend, fuse),
                )
            )
    return failures


def _density_replay():
    def replay(circuit, noise):
        ref = _simulate(circuit, "kernel")
        dens = simulate_density(circuit)
        return float(np.max(np.abs(_ensemble_rho(ref) - dens.rho)))

    return replay


def _check_density(case: GeneratedCase, config: OracleConfig):
    tol = config.tol("density")
    replay = _density_replay()
    dev = replay(case.circuit, None)
    if dev > tol:
        return [
            CheckFailure(
                check="density:exact",
                seed=case.seed,
                deviation=dev,
                tolerance=tol,
                message=(
                    "density-matrix engine disagrees with the "
                    f"statevector ensemble: max |delta rho| = {dev:.3e}"
                ),
                replay=replay,
            )
        ]
    return []


def _trajectory_replay(backend, shots, seed):
    def replay(circuit, noise):
        rng = np.random.default_rng(seed)
        serial = [
            run_trajectory(
                circuit, noise, rng=rng, backend=backend
            ).result
            for _ in range(shots)
        ]
        batched = run_trajectories_batched(
            circuit,
            noise,
            shots=shots,
            seed=np.random.default_rng(seed),
            options=SimulationOptions(backend=backend, batch_size=5),
        )
        return 0.0 if list(batched.results) == serial else (
            STRUCTURAL_MISMATCH
        )

    return replay


def _check_trajectory(case: GeneratedCase, config: OracleConfig):
    """One-row batches vs ``batch_size=5`` batches: exact, per
    backend."""
    failures = []
    tol = config.tol("trajectory")
    shots = config.trajectory_shots
    backends = config.backends or available_backends("statevector")
    for backend in backends:
        replay = _trajectory_replay(backend, shots, case.seed)
        dev = replay(case.circuit, case.noise)
        if dev > tol:
            failures.append(
                CheckFailure(
                    check=f"trajectory:{backend}/batched",
                    seed=case.seed,
                    deviation=dev,
                    tolerance=tol,
                    message=(
                        f"batched trajectories on {backend!r} are not "
                        "shot-for-shot identical to a run_trajectory "
                        f"loop ({shots} shots, batch_size=5)"
                    ),
                    replay=replay,
                )
            )
    return failures


def _noisy_counts_replay(shots, seed):
    def replay(circuit, noise):
        if not circuit.has_measurement:
            return None
        dens = simulate_density(circuit, noise=noise)
        batched = run_trajectories_batched(
            circuit, noise, shots=shots,
            seed=np.random.default_rng(seed),
        )
        return counts_deviation(
            batched.counts, dens.outcome_distribution(), shots
        )

    return replay


def _check_noisy_counts(case: GeneratedCase, config: OracleConfig):
    """Batched trajectory sampling against the exact density engine."""
    if not case.circuit.has_measurement:
        return []
    shots = config.sampling_shots
    replay = _noisy_counts_replay(shots, case.seed)
    dev = replay(case.circuit, case.noise)
    if dev is None or dev <= 1.0:
        return []
    return [
        CheckFailure(
            check="density:trajectory-counts",
            seed=case.seed,
            deviation=dev,
            tolerance=1.0,
            message=(
                f"batched trajectory histogram ({shots} shots) sits "
                f"{dev:.2f}x outside the binomial bound of the exact "
                "density-matrix distribution"
            ),
            replay=replay,
        )
    ]


def _executor_replay():
    def replay(circuit, noise):
        from repro.execution import DONE, ExecutionRequest, default_executor

        ref = _simulate(circuit, "kernel")
        job = default_executor().submit(
            ExecutionRequest(
                circuit,
                start=_start(circuit),
                options=SimulationOptions(backend="kernel"),
            )
        )
        if job.state != DONE:
            return STRUCTURAL_MISMATCH
        if job.timings.total_seconds is None or job.stats() is None:
            return STRUCTURAL_MISMATCH
        dev, _ = _branch_deviation(ref, job.result())
        return dev

    return replay


def _check_executor(case: GeneratedCase, config: OracleConfig):
    """The execution-core contract: a directly submitted job finishes
    ``DONE`` with timings/stats populated and materializes branches
    bit-identical to the :func:`simulate` wrapper."""
    tol = config.tol("statevector")
    replay = _executor_replay()
    dev = replay(case.circuit, None)
    if dev <= tol:
        return []
    return [
        CheckFailure(
            check="executor:submit",
            seed=case.seed,
            deviation=dev,
            tolerance=tol,
            message=(
                "Executor.submit disagrees with the simulate() "
                f"wrapper (or broke the Job contract): max |delta| = "
                f"{dev:.3e}"
            ),
            replay=replay,
        )
    ]


def _mps_eligible(circuit) -> bool:
    from repro.gates.base import QGate

    return all(
        len(op.qubits) <= 2
        for op, _ in lower(circuit).flat()
        if isinstance(op, QGate)
    )


def _mps_state_replay():
    def replay(circuit, noise):
        if not _mps_eligible(circuit):
            return None
        if any(
            type(op).__name__ in ("Measurement", "Reset")
            for op, _ in lower(circuit).flat()
        ):
            return None
        ref = _simulate(circuit, "kernel")
        _result, state = simulate_mps(circuit, rng=0)
        return float(
            np.max(np.abs(ref.states[0] - state.to_statevector()))
        )

    return replay


def _mps_counts_replay(shots, seed):
    def replay(circuit, noise):
        if not _mps_eligible(circuit):
            return None
        if not circuit.has_measurement:
            return None
        ref = _simulate(circuit, "kernel")
        counts = mps_counts(circuit, shots=shots, seed=seed)
        return counts_deviation(counts, _distribution(ref), shots)

    return replay


def _check_mps(case: GeneratedCase, config: OracleConfig):
    if not case.two_local:
        return []
    failures = []
    tol = config.tol("mps")
    state_replay = _mps_state_replay()
    dev = state_replay(case.circuit, None)
    if dev is not None and dev > tol:
        failures.append(
            CheckFailure(
                check="mps:statevector",
                seed=case.seed,
                deviation=dev,
                tolerance=tol,
                message=(
                    "MPS statevector disagrees with the kernel "
                    f"backend: max |delta| = {dev:.3e}"
                ),
                replay=state_replay,
            )
        )
    shots = config.sampling_shots
    counts_replay = _mps_counts_replay(shots, case.seed)
    dev = counts_replay(case.circuit, None)
    if dev is not None and dev > 1.0:
        failures.append(
            CheckFailure(
                check="mps:counts",
                seed=case.seed,
                deviation=dev,
                tolerance=1.0,
                message=(
                    f"MPS histogram ({shots} shots) sits {dev:.2f}x "
                    "outside the binomial bound of the exact "
                    "distribution"
                ),
                replay=counts_replay,
            )
        )
    return failures


def _stabilizer_replay(shots, seed):
    def replay(circuit, noise):
        if not circuit.has_measurement:
            return None
        ref = _simulate(circuit, "kernel")
        counts = stabilizer_counts(circuit, shots=shots, seed=seed)
        return counts_deviation(counts, _distribution(ref), shots)

    return replay


def _check_stabilizer(case: GeneratedCase, config: OracleConfig):
    if not case.clifford or not case.circuit.has_measurement:
        return []
    shots = config.sampling_shots
    replay = _stabilizer_replay(shots, case.seed)
    dev = replay(case.circuit, None)
    if dev is None or dev <= 1.0:
        return []
    return [
        CheckFailure(
            check="stabilizer:counts",
            seed=case.seed,
            deviation=dev,
            tolerance=1.0,
            message=(
                f"stabilizer histogram ({shots} shots) sits {dev:.2f}x "
                "outside the binomial bound of the exact distribution"
            ),
            replay=replay,
        )
    ]


def _gate_only(circuit: QCircuit) -> QCircuit:
    """``circuit`` with top-level measurements and resets dropped (the
    vectorized sweep path is gate-only by contract)."""
    from repro.circuit import Measurement, Reset

    out = QCircuit(circuit.nbQubits, circuit.offset)
    for op in circuit:
        if not isinstance(op, (Measurement, Reset)):
            out.push_back(op)
    return out


def _parametric_bind_replay(backend, values):
    def replay(circuit, noise):
        params = tuple(getattr(circuit, "parameters", ()))
        if not params or len(params) != len(values):
            return None
        bound = circuit.bind(dict(zip(params, values)))
        ref = _simulate(bound.materialize(), "kernel")
        sim = simulate(
            bound, _start(circuit),
            options=SimulationOptions(backend=backend),
        )
        dev, _ = _branch_deviation(ref, sim)
        return dev

    return replay


def _parametric_sweep_replay(backend, points):
    def replay(circuit, noise):
        params = tuple(getattr(circuit, "parameters", ()))
        if not params:
            return None
        gates = _gate_only(circuit)
        if tuple(gates.parameters) != params:
            return None
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(params):
            return None
        swept = gates.sweep(pts, options={"backend": backend}).states
        dev = 0.0
        for i, row in enumerate(pts):
            ref = gates.bind(dict(zip(params, row))).simulate(
                _start(gates), {"backend": backend}
            ).states[0]
            dev = max(dev, float(np.max(np.abs(swept[i] - ref))))
        return dev

    return replay


def _parametric_cache_replay(values_a, values_b):
    def replay(circuit, noise):
        params = tuple(getattr(circuit, "parameters", ()))
        if not params or len(params) != len(values_a):
            return None
        from repro.simulation.plan import plan_cache_info

        start = _start(circuit)
        circuit.bind(dict(zip(params, values_a))).simulate(start)
        before = plan_cache_info()["misses"]
        circuit.bind(dict(zip(params, values_b))).simulate(start)
        after = plan_cache_info()["misses"]
        return 0.0 if after == before else STRUCTURAL_MISMATCH

    return replay


def _check_parametric(case: GeneratedCase, config: OracleConfig):
    """The parametric-bind contract on parametric cases.

    * ``bind(values)`` through every backend must match a from-scratch
      recompile of the materialized concrete circuit (baseline values
      and a shifted binding);
    * vectorized ``sweep()`` rows must match per-point ``bind()`` on
      the gate-only portion of the circuit;
    * re-binding the same circuit must not miss the plan cache.
    """
    if case.symbolic is None:
        return []
    failures = []
    tol = config.tol("statevector")
    symbolic = case.symbolic
    baseline = [float(v) for _, v in case.parameters]
    shifted = [v + 0.37 for v in baseline]
    backends = config.backends or available_backends("statevector")
    for backend in backends:
        for tag, values in (("baseline", baseline), ("shifted", shifted)):
            replay = _parametric_bind_replay(backend, values)
            dev = replay(symbolic, None)
            if dev is not None and dev > tol:
                failures.append(
                    CheckFailure(
                        check=f"param:bind/{backend}/{tag}",
                        seed=case.seed,
                        deviation=dev,
                        tolerance=tol,
                        message=(
                            f"bound plan on {backend!r} ({tag} values) "
                            "disagrees with the materialized recompile: "
                            f"max |delta| = {dev:.3e}"
                        ),
                        replay=replay,
                    )
                )
        points = [baseline, shifted, [v - 0.81 for v in baseline]]
        replay = _parametric_sweep_replay(backend, points)
        dev = replay(symbolic, None)
        if dev is not None and dev > tol:
            failures.append(
                CheckFailure(
                    check=f"param:sweep/{backend}",
                    seed=case.seed,
                    deviation=dev,
                    tolerance=tol,
                    message=(
                        f"vectorized sweep on {backend!r} disagrees "
                        "with per-point bind: max |delta| = "
                        f"{dev:.3e}"
                    ),
                    replay=replay,
                )
            )
    replay = _parametric_cache_replay(baseline, shifted)
    dev = replay(symbolic, None)
    if dev is not None and dev > 0.0:
        failures.append(
            CheckFailure(
                check="param:plan-cache",
                seed=case.seed,
                deviation=dev,
                tolerance=0.0,
                message=(
                    "re-binding a parametric circuit recompiled its "
                    "plan (cache miss where a hit was guaranteed)"
                ),
                replay=replay,
            )
        )
    return failures


def _pass_replay(pass_name):
    def replay(circuit, noise):
        ref = _simulate(circuit, "kernel")
        program = PassManager(["flatten", pass_name]).run(lower(circuit))
        sim = _simulate(program.to_circuit(), "kernel")
        # up_to_phase: fuse_1q legitimately drops the unobservable
        # global phase when re-synthesizing a run into one U3.
        dev, _ = _branch_deviation(ref, sim, up_to_phase=True)
        return dev

    return replay


def _check_passes(case: GeneratedCase, config: OracleConfig):
    failures = []
    for pass_name in CHECKED_PASSES:
        tol = config.tol(f"pass.{pass_name}")
        replay = _pass_replay(pass_name)
        dev = replay(case.circuit, None)
        if dev > tol:
            failures.append(
                CheckFailure(
                    check=f"pass.{pass_name}",
                    seed=case.seed,
                    deviation=dev,
                    tolerance=tol,
                    message=(
                        f"IR pass {pass_name!r} changed simulation "
                        f"semantics: max |delta| = {dev:.3e}"
                    ),
                    replay=replay,
                )
            )
    return failures


def _serialize_replay():
    def replay(circuit, noise):
        ref = _simulate(circuit, "kernel")
        sim = _simulate(loads_circuit(dumps_circuit(circuit)), "kernel")
        dev, _ = _branch_deviation(ref, sim)
        return dev

    return replay


def _qasm_replay():
    def replay(circuit, noise):
        ref = _simulate(circuit, "kernel")
        sim = _simulate(fromQASM(circuit.toQASM()), "kernel")
        if ref.results != sim.results:
            return STRUCTURAL_MISMATCH
        # QASM re-synthesizes unitaries (u3 pulls in global phases),
        # so only the *observable* outcome distribution must survive.
        a, b = _distribution(ref), _distribution(sim)
        return max(
            abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)
        )

    return replay


def _check_roundtrips(case: GeneratedCase, config: OracleConfig):
    failures = []
    tol = config.tol("serialize")
    replay = _serialize_replay()
    dev = replay(case.circuit, None)
    if dev > tol:
        failures.append(
            CheckFailure(
                check="serialize:json",
                seed=case.seed,
                deviation=dev,
                tolerance=tol,
                message=(
                    "JSON serializer round-trip changed simulation "
                    f"semantics: max |delta| = {dev:.3e}"
                ),
                replay=replay,
            )
        )
    if case.qasm_safe:
        tol = config.tol("qasm")
        replay = _qasm_replay()
        dev = replay(case.circuit, None)
        if dev > tol:
            failures.append(
                CheckFailure(
                    check="qasm:roundtrip",
                    seed=case.seed,
                    deviation=dev,
                    tolerance=tol,
                    message=(
                        "QASM export->import round-trip changed the "
                        f"outcome distribution: max |delta p| = "
                        f"{dev:.3e}"
                    ),
                    replay=replay,
                )
            )
    return failures


def run_oracle(
    case: GeneratedCase, config: Optional[OracleConfig] = None
) -> Tuple[List[CheckFailure], int]:
    """All applicable checks for one case.

    Returns ``(failures, nb_checks_run)``.  Checks are grouped by
    family; sampling-based families use binomial bounds (deviation
    normalized so 1.0 is the limit), numeric families use the
    tolerances of :mod:`repro.conformance.tolerances`.
    """
    config = config or OracleConfig()
    failures: List[CheckFailure] = []
    nb_checks = 0

    groups = [(True, _check_statevector), (True, _check_executor)]
    if config.check_density and case.noise is None:
        groups.append((True, _check_density))
    if config.check_trajectory:
        groups.append((True, _check_trajectory))
    if config.check_density and config.check_trajectory:
        groups.append((True, _check_noisy_counts))
    if config.check_mps and case.noise is None:
        groups.append((case.two_local, _check_mps))
    if config.check_stabilizer and case.noise is None:
        groups.append((case.clifford, _check_stabilizer))
    if config.check_passes:
        groups.append((True, _check_passes))
    if config.check_roundtrips:
        groups.append((True, _check_roundtrips))
    if config.check_parametric:
        groups.append((case.symbolic is not None, _check_parametric))

    for applicable, check in groups:
        if not applicable:
            continue
        nb_checks += 1
        failures.extend(check(case, config))
    return failures, nb_checks
