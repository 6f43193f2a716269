"""The :func:`simulate` entry point and :class:`Simulation` result.

Implements the measurement model of the paper's Section 3.3:

* measurement probabilities are computed from amplitude magnitudes with
  bitwise index arithmetic;
* the state collapses branch-wise — after a mid-circuit measurement the
  evolution continues *independently for each branch*, each with its own
  collapsed state vector and probability;
* non-computational bases apply their basis change before the standard
  Z measurement and revert it afterwards;
* ``counts(shots)`` samples repeated experiments, ``reducedStates``
  exposes the state of unmeasured qubits after end-of-circuit
  measurements, and zero-probability branches are pruned.

Execution routes through the unified execution core
(:mod:`repro.execution`): :func:`simulate` builds an
:class:`~repro.execution.ExecutionRequest`, submits it to the
process-wide :class:`~repro.execution.Executor`, and materializes the
:class:`Simulation` from the finished :class:`~repro.execution.Job`.
The executor compiles the circuit once into a
:class:`~repro.simulation.plan.CompiledPlan` (memoized in an LRU
cache) and replays the prepared steps through the single dispatch loop
in :mod:`repro.execution.dispatch`.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.execution.dispatch import (
    Branch,
    apply_operation,
    record_shots,
)
from repro.simulation.backends import Backend
from repro.simulation.options import (
    SimulationOptions,
    resolve_simulation_options,
)
from repro.simulation.plan import PlanStats
from repro.simulation.reduced import reducedStatevector

__all__ = ["Branch", "Simulation", "simulate", "apply_operation"]


class Simulation:
    """Result of simulating a circuit.

    Mirrors the paper's ``simulate`` output object: ``results`` is the
    list of distinct measurement-outcome strings (in branch order),
    ``probabilities`` their probabilities, ``states`` the corresponding
    final state vectors, ``counts(shots)`` samples repeated experiments,
    and ``reducedStates`` gives the states of unmeasured qubits when the
    circuit ends with measurements on a subset of the register.

    Simulations come from :func:`simulate` /
    :meth:`~repro.circuit.QCircuit.simulate` (or, one level down, from
    a finished :class:`~repro.execution.Job`); constructing one by hand
    is deprecated.
    """

    def __init__(
        self,
        nb_qubits: int,
        branches: List[Branch],
        measurements: list,
        end_measured: dict,
        backend_name: str,
        engine: Optional[Backend] = None,
        stats: Optional[PlanStats] = None,
        seed=None,
        instrumentation=None,
    ):
        warnings.warn(
            "constructing Simulation(...) directly is deprecated; "
            "simulations are produced by simulate() / "
            "QCircuit.simulate() (or Executor.submit(...).result())",
            DeprecationWarning,
            stacklevel=2,
        )
        self._init(
            nb_qubits,
            branches,
            measurements,
            end_measured,
            backend_name,
            engine=engine,
            stats=stats,
            seed=seed,
            instrumentation=instrumentation,
        )

    def _init(
        self,
        nb_qubits,
        branches,
        measurements,
        end_measured,
        backend_name,
        engine=None,
        stats=None,
        seed=None,
        instrumentation=None,
    ):
        self._nb_qubits = nb_qubits
        self._branches = branches
        self._measurements = measurements  # [(qubit, Measurement)] recorded
        self._end_measured = end_measured  # qubit -> (result index, Measurement)
        self._backend_name = backend_name
        self._engine = engine
        self._stats = stats
        self._seed = seed
        self._instrumentation = instrumentation

    @classmethod
    def _from_run(
        cls,
        nb_qubits,
        branches,
        measurements,
        end_measured,
        backend_name,
        engine=None,
        stats=None,
        seed=None,
        instrumentation=None,
    ) -> "Simulation":
        """Internal constructor used by the executor pipelines —
        bypasses the deprecation shim on :meth:`__init__`."""
        sim = object.__new__(cls)
        sim._init(
            nb_qubits,
            branches,
            measurements,
            end_measured,
            backend_name,
            engine=engine,
            stats=stats,
            seed=seed,
            instrumentation=instrumentation,
        )
        return sim

    # -- basic accessors ----------------------------------------------------

    @property
    def nbQubits(self) -> int:
        """Register width."""
        return self._nb_qubits

    @property
    def backend(self) -> str:
        """Name of the backend that produced this simulation."""
        return self._backend_name

    @property
    def stats(self) -> Optional[PlanStats]:
        """Compilation/execution statistics
        (:class:`~repro.simulation.plan.PlanStats`) of the run.

        Always populated: every run executes a compiled plan, so the
        stats carry fusion counts, cache hit/miss and per-stage
        times."""
        return self._stats

    def report(self):
        """The run's :class:`~repro.observability.ProfileReport`.

        When the run was instrumented — via
        ``SimulationOptions(trace=..., metrics=...)`` or inside a
        :func:`repro.observability.instrument` block — the report
        covers the recorded spans and metrics; otherwise it falls back
        to the :attr:`stats` timings only.
        """
        from repro.observability.exporters import ProfileReport

        if self._instrumentation is not None:
            return self._instrumentation.report(stats=self._stats)
        return ProfileReport(stats=self._stats)

    @property
    def branches(self) -> List[Branch]:
        """All measurement branches (pruned of zero-probability ones)."""
        return list(self._branches)

    @property
    def nbBranches(self) -> int:
        """Number of surviving branches."""
        return len(self._branches)

    @property
    def results(self) -> List[str]:
        """Outcome strings, one per branch, in branch (lexicographic)
        order — e.g. ``['00', '01', '10', '11']`` for teleportation."""
        return [b.result for b in self._branches]

    @property
    def probabilities(self) -> np.ndarray:
        """Branch probabilities, aligned with :attr:`results`."""
        return np.array([b.probability for b in self._branches])

    @property
    def states(self) -> List[np.ndarray]:
        """Final full-register state vectors, aligned with :attr:`results`."""
        return [b.state for b in self._branches]

    @property
    def nbMeasurements(self) -> int:
        """Number of recorded measurement outcomes per branch."""
        return len(self._measurements)

    @property
    def measuredQubits(self) -> List[int]:
        """Qubits in recorded-measurement order (repeats possible)."""
        return [q for q, _m in self._measurements]

    # -- shots --------------------------------------------------------------

    def counts(self, shots: int, seed=None) -> np.ndarray:
        """Simulated outcome frequencies over ``shots`` repetitions.

        Returns a vector of length ``2**m`` (``m`` = number of recorded
        measurements) ordered lexicographically by outcome string — for
        a single measured qubit, ``[count_0, count_1]`` exactly as in
        the paper's tomography example.

        ``seed`` may be an int or a :class:`numpy.random.Generator`
        (the MATLAB listing's ``rng(1)`` becomes ``seed=1``); when
        omitted, the run's ``SimulationOptions.seed`` applies.

        Sampling here is exact and fully vectorized — one multinomial
        over the enumerated branch distribution plus a scatter-add, so
        measurement-free circuit tails cost nothing per shot.  Paths
        that genuinely need per-shot stochastic replay (noise models)
        route through the batched trajectory engine instead
        (:func:`repro.noise.noisy_counts`).
        """
        m = self.nbMeasurements
        if m == 0:
            raise SimulationError(
                "counts requires at least one measurement in the circuit"
            )
        if m > 24:
            raise SimulationError(
                f"counts vector for {m} measurements would have 2**{m} "
                "entries; use counts_dict instead"
            )
        if seed is None:
            seed = self._seed
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        record_shots(self._instrumentation, shots)
        probs = self.probabilities
        probs = probs / probs.sum()
        draws = rng.multinomial(int(shots), probs)
        # vectorized accumulation: one scatter-add over the branch
        # indices (several branches may share an outcome string)
        idx = np.fromiter(
            (int(b.result, 2) for b in self._branches),
            dtype=np.int64,
            count=len(self._branches),
        )
        out = np.zeros(1 << m, dtype=np.int64)
        np.add.at(out, idx, draws)
        return out

    def counts_dict(self, shots: int, seed=None) -> dict:
        """Like :meth:`counts` but as ``{outcome: count}`` over observed
        outcomes only (scales to many measured qubits)."""
        if self.nbMeasurements == 0:
            raise SimulationError(
                "counts requires at least one measurement in the circuit"
            )
        if seed is None:
            seed = self._seed
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        record_shots(self._instrumentation, shots)
        probs = self.probabilities
        probs = probs / probs.sum()
        draws = rng.multinomial(int(shots), probs)
        return {
            b.result: int(n)
            for b, n in zip(self._branches, draws)
            if n > 0
        }

    # -- reduced states -------------------------------------------------------

    @property
    def reducedStates(self) -> Optional[List[np.ndarray]]:
        """States of the unmeasured qubits after end-circuit measurements.

        ``None`` when not applicable: no qubit's *final* operation is a
        measurement (mid-circuit only, as in teleportation) or every
        qubit is measured at the end.
        """
        if not self._end_measured:
            return None
        if len(self._end_measured) >= self._nb_qubits:
            return None
        backend = self._engine
        if backend is None:
            from repro.simulation.backends import default_backend

            backend = default_backend()
        qubits = sorted(self._end_measured)
        out = []
        for branch in self._branches:
            state = branch.state
            needs_copy = any(
                self._end_measured[q][1].basis != "z" for q in qubits
            )
            if needs_copy:
                state = state.copy()
                for q in qubits:
                    meas = self._end_measured[q][1]
                    if meas.basis != "z":
                        state = backend.apply(
                            state, meas.basis_change, [q], self._nb_qubits
                        )
            bits = [int(branch.result[self._end_measured[q][0]]) for q in qubits]
            out.append(reducedStatevector(state, qubits, bits))
        return out

    def expectation(self, pauli: str) -> float:
        """Ensemble expectation of a Pauli string over the branches.

        Computes ``sum_b p_b <psi_b| P |psi_b>`` — the expectation in
        the post-measurement mixed state.
        """
        from repro.simulation.observables import expectation as _exp

        return float(
            sum(
                b.probability * _exp(b.state, pauli)
                for b in self._branches
            )
        )

    def reduced_density(self, keep) -> np.ndarray:
        """Ensemble reduced density matrix over the kept qubits:
        ``sum_b p_b Tr_rest |psi_b><psi_b|``."""
        from repro.simulation.reduced import partial_trace

        out = None
        for b in self._branches:
            rho = b.probability * partial_trace(b.state, keep)
            out = rho if out is None else out + rho
        return out

    def __repr__(self) -> str:
        return (
            f"Simulation(nbQubits={self._nb_qubits}, "
            f"nbBranches={self.nbBranches}, "
            f"nbMeasurements={self.nbMeasurements}, "
            f"backend={self._backend_name!r})"
        )


def simulate(
    circuit,
    start="0",
    options: Optional[SimulationOptions] = None,
    *,
    backend=None,
    atol: Optional[float] = None,
    dtype=None,
    seed=None,
    fuse: Optional[bool] = None,
    _stacklevel: int = 3,
):
    """Simulate a :class:`~repro.circuit.QCircuit`.

    A thin wrapper over the unified execution core: resolves
    ``options``, submits one
    :class:`~repro.execution.ExecutionRequest` to the process-wide
    :class:`~repro.execution.Executor`, and materializes the
    :class:`Simulation` from the finished job — compilation, dispatch
    and instrumentation all happen inside the executor pipeline.

    Configuration lives in ``options``
    (:class:`~repro.simulation.SimulationOptions`); the historical
    ``backend``/``atol``/``dtype`` keywords keep working through a
    :class:`DeprecationWarning` shim.  See
    :meth:`repro.circuit.QCircuit.simulate` for the parameters; this is
    the underlying free function.

    ``_stacklevel`` is internal: wrappers that add a call frame (the
    ``QCircuit.simulate`` method) bump it so deprecation warnings point
    at the user's call site, firing once per call site.

    Parametric circuits simulate through their bound view: pass a
    :class:`~repro.circuit.bound.BoundCircuit` (from
    :meth:`QCircuit.bind`) and the cached compiled plan of the *base*
    circuit is re-bound in place — no recompilation per value set.  A
    parametric circuit passed directly (without values) raises
    :class:`~repro.exceptions.UnboundParameterError`.
    """
    from repro.circuit.bound import BoundCircuit

    # lazy: repro.execution's package init imports this module's
    # siblings, so a module-level import here would cycle
    from repro.execution.executor import default_executor
    from repro.execution.request import ExecutionRequest

    param_values = None
    if isinstance(circuit, BoundCircuit):
        param_values = circuit.values
        circuit = circuit.base
    opts = resolve_simulation_options(
        options,
        {
            "backend": backend,
            "atol": atol,
            "dtype": dtype,
            "seed": seed,
            "fuse": fuse,
        },
        caller="simulate",
        stacklevel=_stacklevel,
    )
    job = default_executor().submit(
        ExecutionRequest(
            circuit,
            start=start,
            options=opts,
            param_values=param_values,
        )
    )
    return job.result()
