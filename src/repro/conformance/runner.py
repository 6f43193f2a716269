"""The conformance run loop: generate -> oracle -> shrink -> report.

:func:`run_conformance` is the library entry point behind the
``python -m repro.conformance`` CLI and the CI smoke/nightly jobs.  It
executes a block of seeds through the differential oracle, minimizes
every failure with the greedy shrinker, and returns a
:class:`ConformanceReport` that serializes to JSON for artifact upload.

Each seed runs under a ``conformance.seed`` observability span (inside
a ``conformance.run`` root span) and bumps the
``repro_conformance_*`` metrics, so a profiled run shows exactly where
oracle time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional

from repro.observability.instrument import (
    activate,
    resolve_instrumentation,
)
from repro.observability.metrics import (
    CONFORMANCE_CHECKS,
    CONFORMANCE_CIRCUITS,
    CONFORMANCE_FAILURES,
)
from repro.simulation.plan import get_plan

from repro.conformance.generator import GeneratorConfig, generate_case
from repro.conformance.oracle import OracleConfig, run_oracle
from repro.conformance.shrink import ShrunkFailure, shrink

__all__ = ["ConformanceReport", "run_conformance"]


@dataclass
class ConformanceReport:
    """Outcome of one conformance run."""

    nb_seeds: int = 0
    nb_circuits: int = 0
    nb_checks: int = 0
    failures: List[ShrunkFailure] = field(default_factory=list)
    seconds: float = 0.0
    seed_start: int = 0
    #: Gates merged into dense blocks by the fused ``kernel`` plans of
    #: the generated circuits: zero means the run never exercised the
    #: block rule of plan fusion.
    nb_block_merged: int = 0

    @property
    def ok(self) -> bool:
        """``True`` when every check on every seed agreed."""
        return not self.failures

    @property
    def circuits_per_second(self) -> float:
        """Oracle throughput (circuits fully cross-checked per second)."""
        return self.nb_circuits / self.seconds if self.seconds else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary + per-failure reproducers."""
        return {
            "ok": self.ok,
            "nb_seeds": self.nb_seeds,
            "seed_start": self.seed_start,
            "nb_circuits": self.nb_circuits,
            "nb_checks": self.nb_checks,
            "nb_failures": len(self.failures),
            "nb_block_merged": self.nb_block_merged,
            "seconds": self.seconds,
            "circuits_per_second": self.circuits_per_second,
            "failures": [f.to_dict() for f in self.failures],
        }

    def summary(self) -> str:
        """One-paragraph terminal summary."""
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"conformance: {status} — {self.nb_circuits} circuit(s), "
            f"{self.nb_checks} check group(s) over seeds "
            f"[{self.seed_start}, {self.seed_start + self.nb_seeds}) "
            f"with {self.nb_block_merged} block merge(s) "
            f"in {self.seconds:.1f}s "
            f"({self.circuits_per_second:.1f} circuits/s)"
        )


def run_conformance(
    seeds: int = 50,
    seed_start: int = 0,
    generator: Optional[GeneratorConfig] = None,
    oracle: Optional[OracleConfig] = None,
    shrink_budget: float = 20.0,
    fail_fast: bool = False,
    trace=None,
    metrics=None,
    on_seed: Optional[Callable[[int, int], None]] = None,
) -> ConformanceReport:
    """Fuzz ``seeds`` seeded circuits through the differential oracle.

    Parameters
    ----------
    seeds, seed_start:
        Run seeds ``seed_start .. seed_start + seeds - 1``.  Fixed
        seeds make every run (and every CI failure) reproducible.
    generator:
        :class:`~repro.conformance.GeneratorConfig` controlling the
        circuit distribution.
    oracle:
        :class:`~repro.conformance.OracleConfig` controlling which
        check families run and their sampling budgets.
    shrink_budget:
        Wall-clock seconds the shrinker may spend per failure.
    fail_fast:
        Stop at the first failing seed (after shrinking it).
    trace, metrics:
        Observability opt-ins with
        :class:`~repro.simulation.SimulationOptions` semantics —
        ``True`` for fresh instances, or explicit
        ``Tracer``/``MetricsRegistry`` objects to accumulate into.
    on_seed:
        Progress callback ``on_seed(seed, nb_failures_so_far)``.
    """
    generator = generator or GeneratorConfig()
    oracle = oracle or OracleConfig()
    inst = resolve_instrumentation(trace, metrics)
    report = ConformanceReport(seed_start=int(seed_start))
    t0 = perf_counter()

    circuits_counter = checks_counter = failures_counter = None
    if inst.enabled:
        circuits_counter = inst.metrics.counter(
            CONFORMANCE_CIRCUITS, "circuits generated and oracled"
        )
        checks_counter = inst.metrics.counter(
            CONFORMANCE_CHECKS, "conformance check groups executed"
        )
        failures_counter = inst.metrics.counter(
            CONFORMANCE_FAILURES, "conformance failures detected"
        )

    with activate(inst), inst.span(
        "conformance.run", seeds=int(seeds), seed_start=int(seed_start)
    ):
        for seed in range(
            int(seed_start), int(seed_start) + int(seeds)
        ):
            report.nb_seeds += 1
            with inst.span("conformance.seed", seed=seed):
                case = generate_case(seed, generator)
                failures, nb_checks = run_oracle(case, oracle)
                # the oracle's fused kernel reference: a cache hit
                plan, _ = get_plan(case.circuit)
            report.nb_block_merged += plan.stats.nb_block_merged
            report.nb_circuits += 1
            report.nb_checks += nb_checks
            if inst.enabled:
                circuits_counter.inc()
                checks_counter.inc(nb_checks)
            for failure in failures:
                if inst.enabled:
                    failures_counter.inc(check=failure.check)
                with inst.span(
                    "conformance.shrink", check=failure.check, seed=seed
                ):
                    report.failures.append(
                        shrink(
                            case.circuit,
                            case.noise,
                            failure,
                            time_budget=shrink_budget,
                        )
                    )
            if on_seed is not None:
                on_seed(seed, len(report.failures))
            if fail_fast and report.failures:
                break

    report.seconds = perf_counter() - t0
    return report
