"""Cross-backend differential fuzzing and conformance harness.

This package answers one question continuously: *do all the ways this
toolbox can execute a circuit agree with each other?*  It has four
parts, composed by :func:`run_conformance`:

- :mod:`~repro.conformance.generator` — a seeded random-circuit
  generator covering the full gate universe (controlled, parametric,
  matrix and multi-controlled gates, measurements, resets, barriers,
  nested blocks) plus optional noise models.
- :mod:`~repro.conformance.oracle` — the differential oracle: each
  circuit runs on every registered statevector backend x {fused,
  unfused}, through the density-matrix, trajectory (serial *and*
  batched), MPS and stabilizer engines where eligible, and through
  metamorphic checks (IR optimization passes, QASM and serializer
  round-trips).  Deterministic paths compare to tight numeric
  tolerances; sampling paths use seeded binomial bounds.
- :mod:`~repro.conformance.shrink` — a ddmin-style greedy shrinker
  that minimizes each failing circuit against the *original* failing
  check, yielding a reproducible report (seed + QASM + deviation).
- :mod:`~repro.conformance.runner` / :mod:`~repro.conformance.cli` —
  the run loop with observability spans/metrics, and the
  ``python -m repro.conformance`` command that CI invokes.

Quick check::

    from repro.conformance import run_conformance

    report = run_conformance(seeds=20)
    assert report.ok, report.summary()
"""

from repro.conformance.generator import (
    GeneratedCase,
    GeneratorConfig,
    generate_case,
)
from repro.conformance.oracle import (
    CHECKED_PASSES,
    CheckFailure,
    OracleConfig,
    run_oracle,
)
from repro.conformance.runner import ConformanceReport, run_conformance
from repro.conformance.shrink import ShrunkFailure, shrink
from repro.conformance.tolerances import (
    DEFAULT_TOLERANCES,
    counts_deviation,
    tolerance_for,
)

__all__ = [
    "GeneratorConfig",
    "GeneratedCase",
    "generate_case",
    "OracleConfig",
    "CheckFailure",
    "CHECKED_PASSES",
    "run_oracle",
    "ShrunkFailure",
    "shrink",
    "ConformanceReport",
    "run_conformance",
    "DEFAULT_TOLERANCES",
    "tolerance_for",
    "counts_deviation",
]
