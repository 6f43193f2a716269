"""Per-backend agreement tolerances for the conformance oracle.

Every differential check compares a *candidate* execution path against
the reference (the fused ``kernel`` plan) and asserts the maximum
deviation stays under a named tolerance.  The tolerances are not all
equal because the execution paths are not all equally exact:

=====================  =========  =====================================
check family           tolerance  why
=====================  =========  =====================================
``statevector``        1e-10      same kernels, different contraction
                                  order — pure float roundoff
``density``            1e-9       ``K rho K^+`` conjugations square the
                                  roundoff of the statevector path
``mps``                1e-8       SVD splits re-orthogonalize every
                                  two-qubit gate
``pass.*``             1e-9       gate fusion multiplies 2x2 kernels,
                                  compounding roundoff per fused run
``serialize``          1e-12      JSON round-trip is bit-exact for
                                  rotations (``(cos, sin)`` pairs)
``qasm``               1e-6       export re-synthesizes unitaries into
                                  ``u3`` Euler angles
``counts``             (stat.)    sampling paths use a binomial bound,
                                  see :func:`counts_deviation`
=====================  =========  =====================================

The table is exported as :data:`DEFAULT_TOLERANCES` and documented for
users in ``docs/backends.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

__all__ = [
    "DEFAULT_TOLERANCES",
    "tolerance_for",
    "counts_deviation",
]

#: Default maximum |deviation| per check family (see module docstring).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "statevector": 1e-10,
    "density": 1e-9,
    "trajectory": 0.0,  # serial vs batched is bit-exact by contract
    "mps": 1e-8,
    "pass": 1e-9,
    "serialize": 1e-12,
    "qasm": 1e-6,
}


def tolerance_for(
    check: str, overrides: Optional[Mapping[str, float]] = None
) -> float:
    """Resolve the tolerance for a check name.

    ``check`` may be a family name (``'statevector'``) or a qualified
    check (``'pass.fuse_1q'`` resolves through its ``'pass'`` family).
    ``overrides`` maps family names to replacement tolerances.
    """
    family = check.split(".", 1)[0].split(":", 1)[0]
    table = dict(DEFAULT_TOLERANCES)
    if overrides:
        table.update(overrides)
    try:
        return table[family]
    except KeyError:
        raise KeyError(
            f"no tolerance registered for check {check!r} "
            f"(family {family!r}); known: {sorted(table)}"
        ) from None


def counts_deviation(
    counts: Mapping[str, int],
    expected: Mapping[str, float],
    shots: int,
    sigmas: float = 6.0,
    slack: float = 3.0,
) -> float:
    """Statistical deviation of a sampled histogram from an exact
    distribution, normalized so values > 1 mean "outside the bound".

    For every outcome (union of observed and expected) the observed
    count is compared against the binomial expectation ``N p`` with a
    ``sigmas``-sigma tolerance plus an absolute ``slack`` (which keeps
    near-zero-probability outcomes from tripping on a single stray
    shot).  The returned deviation is the worst ratio::

        max_o |count_o - N p_o| / (sigmas * sqrt(N p_o (1 - p_o)) + slack)

    A correct sampler stays well under 1 for the fuzzer's fixed seeds;
    a wrong backend (transposed kernel, dropped control) lands orders
    of magnitude above it.  An observed outcome whose expected
    probability is exactly zero is structurally impossible and reports
    an infinite deviation.
    """
    shots = int(shots)
    if shots <= 0:
        return 0.0
    worst = 0.0
    for outcome in set(counts) | set(expected):
        p = float(expected.get(outcome, 0.0))
        observed = int(counts.get(outcome, 0))
        if p == 0.0 and observed > 0:
            return float("inf")
        std = math.sqrt(max(shots * p * (1.0 - p), 0.0))
        bound = sigmas * std + slack
        worst = max(worst, abs(observed - shots * p) / bound)
    return worst
