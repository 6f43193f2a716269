"""Shared fixtures of the test suite.

Cross-backend tests run every registered statevector backend and, on
top, the ``kernel`` engine with its size-selected constants pinned
(:data:`KERNEL_REGIMES`).  The engine picks a one-qubit formulation by
block width and splits BLAS calls by size, so the small registers of
most tests would otherwise reach only the unsplit GEMM formulation.
"""

import pytest

from repro.simulation import backends

#: Constants of :mod:`repro.simulation.backends` pinned per ``kernel``
#: variant.  ``einsum`` contracts every one-qubit kernel with the target
#: axis of the ``(left, 2, right)`` state view, as the einsum engine did
#: before it was folded into ``kernel``.  ``strided`` splits every BLAS
#: call to its smallest stack (single rows of the ``kron(U, I_right)``
#: GEMM, single columns of the contraction panels), the strided
#: per-row views that otherwise run only on wide registers; its tests
#: took over those of the folded strided engine.
KERNEL_REGIMES = {
    "einsum": {"GEMM_MAX_WIDTH": 0},
    "strided": {"BLAS_MAX_WORK": 1},
}


def statevector_variant(name, monkeypatch):
    """Registry name of the statevector variant ``name``: a registered
    backend as it is, or ``kernel`` with the constants of
    :data:`KERNEL_REGIMES` pinned for the rest of the test."""
    if name not in KERNEL_REGIMES:
        return name
    for constant, value in KERNEL_REGIMES[name].items():
        monkeypatch.setattr(backends, constant, value)
    return "kernel"


@pytest.fixture
def backend(request, monkeypatch):
    """Registry name of the variant given by indirect parametrization."""
    return statevector_variant(request.param, monkeypatch)
