"""Retired API forms fail with Python's own errors.

``options=`` is the only way to configure a run, so the old per-field
simulation keywords (and ``counts(backend=)``) raise ``TypeError``.
Parametric gates are value-immutable, so assigning ``theta``, ``angle``
or ``rotation`` raises ``AttributeError``; ``bind()``/``sweep()``
evaluate a circuit at new angles instead.  The trajectory pipelines
build their channel map from the noise model, so a precomputed map has
no way in.
"""

import pytest

from repro.circuit import Measurement, QCircuit
from repro.execution import ExecutionRequest
from repro.gates import (
    CNOT,
    CPhase,
    CRotationX,
    Hadamard,
    Phase,
    RotationX,
    RotationXX,
)
from repro.noise import run_trajectory
from repro.parameter import Parameter
from repro.simulation import simulate, simulate_density


def bell() -> QCircuit:
    c = QCircuit(2)
    c.push_back(Hadamard(0))
    c.push_back(CNOT(0, 1))
    c.push_back(Measurement(0))
    c.push_back(Measurement(1))
    return c


def bound():
    p = Parameter("t")
    c = QCircuit(1)
    c.push_back(RotationX(0, p))
    return c.bind({p: 0.5})


#: form id -> (the error it raises, a call that uses the form)
RETIRED = {
    "simulate-backend": (
        TypeError, lambda: simulate(bell(), "00", backend="sparse")
    ),
    "simulate-atol": (TypeError, lambda: simulate(bell(), "00", atol=1e-10)),
    "simulate-dtype": (
        TypeError, lambda: simulate(bell(), "00", dtype=complex)
    ),
    "simulate-seed": (TypeError, lambda: simulate(bell(), "00", seed=1)),
    "simulate-fuse": (TypeError, lambda: simulate(bell(), "00", fuse=False)),
    "QCircuit.simulate-backend": (
        TypeError, lambda: bell().simulate("00", backend="sparse")
    ),
    "BoundCircuit.simulate-backend": (
        TypeError, lambda: bound().simulate("0", backend="sparse")
    ),
    "simulate_density-backend": (
        TypeError, lambda: simulate_density(bell(), backend="sparse")
    ),
    "counts-backend": (
        TypeError, lambda: bell().counts(10, "00", backend="sparse")
    ),
    "Phase.theta": (
        AttributeError, lambda: setattr(Phase(0, 0.1), "theta", 0.9)
    ),
    "Phase.angle": (
        AttributeError, lambda: setattr(Phase(0, 0.1), "angle", 0.9)
    ),
    "RotationX.theta": (
        AttributeError, lambda: setattr(RotationX(0, 0.1), "theta", 0.9)
    ),
    "RotationX.rotation": (
        AttributeError, lambda: setattr(RotationX(0, 0.1), "rotation", 0.9)
    ),
    "RotationXX.theta": (
        AttributeError, lambda: setattr(RotationXX(0, 1, 0.1), "theta", 0.9)
    ),
    "RotationXX.rotation": (
        AttributeError, lambda: setattr(RotationXX(0, 1, 0.1), "rotation", 0.9)
    ),
    "CPhase.theta": (
        AttributeError, lambda: setattr(CPhase(0, 1, 0.1), "theta", 0.9)
    ),
    "CRotationX.theta": (
        AttributeError, lambda: setattr(CRotationX(0, 1, 0.1), "theta", 0.9)
    ),
    "ExecutionRequest-channels": (
        TypeError, lambda: ExecutionRequest(bell(), channels={})
    ),
    "run_trajectory-_channels": (
        TypeError, lambda: run_trajectory(bell(), _channels={})
    ),
}


@pytest.mark.parametrize("form", sorted(RETIRED))
def test_retired_form_fails(form):
    error, call = RETIRED[form]
    with pytest.raises(error):
        call()
