"""Bound views of parametric circuits.

A :class:`BoundCircuit` pairs a parametric
:class:`~repro.circuit.QCircuit` with one normalized value set.  It is
deliberately *cheap*: creating it does not touch the base circuit (no
revision bump, no re-lowering) and simulating it reuses the base
circuit's compiled plan — the plan cache keys parametric gates by slot
identity, so every binding of the same circuit hits one cached plan and
only the per-step kernel tables are refilled.

Parametric gates are value-immutable, so binding (and
:meth:`~repro.circuit.QCircuit.sweep` for many points) is how a
circuit is evaluated at new angles.
"""

from __future__ import annotations

from repro.circuit.circuit import QCircuit
from repro.gates.base import QGate

__all__ = ["BoundCircuit"]


class BoundCircuit:
    """A parametric circuit together with one parameter binding.

    Obtained from :meth:`repro.circuit.QCircuit.bind`; not constructed
    directly in normal use.  ``values`` is already normalized to
    ``{Parameter: float}``.
    """

    __slots__ = ("_base", "_values")

    def __init__(self, base: QCircuit, values: dict):
        self._base = base
        self._values = dict(values)

    @property
    def base(self) -> QCircuit:
        """The underlying parametric circuit (shared, not copied)."""
        return self._base

    @property
    def values(self) -> dict:
        """The normalized ``{Parameter: value}`` binding."""
        return dict(self._values)

    @property
    def nbQubits(self) -> int:
        """Register width of the base circuit."""
        return self._base.nbQubits

    @property
    def parameters(self) -> tuple:
        """The base circuit's parameter slots."""
        return self._base.parameters

    def simulate(self, start="0", options=None):
        """Simulate the base circuit at this binding.

        Same interface as :meth:`repro.circuit.QCircuit.simulate`; the
        compiled plan of the base circuit is fetched from the cache and
        its parametric kernels bound in place — no recompilation.
        """
        from repro.simulation.simulate import simulate as _simulate

        return _simulate(self, start, options)

    def materialize(self) -> QCircuit:
        """A concrete :class:`~repro.circuit.QCircuit` copy with every
        parameter slot replaced by its bound value.

        Useful for export paths (QASM, serialization, drawing with
        numeric angles) that need value-carrying gates; simulation does
        not need it.
        """
        return _materialize(self._base, self._values)

    def __repr__(self) -> str:
        vals = ", ".join(
            f"{p.name}={float(v):g}" for p, v in self._values.items()
        )
        return f"BoundCircuit({self._base!r}, {{{vals}}})"


def _materialize(circuit: QCircuit, values: dict) -> QCircuit:
    """Recursively rebuild ``circuit`` with parameter slots resolved."""
    out = QCircuit(circuit.nbQubits, circuit.offset)
    if circuit.is_block:
        out.asBlock(circuit.block_label)
    for op in circuit:
        if isinstance(op, QCircuit):
            out.push_back(_materialize(op, values))
        elif isinstance(op, QGate):
            out.push_back(op.bind_parameters(values))
        else:
            out.push_back(op)
    return out
