"""The :class:`QCircuit` container — the paper's central object.

A ``QCircuit`` holds an ordered sequence of :class:`~repro.gates.QObject`
elements (gates, measurements, resets, barriers, or nested circuits) on
a fixed-width qubit register.  It mirrors QCLAB's API verbatim:

>>> from repro.circuit import Measurement, QCircuit
>>> from repro.gates import CNOT, Hadamard
>>> circuit = QCircuit(2)
>>> _ = circuit.push_back(Hadamard(0))
>>> _ = circuit.push_back(CNOT(0, 1))
>>> _ = circuit.push_back(Measurement(0))
>>> circuit.simulate('00').results
['0', '1']

Nested circuits support the modular construction style of the paper's
Grover example: build ``oracle`` and ``diffuser`` as separate circuits,
call :meth:`asBlock` to draw them as labelled boxes, and ``push_back``
them into the full circuit.  A nested circuit may carry an ``offset``
that shifts its qubits inside the parent register.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.circuit.barrier import Barrier
from repro.circuit.measurement import Measurement
from repro.circuit.reset import Reset
from repro.exceptions import CircuitError
from repro.gates.base import DrawElement, DrawSpec, QGate, QObject
from repro.utils.validation import check_qubit

__all__ = ["QCircuit"]


class QCircuit(QObject):
    """A quantum circuit on ``nbQubits`` qubits.

    Parameters
    ----------
    nbQubits:
        Width of the register.
    offset:
        Shift applied to all qubits when this circuit is nested inside a
        larger one (default 0).
    """

    def __init__(self, nbQubits: int, offset: int = 0):
        if (
            isinstance(nbQubits, bool)
            or not isinstance(nbQubits, (int, np.integer))
            or int(nbQubits) < 1
        ):
            raise CircuitError(
                f"nbQubits must be a positive integer, got {nbQubits!r}"
            )
        self._nb_qubits = int(nbQubits)
        self._offset = check_qubit(offset) if offset else 0
        self._ops: List[QObject] = []
        self._block = False
        self._block_label = "circuit"
        self._revision = 0

    # -- register geometry ---------------------------------------------------

    @property
    def nbQubits(self) -> int:
        """Width of the register."""
        return self._nb_qubits

    @property
    def offset(self) -> int:
        """Qubit shift of this circuit inside a parent register."""
        return self._offset

    @offset.setter
    def offset(self, value: int) -> None:
        self._offset = check_qubit(value) if value else 0
        self._revision += 1

    @property
    def revision(self) -> int:
        """Mutation counter: bumped by every structural edit
        (:meth:`push_back`, :meth:`pop_back`, :meth:`insert`,
        :meth:`erase`, :meth:`clear`, :attr:`offset`).  The compiled-plan
        layer (:mod:`repro.simulation.plan`) uses it to invalidate its
        per-circuit flattening cache; gate *parameter* updates are
        tracked separately through gate signatures."""
        return self._revision

    @property
    def qubits(self) -> tuple:
        """The circuit's qubit indices (offset-shifted, ascending)."""
        return tuple(range(self._offset, self._offset + self._nb_qubits))

    # -- container API ---------------------------------------------------------

    def push_back(self, obj: QObject) -> "QCircuit":
        """Append a gate, measurement, reset, barrier or sub-circuit."""
        self._check_fits(obj)
        self._ops.append(obj)
        self._revision += 1
        return self

    def pop_back(self) -> QObject:
        """Remove and return the last element."""
        if not self._ops:
            raise CircuitError("pop_back on an empty circuit")
        self._revision += 1
        return self._ops.pop()

    def insert(self, index: int, obj: QObject) -> "QCircuit":
        """Insert an element at position ``index``."""
        self._check_fits(obj)
        if not 0 <= index <= len(self._ops):
            raise CircuitError(
                f"insert index {index} out of range [0, {len(self._ops)}]"
            )
        self._ops.insert(index, obj)
        self._revision += 1
        return self

    def erase(self, index: int) -> QObject:
        """Remove and return the element at position ``index``."""
        if not 0 <= index < len(self._ops):
            raise CircuitError(
                f"erase index {index} out of range [0, {len(self._ops)})"
            )
        self._revision += 1
        return self._ops.pop(index)

    def clear(self) -> None:
        """Remove every element."""
        self._ops.clear()
        self._revision += 1

    def _check_fits(self, obj: QObject) -> None:
        if not isinstance(obj, QObject):
            raise CircuitError(
                f"cannot push {type(obj).__name__}; expected a gate, "
                "measurement, reset, barrier or QCircuit"
            )
        if obj is self:
            raise CircuitError("cannot push a circuit into itself")
        if max(obj.qubits) >= self._nb_qubits:
            raise CircuitError(
                f"object on qubits {obj.qubits} does not fit in a "
                f"{self._nb_qubits}-qubit circuit"
            )

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index):
        return self._ops[index]

    def __iter__(self) -> Iterator[QObject]:
        return iter(self._ops)

    @property
    def nbGates(self) -> int:
        """Number of unitary gates, counting nested circuits recursively."""
        return sum(1 for _op, _off in self.operations() if isinstance(_op, QGate))

    @property
    def depth(self) -> int:
        """Circuit depth: the number of layers when operations pack
        greedily into columns (an operation occupies every wire between
        its lowest and highest qubit, so controls block the wires they
        cross — the same rule the drawer uses)."""
        frontier = [0] * self._nb_qubits
        for op, off in self.operations():
            if isinstance(op, Barrier):
                continue
            qubits = [q + off for q in op.qubits]
            lo, hi = min(qubits), max(qubits)
            col = max(frontier[lo : hi + 1], default=0)
            for q in range(lo, hi + 1):
                frontier[q] = col + 1
        return max(frontier, default=0)

    # -- flattening ------------------------------------------------------------

    def operations(
        self, base_offset: int = 0
    ) -> Iterator[Tuple[QObject, int]]:
        """Yield ``(op, total_offset)`` pairs, recursing into sub-circuits.

        The total offset accumulates this circuit's own offset with every
        enclosing circuit's; simulation and QASM export consume this
        flattened stream.  Delegates to the canonical tree walker
        :func:`repro.ir.lower.iter_elements` (``expand='all'``).
        """
        from repro.ir.lower import iter_elements

        return iter_elements(self, "all", base_offset)

    @property
    def has_measurement(self) -> bool:
        """``True`` when the circuit (recursively) contains a measurement
        or reset."""
        return any(
            isinstance(op, (Measurement, Reset))
            for op, _ in self.operations()
        )

    # -- unitary view ------------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The ``2**n x 2**n`` unitary of a measurement-free circuit.

        Computed by applying each gate kernel to the columns of the
        identity with the optimized backend, so no full gate operator is
        ever materialized.
        """
        if self.has_measurement:
            raise CircuitError(
                "matrix is undefined for circuits with measurements/resets"
            )
        from repro.exceptions import UnboundParameterError
        from repro.execution.dispatch import run_unitary
        from repro.simulation.plan import get_plan

        plan, _stats = get_plan(self, "kernel", np.complex128)
        if plan.is_parametric:
            raise UnboundParameterError(
                "matrix is undefined for a circuit with unbound "
                "parameters; bind(...) values first"
            )
        return run_unitary(plan)

    def ctranspose(self) -> "QCircuit":
        """The inverse circuit: reversed order, each gate conjugated."""
        if self.has_measurement:
            raise CircuitError(
                "ctranspose is undefined for circuits with "
                "measurements/resets"
            )
        out = QCircuit(self._nb_qubits, self._offset)
        for op in reversed(self._ops):
            if isinstance(op, Barrier):
                out.push_back(Barrier(op.qubits))
            else:
                out.push_back(op.ctranspose())
        return out

    # -- symbolic parameters ------------------------------------------------------

    @property
    def parameters(self) -> tuple:
        """Distinct unbound :class:`~repro.parameter.Parameter` slots
        in the circuit, in first-appearance order (nested circuits
        walked recursively); empty for concrete circuits."""
        from repro.ir.lower import lower

        return lower(self).parameters()

    def bind(self, values) -> "BoundCircuit":
        """A cheap bound view of this parametric circuit.

        ``values`` maps each :class:`~repro.parameter.Parameter` (or
        its unambiguous name) to a value, or is a sequence aligned with
        :attr:`parameters`.  The view shares this circuit — no copy, no
        revision bump — and simulating it reuses this circuit's cached
        compiled plan, only refilling the parametric kernel tables.
        Gate angles are read-only, so binding (or :meth:`sweep`) is
        how a parametric circuit is evaluated at new values.

        >>> from repro import Parameter, QCircuit
        >>> from repro.gates import RotationY
        >>> theta = Parameter("theta")
        >>> circuit = QCircuit(1)
        >>> _ = circuit.push_back(RotationY(0, theta))
        >>> bound = circuit.bind({theta: 3.141592653589793})
        >>> bool(abs(bound.simulate('0').states[0][1]) > 0.999)
        True
        """
        from repro.circuit.bound import BoundCircuit
        from repro.parameter import normalize_values

        return BoundCircuit(
            self, normalize_values(self.parameters, values)
        )

    def sweep(self, values, parameters=None, start=None, options=None):
        """Evaluate the circuit over a whole matrix of parameter
        points, vectorized along the parameter axis.

        Convenience for :func:`repro.simulation.sweep`; see there for
        the parameters and the returned
        :class:`~repro.simulation.sweep.SweepResult`.
        """
        from repro.simulation.sweep import sweep as _sweep

        return _sweep(
            self, values, parameters=parameters, start=start,
            options=options,
        )

    # -- simulation ---------------------------------------------------------------

    def simulate(
        self,
        start="0",
        options=None,
    ):
        """Simulate the circuit from an initial state.

        Parameters
        ----------
        start:
            A bitstring such as ``'00'`` (q0 first) or a state vector of
            length ``2**nbQubits``.
        options:
            A :class:`~repro.simulation.SimulationOptions` (or plain
            dict) holding backend, atol, dtype, seed and fusion
            settings — the unified configuration object shared by every
            simulation entry point, and the only way to configure a
            run.

        Returns
        -------
        Simulation
            Result object exposing ``results``, ``probabilities``,
            ``states``, ``counts(shots)``, ``reducedStates`` and the
            plan statistics ``stats``.
        """
        from repro.simulation.simulate import simulate as _simulate

        return _simulate(self, start, options)

    def counts(self, shots: int, start="0", seed=None, options=None):
        """Shot-sample the circuit: convenience for
        ``simulate(start, options).counts(shots, seed)``."""
        return self.simulate(start, options).counts(shots, seed=seed)

    # -- blocks (Grover-style modular drawing) ---------------------------------------

    def asBlock(self, label: str = "circuit") -> "QCircuit":
        """Draw this circuit as a single labelled box inside a parent."""
        self._block = True
        self._block_label = str(label)
        return self

    def unBlock(self) -> "QCircuit":
        """Revert :meth:`asBlock`: draw the circuit's gates inline."""
        self._block = False
        return self

    @property
    def is_block(self) -> bool:
        """Whether the circuit draws as a labelled box."""
        return self._block

    @property
    def block_label(self) -> str:
        """Label shown when drawn as a block."""
        return self._block_label

    def draw_spec(self) -> DrawSpec:
        """One connected block box (used when this circuit is nested
        inside a parent circuit as a sub-circuit)."""
        el = DrawElement("block", self._block_label)
        return DrawSpec(
            elements={q: el for q in self.qubits}, connect=True
        )

    # -- I/O -------------------------------------------------------------------------

    def draw(self, output: str = "str"):
        """Render the circuit with Unicode box-drawing characters.

        ``output='str'`` returns the diagram string; ``output='print'``
        prints it (like QCLAB's command-window display) and returns
        ``None``.
        """
        from repro.io.draw import draw_circuit

        text = draw_circuit(self)
        if output == "print":
            print(text)
            return None
        return text

    def toTex(self, filename: str | None = None) -> str:
        """Export the circuit as executable quantikz LaTeX.

        When ``filename`` is given the LaTeX source is also written to
        that file; the source string is returned either way.
        """
        from repro.io.latex import circuit_to_tex

        tex = circuit_to_tex(self)
        if filename is not None:
            with open(filename, "w", encoding="utf-8") as fh:
                fh.write(tex)
        return tex

    def toQASM(self, offset: int = 0, include_header: bool = True) -> str:
        """Export the circuit as OpenQASM 2.0 text."""
        from repro.io.qasm_export import circuit_to_qasm

        return circuit_to_qasm(
            self, offset=offset, include_header=include_header
        )

    def toQASM3(self, include_header: bool = True) -> str:
        """Export the circuit as OpenQASM 3 text (extension)."""
        from repro.io.qasm3_export import circuit_to_qasm3

        return circuit_to_qasm3(self, include_header=include_header)

    def __repr__(self) -> str:
        return (
            f"QCircuit(nbQubits={self._nb_qubits}, offset={self._offset}, "
            f"nbOps={len(self._ops)})"
        )
