"""Symbolic circuit parameters for compile-once / bind-many workflows.

A :class:`Parameter` is a named slot that can stand in for the angle of
any parametric gate (``RotationX(0, theta)`` instead of
``RotationX(0, 0.3)``).  Circuits built over parameters lower and
compile exactly once — the plan cache keys parametric gates by *slot
identity* rather than by angle value — and are then evaluated many
times through :meth:`repro.circuit.QCircuit.bind` (one value set per
call, no recompilation) or :func:`repro.simulation.sweep` (a whole
value matrix vectorized along the parameter axis).

Gates store a :class:`ParameterExpression` — an affine transform
``scale * parameter + offset`` — so that symbolic rotation fusion
(``RX(t) RX(t) -> RX(2 t)``, ``RX(t) RX(0.3) -> RX(t + 0.3)``) stays
closed under the IR pass pipeline.

>>> theta = Parameter("theta")
>>> expr = 2.0 * theta + 0.5
>>> expr.resolve({theta: 1.0})
2.5
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np

from repro.exceptions import UnboundParameterError

__all__ = [
    "Parameter",
    "ParameterExpression",
    "as_expression",
    "normalize_values",
]

_COUNTER = itertools.count()


class Parameter:
    """A named symbolic parameter slot.

    Identity is by *instance*: two ``Parameter("theta")`` objects are
    distinct slots (each carries a unique ``uid``), exactly like two
    distinct gate handles.  The name is for display and for string-keyed
    bindings (``circuit.bind({"theta": 0.3})``).

    Supports lightweight affine arithmetic, producing
    :class:`ParameterExpression`::

        2 * theta, theta + 0.5, -theta, theta / 2
    """

    __slots__ = ("_name", "_uid")

    def __init__(self, name: str = "theta"):
        self._name = str(name)
        self._uid = next(_COUNTER)

    @property
    def name(self) -> str:
        """Display name of the slot (not required to be unique)."""
        return self._name

    @property
    def uid(self) -> int:
        """Process-unique monotonic slot id (stable signature key)."""
        return self._uid

    # -- affine arithmetic ---------------------------------------------------

    def __mul__(self, k):
        return ParameterExpression(self, scale=float(k))

    __rmul__ = __mul__

    def __truediv__(self, k):
        return ParameterExpression(self, scale=1.0 / float(k))

    def __add__(self, c):
        return ParameterExpression(self, offset=float(c))

    __radd__ = __add__

    def __sub__(self, c):
        return ParameterExpression(self, offset=-float(c))

    def __rsub__(self, c):
        return ParameterExpression(self, scale=-1.0, offset=float(c))

    def __neg__(self):
        return ParameterExpression(self, scale=-1.0)

    def __repr__(self) -> str:
        return f"Parameter({self._name!r})"


class ParameterExpression:
    """An affine function ``scale * parameter + offset`` of one
    :class:`Parameter`.

    This is the closure of the single-slot form under the operations
    the IR passes need: negation (``ctranspose``), addition of a
    constant (fusing a symbolic with a concrete rotation) and addition
    of a same-slot expression (fusing two symbolic rotations).
    """

    __slots__ = ("_param", "_scale", "_offset")

    def __init__(self, param: Parameter, scale: float = 1.0,
                 offset: float = 0.0):
        if isinstance(param, ParameterExpression):
            offset = scale * param._offset + offset
            scale, param = scale * param._scale, param._param
        if not isinstance(param, Parameter):
            raise UnboundParameterError(
                f"expected a Parameter, got {type(param).__name__}"
            )
        self._param = param
        self._scale = float(scale)
        self._offset = float(offset)

    @property
    def parameter(self) -> Parameter:
        """The underlying slot."""
        return self._param

    @property
    def scale(self) -> float:
        """Multiplicative coefficient on the slot value."""
        return self._scale

    @property
    def offset(self) -> float:
        """Additive constant."""
        return self._offset

    # -- evaluation ----------------------------------------------------------

    def resolve(self, values: Mapping) -> float:
        """Evaluate against ``{Parameter: value}`` (missing slot raises
        :class:`~repro.exceptions.UnboundParameterError`)."""
        try:
            v = values[self._param]
        except KeyError:
            raise UnboundParameterError(
                f"no value bound for parameter {self._param.name!r}"
            ) from None
        return self._scale * float(v) + self._offset

    def resolve_theta(self, value: float) -> float:
        """Evaluate at a single slot value."""
        return self._scale * float(value) + self._offset

    def resolve_batch(self, values: Mapping) -> np.ndarray:
        """Vectorized :meth:`resolve`: the mapping holds a value
        *array* per slot; returns the transformed array."""
        try:
            v = values[self._param]
        except KeyError:
            raise UnboundParameterError(
                f"no value array bound for parameter {self._param.name!r}"
            ) from None
        v = np.asarray(v, dtype=float)
        if self._scale == 1.0 and self._offset == 0.0:
            return v  # the bare slot: no arithmetic per binding
        return self._scale * v + self._offset

    # -- identity ------------------------------------------------------------

    def signature(self) -> tuple:
        """Hashable slot-identity fingerprint (keys the plan cache)."""
        return (self._param.uid, self._scale, self._offset)

    @property
    def label(self) -> str:
        """Compact display form, e.g. ``2*theta+0.5``."""
        name = self._param.name
        if self._scale == 1.0:
            out = name
        elif self._scale == -1.0:
            out = f"-{name}"
        else:
            out = f"{self._scale:g}*{name}"
        if self._offset:
            out += f"{self._offset:+g}"
        return out

    # -- affine arithmetic ---------------------------------------------------

    def __mul__(self, k):
        k = float(k)
        return ParameterExpression(
            self._param, self._scale * k, self._offset * k
        )

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * (1.0 / float(k))

    def __neg__(self):
        return ParameterExpression(
            self._param, -self._scale, -self._offset
        )

    def __add__(self, other):
        if isinstance(other, ParameterExpression):
            if other._param is not self._param:
                return NotImplemented
            return ParameterExpression(
                self._param,
                self._scale + other._scale,
                self._offset + other._offset,
            )
        if isinstance(other, Parameter):
            return self + ParameterExpression(other)
        return ParameterExpression(
            self._param, self._scale, self._offset + float(other)
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Parameter, ParameterExpression)):
            return self + (-as_expression(other))
        return self + (-float(other))

    def __eq__(self, other):
        if not isinstance(other, ParameterExpression):
            return NotImplemented
        return (
            self._param is other._param
            and self._scale == other._scale
            and self._offset == other._offset
        )

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"ParameterExpression({self.label})"


def normalize_values(parameters, values) -> dict:
    """Normalize a user value set against an ordered slot tuple.

    ``values`` may be a mapping keyed by :class:`Parameter` objects or
    by parameter *names* (a name shared by several distinct slots is
    ambiguous and rejected), or a plain sequence aligned with
    ``parameters``.  Extra entries are ignored; any slot left without a
    value raises :class:`~repro.exceptions.UnboundParameterError`.
    Values are kept as given (scalars for binds, arrays for sweeps).
    """
    parameters = tuple(parameters)
    if isinstance(values, Mapping):
        # fast path: mapping keyed exactly by the Parameter objects
        # themselves — the common shape in bind/sweep loops
        try:
            return {p: values[p] for p in parameters}
        except (KeyError, TypeError):
            pass
        by_name: dict = {}
        for p in parameters:
            by_name.setdefault(p.name, []).append(p)
        out: dict = {}
        for key, v in values.items():
            if isinstance(key, Parameter):
                if key in set(parameters):
                    out[key] = v
            elif isinstance(key, str):
                slots = by_name.get(key, ())
                if len(slots) > 1:
                    raise UnboundParameterError(
                        f"parameter name {key!r} is ambiguous "
                        f"({len(slots)} distinct slots share it); "
                        "bind by Parameter object instead"
                    )
                if slots:
                    out[slots[0]] = v
            else:
                raise UnboundParameterError(
                    "binding keys must be Parameter objects or names, "
                    f"got {type(key).__name__}"
                )
        missing = [p for p in parameters if p not in out]
        if missing:
            raise UnboundParameterError(
                "no value bound for parameter(s) "
                + ", ".join(repr(p.name) for p in missing)
            )
        return out
    seq = list(np.asarray(values, dtype=float).ravel()) if np.ndim(
        values
    ) == 1 else None
    if seq is None or len(seq) != len(parameters):
        raise UnboundParameterError(
            f"expected {len(parameters)} parameter value(s) or a "
            "mapping, got "
            f"{values!r}"
        )
    return dict(zip(parameters, seq))


def as_expression(value) -> ParameterExpression:
    """Normalize a :class:`Parameter` or :class:`ParameterExpression`
    to an expression."""
    if isinstance(value, ParameterExpression):
        return value
    if isinstance(value, Parameter):
        return ParameterExpression(value)
    raise UnboundParameterError(
        f"expected a Parameter or ParameterExpression, got "
        f"{type(value).__name__}"
    )
