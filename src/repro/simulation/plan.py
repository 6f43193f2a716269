"""Compiled execution plans: compile once, simulate many.

The historical drivers re-resolved nested-circuit offsets, rebuilt gate
kernels and index maps, and re-walked the op tree on *every*
``simulate()`` call — and repeated all of it per measurement branch.
This module factors that work into a one-time compilation step, the
same compile-then-execute split QCLAB++ uses between circuit
construction and its GPU kernels:

``compile_circuit``
    Flattens the op tree once into a :class:`CompiledPlan` of
    :class:`PlanStep` s with resolved absolute qubits and dtype-cast
    kernels.  Fusion runs in the same single pass: adjacent same-qubit
    one-qubit gates become one 2x2 kernel, a gate merges with those of
    the last steps on its qubits that fit into one dense block on at most
    :data:`~repro.simulation.backends.MAX_BLOCK_QUBITS` contiguous
    qubits (its matrix is multiplied out once, when compilation ends,
    or per binding when a member is parametric), and consecutive
    diagonal gates are coalesced into one diagonal step.

``get_plan``
    Memoizes plans in an LRU cache keyed by a *structural circuit
    signature* (gate types, absolute qubits, parameters, backend,
    dtype).  The signature sees parameter values, so mutating a gate's
    angle invalidates the cached plan; structural edits additionally
    bump :attr:`QCircuit.revision`, which invalidates the per-circuit
    flattening cache.

:class:`PlanStats` records what compilation did (steps, fusions, cache
hits/misses, per-stage wall time) and is exposed per run as
``Simulation.stats``.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Mapping

import numpy as np

from repro.circuit.circuit import QCircuit
from repro.circuit.measurement import Measurement
from repro.exceptions import SimulationError, UnboundParameterError
from repro.gates.base import MAX_DIAG_QUBITS, folded_diag
from repro.ir.lower import lower
from repro.ir.program import BARRIER as IR_BARRIER
from repro.ir.program import GATE as IR_GATE
from repro.ir.program import MEASURE as IR_MEASURE
from repro.ir.program import RESET as IR_RESET
from repro.ir.program import KIND_NAMES
from repro.observability.instrument import current_instrumentation
from repro.observability.metrics import (
    FUSED_STEPS,
    PARAM_BINDS,
    PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES,
)
from repro.observability.recorder import (
    EV_PLAN_BIND,
    EV_PLAN_COMPILE,
    EV_PLAN_EVICT,
    EV_PLAN_HIT,
    EV_PLAN_MISS,
    record_event,
)
from repro.simulation.backends import (
    MAX_BLOCK_QUBITS,
    Backend,
    _run,
    get_backend,
)
from repro.utils.linalg import expand_diag

__all__ = [
    "GATE",
    "MEASURE",
    "RESET",
    "PlanStep",
    "PlanStats",
    "CompiledPlan",
    "compile_circuit",
    "circuit_signature",
    "get_plan",
    "plan_cache_info",
    "clear_plan_cache",
]

#: Plan-step kinds.
GATE, MEASURE, RESET = 0, 1, 2

class PlanStep:
    """One executable step of a :class:`CompiledPlan`.

    Gate steps carry the dtype-cast ``kernel`` on pre-resolved absolute
    ``targets``/``controls``; ``aux`` is a per-step cache slot the
    backend may fill on first apply (``sparse`` keeps its extended
    operator there, ``kernel`` the small operands it derives from the
    kernel).  Measurement and reset steps carry the absolute ``qubit``
    and the source ``op``.

    *Parametric* gate steps — compiled from gates holding a symbolic
    :class:`~repro.parameter.Parameter` slot — carry the slot's
    :class:`~repro.parameter.ParameterExpression` in ``param`` and a
    ``None`` kernel until :meth:`CompiledPlan.bind` fills it in.  A
    fused block with a parametric member is parametric too: it keeps
    its member steps, in order, in ``members`` and is closed per
    binding (:meth:`CompiledPlan.step_kernels`).
    """

    __slots__ = (
        "kind", "kernel", "diag", "targets", "controls",
        "control_states", "diagonal", "aux", "op", "noise_qubits",
        "qubit", "param", "members",
    )

    def __init__(self, kind: int):
        self.kind = kind
        self.kernel = None
        self.param = None
        self.members = None
        self.diag = None
        self.targets = ()
        self.controls = ()
        self.control_states = ()
        self.diagonal = False
        self.aux = None
        self.op = None
        self.noise_qubits = None
        self.qubit = None

    def __repr__(self) -> str:
        if self.kind == MEASURE:
            return f"PlanStep(measure q{self.qubit})"
        if self.kind == RESET:
            return f"PlanStep(reset q{self.qubit})"
        ctrl = f", controls={self.controls}" if self.controls else ""
        tag = "diag " if self.diagonal else ""
        return f"PlanStep({tag}gate on {self.targets}{ctrl})"

    @property
    def is_parametric(self) -> bool:
        """Whether the step's kernel depends on a parameter binding."""
        return self.param is not None or self.members is not None


@dataclass
class PlanStats:
    """What compilation and execution did for one run.

    ``cache_hits``/``cache_misses`` are global plan-cache counters at
    the time of the run; ``cache_hit`` says whether *this* run reused a
    cached plan.  The ``*_seconds`` fields give per-stage wall time
    (signature hashing, compilation — zero on a cache hit — and plan
    execution).  ``nb_fused_1q``, ``nb_diag_merged`` and
    ``nb_block_merged`` count the steps each fusion rule merged away; a
    gate that joins ``m`` frontier steps into one block counts ``m``.
    """

    nb_source_ops: int = 0
    nb_steps: int = 0
    nb_gate_steps: int = 0
    nb_fused_1q: int = 0
    nb_diag_merged: int = 0
    nb_block_merged: int = 0
    cache_hit: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    signature_seconds: float = 0.0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0

    @property
    def nb_fused(self) -> int:
        """Total source gates merged away by fusion."""
        return self.nb_fused_1q + self.nb_diag_merged + self.nb_block_merged


class CompiledPlan:
    """A circuit compiled for one (backend, dtype) combination.

    Plans compiled from circuits that hold symbolic
    :class:`~repro.parameter.Parameter` slots are *parametric*: their
    parametric steps carry no kernel until :meth:`bind` fills the
    kernel tables in (no re-lowering, no re-compilation), and
    :meth:`sweep` executes a whole value matrix in one vectorized
    parameter-batched pass.
    """

    def __init__(
        self,
        nb_qubits: int,
        engine: Backend,
        dtype,
        steps: list,
        recorded: tuple,
        end_measured: dict,
        stats: PlanStats,
        parameters: tuple,
    ):
        self.nb_qubits = nb_qubits
        self.engine = engine
        self.dtype = dtype
        self.steps = steps
        #: ``(absolute qubit, op)`` pairs in recorded-measurement order.
        self.recorded = recorded
        #: absolute qubit -> (result-string position, Measurement).
        self.end_measured = end_measured
        self.stats = stats
        self._param_steps = tuple(
            s for s in steps if s.kind == GATE and s.is_parametric
        )
        #: in source first-appearance order, which the members of a
        #: fused block do not keep
        self._parameters = tuple(parameters)
        #: guards in-place kernel mutation (bind) against concurrent
        #: replay of the same cached plan; the
        #: :class:`~repro.execution.Executor` holds it across
        #: bind+execute for parametric plans.  Non-parametric replay is
        #: read-only and never takes it.
        self.lock = threading.Lock()

    @property
    def backend_name(self) -> str:
        """Name of the engine the plan was prepared for."""
        return self.engine.name

    # -- parametric execution ------------------------------------------------

    @property
    def parameters(self) -> tuple:
        """Distinct unbound :class:`~repro.parameter.Parameter` slots,
        in first-appearance order."""
        return self._parameters

    @property
    def is_parametric(self) -> bool:
        """Whether the plan has parametric steps awaiting a binding."""
        return bool(self._param_steps)

    def _resolve_values(self, values) -> dict:
        """Normalize a value set to ``{Parameter: value}``.

        Accepts a mapping keyed by :class:`~repro.parameter.Parameter`
        or by parameter *name* (names must be unambiguous within this
        plan), or a sequence aligned with :attr:`parameters`.  Extra
        entries are ignored; a missing slot raises
        :class:`~repro.exceptions.UnboundParameterError`.
        """
        from repro.parameter import normalize_values

        return normalize_values(self._parameters, values)

    def step_kernels(self, step: PlanStep, cols: Mapping) -> np.ndarray:
        """The ``(P, 2**k, 2**k)`` kernels of parametric ``step`` at the
        ``P`` points of the value columns ``cols`` (``{Parameter:
        values}``; a scalar value is one point), cast to the plan
        dtype.  A leaf step evaluates its gate; a block closes its
        members once per point.  Reads the plan and writes nothing, so
        :meth:`bind` (one point) and sweeps (every point) share it."""
        if step.members is None:
            return _point_kernels(step, cols, self.dtype)
        return _close_block(step.targets, step.members, self.dtype, cols)

    def bind(self, values) -> "CompiledPlan":
        """Fill the parametric step kernels from one value set.

        ``values`` is a ``{Parameter-or-name: float}`` mapping or a
        sequence in :attr:`parameters` order.  Kernels are computed
        (:meth:`step_kernels`; blocks with parametric members are
        re-closed) and cast to the plan dtype **in place** — no
        re-lowering or re-compilation happens, which is what makes
        bind-per-point sweeps cheap.  Returns ``self``.
        """
        if not self._param_steps:
            return self
        mapping = self._resolve_values(values)
        inst = current_instrumentation()
        t_bind = perf_counter()
        with inst.span(
            "param.bind",
            nb_params=len(self._parameters),
            nb_steps=len(self._param_steps),
        ):
            for step in self._param_steps:
                step.kernel = self.step_kernels(step, mapping)[0]
                if step.diagonal:
                    step.diag = np.ascontiguousarray(
                        np.diag(step.kernel)
                    )
            if inst.enabled:
                inst.metrics.counter(
                    PARAM_BINDS,
                    "parameter bindings applied to compiled plans",
                ).inc()
        record_event(
            EV_PLAN_BIND,
            params=len(self._parameters),
            steps=len(self._param_steps),
            ns=int((perf_counter() - t_bind) * 1e9),
        )
        return self

    def sweep(self, values, parameters=None, start=None) -> np.ndarray:
        """Execute the plan for a whole matrix of parameter points.

        One vectorized pass per plan step runs all ``P`` points at
        once: concrete steps broadcast their single kernel over the
        ``(P, 2**n)`` state batch, parametric steps (fused blocks with
        parametric members included) apply a per-point kernel stack
        from :meth:`step_kernels` along the parameter axis.

        Parameters
        ----------
        values:
            A ``(P, K)`` array whose columns follow ``parameters``
            (default :attr:`parameters` order; a 1-D array is treated
            as a single column), or a mapping from Parameter/name to a
            length-``P`` value array.
        parameters:
            Optional explicit column order for the array form.
        start:
            Initial state specifier, as in :func:`simulate`
            (default: the all-zeros state).

        Returns
        -------
        numpy.ndarray
            The ``(P, 2**n)`` final states, one row per point.

        Validation happens in :meth:`sweep_columns`; the points run
        as the rows of :func:`repro.execution.dispatch.run_sweep` —
        the execution core owns every plan-replay loop.
        """
        from repro.execution.dispatch import run_sweep

        cols, nb_points = self.sweep_columns(values, parameters)
        return run_sweep(self, cols, nb_points, start)

    def sweep_columns(self, values, parameters=None):
        """Validate :meth:`sweep`'s ``values`` and ``parameters``;
        returns ``({Parameter: length-P column}, P)``."""
        for step in self.steps:
            if step.kind != GATE:
                raise SimulationError(
                    "sweep supports gate-only plans; measurements and "
                    "resets branch per point — bind() and simulate "
                    "each point instead"
                )
        params = (
            self._parameters if parameters is None else tuple(parameters)
        )
        if isinstance(values, Mapping):
            mapping = self._resolve_values(values)
            cols = {
                p: np.asarray(v, dtype=float).ravel()
                for p, v in mapping.items()
            }
        else:
            arr = np.asarray(values, dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[1] != len(params):
                raise UnboundParameterError(
                    f"sweep over {len(params)} parameter(s) needs a "
                    f"(P, {len(params)}) value matrix, got shape "
                    f"{arr.shape}"
                )
            cols = {p: arr[:, j] for j, p in enumerate(params)}
            missing = [p for p in self._parameters if p not in cols]
            if missing:
                raise UnboundParameterError(
                    "no value column for parameter(s) "
                    + ", ".join(repr(p.name) for p in missing)
                )
        lengths = {v.shape[0] for v in cols.values()}
        if len(lengths) > 1:
            raise UnboundParameterError(
                f"parameter value arrays disagree on length: {lengths}"
            )
        return cols, (lengths.pop() if lengths else 1)

    def __repr__(self) -> str:
        par = (
            f", parameters={[p.name for p in self._parameters]!r}"
            if self._param_steps else ""
        )
        return (
            f"CompiledPlan(nbQubits={self.nb_qubits}, "
            f"steps={len(self.steps)}, backend={self.engine.name!r}, "
            f"dtype={np.dtype(self.dtype).name}{par})"
        )


# -- lowering and signatures -------------------------------------------------
#
# Plan compilation consumes the canonical IR (:mod:`repro.ir`): the
# one tree walker, revision-cached, replaces the private ``_flattened``
# this module used to carry.


def circuit_signature(circuit: QCircuit) -> tuple:
    """Structural signature of a circuit: register width plus every
    flattened op's type, absolute qubits and parameter fingerprint.

    Equal signatures guarantee identical simulation semantics, so the
    signature keys the plan cache; any mutation — structural or a gate
    parameter update — changes it.  Gates holding a symbolic
    :class:`~repro.parameter.Parameter` are fingerprinted by *slot
    identity* (uid, scale, offset), not by value: every binding of the
    same parametric circuit hashes identically and reuses one cached
    plan.  Delegates to :meth:`repro.ir.IRProgram.signature` on the
    cached lowering.
    """
    return lower(circuit).signature()


# -- fusion ------------------------------------------------------------------


def _merge_1q(prev: PlanStep, cur: PlanStep) -> None:
    """Merge uncontrolled one-qubit ``cur`` into ``prev`` (same target);
    ``prev`` acts first, so the merged kernel is ``cur @ prev``."""
    prev.kernel = cur.kernel @ prev.kernel
    prev.diagonal = prev.diagonal and cur.diagonal
    prev.diag = (
        np.ascontiguousarray(np.diag(prev.kernel))
        if prev.diagonal else None
    )
    prev.op = None
    prev.noise_qubits = None


def _merge_diag(prev: PlanStep, cur: PlanStep) -> bool:
    """Coalesce diagonal ``cur`` into diagonal ``prev`` when the union
    qubit set stays small; ``True`` on success."""
    pq, pd = folded_diag(
        prev.kernel, prev.targets, prev.controls, prev.control_states
    )
    cq, cd = folded_diag(
        cur.kernel, cur.targets, cur.controls, cur.control_states
    )
    if max(len(pq), len(cq)) < 2:
        return False  # plain 1q diagonals on distinct qubits: the
        # strided per-qubit multiply beats a gathered union step
    union = tuple(sorted(set(pq) | set(cq)))
    if len(union) > MAX_DIAG_QUBITS:
        return False
    dtype = prev.kernel.dtype
    d = expand_diag(pd, pq, union, dtype) * expand_diag(
        cd, cq, union, dtype
    )
    prev.targets = union
    prev.controls = ()
    prev.control_states = ()
    prev.diag = d
    prev.kernel = np.diag(d)
    prev.op = None
    prev.noise_qubits = None
    return True


def _touched(step: PlanStep) -> set:
    return set(step.targets) | set(step.controls)


class _Window:
    """Fusion state of one compilation.

    ``steps`` is the plan under construction (``None`` marks a step
    merged away); fusion looks back only as far as ``start``, which
    barriers, measurements and resets move to the end.  ``last`` maps
    each qubit to the index of the last step of the window on it, and
    ``blocks`` maps each open block step to its member gate steps, and
    ``parametric`` holds the blocks with a parametric member.
    """

    def __init__(self, nb_qubits: int):
        self.steps: list = []
        self.start = 0
        self.last: dict = {}
        self.blocks: dict = {}
        self.parametric: set = set()
        #: widest block a parametric step may join (0: none).  A sweep
        #: builds a ``4**k``-entry matrix per point for such a block,
        #: which pays only when it is smaller than the ``2**n`` state
        #: row whose passes it replaces, and a block on fewer than 3
        #: qubits replaces too few passes to pay for the build
        span = min(MAX_BLOCK_QUBITS, (nb_qubits - 1) // 2)
        self.param_span = span if span >= 3 else 0
        self.counts = {"fused_1q": 0, "diag_merged": 0, "block_merged": 0}

    def append(self, step: PlanStep) -> None:
        index = len(self.steps)
        self.steps.append(step)
        for q in step.targets + step.controls:
            self.last[q] = index

    def close(self) -> None:
        """Block fusion across everything appended so far."""
        self.start = len(self.steps)
        self.last.clear()


def _block_frontier(window: _Window, step: PlanStep):
    """``(indices, lo, hi, parametric)`` of the frontier steps that
    ``step`` merges with into one dense block on qubits ``lo..hi``
    (``parametric`` when a member is), or ``None`` when the block rule
    does not apply.

    A frontier step is the last step of the window on one of
    ``step``'s qubits.  It joins the block when it is the last step on
    all of its own qubits (so that it commutes forward to the end of
    the window alone) and the union, padded to its contiguous span,
    still fits :data:`MAX_BLOCK_QUBITS`; frontier steps are taken
    greedily in window order.  Parametric steps join like concrete
    ones, but only blocks of at most ``window.param_span`` qubits: the
    block keeps its members until it is bound.  A frontier
    step that does not join stays where it is, and the block goes
    after it at the end of the window.  ``step``'s own span must fit; merges
    joining nothing or only diagonals are left to the other rules.
    """
    qubits = step.targets + step.controls
    lo, hi = min(qubits), max(qubits)
    parametric = step.param is not None
    if hi - lo >= (window.param_span if parametric else MAX_BLOCK_QUBITS):
        return None
    last = window.last
    kept = []
    diagonal = step.diagonal
    for i in sorted({last[q] for q in qubits if q in last}):
        cand = window.steps[i]
        own = cand.targets + cand.controls
        cand_lo, cand_hi = min(lo, *own), max(hi, *own)
        joins_param = (
            parametric or cand.param is not None or cand in window.parametric
        )
        span = window.param_span if joins_param else MAX_BLOCK_QUBITS
        if cand_hi - cand_lo >= span or any(last[q] != i for q in own):
            continue
        kept.append(i)
        lo, hi = cand_lo, cand_hi
        diagonal = diagonal and cand.diagonal
        parametric = joins_param
    if not kept or diagonal:
        return None
    return kept, lo, hi, parametric


def _fuse_into_window(window: _Window, step: PlanStep) -> bool:
    """Fuse ``step`` into an earlier step of the open fusion window
    when a commuting path back exists.

    An uncontrolled one-qubit gate commutes past every step that does
    not touch its qubit, so it can fuse with the *last* step that does
    — if that step is an uncontrolled one-qubit gate on the same
    target.  Otherwise a gate merges with the frontier steps of its
    qubits that fit into one dense block (:func:`_block_frontier`):
    they move to the end of the window as one step whose member gates
    ``window.blocks`` records until :func:`_close_block` multiplies
    them out.  A diagonal gate additionally commutes past any other
    diagonal step (they are simultaneously diagonalized), so it scans
    back through diagonals and disjoint steps for a coalescing partner.
    The one-qubit and diagonal merges multiply kernels at compile
    time, so they skip parametric steps on either side and open
    blocks.
    """
    steps, last, counts = window.steps, window.last, window.counts
    concrete = step.param is None
    if concrete and not step.controls and len(step.targets) == 1:
        i = last.get(step.targets[0])
        cand = None if i is None else steps[i]
        if (
            cand is not None
            and not cand.controls
            and cand.param is None
            and len(cand.targets) == 1
            and cand not in window.blocks
        ):
            _merge_1q(cand, step)
            counts["fused_1q"] += 1
            return True
    frontier = _block_frontier(window, step)
    if frontier is not None:
        found, lo, hi, parametric = frontier
        counts["block_merged"] += len(found)
        block = steps[found[0]]
        if len(found) == 1 and block.targets == tuple(range(lo, hi + 1)):
            members = window.blocks.get(block)
            if members is not None:  # grows in place: it is last on
                members.append(step)  # every qubit of its span
                if parametric:
                    window.parametric.add(block)
                return True
        block = PlanStep(GATE)
        block.targets = tuple(range(lo, hi + 1))
        members = window.blocks[block] = []
        for i in found:
            members.extend(window.blocks.pop(steps[i], (steps[i],)))
            window.parametric.discard(steps[i])
            steps[i] = None
        members.append(step)
        if parametric:
            window.parametric.add(block)
        window.append(block)
        return True
    if concrete and step.diagonal:
        qubits = _touched(step)
        for i in range(len(steps) - 1, window.start - 1, -1):
            cand = steps[i]
            if cand is None:
                continue
            if cand.diagonal:
                # a parametric diagonal has no kernel yet: commute past
                # it, but never merge into it
                if cand.param is None and _merge_diag(cand, step):
                    counts["diag_merged"] += 1
                    for q in qubits:
                        last[q] = max(last.get(q, i), i)
                    return True
                continue  # diagonals commute: keep scanning
            if _touched(cand) & qubits:
                break
            # non-diagonal but disjoint: commute past
    return False


def _point_kernels(step: PlanStep, cols, dtype) -> np.ndarray:
    """A gate step's kernel: its own when it is concrete, else the
    ``(P, 2**k, 2**k)`` stack at the points of the value columns
    ``cols``, cast to ``dtype``."""
    if step.param is None:
        return step.kernel
    kernels = step.op.kernel_values(step.param.resolve_batch(cols))
    return np.ascontiguousarray(kernels.astype(dtype, copy=False))


def _lift(matrix, kernel, first: int):
    """``kron(I, U, I) @ matrix`` for ``U`` on the contiguous block
    qubits from ``first`` on, as one batched product over panels of
    ``matrix`` rather than with the lifted operator built.  ``matrix``
    and ``kernel`` may each hold one entry per point."""
    dim = matrix.shape[-1]
    size = kernel.shape[-1]
    panels = matrix.reshape(len(matrix), 1 << first, size, -1)
    if kernel.ndim == 3:
        kernel = kernel[:, None]
    return np.matmul(kernel, panels).reshape(-1, dim, dim)


@functools.lru_cache(maxsize=None)
def _eye(size: int, dtype) -> np.ndarray:
    """A read-only ``(1, size, size)`` identity, shared by every
    :func:`_kron` that needs it."""
    eye = np.eye(size, dtype=dtype)[None]
    eye.flags.writeable = False
    return eye


def _kron(factors, dtype):
    """``kron`` of per-qubit factors (first most significant), each a
    ``(2, 2)`` kernel, a ``(P, 2, 2)`` stack or ``None`` for the
    identity, as a fresh ``(1 or P, 2**k, 2**k)`` stack.  Runs of
    identities become one identity, and the rest multiply in pairs,
    so that no product broadcasts over tiny trailing axes twice."""
    mats = []
    run = 0  # identity factors not yet appended
    for f in factors:
        if f is None:
            run += 1
            continue
        if run:
            mats.append(_eye(1 << run, dtype))
            run = 0
        mats.append(f.reshape(-1, 2, 2))
    if run:
        mats.append(_eye(1 << run, dtype))
    if len(mats) == 1:
        return mats[0].copy()
    while len(mats) > 1:
        paired = []
        for a, b in zip(mats[::2], mats[1::2]):
            size = a.shape[-1] * b.shape[-1]
            paired.append(
                (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(
                    -1, size, size
                )
            )
        mats = paired + mats[len(paired) * 2:]
    return mats[0]


def _coalesce_members(members: list) -> tuple:
    """A parametric block's members with each run of consecutive
    concrete diagonals coalesced into one (:func:`_merge_diag`), so
    that every binding closes fewer members."""
    out = []
    for m in members:
        prev = out[-1] if out else None
        if (
            prev is not None
            and prev.param is None
            and m.param is None
            and prev.diagonal
            and m.diagonal
            and _merge_diag(prev, m)
        ):
            continue
        out.append(m)
    return tuple(out)


def _close_block(targets, members, dtype, cols=None) -> np.ndarray:
    """A block step's kernels: the member gates applied in order to the
    identity on the block's ``targets``, as a ``(P, 2**k, 2**k)``
    stack — one matrix per point of the value columns ``cols`` when a
    member is parametric, else ``P = 1``.

    One-qubit members ahead of every other member on their qubit
    commute to the front, so they start the product as one
    :func:`_kron`.  Later runs of one-qubit members on a qubit are
    multiplied out and wait until a member on their qubit (or the end)
    is due; a run due alone is lifted with :func:`_lift`, runs due
    together go in as one :func:`_kron`.  Uncontrolled members on contiguous qubits are lifted with
    :func:`_lift`; the others (controlled, diagonal or gapped) go
    through the kernel engine, where a diagonal is a row scaling."""
    lo = targets[0]
    k = len(targets)
    front: dict = {}  # qubit -> product of its leading 1q members
    rest = []
    seen = set()
    for m in members:
        kernel = m.kernel if m.param is None else _point_kernels(
            m, cols, dtype
        )
        one = not m.controls and len(m.targets) == 1
        if one and m.targets[0] not in seen:
            q = m.targets[0]
            front[q] = kernel @ front[q] if q in front else kernel
            continue
        seen.update(m.targets + m.controls)
        rest.append((m, kernel, one))
    matrix = _kron([front.get(q) for q in targets], dtype)
    pending: dict = {}  # qubit -> product of its 1q members not applied
    for m, kernel, one in rest + [(None, None, False)]:
        if one:
            q = m.targets[0]
            pending[q] = kernel @ pending[q] if q in pending else kernel
            continue
        due = sorted(pending if m is None else pending.keys() & _touched(m))
        if len(due) == 1:
            matrix = _lift(matrix, pending.pop(due[0]), due[0] - lo)
        elif due:
            factors = [
                pending.pop(q) if q in due else None
                for q in range(due[0], due[-1] + 1)
            ]
            matrix = _lift(matrix, _kron(factors, dtype), due[0] - lo)
        if m is None:
            break
        rel = tuple(q - lo for q in m.targets)
        first = rel[0]
        if not m.controls and not m.diagonal and rel == tuple(
            range(first, first + len(rel))
        ):
            matrix = _lift(matrix, kernel, first)
            continue
        if kernel.ndim == 3 and len(matrix) != len(kernel):
            matrix = np.repeat(matrix, len(kernel), axis=0)
        matrix = _run(
            matrix, kernel, rel, tuple(q - lo for q in m.controls),
            m.control_states, m.diagonal, k, None,
        )
    return matrix


# -- compilation -------------------------------------------------------------


def _table_bytes(steps: list) -> int:
    """Bytes of the per-step arrays a plan holds (kernels and
    diagonals); no backend keeps state-sized tables."""
    total = 0
    for step in steps:
        for arr in (step.kernel, step.diag):
            if arr is not None:
                total += arr.nbytes
    return int(total)


def compile_circuit(
    circuit: QCircuit,
    backend="kernel",
    dtype=np.complex128,
    fuse: bool = True,
) -> CompiledPlan:
    """Compile a circuit into a :class:`CompiledPlan` for one backend
    and working precision.

    Barriers compile to nothing but act as fusion breaks.  With
    ``fuse=False`` every gate keeps a one-to-one step (required when a
    noise model attaches channels per gate).

    When instrumentation is ambient (see
    :mod:`repro.observability`), compilation records a
    ``plan.compile`` span and fusion counters.
    """
    inst = current_instrumentation()
    if not inst.enabled:
        return _compile_circuit(circuit, backend, dtype, fuse)
    with inst.span("plan.compile", fuse=bool(fuse)) as sp:
        plan = _compile_circuit(circuit, backend, dtype, fuse)
        st = plan.stats
        sp.set(
            backend=plan.backend_name,
            nb_qubits=plan.nb_qubits,
            nb_ops=st.nb_source_ops,
            steps=st.nb_steps,
            fused=st.nb_fused,
        )
        fused = inst.metrics.counter(
            FUSED_STEPS, "source gates merged away by plan fusion"
        )
        if st.nb_fused_1q:
            fused.inc(st.nb_fused_1q, kind="1q")
        if st.nb_diag_merged:
            fused.inc(st.nb_diag_merged, kind="diag")
        if st.nb_block_merged:
            fused.inc(st.nb_block_merged, kind="block")
        return plan


def _compile_circuit(
    circuit: QCircuit,
    backend="kernel",
    dtype=np.complex128,
    fuse: bool = True,
) -> CompiledPlan:
    t0 = perf_counter()
    engine = get_backend(backend)
    nb_qubits = circuit.nbQubits
    program = lower(circuit)

    window = _Window(nb_qubits)
    nb_source_ops = 0
    recorded = []
    last_touch: dict = {}
    record_index: dict = {}
    parameters: dict = {}  # first-appearance order

    for irop in program:
        kind = irop.kind
        if kind == IR_BARRIER:
            window.close()  # barriers block fusion across them
            continue
        nb_source_ops += 1
        op = irop.op
        if kind == IR_GATE:
            step = PlanStep(GATE)
            step.targets = irop.targets
            step.controls = irop.controls
            step.control_states = irop.control_states
            step.diagonal = irop.is_diagonal
            step.op = op
            step.noise_qubits = irop.qubits
            if irop.is_bound:
                step.kernel = irop.kernel(dtype)
                if step.diagonal:
                    step.diag = np.ascontiguousarray(np.diag(step.kernel))
            else:
                # parametric step: no kernel until bind()/sweep()
                step.param = irop.parameter_expression
                parameters.setdefault(step.param.parameter, None)
            # a parametric step validates its index structure with an
            # identity stand-in
            Backend._validate(
                np.eye(1 << len(step.targets), dtype=dtype)
                if step.kernel is None else step.kernel,
                step.targets, nb_qubits, step.controls,
                step.control_states,
            )
            for q in irop.qubits:
                last_touch[q] = op
            if fuse and _fuse_into_window(window, step):
                continue
            window.append(step)
            continue
        if kind == IR_MEASURE:
            step = PlanStep(MEASURE)
            step.qubit = irop.qubit
            step.op = op
            record_index[id(op)] = len(recorded)
            recorded.append((step.qubit, op))
            last_touch[step.qubit] = op
            window.append(step)
            window.close()
            continue
        if kind == IR_RESET:
            step = PlanStep(RESET)
            step.qubit = irop.qubit
            step.op = op
            if op.record:
                record_index[id(op)] = len(recorded)
                recorded.append((step.qubit, op))
            last_touch[step.qubit] = op
            window.append(step)
            window.close()
            continue
        raise SimulationError(
            f"cannot compile {KIND_NAMES.get(kind, kind)} IR op "
            f"({type(op).__name__})"
        )

    for block, members in window.blocks.items():
        if block in window.parametric:
            block.members = _coalesce_members(members)  # closed per binding
        else:
            block.kernel = _close_block(block.targets, members, dtype)[0]
    steps = [step for step in window.steps if step is not None]
    counts = window.counts
    end_measured = {}
    for q, op in last_touch.items():
        if isinstance(op, Measurement):
            end_measured[q] = (record_index[id(op)], op)

    nb_gate_steps = sum(step.kind == GATE for step in steps)
    stats = PlanStats(
        nb_source_ops=nb_source_ops,
        nb_steps=len(steps),
        nb_fused_1q=counts["fused_1q"],
        nb_gate_steps=nb_gate_steps,
        nb_diag_merged=counts["diag_merged"],
        nb_block_merged=counts["block_merged"],
        compile_seconds=perf_counter() - t0,
    )
    record_event(
        EV_PLAN_COMPILE,
        backend=engine.name,
        ops=nb_source_ops,
        steps=len(steps),
        fused=stats.nb_fused,
        blocks=stats.nb_block_merged,
        ns=int(stats.compile_seconds * 1e9),
        table_bytes=_table_bytes(steps),
    )
    return CompiledPlan(
        nb_qubits, engine, np.dtype(dtype).type, steps,
        tuple(recorded), end_measured, stats, tuple(parameters),
    )


# -- the plan cache ----------------------------------------------------------

#: LRU capacity; oldest plans are evicted beyond this.
PLAN_CACHE_MAXSIZE = 64

_CACHE: dict = {}
_HITS = 0
_MISSES = 0
#: Serializes cache lookups INCLUDING compilation on a miss, so that
#: N concurrent submits of signature-equal circuits see exactly one
#: miss and N-1 hits (the concurrent-executor tests assert this).
#: Re-entrant because compilation may consult the cache for
#: sub-circuits in future layers.
_CACHE_LOCK = threading.RLock()


def _engine_key(engine: Backend) -> tuple:
    return (type(engine).__qualname__, engine.name)


def _sig_hash(sig) -> str:
    """Short stable-ish hex digest of a circuit signature, for
    recorder events and :func:`plan_cache_info` (process-local: it is
    ``hash()``-based, so it varies across interpreter runs)."""
    return f"{hash(sig) & 0xFFFFFFFFFFFF:012x}"


def get_plan(
    circuit: QCircuit,
    backend="kernel",
    dtype=np.complex128,
    fuse: bool = True,
):
    """Fetch (or compile and memoize) the plan for a circuit.

    Returns ``(plan, stats)`` where ``stats`` is a fresh
    :class:`PlanStats` for this call (cache-hit flag, global counters,
    signature wall time filled in).

    Under ambient instrumentation the lookup records a ``plan.get``
    span (with a nested ``plan.compile`` span on a miss) and bumps the
    plan-cache hit/miss counters.
    """
    global _HITS, _MISSES
    engine = get_backend(backend)
    inst = current_instrumentation()
    with inst.span("plan.get", backend=engine.name) as sp:
        # one lock covers signature hashing (the per-circuit lowering
        # cache mutates), the lookup, AND compilation on a miss:
        # concurrent submits of signature-equal circuits then account
        # exactly one miss, and hit/miss counters never tear
        with _CACHE_LOCK:
            t0 = perf_counter()
            sig = circuit_signature(circuit)
            sig_seconds = perf_counter() - t0
            key = (
                sig, _engine_key(engine), np.dtype(dtype).str, bool(fuse)
            )
            plan = _CACHE.pop(key, None)
            if plan is not None:
                _CACHE[key] = plan  # re-insert: most recently used
                _HITS += 1
                hit = True
                record_event(
                    EV_PLAN_HIT,
                    backend=engine.name,
                    signature=_sig_hash(sig),
                )
            else:
                record_event(
                    EV_PLAN_MISS,
                    backend=engine.name,
                    signature=_sig_hash(sig),
                )
                plan = compile_circuit(circuit, engine, dtype, fuse=fuse)
                _CACHE[key] = plan
                while len(_CACHE) > PLAN_CACHE_MAXSIZE:
                    old_key, old_plan = next(iter(_CACHE.items()))
                    _CACHE.pop(old_key)
                    record_event(
                        EV_PLAN_EVICT,
                        backend=old_plan.engine.name,
                        signature=_sig_hash(old_key[0]),
                    )
                _MISSES += 1
                hit = False
        if inst.enabled:
            sp.set(cache_hit=hit)
            name = PLAN_CACHE_HITS if hit else PLAN_CACHE_MISSES
            inst.metrics.counter(
                name, "compiled-plan cache lookups"
            ).inc()
        stats = replace(
            plan.stats,
            cache_hit=hit,
            cache_hits=_HITS,
            cache_misses=_MISSES,
            signature_seconds=sig_seconds,
        )
        return plan, stats


def plan_cache_info() -> dict:
    """Global plan-cache counters plus a per-entry table.

    Returns ``hits`` / ``misses`` / ``size`` / ``maxsize`` (and
    ``capacity``, an alias of ``maxsize``), the derived ``hit_rate``
    (0.0 when the cache was never consulted), and ``entries`` — one
    dict per cached plan, least-recently-used first, carrying the
    plan's ``backend``, ``dtype``, ``fuse`` flag, ``nb_steps``,
    ``nb_qubits``, ``parametric`` flag and a short ``signature``
    digest (process-local, matching the flight recorder's
    ``plan.hit``/``plan.miss`` events).
    """
    with _CACHE_LOCK:
        lookups = _HITS + _MISSES
        entries = [
            {
                "backend": plan.engine.name,
                "dtype": np.dtype(plan.dtype).name,
                "fuse": key[3],
                "nb_steps": len(plan.steps),
                "nb_qubits": plan.nb_qubits,
                "parametric": plan.is_parametric,
                "signature": _sig_hash(key[0]),
            }
            for key, plan in _CACHE.items()
        ]
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "size": len(_CACHE),
            "maxsize": PLAN_CACHE_MAXSIZE,
            "capacity": PLAN_CACHE_MAXSIZE,
            "hit_rate": (_HITS / lookups) if lookups else 0.0,
            "entries": entries,
        }


def clear_plan_cache() -> None:
    """Empty the plan cache and reset its counters."""
    global _HITS, _MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
