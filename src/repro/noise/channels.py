"""Single-qubit noise channels as Kraus-operator sets.

Every channel satisfies the completeness relation
``sum_i K_i^dagger K_i = I`` (validated at construction).  The
trajectory simulator selects one Kraus operator per application with
probability ``tr(K_i^dagger K_i rho_q)`` (``rho_q`` the target's reduced
density), which reproduces the channel exactly in expectation.  For a
unitary mixture (the Pauli family) that probability is a constant
``p_i``: selection reads no state and applies ``K_i / sqrt(p_i)``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.linalg import closeto, dagger

__all__ = [
    "NoiseChannel",
    "PauliChannel",
    "BitFlip",
    "PhaseFlip",
    "Depolarizing",
    "AmplitudeDamping",
]

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.diag([1.0, -1.0]).astype(np.complex128)


class NoiseChannel:
    """A single-qubit quantum channel given by Kraus operators.

    Parameters
    ----------
    kraus:
        Sequence of ``2 x 2`` arrays ``K_i`` with
        ``sum_i K_i^dagger K_i = I``.
    name:
        Human-readable channel name.
    """

    def __init__(self, kraus: Sequence[np.ndarray], name: str = "channel"):
        ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
        if not ops:
            raise SimulationError("a channel needs at least one Kraus op")
        for k in ops:
            if k.shape != (2, 2):
                raise SimulationError(
                    f"Kraus operator of shape {k.shape}; expected (2, 2)"
                )
        gram = np.stack([dagger(k) @ k for k in ops])
        if not closeto(gram.sum(axis=0), _I, atol=1e-10):
            raise SimulationError(
                "Kraus operators do not satisfy completeness "
                "(sum K^dag K != I)"
            )
        self._kraus = ops
        self._name = str(name)
        self._gram = gram
        # a unitary mixture has K_i^dag K_i = p_i I (to 1e-12 relative to
        # p_i): its branches are the unitaries K_i / sqrt(p_i)
        weights = gram[:, 0, 0].real
        self._cum = None
        self._branches = ops
        if all(closeto(m, w * _I, atol=1e-12 * w)
               for m, w in zip(gram, weights)):
            self._cum = np.cumsum(weights)
            self._last = np.flatnonzero(weights)[-1]
            self._branches = [
                None if w == 0.0 or closeto(k / np.sqrt(w), _I)
                else k / np.sqrt(w)
                for k, w in zip(ops, weights)
            ]

    @property
    def kraus(self) -> List[np.ndarray]:
        """The Kraus operators."""
        return list(self._kraus)

    @property
    def name(self) -> str:
        """Channel name."""
        return self._name

    @property
    def is_unitary_mixture(self) -> bool:
        """``True`` when every ``K_i^dagger K_i`` is a multiple of the
        identity, i.e. branch probabilities do not depend on the state."""
        return self._cum is not None

    def select(self, states: np.ndarray, qubit: int, r: np.ndarray,
               rows=None):
        """Each uniform's branch on ``qubit`` of a ``(B, 2**n)`` batch.

        Uniform ``r[j]`` belongs to row ``rows[j]`` (row ``j`` when
        ``rows`` is ``None``) and takes the first branch whose
        cumulative probability in that row exceeds it, else the row's
        last possible one.  Returns ``(index, branches, probs)``, one
        index per uniform.  A unitary mixture reads no state: its
        branches are ``K_i / sqrt(p_i)`` (``None`` for the identity
        and ``p_i = 0``) and ``probs`` is ``None``.  Else the branches
        are ``K_i`` and ``probs`` the ``(B, m)`` row probabilities,
        from one pass, that renormalize picked rows.
        """
        if self._cum is not None:
            index = np.searchsorted(self._cum, r, side="right")
            return np.minimum(index, self._last), self._branches, None
        view = states.reshape(states.shape[0], 1 << qubit, 2, -1)
        rho = np.einsum("blir,bljr->bij", view, view.conj())
        probs = np.einsum("kij,bji->bk", self._gram, rho).real
        probs[probs <= 1e-300] = 0.0
        if not probs.any(axis=1).all():
            raise SimulationError(
                "Kraus sampling failed to select an operator"
            )
        cum = np.cumsum(probs, axis=1)
        last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
        if rows is not None:
            cum, last = cum[rows], last[rows]
        index = np.count_nonzero(cum <= r[:, None], axis=1)
        return np.minimum(index, last), self._branches, probs

    @property
    def is_identity(self) -> bool:
        """``True`` for the trivial channel (single identity Kraus op)."""
        return len(self._kraus) == 1 and closeto(self._kraus[0], _I)

    def __repr__(self) -> str:
        return f"NoiseChannel({self._name!r}, {len(self._kraus)} Kraus ops)"


class PauliChannel(NoiseChannel):
    """Applies X, Y, Z with probabilities ``px``, ``py``, ``pz``.

    The identity is applied with the remaining probability; each Kraus
    operator is ``sqrt(p) * sigma``.
    """

    def __init__(self, px: float = 0.0, py: float = 0.0, pz: float = 0.0):
        for p in (px, py, pz):
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"probability {p} outside [0, 1]")
        p_id = 1.0 - px - py - pz
        if p_id < -1e-12:
            raise SimulationError("Pauli probabilities sum to more than 1")
        p_id = max(p_id, 0.0)
        kraus = [np.sqrt(p_id) * _I]
        for p, sigma in ((px, _X), (py, _Y), (pz, _Z)):
            if p > 0.0:
                kraus.append(np.sqrt(p) * sigma)
        super().__init__(kraus, name="pauli")
        self.px, self.py, self.pz = float(px), float(py), float(pz)


class BitFlip(PauliChannel):
    """Flips the qubit (X) with probability ``p``."""

    def __init__(self, p: float):
        super().__init__(px=p)
        self._name = "bit-flip"
        self.p = float(p)


class PhaseFlip(PauliChannel):
    """Applies Z with probability ``p``."""

    def __init__(self, p: float):
        super().__init__(pz=p)
        self._name = "phase-flip"
        self.p = float(p)


class Depolarizing(PauliChannel):
    """Applies each of X, Y, Z with probability ``p/3``."""

    def __init__(self, p: float):
        super().__init__(px=p / 3.0, py=p / 3.0, pz=p / 3.0)
        self._name = "depolarizing"
        self.p = float(p)


class AmplitudeDamping(NoiseChannel):
    """Energy relaxation toward ``|0>`` with damping rate ``gamma``.

    Kraus operators ``K0 = diag(1, sqrt(1-gamma))`` and
    ``K1 = sqrt(gamma) |0><1|`` — a genuinely non-unital channel that
    exercises the trajectory simulator beyond Pauli errors.
    """

    def __init__(self, gamma: float):
        if not 0.0 <= gamma <= 1.0:
            raise SimulationError(f"gamma {gamma} outside [0, 1]")
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
        k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
        super().__init__([k0, k1], name="amplitude-damping")
        self.gamma = float(gamma)
