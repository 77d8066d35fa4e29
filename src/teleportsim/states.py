"""Dense complex linear algebra for small multi-qubit systems.

Everything is dense numpy: the largest system handled anywhere in this
package is five qubits (dimension 32), so there is no point in sparse
machinery.  Qubit ordering is big-endian throughout: qubit 0 is the most
significant bit of the amplitude index, e.g. ``|1>|0>`` has amplitudes
``(0, 0, 1, 0)``.

Fixed operators are built once (a LocalOperator caches its read-only matrix;
correction sets are module constants), and every object the public API
returns still goes through its validating constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Bell basis, fixed ordering (phi+, phi-, psi+, psi-); outcome indices 1..4.
BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
BELL_VECTORS = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
) / np.sqrt(2.0)

_NORM_ATOL = 1e-12
_HERM_ATOL = 1e-12
_EIG_FLOOR = -1e-10
_ENTROPY_CUTOFF = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _n_qubits_for(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _read_only(np.asarray(self.amplitudes).ravel())
        _n_qubits_for(a.size)
        norm = float(np.vdot(a, a).real)
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_qubits(self) -> int:
        return _n_qubits_for(self.amplitudes.size)

    def density(self) -> "DensityMatrix":
        a = self.amplitudes
        return DensityMatrix(np.outer(a, a.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator."""

    elements: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.elements, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"density matrix must be square, got {e.shape}")
        _n_qubits_for(e.shape[0])
        if np.abs(e - e.conj().T).max() > _HERM_ATOL:
            raise ValueError("density matrix not Hermitian within 1e-12")
        tr = complex(np.trace(e))
        if abs(tr - 1.0) > _NORM_ATOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        low = float(np.linalg.eigvalsh((e + e.conj().T) / 2).min())
        if low < _EIG_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {low} < -1e-10")
        object.__setattr__(self, "elements", _read_only(e))

    @property
    def n_qubits(self) -> int:
        return _n_qubits_for(self.elements.shape[0])


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Tensor product of single-qubit unitaries, one 2x2 factor per qubit."""

    factors: tuple

    def __post_init__(self):
        fs = []
        for f in self.factors:
            f = np.asarray(f, dtype=complex)
            if f.shape != (2, 2):
                raise ValueError(f"factor must be 2x2, got {f.shape}")
            if np.abs(f @ f.conj().T - np.eye(2)).max() > _HERM_ATOL:
                raise ValueError("factor is not unitary within 1e-12")
            fs.append(_read_only(f))
        if not fs:
            raise ValueError("LocalOperator needs at least one factor")
        object.__setattr__(self, "factors", tuple(fs))
        object.__setattr__(self, "_matrix", _read_only(reduce(np.kron, fs)))

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @classmethod
    def identity(cls, n_qubits: int) -> "LocalOperator":
        return cls(tuple(PAULI_I for _ in range(n_qubits)))

    @classmethod
    def at(cls, n_qubits: int, position: int, matrix: np.ndarray) -> "LocalOperator":
        """Single-qubit operator at ``position``, identity elsewhere."""
        fs = [PAULI_I] * n_qubits
        fs[position] = matrix
        return cls(tuple(fs))

    @classmethod
    def uniform(cls, n_qubits: int, matrix: np.ndarray) -> "LocalOperator":
        """The same single-qubit operator on every qubit."""
        return cls(tuple(matrix for _ in range(n_qubits)))

    def matrix(self) -> np.ndarray:
        """The full 2^n x 2^n matrix, built once and read-only."""
        return self._matrix


@dataclass(frozen=True, eq=False)
class BellOutcome:
    """One of the four Bell-measurement outcomes on a qubit pair.

    ``post_state`` is the renormalized remainder on the unmeasured qubits;
    it is ``None`` when no qubits remain or when the branch weight is too
    small to renormalize reliably (probability < 1e-30).
    """

    index: int
    probability: float
    post_state: Optional[PureState]


def tensor(a: PureState, b: PureState) -> PureState:
    """Product state of ``a`` (leading qubits) and ``b`` (trailing qubits)."""
    return PureState(np.outer(a.amplitudes, b.amplitudes).ravel())


def _kept_qubits(keep: Iterable[int], n: int) -> list:
    """``keep`` as an ascending list, checked to be a nonempty proper subset."""
    kept = sorted(set(int(q) for q in keep))
    if any(q < 0 or q >= n for q in kept):
        raise ValueError(f"keep indices {kept} out of range for {n} qubits")
    if not kept or len(kept) == n:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    return kept


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the qubits in ``keep`` (ascending original order)."""
    n = rho.n_qubits
    kept = _kept_qubits(keep, n)
    t = rho.elements.reshape([2] * (2 * n))
    for q in sorted(set(range(n)) - set(kept), reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    d = 2 ** len(kept)
    return DensityMatrix(t.reshape(d, d))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(w * log2 w) in bits; eigenvalues below 1e-12 count as 0."""
    e = rho.elements
    w = np.linalg.eigvalsh((e + e.conj().T) / 2)
    w = w[w > _ENTROPY_CUTOFF]
    return float(-(w * np.log2(w)).sum())


def bell_measure(state: PureState, pair: tuple) -> list:
    """Measure the ordered qubit ``pair`` in the Bell basis.

    Returns the four :class:`BellOutcome` values in the fixed order
    (phi+, phi-, psi+, psi-).  Probabilities are squared norms of the
    projections; post-states keep the relative order of the remaining
    qubits.
    """
    rows = _measure_and_correct(state, pair)
    return [BellOutcome(k + 1, p, post) for k, (p, post) in enumerate(rows)]


def _measure_and_correct(state: PureState, pair: tuple, corrections=None) -> list:
    """(probability, post-state) per Bell outcome on ``pair``, as in bell_measure.

    The measure-and-correct kernel of every protocol: one matmul projects onto
    all four Bell vectors; ``corrections[k]``, if given, acts on outcome k.
    """
    i, j = int(pair[0]), int(pair[1])
    n = state.n_qubits
    if i == j:
        raise ValueError("measured pair must be two distinct qubits")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair {pair} out of range for {n} qubits")
    rest = [q for q in range(n) if q != i and q != j]
    t = state.amplitudes.reshape([2] * n).transpose([i, j] + rest).reshape(4, -1)
    rows = []
    for k, residual in enumerate(BELL_VECTORS.conj() @ t):
        p = float(np.vdot(residual, residual).real)
        post = None
        if n > 2 and p > 1e-30:
            post = residual / np.sqrt(p)
            if corrections is not None:
                post = corrections[k + 1].matrix() @ post
            post = PureState(post)
        rows.append((p, post))
    return rows


def _marginal_fidelity(amplitudes: np.ndarray, target: np.ndarray, keep) -> float:
    """<target| Tr_rest |c><c| |target> of the amplitude vector c, as partial_trace.

    ``keep`` names the scored qubits (ascending original order, as in
    partial_trace).  The value is ||(I_rest (x) <target|_keep) c||^2, computed on
    the amplitudes with no density matrix.
    """
    n = _n_qubits_for(amplitudes.size)
    kept = _kept_qubits(keep, n)
    if target.size != 2 ** len(kept):
        raise ValueError("dimension mismatch")
    rest = [q for q in range(n) if q not in kept]
    m = amplitudes.reshape([2] * n).transpose(rest + kept).reshape(2 ** len(rest), -1)
    v = m @ target.conj()
    return float(np.vdot(v, v).real)


def apply_local(op: LocalOperator, state: PureState) -> PureState:
    """Apply a product of single-qubit unitaries to a state."""
    if op.n_qubits != state.n_qubits:
        raise ValueError(
            f"operator acts on {op.n_qubits} qubits, state has {state.n_qubits}"
        )
    return PureState(op.matrix() @ state.amplitudes)


def fidelity(psi: PureState, rho) -> float:
    """Overlap <psi|rho|psi>; ``rho`` may be a DensityMatrix or a PureState."""
    a = psi.amplitudes
    if isinstance(rho, PureState):
        if rho.amplitudes.size != a.size:
            raise ValueError("dimension mismatch")
        return float(abs(np.vdot(a, rho.amplitudes)) ** 2)
    if rho.elements.shape[0] != a.size:
        raise ValueError("dimension mismatch")
    return float(np.real(a.conj() @ rho.elements @ a))
