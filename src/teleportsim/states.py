"""Dense complex linear algebra for small multi-qubit systems.

Everything is dense numpy: the largest system handled anywhere in this
package is five qubits (dimension 32), so there is no point in sparse
machinery.  Qubit ordering is big-endian throughout: qubit 0 is the most
significant bit of the amplitude index, e.g. ``|1>|0>`` has amplitudes
``(0, 0, 1, 0)``.

Fixed operators are built once: a LocalOperator caches its read-only matrix,
the Paulis, the Bell vectors and the correction sets are module constants,
their arrays read-only, and each correction set's
(corrections o Bell bras) map, which turns a resource's amplitudes into its
transfer operators in one matmul, is built on the first spec that uses the
set and cached by the set's identity (``_transfer_map``).  Every object the
public API returns is built by its class's ``__init__``, which checks the
arguments and stores the fields; after that no field can be assigned or
deleted (``_Frozen``).  Validation happens where a state is returned, not
on the way to it: ``partial_trace`` reduces a ``PureState`` from its
amplitudes and builds no full density matrix, so only the returned reduced
state is validated, with every check it would get from the density route.
Each piece of validation work is done once: a ``LocalOperator`` copies its
factors once into one read-only (n, 2, 2) stack, checks the whole stack for
finiteness and for unitarity, and builds its matrix as one Kronecker chain
over it; a ``DensityMatrix`` copies its elements once and keeps the spectrum
that its positivity check computed, which ``von_neumann_entropy`` reads; and
a ``TelecloneResult``'s reduced states are built and validated when they are
first read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

import numpy as np


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, a float or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _qubit_index(q) -> int:
    """``q`` as an int; a bool, a float (even an integral one) or anything else raises ValueError."""
    if not _is_integer(q):
        raise ValueError(f"qubit index must be an integer, got {q!r}")
    return int(q)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


# public constants are read-only, so no caller can change what every protocol reads
PAULI_I = _read_only(np.eye(2))
PAULI_X = _read_only([[0, 1], [1, 0]])
PAULI_Y = _read_only([[0, -1j], [1j, 0]])
PAULI_Z = _read_only([[1, 0], [0, -1]])

# Bell basis, fixed ordering (phi+, phi-, psi+, psi-); outcome indices 1..4.
BELL_VECTORS = _read_only(
    np.array(
        [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
            [0, 1, -1, 0],
        ],
        dtype=complex,
    )
    / np.sqrt(2.0)
)

_BELL_BRAS = BELL_VECTORS.conj()
_NORM_ATOL = 1e-12
_HERM_ATOL = 1e-12
_EIG_FLOOR = -1e-10
_ENTROPY_CUTOFF = 1e-12


# <Bell_k|b j> indexed (k, j, b), the bras every cached ``_transfer_map`` is
# built from; ``bell_measure`` reads ``_BELL_BRAS``
_BELL_BRAS_JB = _read_only(np.ascontiguousarray(_BELL_BRAS.reshape(4, 2, 2).transpose(0, 2, 1)))


class _Frozen:
    """Base of the package's immutable types.

    A subclass's ``__init__`` validates its arguments and stores each field
    with ``object.__setattr__``; afterwards assigning or deleting an
    attribute raises AttributeError.  ``repr`` shows the fields named in
    ``_fields``.  Instances compare by identity.
    """

    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _Value(_Frozen):
    """An immutable type that compares equal, and hashes equal, by ``_key()``: its fields."""

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _n_qubits_for(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


class PureState(_Frozen):
    """Normalized amplitude vector over ``n_qubits`` qubits."""

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        a = _read_only(np.asarray(amplitudes).ravel())
        _n_qubits_for(a.size)
        norm = float(np.vdot(a, a).real)
        if not abs(norm - 1.0) <= _NORM_ATOL:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_qubits(self) -> int:
        return _n_qubits_for(self.amplitudes.size)

    def density(self) -> "DensityMatrix":
        a = self.amplitudes
        return DensityMatrix(np.outer(a, a.conj()))


class DensityMatrix(_Frozen):
    """Hermitian, unit-trace, positive semidefinite operator.

    ``spectrum`` holds the ascending, read-only eigenvalues of the
    symmetrised elements (e + e^dagger)/2, which the positivity check
    computes; ``von_neumann_entropy`` reads them.
    """

    _fields = ("elements",)

    def __init__(self, elements: np.ndarray):
        e = np.array(elements, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"density matrix must be square, got {e.shape}")
        _n_qubits_for(e.shape[0])
        # finite first, so an inf entry raises here and not a warning from inf - inf
        if not np.isfinite(e).all():
            raise ValueError("density matrix has a non-finite entry")
        eh = e.conj().T
        if not np.abs(e - eh).max() <= _HERM_ATOL:
            raise ValueError("density matrix not Hermitian within 1e-12")
        tr = complex(e.trace())
        if not abs(tr - 1.0) <= _NORM_ATOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        sym = e + eh
        sym /= 2
        w = np.linalg.eigvalsh(sym)
        low = float(w[0])
        if not low >= _EIG_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {low} < -1e-10")
        e.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "elements", e)
        object.__setattr__(self, "spectrum", w)

    @property
    def n_qubits(self) -> int:
        return _n_qubits_for(self.elements.shape[0])


def _kron_chain(stack: np.ndarray) -> np.ndarray:
    """``reduce(np.kron, stack)`` of an (n, 2, 2) stack, bit for bit.

    Each step is the broadcast product that ``np.kron`` makes, on the same
    shapes and strides, written into an owned (d, d) array; one factor
    gives ``stack[0]`` itself.
    """
    m = stack[0]
    for f in stack[1:]:
        h = m.shape[0]
        out = np.empty((2 * h, 2 * h), dtype=complex)
        np.multiply(m[:, None, :, None], f[None, :, None, :], out=out.reshape(h, 2, h, 2))
        m = out
    return m


class LocalOperator(_Frozen):
    """Tensor product of single-qubit unitaries, one 2x2 factor per qubit.

    ``factors`` are read-only views of one owned (n, 2, 2) copy of the
    given factors.
    """

    _fields = ("factors",)

    def __init__(self, factors: tuple):
        fs = [np.asarray(f, dtype=complex) for f in factors]
        for f in fs:
            if f.shape != (2, 2):
                raise ValueError(f"factor must be 2x2, got {f.shape}")
        if not fs:
            raise ValueError("LocalOperator needs at least one factor")
        # one owned (n, 2, 2) copy, checked as a whole; the factors are views of it
        stack = np.array(fs)
        if not np.isfinite(stack).all():
            raise ValueError("factor has a non-finite entry")
        gram = stack @ stack.conj().transpose(0, 2, 1)
        if not np.abs(gram - np.eye(2)).max() <= _HERM_ATOL:
            raise ValueError("factor is not unitary within 1e-12")
        stack.setflags(write=False)
        m = _kron_chain(stack)
        m.setflags(write=False)
        object.__setattr__(self, "factors", tuple(stack))
        object.__setattr__(self, "_matrix", m)

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @classmethod
    def uniform(cls, n_qubits: int, matrix: np.ndarray) -> "LocalOperator":
        """The same single-qubit operator on every qubit."""
        return cls(tuple(matrix for _ in range(n_qubits)))

    def matrix(self) -> np.ndarray:
        """The full 2^n x 2^n matrix, built once and read-only."""
        return self._matrix


class BellOutcome(_Frozen):
    """One of the four Bell-measurement outcomes on a qubit pair.

    ``post_state`` is the renormalized remainder on the unmeasured qubits;
    it is ``None`` when no qubits remain or when the branch weight is too
    small to renormalize reliably (probability < 1e-30).
    """

    _fields = ("index", "probability", "post_state")

    def __init__(self, index: int, probability: float, post_state: Optional[PureState]):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "post_state", post_state)


def _require_pure(state, name: str) -> None:
    """Raise ValueError, naming ``state`` as ``name``, unless it is a PureState."""
    if not isinstance(state, PureState):
        raise ValueError(f"{name} must be a PureState, got {type(state).__name__}")


def tensor(a: PureState, b: PureState) -> PureState:
    """Product state of ``a`` (leading qubits) and ``b`` (trailing qubits)."""
    _require_pure(a, "tensor factor")
    _require_pure(b, "tensor factor")
    return PureState(np.outer(a.amplitudes, b.amplitudes).ravel())


def _kept_qubits(keep: Iterable[int], n: int) -> list:
    """``keep`` as an ascending list, checked to be a nonempty proper subset with no repeat."""
    given = [_qubit_index(q) for q in keep]
    kept = sorted(set(given))
    if len(kept) != len(given):
        repeated = sorted(q for q in kept if given.count(q) > 1)
        raise ValueError(f"keep indices {given} repeat qubits {repeated}")
    if any(q < 0 or q >= n for q in kept):
        raise ValueError(f"keep indices {kept} out of range for {n} qubits")
    if not kept or len(kept) == n:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    return kept


def partial_trace(state: PureState | DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the qubits in ``keep`` (ascending original order).

    ``keep`` holds integer qubit indices; a bool or a float raises
    ValueError.  ``state`` is a DensityMatrix or a PureState.  A pure state
    is reduced as M M^dagger, with M its amplitude tensor reshaped to
    (kept, traced), so no density matrix of the whole state is built.
    """
    n = state.n_qubits
    kept = _kept_qubits(keep, n)
    traced = [q for q in range(n) if q not in kept]
    d = 2 ** len(kept)
    if isinstance(state, PureState):
        m = state.amplitudes.reshape([2] * n).transpose(kept + traced).reshape(d, -1)
        return DensityMatrix(m @ m.conj().T)
    t = state.elements.reshape([2] * (2 * n))
    for q in reversed(traced):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    return DensityMatrix(t.reshape(d, d))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(w * log2 w) in bits; eigenvalues below 1e-12 count as 0.

    Reads the spectrum that validating ``rho`` computed, so no second
    eigendecomposition is made.
    """
    return float(spectrum_entropy(rho.spectrum))


def spectrum_entropy(w):
    """Entropy -sum(w * log2 w) in bits of each spectrum along the last axis of ``w``.

    Entries at or below 1e-12 count as 0.  ``w`` is taken as a valid
    spectrum, so a caller whose eigenvalues are known in closed form builds
    no density matrix; a single spectrum gives a numpy scalar.
    """
    w = np.asarray(w, dtype=float)
    w = np.where(w > _ENTROPY_CUTOFF, w, 1.0)
    return -(w * np.log2(w)).sum(axis=-1)


def bell_measure(state: PureState, pair: tuple) -> list:
    """Measure the ordered qubit ``pair``, two integer indices, in the Bell basis.

    Returns the four :class:`BellOutcome` values in the fixed order
    (phi+, phi-, psi+, psi-).  Probabilities are squared norms of the
    projections, all four from one matmul with the Bell bras; post-states
    keep the relative order of the remaining qubits.
    """
    _require_pure(state, "measured state")
    n = state.n_qubits
    if len(pair) != 2:
        raise ValueError(f"measured pair must be two qubit indices, got {pair!r}")
    i, j = _qubit_index(pair[0]), _qubit_index(pair[1])
    if i == j:
        raise ValueError("measured pair must be two distinct qubits")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair {pair} out of range for {n} qubits")
    rest = [q for q in range(n) if q != i and q != j]
    t = state.amplitudes.reshape([2] * n).transpose([i, j] + rest)
    outcomes = []
    for k, residual in enumerate(_BELL_BRAS @ t.reshape(4, -1)):
        p = float(np.vdot(residual, residual).real)
        post = PureState(residual / np.sqrt(p)) if n > 2 and p > 1e-30 else None
        outcomes.append(BellOutcome(k + 1, p, post))
    return outcomes


@lru_cache(maxsize=8)
def _transfer_map(ops: tuple) -> np.ndarray:
    """Read-only (16 d, 2 d) map from a resource's amplitudes to its residuals and T.

    ``ops`` is the tuple of the four correction LocalOperators, each a
    d x d matrix on the resource's output qubits.  The rows hold two stacked
    maps, each (4, d, 2) in the (k, out, b) layout of a transfer operator
    and equal to ``einsum("koq,kjb->kobjq", U, _BELL_BRAS_JB)``: first with
    U[k] = I (the uncorrected residuals), then with U[k] = ops[k] (T).  The
    columns are the resource's amplitude index (j, q), so one matmul with
    the amplitudes gives both.  The map depends on the corrections alone,
    and real callers pass module-constant sets, so it is cached per set:
    keyed by the operators' identity (LocalOperator is frozen and hashes by
    id), and bounded, because the cache keeps each key's operators alive.  A
    patched ``_BELL_BRAS_JB`` does not reach a map already cached, so a test
    that patches it calls ``_transfer_map.cache_clear()`` before and after.
    """
    d = ops[0].matrix().shape[0]
    iu = np.empty((2, 4, d, d), dtype=complex)
    iu[0] = np.eye(d)
    iu[1] = [op.matrix() for op in ops]
    # that einsum sums over no index, so it is this broadcast product, laid
    # out in C order so that the reshape below is a view
    bras = _BELL_BRAS_JB.transpose(0, 2, 1)[:, None, :, :, None]
    both = np.multiply(iu[:, :, :, None, None, :], bras, order="C")
    both.setflags(write=False)
    return both.reshape(16 * d, 2 * d)


def _bell_transfer(resource: PureState, corrections) -> np.ndarray:
    """Read-only (4, d_out, 2) transfer operators of a one-qubit input and ``resource``.

    The input is Bell-measured together with the resource's first qubit, and
    outcome k maps the input z to its corrected, unnormalised output
    ``T[k] @ z`` on the resource's other qubits.  For the basis input |b> the
    residual of outcome k is sum_j <Bell_k|b j> resource[j, :], and T[k] is
    ``corrections[k]`` applied to it; both are linear in the resource, so
    one product of the cached ``_transfer_map`` of the four corrections with
    the resource's amplitudes gives every residual and every T[k] at once.
    Each correction must be a LocalOperator on the d_out qubits, checked
    before the map is looked up.  Every basis branch of weight above 1e-30
    is checked to stay normalised within 1e-12, the check that a validated
    post-state makes; the eight (k, b) pairs are compared as plain floats,
    in (k, b) order.
    """
    n_out = resource.n_qubits - 1
    ops = (corrections[1], corrections[2], corrections[3], corrections[4])
    for k, op in enumerate(ops, 1):
        if not isinstance(op, LocalOperator):
            raise ValueError(f"correction {k} must be a LocalOperator, got {type(op).__name__}")
        if len(op.factors) != n_out:
            raise ValueError(f"correction {k} acts on {len(op.factors)} qubits, {n_out} remain")
    both = _transfer_map(ops) @ resource.amplitudes
    both.setflags(write=False)
    both = both.reshape(2, 4, -1, 2)
    sq = np.abs(both)
    sq *= sq
    p, norm = np.add.reduce(sq, axis=2).reshape(2, 8).tolist()
    for pb, nb in zip(p, norm):
        if pb > 1e-30 and abs(nb - pb) > _NORM_ATOL * pb:
            raise ValueError(f"state not normalized: sum |a|^2 = {nb / pb!r}")
    return both[1]


def apply_local(op: LocalOperator, state: PureState) -> PureState:
    """Apply a product of single-qubit unitaries to a state."""
    _require_pure(state, "operand")
    if op.n_qubits != state.n_qubits:
        raise ValueError(
            f"operator acts on {op.n_qubits} qubits, state has {state.n_qubits}"
        )
    return PureState(op.matrix() @ state.amplitudes)


def fidelity(psi: PureState, rho) -> float:
    """Overlap <psi|rho|psi>; ``rho`` may be a DensityMatrix or a PureState."""
    _require_pure(psi, "psi")
    a = psi.amplitudes
    if isinstance(rho, PureState):
        if rho.amplitudes.size != a.size:
            raise ValueError("dimension mismatch")
        return float(abs(np.vdot(a, rho.amplitudes)) ** 2)
    if rho.elements.shape[0] != a.size:
        raise ValueError("dimension mismatch")
    return float(np.real(a.conj() @ rho.elements @ a))
