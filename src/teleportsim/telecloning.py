"""One-shot teleportation into two symmetric clones over a 4-qubit resource.

The resource ("telecloning") state is

    (|0>|phi0> + |1>|phi1>) / sqrt(2)

on qubits ordered (port, ancilla, clone B, clone C), where

    phi0 = a|0>_A|00> + b|1>_A(|01> + |10>) + c|0>_A|11>

and phi1 is its 0<->1 mirror.  A Bell measurement on (input, port) followed
by the same Pauli correction on each of (ancilla, B, C) maps every branch
exactly onto x*phi0 + y*phi1 for input x|0> + y|1>; the clones are partial
traces of that state.

The answers are closed forms that build no 4-qubit state: the global clone
fidelity u^T M(theta) u with u = (a, sqrt(2) b, c), the top eigenvector of
M as the optimal coefficients, the (port, ancilla) | (B, C) entanglement
from the clone pair's spectrum, and the optimal-cloner bound of Bruss et
al., PRA 57, 2368 (1998).  Each has one implementation that broadcasts over
theta: ``telecloning_sweep`` takes every ``fig-telecloning`` column in one
call on the whole grid, and the functions that take one ensemble or one
coefficient set call the same code.  The protocol is their oracle:
``protocol_spec`` gives its transfer operators T (4 x 8 x 2), outcome k
mapping the input z to the corrected branch T[k] z on (ancilla, B, C),
which ``teleclone`` and protocol enumeration read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ensembles import TwoStateEnsemble, checked_thetas
from .protocols import STANDARD_CORRECTION_MATRICES, ProtocolSpec
from .states import (
    DensityMatrix,
    LocalOperator,
    PureState,
    partial_trace,
    spectrum_entropy,
)

_SQRT2 = np.sqrt(2.0)
_CLONE_CORRECTIONS = {
    k: LocalOperator.uniform(3, m) for k, m in STANDARD_CORRECTION_MATRICES.items()
}


@dataclass(frozen=True)
class CloneCoeffs:
    """Real nonnegative amplitudes (a, b, c) with a^2 + 2 b^2 + c^2 = 1.

    Values within 1e-10 of the constraint are accepted and stored rescaled
    onto it, so every state built from them passes the 1e-12 norm check.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = float(self.a), float(self.b), float(self.c)
        if not min(a, b, c) >= -1e-12:
            raise ValueError(f"coefficients must be nonnegative, got {(a, b, c)}")
        norm = a * a + 2 * b * b + c * c
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"a^2 + 2b^2 + c^2 = {norm!r}, expected 1")
        scale = 1.0 / math.sqrt(norm)
        object.__setattr__(self, "a", max(a, 0.0) * scale)
        object.__setattr__(self, "b", max(b, 0.0) * scale)
        object.__setattr__(self, "c", max(c, 0.0) * scale)


@dataclass(frozen=True, eq=False)
class TelecloningSystem:
    """The 4-qubit resource state, built once from its defining coefficients.

    ``state`` is derived, (|0>phi0 + |1>phi1)/sqrt(2) on (port, ancilla, B,
    C), so it cannot disagree with ``coeffs``; each of its one-qubit
    marginals is checked to be I/2 within 1e-10.  The clone ``ProtocolSpec``,
    with its transfer operators, is built on first use and then kept.
    """

    coeffs: CloneCoeffs
    state: PureState = field(init=False)

    def __post_init__(self):
        state = PureState(_telecloning_amplitudes(self.coeffs))
        for q, reduced in enumerate(_qubit_marginals(state.amplitudes)):
            if not np.abs(reduced - np.eye(2) / 2).max() <= 1e-10:
                raise ValueError(f"qubit {q} reduced state is not I/2")
        object.__setattr__(self, "state", state)

    @cached_property
    def _clone_spec(self) -> ProtocolSpec:
        return protocol_spec(self)


@dataclass(frozen=True, eq=False)
class TelecloneResult:
    """Outcome branches and clone states from one telecloning run."""

    per_outcome: tuple
    clone_b: DensityMatrix
    clone_c: DensityMatrix
    joint_clones: DensityMatrix


def universal_coeffs() -> CloneCoeffs:
    """Coefficients of the symmetric universal cloner: (sqrt(2/3), sqrt(1/6), 0)."""
    return CloneCoeffs(np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 6.0), 0.0)


def _phi_pair(coeffs: CloneCoeffs):
    """Amplitude vectors of phi0 and phi1 on (ancilla, B, C)."""
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    phi0 = np.zeros(8)
    phi0[0b000], phi0[0b101], phi0[0b110], phi0[0b011] = a, b, b, c
    phi1 = np.zeros(8)
    phi1[0b100], phi1[0b001], phi1[0b010], phi1[0b111] = c, b, b, a
    return phi0, phi1


def _qubit_marginals(amplitudes: np.ndarray) -> list:
    """The four one-qubit reduced density matrices of a 4-qubit pure state."""
    ms = [amplitudes.reshape(2**q, 2, -1).transpose(1, 0, 2).reshape(2, 8) for q in range(4)]
    return [m @ m.conj().T for m in ms]


def _telecloning_amplitudes(coeffs: CloneCoeffs) -> np.ndarray:
    phi0, phi1 = _phi_pair(coeffs)
    return np.concatenate([phi0, phi1]) / _SQRT2


def apply_cloner(input_state: PureState, coeffs: CloneCoeffs) -> PureState:
    """Direct cloner map x|0> + y|1>  ->  x phi0 + y phi1 (no teleportation)."""
    if input_state.n_qubits != 1:
        raise ValueError("cloner input must be a single qubit")
    x, y = input_state.amplitudes
    phi0, phi1 = _phi_pair(coeffs)
    return PureState(x * phi0 + y * phi1)


def protocol_spec(system: TelecloningSystem, targets=(1, 2)) -> ProtocolSpec:
    """Telecloning as a generic protocol on (ancilla, B, C), output qubits 0, 1, 2.

    Each qubit in ``targets`` is scored against the input, so the default,
    the two clones (1, 2), scores the clone pair against psi (x) psi, and
    ``(1,)`` or ``(2,)`` scores one clone against psi.
    """
    return ProtocolSpec(
        resource_state=system.state,
        corrections=_CLONE_CORRECTIONS,
        evaluation_targets=tuple(targets),
    )


def teleclone(input_state: PureState, system: TelecloningSystem) -> TelecloneResult:
    """Run the telecloning protocol on a single-qubit input.

    Bell-measures (input, port) and applies the standard correction
    P x P x P on (ancilla, B, C) through the transfer operators T of
    ``protocol_spec(system)``, built once per system: with v_k = T[k] z,
    outcome k has probability ||v_k||^2 and branch state v_k / ||v_k||.
    The outcome register purifies the branch mixture sum_k v_k v_k^dagger,
    so the clone pair is the partial trace of the pure state
    sum_k |k> (x) v_k, and each clone is a partial trace of the pair.  Every
    corrected branch equals x phi0 + y phi1 exactly, so the four outcome
    probabilities are 1/4 independent of the input.
    """
    if input_state.n_qubits != 1:
        raise ValueError("telecloning input must be a single qubit")
    v = system._clone_spec.transfer @ input_state.amplitudes
    p = (np.abs(v) ** 2).sum(axis=1)
    per = tuple((float(pk), PureState(vk / np.sqrt(pk))) for pk, vk in zip(p, v))
    joint = partial_trace(PureState(v), (3, 4))
    return TelecloneResult(
        per_outcome=per,
        clone_b=partial_trace(joint, (0,)),
        clone_c=partial_trace(joint, (1,)),
        joint_clones=joint,
    )


def _fidelity_matrix(theta):
    """M(theta) = m1 m1^T + m2 m2^T, the 3x3 form of the global clone fidelity.

    m1 = (x^3, sqrt(2) x y^2, x y^2) and m2 = (y^3, sqrt(2) x^2 y, x^2 y) with
    x, y = cos(theta/2), sin(theta/2): m1 . u and m2 . u are the overlaps of
    psi1 psi1 with the cloner output on ancilla 0 and 1, and psi2 swaps them.
    Broadcast over theta: the result has shape theta.shape + (3, 3).
    """
    x, y = np.cos(theta / 2), np.sin(theta / 2)
    x2, y2 = x * x, y * y
    m = np.array([[x2 * x, _SQRT2 * x * y2, x * y2], [y2 * y, _SQRT2 * x2 * y, x2 * y]])
    return np.einsum("ki...,kj...->...ij", m, m)


def _unit_vector(a, b, c):
    """u = (a, sqrt(2) b, c) on a leading axis, so u^T M u is the global clone fidelity."""
    return np.array([a, _SQRT2 * b, c])


def _clone_fidelity(m, u):
    return np.einsum("i...,...ij,j...->...", u, m, u)


def global_clone_fidelity(ens: TwoStateEnsemble, coeffs: CloneCoeffs) -> float:
    """Ensemble-averaged overlap of the joint clone state with the ideal pair.

    (1/2) sum_j <psi_j psi_j| rho_BC^(j) |psi_j psi_j> in closed form, as
    u^T M u with u = (a, sqrt(2) b, c).  The oracle is the protocol: verify's
    teleclone-faithfulness check compares this with enumeration over
    ``protocol_spec(system)`` and with the direct cloner map.
    """
    u = _unit_vector(coeffs.a, coeffs.b, coeffs.c)
    return float(_clone_fidelity(_fidelity_matrix(ens.theta), u))


def _top_coeffs(m):
    """(a, b, c) from the entrywise nonnegative top eigenvector of each M in ``m``."""
    u = np.abs(np.linalg.eigh(m)[1][..., -1])
    return u[..., 0], u[..., 1] / _SQRT2, u[..., 2]


def optimize_coeffs(ens: TwoStateEnsemble) -> CloneCoeffs:
    """Coefficients maximizing global clone fidelity for this ensemble.

    The fidelity is u^T M u on unit vectors u = (a, sqrt(2) b, c), so the
    maximizer is the top eigenvector of M; M is nonnegative, so by
    Perron-Frobenius that eigenvector can be taken entrywise nonnegative.
    theta = 0 gives (1, 0, 0) and theta = pi/2, where the signal states
    coincide, the fidelity-1 choice (1/2, 1/2, 1/2).
    """
    return CloneCoeffs(*_top_coeffs(_fidelity_matrix(ens.theta)))


def _bruss_bound(theta):
    s = np.sin(theta)
    s2 = s * s
    return 0.5 * (1.0 + s2 * s + np.sqrt(1.0 - s2) * np.sqrt(1.0 - s2 * s2))


def optimal_global_fidelity(ens: TwoStateEnsemble) -> float:
    """Best global fidelity of any 1-to-2 cloner for this ensemble.

    The optimal two-state cloner of Bruss et al., PRA 57, 2368 (1998):

        (1 + s^3 + sqrt(1 - s^2) sqrt(1 - s^4)) / 2,  s = sin(theta),

    the maximum of (|<psi1 psi1|chi1>|^2 + |<psi2 psi2|chi2>|^2)/2 over
    two-qubit outputs with <chi1|chi2> = <psi1|psi2>.
    """
    return float(_bruss_bound(ens.theta))


def _entanglement(a, b, c):
    """Entropy of the clone pair's spectrum {(a+c)^2/2, (a-c)^2/2, 2b^2, 0}, broadcast."""
    spectrum = np.array([(a + c) * (a + c) / 2, (a - c) * (a - c) / 2, 2 * b * b])
    return spectrum_entropy(np.moveaxis(spectrum, 0, -1))


def alice_receivers_entanglement(coeffs: CloneCoeffs) -> float:
    """Entropy (ebits) across the (port, ancilla) | (B, C) bipartition.

    In closed form: the clone pair's state has spectrum {(a+c)^2/2,
    (a-c)^2/2, 2b^2, 0}, whose entropy ``spectrum_entropy`` takes with
    ``von_neumann_entropy``'s cutoff, without building the 4x4 state.  The
    oracle is the partial trace of the resource, which verify's
    teleclone-two-state-sweep check compares with it.
    """
    return float(_entanglement(coeffs.a, coeffs.b, coeffs.c))


def _checked_coeffs(a, b, c):
    """Arrays (a, b, c) checked and rescaled onto a^2 + 2b^2 + c^2 = 1 as CloneCoeffs does."""
    if not (np.minimum(np.minimum(a, b), c) >= -1e-12).all():
        raise ValueError("coefficients must be nonnegative")
    norm = a * a + 2 * b * b + c * c
    bad = ~(np.abs(norm - 1.0) <= 1e-10)
    if bad.any():
        raise ValueError(f"a^2 + 2b^2 + c^2 = {float(norm[bad][0])!r}, expected 1")
    scale = 1.0 / np.sqrt(norm)
    return np.maximum(a, 0.0) * scale, np.maximum(b, 0.0) * scale, np.maximum(c, 0.0) * scale


def telecloning_sweep(theta):
    """The ``fig-telecloning`` columns over ``theta`` (a scalar or an array).

    Returns (a, b, c, f_global_teleclone, f_global_optimal, entanglement),
    each one broadcast call: one ``eigh`` on the stack of M(theta), the
    quadratic forms as one ``einsum`` and the entropies of the stacked
    clone-pair spectra.  The grid is checked once as TwoStateEnsemble checks
    one angle, and the coefficients as CloneCoeffs checks one set.  Each
    column matches ``optimize_coeffs``, ``global_clone_fidelity``,
    ``optimal_global_fidelity`` and ``alice_receivers_entanglement`` at
    every point.
    """
    t = checked_thetas(theta)
    m = _fidelity_matrix(t)
    a, b, c = _checked_coeffs(*_top_coeffs(m))
    f_tc = _clone_fidelity(m, _unit_vector(a, b, c))
    return a, b, c, f_tc, _bruss_bound(t), _entanglement(a, b, c)

