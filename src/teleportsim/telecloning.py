"""One-shot teleportation into two symmetric clones over a 4-qubit resource.

The resource ("telecloning") state is

    (|0>|phi0> + |1>|phi1>) / sqrt(2)

on qubits ordered (port, ancilla, clone B, clone C), where

    phi0 = a|0>_A|00> + b|1>_A(|01> + |10>) + c|0>_A|11>

and phi1 is its 0<->1 mirror.  ``TelecloningSystem`` builds it from (a, b,
c) alone; its one-qubit marginals are I/2 for every such set, which verify's
teleclone-universal-values check and the tests trace, not the constructor.
A Bell measurement on (input, port) followed by the same Pauli correction on
each of (ancilla, B, C) maps every branch exactly onto x*phi0 + y*phi1 for
input x|0> + y|1>; the clones are partial traces of that state.

The answers are closed forms that build no 4-qubit state: the global clone
fidelity u^T M(theta) u with u = (a, sqrt(2) b, c), which production
evaluates as (m1 . u)^2 + (m2 . u)^2 from two scalar overlaps, since
M = m1 m1^T + m2 m2^T (u^T M u on the 3x3 M is the independent route that
verify and the tests read); the optimal coefficients, M's top eigenvector,
taken from the 2x2 Gram matrix of the rank-2 M with no eigensolver, and
their fidelity F_tc = (1 + sqrt(1 - 3/4 sin^2 2 theta))/2, the Fuchs-Peres
shape that ``classical`` shares; the (port, ancilla) | (B, C) entanglement
from the clone pair's spectrum; and the optimal-cloner bound of Bruss et
al., PRA 57, 2368 (1998).  Apart from the one-angle fidelity, each has one
implementation that broadcasts over theta: ``telecloning_sweep`` takes
every ``fig-telecloning`` column in one call on the whole grid, and the
functions that take one ensemble or one coefficient set call the same
code.  The protocol is their oracle: ``protocol_spec`` gives its transfer
operators T (4 x 8 x 2), outcome k mapping the input z to the corrected
branch T[k] z on (ancilla, B, C), which ``teleclone`` and protocol
enumeration read.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .classical import _fuchs_peres
from .ensembles import TwoStateEnsemble, checked_thetas
from .protocols import _STANDARD_CORRECTIONS, ProtocolSpec
from .states import (
    DensityMatrix,
    LocalOperator,
    PureState,
    _Frozen,
    _Value,
    _real,
    _require_pure,
    partial_trace,
    spectrum_entropy,
)

_SQRT2 = np.sqrt(2.0)
_CLONE_CORRECTIONS = {
    k: LocalOperator.uniform(3, op.factors[0]) for k, op in _STANDARD_CORRECTIONS.items()
}


class CloneCoeffs(_Value):
    """Real nonnegative amplitudes (a, b, c) with a^2 + 2 b^2 + c^2 = 1.

    Values within 1e-10 of the constraint are accepted and stored rescaled
    onto it, so every state built from them passes the 1e-12 norm check.
    Each is a real number; a str, bytes, bool or complex raises ValueError.
    """

    _fields = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        a, b, c = _real(a, "coefficient a"), _real(b, "coefficient b"), _real(c, "coefficient c")
        if not min(a, b, c) >= -1e-12:
            raise ValueError(f"coefficients must be nonnegative, got {(a, b, c)}")
        norm = a * a + 2 * b * b + c * c
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"a^2 + 2b^2 + c^2 = {norm!r}, expected 1")
        scale = 1.0 / math.sqrt(norm)
        object.__setattr__(self, "a", max(a, 0.0) * scale)
        object.__setattr__(self, "b", max(b, 0.0) * scale)
        object.__setattr__(self, "c", max(c, 0.0) * scale)


class TelecloningSystem(_Frozen):
    """The 4-qubit resource state, built once from its defining coefficients.

    ``state`` is derived, (|0>phi0 + |1>phi1)/sqrt(2) on (port, ancilla, B,
    C), so it cannot disagree with ``coeffs``.  Each of its one-qubit
    marginals is I/2 for every (a, b, c) CloneCoeffs accepts, so none is
    checked here: phi0 has even-parity support and phi1 odd, so the state
    lies in the Z x Z x Z x Z = +1 sector and every one-qubit marginal is
    diagonal, and the 0<->1 mirror X x X x X x X leaves the state unchanged,
    so the two diagonal entries are equal.  verify's
    teleclone-universal-values check and the tests trace the marginals.  The
    clone ``ProtocolSpec``, with its transfer operators, is built on first
    use and then kept.
    """

    _fields = ("coeffs", "state")

    def __init__(self, coeffs: CloneCoeffs):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "state", PureState(_telecloning_amplitudes(coeffs)))

    @cached_property
    def _clone_spec(self) -> ProtocolSpec:
        return protocol_spec(self)


class TelecloneResult(_Frozen):
    """Outcome branches and clone states from one telecloning run.

    ``branches`` is the read-only (4, 8) matrix v = T z of corrected,
    unnormalised branches on (ancilla, B, C), and ``per_outcome`` holds each
    outcome's (probability, branch state).  The reduced states are built
    from ``branches`` and validated when first read, then kept: the clone
    pair is the partial trace of the outcome-purified pure state
    sum_k |k> (x) v_k, and each clone is a partial trace of the pair.
    """

    _fields = ("per_outcome", "branches")

    def __init__(self, per_outcome: tuple, branches: np.ndarray):
        object.__setattr__(self, "per_outcome", per_outcome)
        object.__setattr__(self, "branches", branches)

    @cached_property
    def joint_clones(self) -> DensityMatrix:
        return partial_trace(PureState(self.branches), (3, 4))

    @cached_property
    def clone_b(self) -> DensityMatrix:
        return partial_trace(self.joint_clones, (0,))

    @cached_property
    def clone_c(self) -> DensityMatrix:
        return partial_trace(self.joint_clones, (1,))


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


def _telecloning_amplitudes(coeffs: CloneCoeffs) -> np.ndarray:
    phi0, phi1 = _phi_pair(coeffs)
    return np.concatenate([phi0, phi1]) / _SQRT2


def apply_cloner(input_state: PureState, coeffs: CloneCoeffs) -> PureState:
    """Direct cloner map x|0> + y|1>  ->  x phi0 + y phi1 (no teleportation)."""
    _require_pure(input_state, "cloner input")
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
    sum_k |k> (x) v_k, and each clone is a partial trace of the pair.  The
    result keeps v and builds those reduced states only when they are first
    read, so a caller that reads only ``per_outcome`` builds no density
    matrix.  Every corrected branch equals x phi0 + y phi1 exactly, so the
    four outcome probabilities are 1/4 independent of the input.
    """
    _require_pure(input_state, "telecloning input")
    if input_state.n_qubits != 1:
        raise ValueError("telecloning input must be a single qubit")
    v = system._clone_spec.transfer @ input_state.amplitudes
    v.setflags(write=False)
    p = (np.abs(v) ** 2).sum(axis=1)
    per = tuple((float(pk), PureState(vk / np.sqrt(pk))) for pk, vk in zip(p, v))
    return TelecloneResult(per_outcome=per, branches=v)


def _clone_overlaps(theta):
    """(m1, m2) on a leading axis, broadcast over theta: shape (2, 3) + theta.shape.

    m1 = (x^3, sqrt(2) x y^2, x y^2) and m2 = (y^3, sqrt(2) x^2 y, x^2 y) with
    x, y = cos(theta/2), sin(theta/2): m1 . u and m2 . u are the overlaps of
    psi1 psi1 with the cloner output on ancilla 0 and 1, and psi2 swaps them.
    """
    x, y = np.cos(theta / 2), np.sin(theta / 2)
    x2, y2 = x * x, y * y
    return np.array([[x2 * x, _SQRT2 * x * y2, x * y2], [y2 * y, _SQRT2 * x2 * y, x2 * y]])


def _fidelity_matrix(theta):
    """M(theta) = m1 m1^T + m2 m2^T, the 3x3 form of the global clone fidelity.

    Broadcast over theta: the result has shape theta.shape + (3, 3).  No
    production path reads it: u^T M u is the independent route that verify's
    teleclone-two-state-sweep check and the tests compare with.
    """
    m = _clone_overlaps(theta)
    return np.einsum("ki...,kj...->...ij", m, m)


def _pair_overlaps(theta, coeffs: CloneCoeffs):
    """(m1 . u, m2 . u) at one angle, in math scalars, with u = (a, sqrt(2) b, c).

    With x, y = cos(theta/2), sin(theta/2), m1 . u = x (x^2 a + y^2 (2b + c))
    and m2 . u = y (y^2 a + x^2 (2b + c)): the rows of ``_clone_overlaps``
    against u, so their squares sum to u^T M u without building M.
    """
    x, y = math.cos(theta / 2), math.sin(theta / 2)
    x2, y2 = x * x, y * y
    a, rest = coeffs.a, 2 * coeffs.b + coeffs.c
    return x * (x2 * a + y2 * rest), y * (y2 * a + x2 * rest)


def global_clone_fidelity(ens: TwoStateEnsemble, coeffs: CloneCoeffs) -> float:
    """Ensemble-averaged overlap of the joint clone state with the ideal pair.

    (1/2) sum_j <psi_j psi_j| rho_BC^(j) |psi_j psi_j> in closed form,
    u^T M u with u = (a, sqrt(2) b, c), evaluated as (m1 . u)^2 + (m2 . u)^2
    from the two scalar overlaps of ``_pair_overlaps``.  u^T M u on
    ``_fidelity_matrix`` is the independent route, which the tests compare
    with it.  The oracle is the protocol: verify's teleclone-faithfulness
    check compares this with enumeration over ``protocol_spec(system)`` and
    with the direct cloner map, and its teleclone-two-state-sweep check
    compares the optimum's closed form with u^T M u.
    """
    p, q = _pair_overlaps(ens.theta, coeffs)
    return p * p + q * q


def _optimum(theta):
    """(a, b, c, F) of the coefficients maximizing u^T M u, broadcast over theta.

    M = m1 m1^T + m2 m2^T has rank 2, so its top eigenpair comes from the
    Gram matrix G of m1 and m2: g11 + g22 = 1, g11 - g22 = cos^3 theta and
    g12 = sin^3 theta / 2.  Its top eigenvalue is
    F = (1 + sqrt(1 - 3/4 sin^2 2 theta))/2, the Fuchs-Peres shape with
    kappa = 3/4, and M's top eigenvector is u ~ (F - g22) m1 + g12 m2, of
    squared norm F ((F - g22)^2 + g12^2); (a, b, c) = (u0, u1/sqrt(2), u2).
    """
    f = _fuchs_peres(theta, 0.75)
    # g11 >= g22 everywhere on [0, pi/2], so F - g22 >= F - 1/2 >= 1/4: this
    # branch never vanishes, and the other one, (g12, F - g11), which cancels at
    # theta = 0, is never needed.  Both weights are nonnegative, and so is u.
    ct, st = np.cos(theta), np.sin(theta)
    w1, w2 = f - 0.5 * (1.0 - ct * ct * ct), 0.5 * st * st * st
    m1, m2 = _clone_overlaps(theta)
    u = (w1 * m1 + w2 * m2) / np.sqrt(f * (w1 * w1 + w2 * w2))
    return u[0], u[1] / _SQRT2, u[2], f


def optimize_coeffs(ens: TwoStateEnsemble) -> CloneCoeffs:
    """Coefficients maximizing global clone fidelity for this ensemble.

    The fidelity is u^T M u on unit vectors u = (a, sqrt(2) b, c), so the
    maximizer is the top eigenvector of M, here in closed form, and the
    maximum is F_tc = (1 + sqrt(1 - 3/4 sin^2 2 theta))/2: its dip to 0.75 at
    theta = pi/4 is kappa = 3/4 at sin 2 theta = 1.  theta = 0 gives
    (1, 0, 0) and theta = pi/2, where the signal states coincide, the
    fidelity-1 choice (1/2, 1/2, 1/2).
    """
    return CloneCoeffs(*_optimum(ens.theta)[:3])


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


def telecloning_sweep(theta):
    """The ``fig-telecloning`` columns over ``theta`` (a scalar or an array).

    Returns (a, b, c, f_global_teleclone, f_global_optimal, entanglement),
    each one broadcast call: the closed-form optimum, its Fuchs-Peres
    fidelity, the Bruss bound and the entropies of the stacked clone-pair
    spectra.  The grid is checked once as TwoStateEnsemble checks one angle,
    and the coefficients are rescaled as CloneCoeffs rescales one set.  Each
    column matches ``optimize_coeffs``, ``optimal_global_fidelity`` and
    ``alice_receivers_entanglement`` at every point; f_global_teleclone
    agrees with ``global_clone_fidelity``, an independent formula, to
    rounding.
    """
    t = checked_thetas(theta)
    a, b, c, f_tc = _optimum(t)
    # CloneCoeffs' rescale in its IEEE operations, so each set equals optimize_coeffs bit for bit
    scale = 1.0 / np.sqrt(a * a + 2 * b * b + c * c)
    a, b, c = a * scale, b * scale, c * scale
    return a, b, c, f_tc, _bruss_bound(t), _entanglement(a, b, c)
