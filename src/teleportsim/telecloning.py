"""One-shot teleportation into two symmetric clones over a 4-qubit resource.

The resource ("telecloning") state is

    (|0>|phi0> + |1>|phi1>) / sqrt(2)

on qubits ordered (port, ancilla, clone B, clone C), where

    phi0 = a|0>_A|00> + b|1>_A(|01> + |10>) + c|0>_A|11>

and phi1 is its 0<->1 mirror.  A Bell measurement on (input, port) followed
by the same Pauli correction on each of (ancilla, B, C) maps every branch
exactly onto x*phi0 + y*phi1 for input x|0> + y|1>; the clones are partial
traces of that state.  The global clone fidelity scores each corrected
branch c_k (probability p_k) on its amplitudes,

    (1/2) sum_j sum_k p_k ||(I_ancilla (x) <psi_j psi_j|_BC) c_k||^2,

which equals (1/2) sum_j <psi_j psi_j| rho_BC^(j) |psi_j psi_j> without
building rho_BC; it is still a full protocol run, and verify's
teleclone-faithfulness check compares it with the direct cloner map
(``apply_cloner``).  The universal choice (a, b, c) =
(sqrt(2/3), sqrt(1/6), 0) reproduces the symmetric universal cloner; for a
two-state ensemble the coefficients maximizing global clone fidelity are the
top eigenvector of a 3x3 matrix, and the optimal-cloner bound they are
compared with is the closed form of Bruss et al., PRA 57, 2368 (1998).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import TwoStateEnsemble, make_states
from .protocols import STANDARD_CORRECTION_MATRICES, ProtocolSpec
from .states import (
    DensityMatrix,
    LocalOperator,
    PureState,
    _marginal_fidelity,
    _measure_and_correct,
    partial_trace,
    tensor,
    von_neumann_entropy,
)

_SQRT2 = np.sqrt(2.0)
_CLONE_CORRECTIONS = {
    k: LocalOperator.uniform(3, m) for k, m in STANDARD_CORRECTION_MATRICES.items()
}


@dataclass(frozen=True)
class CloneCoeffs:
    """Real nonnegative amplitudes (a, b, c) with a^2 + 2 b^2 + c^2 = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = float(self.a), float(self.b), float(self.c)
        if min(a, b, c) < -1e-12:
            raise ValueError(f"coefficients must be nonnegative, got {(a, b, c)}")
        norm = a * a + 2 * b * b + c * c
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"a^2 + 2b^2 + c^2 = {norm!r}, expected 1")
        object.__setattr__(self, "a", max(a, 0.0))
        object.__setattr__(self, "b", max(b, 0.0))
        object.__setattr__(self, "c", max(c, 0.0))


@dataclass(frozen=True, eq=False)
class TelecloningSystem:
    """The 4-qubit resource state together with its defining coefficients."""

    state: PureState
    coeffs: CloneCoeffs

    def __post_init__(self):
        expected = _telecloning_amplitudes(self.coeffs)
        if self.state.n_qubits != 4 or np.abs(
            self.state.amplitudes - expected
        ).max() > 1e-12:
            raise ValueError("state does not match the coefficient construction")
        for q, reduced in enumerate(_qubit_marginals(self.state.amplitudes)):
            if np.abs(reduced - np.eye(2) / 2).max() > 1e-10:
                raise ValueError(f"qubit {q} reduced state is not I/2")


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


def build_clone_states(coeffs: CloneCoeffs):
    """The exactly orthogonal 3-qubit branch states (phi0, phi1)."""
    phi0, phi1 = _phi_pair(coeffs)
    return PureState(phi0), PureState(phi1)


def build_telecloning_state(coeffs: CloneCoeffs) -> TelecloningSystem:
    """Assemble (|0>phi0 + |1>phi1)/sqrt(2) on (port, ancilla, B, C)."""
    return TelecloningSystem(
        state=PureState(_telecloning_amplitudes(coeffs)), coeffs=coeffs
    )


def apply_cloner(input_state: PureState, coeffs: CloneCoeffs) -> PureState:
    """Direct cloner map x|0> + y|1>  ->  x phi0 + y phi1 (no teleportation)."""
    if input_state.n_qubits != 1:
        raise ValueError("cloner input must be a single qubit")
    x, y = input_state.amplitudes
    phi0, phi1 = _phi_pair(coeffs)
    return PureState(x * phi0 + y * phi1)


def protocol_spec(system: TelecloningSystem, targets=(0, 1, 2)) -> ProtocolSpec:
    """Telecloning as a generic protocol, for enumeration cross-checks."""
    return ProtocolSpec(
        resource_state=system.state,
        measured_pair=(0, 1),
        corrections=_CLONE_CORRECTIONS,
        evaluation_targets=tuple(targets),
    )


def teleclone(input_state: PureState, system: TelecloningSystem) -> TelecloneResult:
    """Run the telecloning protocol on a single-qubit input.

    Bell-measures (input, port), applies the standard correction P x P x P
    on (ancilla, B, C), and traces out qubits to extract the clones.  Every
    corrected branch equals x phi0 + y phi1 exactly, so the four outcome
    probabilities are 1/4 independent of the input.
    """
    if input_state.n_qubits != 1:
        raise ValueError("telecloning input must be a single qubit")
    joint = tensor(input_state, system.state)
    per = tuple(_measure_and_correct(joint, (0, 1), _CLONE_CORRECTIONS))
    rho = DensityMatrix(sum(p * np.outer(c.amplitudes, c.amplitudes.conj()) for p, c in per))
    return TelecloneResult(
        per_outcome=per,
        clone_b=partial_trace(rho, (1,)),
        clone_c=partial_trace(rho, (2,)),
        joint_clones=partial_trace(rho, (1, 2)),
    )


def global_clone_fidelity(ens: TwoStateEnsemble, coeffs: CloneCoeffs) -> float:
    """Ensemble-averaged overlap of the joint clone state with the ideal pair.

    (1/2) sum_j <psi_j psi_j| rho_BC^(j) |psi_j psi_j>, with rho_BC^(j) the
    clones' joint state after the full telecloning protocol on psi_j.  Each
    corrected branch c_k (probability p_k) is scored on its amplitudes,

        <psi_j psi_j| rho_BC^(j) |psi_j psi_j>
            = sum_k p_k ||(I_ancilla (x) <psi_j psi_j|_BC) c_k||^2,

    so no density matrix is built; verify's teleclone-faithfulness check
    compares the result with the direct cloner map.
    """
    system = build_telecloning_state(coeffs)
    total = 0.0
    for psi in make_states(ens):
        pair = np.outer(psi.amplitudes, psi.amplitudes).ravel()
        joint = tensor(psi, system.state)
        for p, corrected in _measure_and_correct(joint, (0, 1), _CLONE_CORRECTIONS):
            total += 0.5 * p * _marginal_fidelity(corrected.amplitudes, pair, (1, 2))
    return total


def optimize_coeffs(ens: TwoStateEnsemble) -> CloneCoeffs:
    """Coefficients maximizing global clone fidelity for this ensemble.

    On the constraint surface the global fidelity is the quadratic form
    u^T M u on unit vectors u = (a, sqrt(2) b, c), with M = m1 m1^T + m2 m2^T,

        m1 = (x^3, sqrt(2) x y^2, x y^2),  m2 = (y^3, sqrt(2) x^2 y, x^2 y),

    x = cos(theta/2), y = sin(theta/2).  The maximizer is the top eigenvector
    of M; M is nonnegative, so by Perron-Frobenius that eigenvector can be
    taken entrywise nonnegative.  theta = 0 gives (1, 0, 0) and theta = pi/2,
    where the signal states coincide, the fidelity-1 choice (1/2, 1/2, 1/2).
    """
    x, y = np.cos(ens.theta / 2), np.sin(ens.theta / 2)
    m1 = np.array([x**3, _SQRT2 * x * y**2, x * y**2])
    m2 = np.array([y**3, _SQRT2 * x**2 * y, x**2 * y])
    _, vecs = np.linalg.eigh(np.outer(m1, m1) + np.outer(m2, m2))
    u = np.abs(vecs[:, -1])
    return CloneCoeffs(u[0], u[1] / _SQRT2, u[2])


def optimal_global_fidelity(ens: TwoStateEnsemble) -> float:
    """Best global fidelity of any 1-to-2 cloner for this ensemble.

    The optimal two-state cloner of Bruss et al., PRA 57, 2368 (1998):

        (1 + s^3 + sqrt(1 - s^2) sqrt(1 - s^4)) / 2,  s = sin(theta),

    the maximum of (|<psi1 psi1|chi1>|^2 + |<psi2 psi2|chi2>|^2)/2 over
    two-qubit outputs with <chi1|chi2> = <psi1|psi2>.
    """
    s = np.sin(ens.theta)
    return float(0.5 * (1.0 + s**3 + np.sqrt(1.0 - s**2) * np.sqrt(1.0 - s**4)))


def alice_receivers_entanglement(system: TelecloningSystem) -> float:
    """Entropy (ebits) across the (port, ancilla) | (B, C) bipartition."""
    return von_neumann_entropy(partial_trace(system.state.density(), (2, 3)))


def joint_clones_closed_form(coeffs: CloneCoeffs) -> DensityMatrix:
    """Closed-form 4x4 candidate for the clones' joint reduced state.

    Diagonal (a^2+b^2+c^2)/2 on the |00>/|11> entries and b^2/2 in the
    middle block, with corner a(b+c).  This expression does NOT agree with
    the partial trace of the telecloning state (which has eigenvalues
    {(a+c)^2/2, (a-c)^2/2, 2b^2, 0}); it is retained only for comparison,
    and the numeric partial trace is the ground truth.  For some coefficient
    choices (e.g. a = b = c = 1/2) the closed form is not even positive
    semidefinite and this constructor raises.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    d = (a * a + b * b + c * c) / 2.0
    corner = a * (b + c)
    m = np.array(
        [
            [d, 0, 0, corner],
            [0, b * b / 2.0, 0, 0],
            [0, 0, b * b / 2.0, 0],
            [corner, 0, 0, d],
        ]
    )
    return DensityMatrix(m)
