"""Named measure-and-prepare strategies, the POVM oracles of the classical closed forms.

Each strategy is a plain ``(povm, guesses)`` pair: the POVM elements as 2x2
arrays and one single-qubit ``PureState`` guess per element.
``enumerate_classical_strategy`` scores it outcome by outcome, an
independent route to the columns of ``classical.classical_sweep``.
"""

import numpy as np

from teleportsim.classical import fidelity_optimized
from teleportsim.ensembles import TwoStateEnsemble, make_states, overlap
from teleportsim.states import PureState, fidelity

BASIS_POVM = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def enumerate_classical_strategy(strategy, ens: TwoStateEnsemble) -> float:
    """Exact measure-and-prepare fidelity by summing over outcomes and states.

    Outcome probabilities are taken as Tr(A_i rho_j) on the signal-state
    projectors, a route that shares nothing with the protocol enumeration
    of the biased-guess strategy in ``verify``.
    """
    povm, guesses = strategy
    f = 0.0
    for psi in make_states(ens):
        rho = psi.density().elements
        for m, g in zip(povm, guesses):
            p = float(np.real(np.trace(m @ rho)))
            f += 0.5 * p * fidelity(g, psi)
    return f


def min_error_strategy(ens: TwoStateEnsemble):
    """Min-error measurement, receiver prepares the identified signal state."""
    return BASIS_POVM, make_states(ens)


def guess_strategy(g: float):
    """Computational-basis measurement with guesses at ``g``.

    The receiver prepares cos(g/2)|0> + sin(g/2)|1> on outcome 0 and its
    0<->1 mirror on outcome 1.
    """
    g0 = PureState(np.array([np.cos(g / 2), np.sin(g / 2)]))
    g1 = PureState(np.array([np.sin(g / 2), np.cos(g / 2)]))
    return BASIS_POVM, (g0, g1)


def optimized_strategy(ens: TwoStateEnsemble):
    """The biased-guess strategy at the optimal guess angle."""
    return guess_strategy(fidelity_optimized(ens).guess_angle)


def unambiguous_strategy(ens: TwoStateEnsemble):
    """Unambiguous-discrimination POVM realized with four outcomes.

    Elements 1 and 2 are projectors onto the states orthogonal to psi2 and
    psi1, scaled by 1/(1 + sin theta) so each signal state is identified
    with probability exactly 1 - sin(theta).  The completing "don't know"
    element is split into two equal halves guessed as psi1 and psi2, which
    realizes the random guess within the one-guess-per-outcome interface.
    """
    psi1, psi2 = make_states(ens)
    c, s = np.cos(ens.theta / 2), np.sin(ens.theta / 2)
    # orthogonal complements: <perp1|psi1> = 0, <perp2|psi2> = 0
    perp1 = np.array([s, -c])
    perp2 = np.array([c, -s])
    w = 1.0 / (1.0 + overlap(ens))
    a1 = w * np.outer(perp2, perp2.conj())  # conclusive "psi1"
    a2 = w * np.outer(perp1, perp1.conj())  # conclusive "psi2"
    rest = np.eye(2) - a1 - a2
    return (a1, a2, rest / 2, rest / 2), (psi1, psi2, psi1, psi2)
