"""Named measure-and-prepare strategies, the POVM oracles of the classical closed forms.

Each strategy is a ``ClassicalStrategy`` that ``classical.classical_fidelity``
(or the enumeration in ``test_protocols``) scores outcome by outcome, an
independent route to the columns of ``classical.classical_sweep``.
"""

import numpy as np

from teleportsim.classical import (
    ClassicalStrategy,
    fidelity_optimized,
    projective_guess_strategy,
)
from teleportsim.ensembles import TwoStateEnsemble, make_states, overlap


def min_error_strategy(ens: TwoStateEnsemble) -> ClassicalStrategy:
    """Min-error measurement, receiver prepares the identified signal state."""
    psi1, psi2 = make_states(ens)
    return ClassicalStrategy(
        povm=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), guesses=(psi1, psi2)
    )


def optimized_strategy(ens: TwoStateEnsemble) -> ClassicalStrategy:
    """The biased-guess strategy at the optimal guess angle."""
    return projective_guess_strategy(fidelity_optimized(ens).guess_angle)


def unambiguous_strategy(ens: TwoStateEnsemble) -> ClassicalStrategy:
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
    return ClassicalStrategy(
        povm=(a1, a2, rest / 2, rest / 2), guesses=(psi1, psi2, psi1, psi2)
    )
