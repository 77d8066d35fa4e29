"""Transmission strategies that use classical communication only.

The sender measures, tells the receiver the outcome, and the receiver
prepares a guess.  For the two-state ensemble this module provides the
general POVM fidelity evaluator plus the closed forms for the three named
strategies:

  * minimum-error measurement, receiver prepares the identified state;
  * unambiguous discrimination with a "don't know" outcome;
  * minimum-error measurement with an optimally biased guess.

The biased-guess optimum coincides with the Fuchs-Peres closed form; that
is the best strategy known here, not one proven optimal.  Each closed form
has one implementation that broadcasts over theta; ``classical_sweep``
returns all four as columns on a whole grid, and ``fidelity_optimized``
takes one ensemble and calls the same code.
"""

from __future__ import annotations

import numpy as np

from . import rng as rngmod
from .ensembles import TwoStateEnsemble, checked_thetas, make_states
from .states import PureState, _Frozen, _Value, _read_only

_POVM_SUM_ATOL = 1e-10
_POVM_EIG_FLOOR = -1e-12
# the computational-basis projectors, complex and read-only, which every
# projective_guess_strategy shares
_BASIS_POVM = (_read_only(np.diag([1.0, 0.0])), _read_only(np.diag([0.0, 1.0])))


class ClassicalStrategy(_Frozen):
    """A POVM together with the receiver's guess for each outcome.

    ``povm`` is stored as the validated elements' owned, read-only (n, 2, 2)
    stack, so a later write to a caller's array changes nothing.
    """

    _fields = ("povm", "guesses")

    def __init__(self, povm: tuple, guesses: tuple):
        ops = [np.asarray(m, dtype=complex) for m in povm]
        for m in ops:
            if m.shape != (2, 2):
                raise ValueError(f"POVM elements must be 2x2, got {m.shape}")
        stack = np.array(ops) if ops else np.empty((0, 2, 2), dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("POVM element has a non-finite entry")
        if not (np.abs(stack - stack.conj().transpose(0, 2, 1)) <= 1e-12).all():
            raise ValueError("POVM element not Hermitian")
        if not (np.linalg.eigvalsh(stack) >= _POVM_EIG_FLOOR).all():
            raise ValueError("POVM element has a negative eigenvalue")
        if not np.abs(stack.sum(axis=0) - np.eye(2)).max() <= _POVM_SUM_ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        if len(guesses) != len(ops):
            raise ValueError("need exactly one guess state per POVM element")
        for g in guesses:
            if not isinstance(g, PureState) or g.n_qubits != 1:
                raise ValueError("guesses must be single-qubit PureState values")
        stack.setflags(write=False)
        object.__setattr__(self, "povm", stack)
        object.__setattr__(self, "guesses", tuple(guesses))


class StrategyReport(_Value):
    _fields = ("fidelity", "error_probability", "guess_angle")

    def __init__(self, fidelity: float, error_probability: float, guess_angle: float):
        object.__setattr__(self, "fidelity", fidelity)
        object.__setattr__(self, "error_probability", error_probability)
        object.__setattr__(self, "guess_angle", guess_angle)


def classical_fidelity(strategy: ClassicalStrategy, ens: TwoStateEnsemble) -> float:
    """Average fidelity of measure-and-prepare over the two signal states.

    Evaluates (1/2) sum_i sum_j <psi_j|A_i|psi_j> |<psi_j|g_i>|^2 for the
    strategy's POVM {A_i} and guesses {g_i}.
    """
    a = np.array([psi.amplitudes for psi in make_states(ens)])
    g = np.array([g.amplitudes for g in strategy.guesses])
    # p[s, i] = <psi_s|A_i|psi_s> and overlap[s, i] = |<g_i|psi_s>|^2
    p = np.einsum("sj,ijk,sk->si", a.conj(), strategy.povm, a).real
    overlap = np.abs(a @ g.conj().T) ** 2
    return float(0.5 * (p * overlap).sum())


def min_error_probability(ens: TwoStateEnsemble) -> float:
    """Smallest attainable probability of misidentifying the state: (1-cos theta)/2."""
    return float(0.5 * (1.0 - np.cos(ens.theta)))


def _min_error(theta):
    """Min-error fidelity 1 - (1 - cos theta) cos^2(theta) / 2.

    A wrong identification still overlaps the true state by sin^2(theta).
    """
    c = np.cos(theta)
    return 1.0 - 0.5 * (1.0 - c) * (c * c)


def _unambiguous(theta):
    """Unambiguous discrimination, random guess on failure: 1 - s/2 + s^3/2, s = sin theta.

    Conclusive outcomes (probability 1 - s) are prepared exactly.
    """
    s = np.sin(theta)
    return 1.0 - 0.5 * s + 0.5 * np.power(s, 3)


def _guess_angle(theta):
    """arctan(sin/cos^2) and the mask where cos^2 theta < 1e-15 leaves it undefined.

    The division meets no zero: the float nearest pi/2 lies below it, so
    cos theta >= 6e-17 on [0, pi/2].
    """
    c = np.cos(theta)
    c2 = c * c
    return np.arctan(np.sin(theta) / c2), c2 < 1e-15


def optimal_guess_angle(ens: TwoStateEnsemble) -> float:
    """Guess angle maximizing the biased-guess fidelity: arctan(sin/cos^2).

    Where cos^2 theta < 1e-15 the formula is undefined; there the signal
    states (nearly) coincide and the unique maximizer is pi/2, the guess
    ``fidelity_optimized`` reports.
    """
    return float(_optimum(ens.theta)[1])


def _biased_guess(theta, g):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    c_g, s_g = np.cos((theta - g) / 2), np.sin((theta + g) / 2)
    return c * c * (c_g * c_g) + s * s * (s_g * s_g)


def fidelity_biased_guess(ens: TwoStateEnsemble, guess_angle: float) -> float:
    """Fidelity of the computational-basis measurement with guesses at ``guess_angle``.

    The receiver prepares cos(g/2)|0> + sin(g/2)|1> on outcome 0 and its
    0<->1 mirror on outcome 1:

        cos^2(theta/2) cos^2((theta-g)/2) + sin^2(theta/2) sin^2((theta+g)/2)
    """
    return float(_biased_guess(ens.theta, guess_angle))


def _optimum(theta):
    """(fidelity, guess angle) of the biased-guess optimum, broadcast over theta.

    Where the guess angle is undefined (theta = pi/2) the guess pi/2, the
    common state, transmits it exactly.
    """
    g, degenerate = _guess_angle(theta)
    f = np.maximum(_biased_guess(theta, g), _min_error(theta))
    return np.where(degenerate, 1.0, f), np.where(degenerate, np.pi / 2, g)


def fidelity_optimized(ens: TwoStateEnsemble) -> StrategyReport:
    """Best known classical fidelity: min-error measurement, biased guess.

    At theta = pi/2 the formula's maximizer degenerates; guessing the common
    state (guess angle pi/2) transmits it exactly.  The min-error strategy is
    the guess angle theta of the same family, so the value is never reported
    below the min-error fidelity (column 0 of ``classical_sweep``); at small
    theta the two agree to within rounding, and the biased-guess expression
    can round one ulp under it.
    """
    f, g = _optimum(ens.theta)
    return StrategyReport(
        fidelity=float(f), error_probability=min_error_probability(ens), guess_angle=float(g)
    )


def _fuchs_peres(theta, kappa):
    """The Fuchs-Peres shape (1 + sqrt(1 - kappa sin^2 2 theta))/2, broadcast over theta.

    kappa = 1/4 is the classical optimum of Fuchs and Peres, PRA 53, 2038
    (1996), which checks the biased-guess optimum independently; kappa = 3/4
    is the global fidelity of the best telecloning coefficients.
    """
    s = np.sin(2 * theta)
    return 0.5 * (1.0 + np.sqrt(1.0 - kappa * s * s))


def classical_sweep(theta):
    """The four classical fidelities over ``theta``, one broadcast call each.

    Returns (f_min_error, f_unambiguous, f_optimized, f_fuchs_peres), each
    shaped like ``theta`` (a scalar or an array).  The grid is checked once
    as TwoStateEnsemble checks one angle; f_optimized equals
    ``fidelity_optimized`` at every point.
    """
    t = checked_thetas(theta)
    return _min_error(t), _unambiguous(t), _optimum(t)[0], _fuchs_peres(t, 0.25)


def projective_guess_strategy(
    ens: TwoStateEnsemble, guess_angle: float
) -> ClassicalStrategy:
    """Computational-basis projectors with mirrored guesses at ``guess_angle``."""
    g = guess_angle
    g0 = PureState(np.array([np.cos(g / 2), np.sin(g / 2)]))
    g1 = PureState(np.array([np.sin(g / 2), np.cos(g / 2)]))
    return ClassicalStrategy(povm=_BASIS_POVM, guesses=(g0, g1))


def unknown_state_classical_fidelity(samples: int, seed: int) -> float:
    """Monte Carlo classical fidelity for a completely unknown input state.

    Haar-uniform inputs are measured in the computational basis and the
    measured basis state is prepared.  An input with Bloch z component r_z
    gives outcome 0 with probability u = (1 + r_z)/2, so it scores
    u^2 + (1 - u)^2 = (1 + r_z^2)/2 = 1/2 + 2 w^2 with w = -r_z/2.  Only r_z
    is drawn, as w, chunk after chunk from one generator seeded by ``seed``
    (``rng._half_z_chunks``: the draws ``protocols.mc_haar_average_fidelity``
    scores), so a chunk of n draws sums to n/2 + 2 sum w^2.  The average
    converges to 2/3.  Like both protocol estimators it takes at least 100
    samples.
    """
    total = 0.0
    for w in rngmod._half_z_chunks(samples, seed):
        total += 0.5 * w.size + 2.0 * float(np.square(w, out=w).sum())
    return total / samples
