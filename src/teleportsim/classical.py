"""Transmission strategies that use classical communication only.

The sender measures, tells the receiver the outcome, and the receiver
prepares a guess.  For the two-state ensemble this module provides the
closed forms for the three named strategies:

  * minimum-error measurement, receiver prepares the identified state;
  * unambiguous discrimination with a "don't know" outcome;
  * minimum-error measurement with an optimally biased guess.

The biased-guess optimum coincides with the Fuchs-Peres closed form; that
is the best strategy known here, not one proven optimal.  Each closed form
has one implementation that broadcasts over theta; ``classical_sweep``
returns all four as columns on a whole grid, and ``fidelity_optimized``
takes one ensemble and calls the same code.

A computational-basis measurement with guessed preparations is a protocol
on the product resource |0> (x) (the guess for input 0), with the
corrections I, I, X, X; ``verify`` checks the biased-guess closed form
against that enumeration (``verification._guess_spec``), and the general
POVM strategies that check the other columns live in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import ensembles
from .ensembles import TwoStateEnsemble, checked_thetas
from .states import _Value, _real


class StrategyReport(_Value):
    _fields = ("fidelity", "guess_angle")

    def __init__(self, fidelity: float, guess_angle: float):
        object.__setattr__(self, "fidelity", fidelity)
        object.__setattr__(self, "guess_angle", guess_angle)


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


def _biased_guess(theta, g):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    c_g, s_g = np.cos((theta - g) / 2), np.sin((theta + g) / 2)
    return c * c * (c_g * c_g) + s * s * (s_g * s_g)


def fidelity_biased_guess(ens: TwoStateEnsemble, guess_angle: float) -> float:
    """Fidelity of the computational-basis measurement with guesses at ``guess_angle``.

    The receiver prepares cos(g/2)|0> + sin(g/2)|1> on outcome 0 and its
    0<->1 mirror on outcome 1:

        cos^2(theta/2) cos^2((theta-g)/2) + sin^2(theta/2) sin^2((theta+g)/2)

    ``guess_angle`` is a finite real number; a str, bytes, bool or complex, a
    NaN or an infinity raises ValueError.
    """
    g = _real(guess_angle, "guess_angle")
    if not math.isfinite(g):
        raise ValueError(f"guess_angle must be finite, got {g}")
    return float(_biased_guess(ens.theta, g))


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

    ``guess_angle`` is the maximizer arctan(sin/cos^2) of the biased-guess
    fidelity, or pi/2 where cos^2 theta < 1e-15 leaves that formula
    undefined.
    """
    f, g = _optimum(ens.theta)
    return StrategyReport(fidelity=float(f), guess_angle=float(g))


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


def unknown_state_classical_fidelity(samples: int, seed: int) -> float:
    """Monte Carlo classical fidelity for a completely unknown input state.

    Haar-uniform inputs are measured in the computational basis and the
    measured basis state is prepared.  An input with Bloch z component r_z
    gives outcome 0 with probability u = (1 + r_z)/2, so it scores
    u^2 + (1 - u)^2 = (1 + r_z^2)/2 = 1/2 + 2 w^2 with w = -r_z/2.  Only r_z
    is drawn, as w, chunk after chunk from one generator seeded by ``seed``
    (``ensembles._half_z_chunks``: the draws ``protocols.mc_haar_average_fidelity``
    scores), so a chunk of n draws sums to n/2 + 2 sum w^2.  The average
    converges to 2/3.  Like both protocol estimators it takes at least 100
    samples.
    """
    total = 0.0
    for w in ensembles._half_z_chunks(samples, seed):
        total += 0.5 * w.size + 2.0 * float(np.square(w, out=w).sum())
    return total / samples
