"""Teleportation strategies through a non-maximally entangled channel.

Three routes are compared for sending one of the two signal states through
alpha|00> + beta|11>:

  * direct: the standard measure-and-correct protocol on the channel as is;
  * purification: Procrustean filtering to a maximally entangled pair
    (success probability 2 alpha^2), falling back to the best classical
    strategy on failure;
  * combined: partial purification to an intermediate alpha', optimized.

All fidelities here are closed forms; the protocol-enumeration module is
the independent check on them.  Each has one implementation that
broadcasts over theta and alpha; ``channel_sweep`` and
``unknown_state_sweep`` evaluate them on whole grids, and the functions
that take one ensemble and one channel call the same code.
"""

from __future__ import annotations

import numpy as np

from .classical import _optimum as _classical_optimum
from .classical import fidelity_optimized
from .ensembles import Channel, TwoStateEnsemble, checked_alphas, checked_thetas
from .states import _Value, _real

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class ChannelStrategyReport(_Value):
    _fields = ("fidelity", "alpha_prime")

    def __init__(self, fidelity: float, alpha_prime: float):
        object.__setattr__(self, "fidelity", fidelity)
        object.__setattr__(self, "alpha_prime", alpha_prime)


def _direct(theta, alpha):
    ab = np.minimum(alpha * np.sqrt(1.0 - alpha * alpha), 0.5)
    s = np.sin(theta)
    return 1.0 - (0.5 - ab) * (s * s)


def direct_fidelity_state(theta: float, channel: Channel) -> float:
    """Fidelity of direct teleportation for one input at polar angle theta.

    cos^4(theta/2) + sin^4(theta/2) + alpha beta sin^2(theta); the input's
    azimuthal phase drops out.  It is evaluated in the equal form
    1 - (1/2 - alpha beta) sin^2(theta), with alpha beta capped at its maximum
    1/2 (it can round above), so the value never rounds above 1.
    """
    return float(_direct(theta, channel.alpha))


def _average_direct(alpha):
    return 2.0 / 3.0 * (1.0 + alpha * np.sqrt(1.0 - alpha * alpha))


def average_fidelity_direct(channel: Channel) -> float:
    """Direct-teleportation fidelity averaged over all input states: (2/3)(1 + alpha beta)."""
    return float(_average_direct(channel.alpha))


def singlet_fraction(channel: Channel) -> float:
    """Maximal overlap with a maximally entangled state: (1 + 2 alpha beta)/2."""
    return 0.5 * (1.0 + 2.0 * channel.alpha * channel.beta)


def horodecki_optimal_fidelity(channel: Channel) -> float:
    """Optimal average teleportation fidelity (2f + 1)/3 from the singlet fraction f.

    Algebraically identical to average_fidelity_direct, which shows the
    direct protocol is already optimal for unknown inputs.
    """
    return (2.0 * singlet_fraction(channel) + 1.0) / 3.0


def two_state_direct_fidelity(ens: TwoStateEnsemble, channel: Channel) -> float:
    """Direct teleportation fidelity averaged over the two-state ensemble.

    Both signal states sit at polar angle theta, so this is the same closed
    form as direct_fidelity_state; it reaches 1 only on a maximally
    entangled channel (unless the states are orthogonal).  The receiver
    applies the standard Pauli corrections; whether input-biased corrections
    could beat this value is an open question not addressed here.
    """
    return direct_fidelity_state(ens.theta, channel)


def _purification_unknown(alpha):
    """Purify-then-teleport fidelity for unknown inputs: (2/3)(1 + alpha^2).

    Success (probability 2 alpha^2) teleports exactly; failure scores 2/3.
    """
    return 2.0 / 3.0 * (1.0 + alpha * alpha)


def _purification(alpha, f_cl):
    p = 2.0 * (alpha * alpha)
    return p + (1.0 - p) * f_cl


def purification_fidelity_two_state(ens: TwoStateEnsemble, channel: Channel) -> float:
    """Purify-then-teleport fidelity for the two-state ensemble.

    2 alpha^2 + (1 - 2 alpha^2) F_cl, with F_cl the optimized classical
    fidelity used when the filtering fails.
    """
    return float(_purification(channel.alpha, fidelity_optimized(ens).fidelity))


def _success_probability(alpha, alpha_prime):
    """(alpha/alpha')^2, and exactly 1 at alpha' = alpha, where alpha = 0 would give 0/0."""
    same = alpha_prime == alpha
    ratio = alpha / np.where(same, 1.0, alpha_prime)
    return np.where(same, 1.0, ratio * ratio)


def _combined(theta, alpha, alpha_prime, f_cl):
    p = _success_probability(alpha, alpha_prime)
    return p * _direct(theta, alpha_prime) + (1.0 - p) * f_cl


def combined_fidelity(
    ens: TwoStateEnsemble, channel: Channel, alpha_prime: float
) -> float:
    """Partial purification to alpha', direct on success, classical on failure.

    (alpha/alpha')^2 F_dir(alpha') + (1 - (alpha/alpha')^2) F_cl.  The
    endpoints reduce exactly: alpha' = alpha gives the direct fidelity and
    alpha' = 1/sqrt(2) gives the full purification strategy.  An alpha'
    within 1e-12 outside [alpha, 1/sqrt(2)] is accepted and clipped into
    it, as Channel clips alpha, so (alpha/alpha')^2 never exceeds 1.  A
    str, bytes, bool or complex alpha' raises ValueError.
    """
    alpha_prime = _checked_alpha_prime(channel, _real(alpha_prime, "alpha_prime"))
    f_cl = fidelity_optimized(ens).fidelity
    return float(_combined(ens.theta, channel.alpha, alpha_prime, f_cl))


def _optimum(theta, alpha, f_cl):
    """(fidelity, alpha') of the best combined strategy, broadcast over theta and alpha.

    The candidates alpha, 1/sqrt(2) and the clipped stationary point are
    stacked on a leading axis, evaluated in one call and the first maximum
    is taken.  Where K >= 0 there is no stationary point and the third
    candidate repeats alpha, so it is never the first maximum.
    """
    k = _direct(theta, 0.0) - f_cl
    stationary = k < 0.0
    k = np.where(stationary, k, -1.0)  # theta = 0 has K = s = 0: keep x* off 0/0
    x_star = 4.0 * k * k / (np.power(np.sin(theta), 4) + 4.0 * k * k)
    third = np.where(stationary, np.clip(np.sqrt(x_star), alpha, _INV_SQRT2), alpha)
    candidates = np.array(np.broadcast_arrays(alpha, _INV_SQRT2, third))
    values = _combined(theta, alpha, candidates, f_cl)
    return values.max(axis=0), np.choose(values.argmax(axis=0), candidates)


def optimize_combined(ens: TwoStateEnsemble, channel: Channel) -> ChannelStrategyReport:
    """Maximize the combined fidelity over alpha' in [alpha, 1/sqrt(2)], in closed form.

    With x = alpha'^2, s = sin(theta) and K = cos^4(theta/2) + sin^4(theta/2)
    - F_cl (never positive), the combined fidelity is

        F_cl + (alpha^2 / x) (K + s^2 sqrt(x (1 - x))),

    whose only stationary point, when K < 0, is x* = 4 K^2 / (s^4 + 4 K^2).
    The candidates alpha, 1/sqrt(2) and sqrt(x*) clipped to the interval are
    evaluated in that order and the first maximum is reported, so the result
    dominates both the pure direct and pure purification strategies.  At
    alpha = 0 every alpha' > 0 gives F_cl, and alpha' = 1/sqrt(2) (filtering
    that always fails, then the classical fallback) is reported.

    The evaluation is one broadcast call shared with ``channel_sweep``,
    which takes each ``fig-channel`` column over the whole alpha grid at once.
    """
    f, x = _optimum(ens.theta, channel.alpha, fidelity_optimized(ens).fidelity)
    return ChannelStrategyReport(fidelity=float(f), alpha_prime=float(x))


def channel_sweep(theta, alpha):
    """The two-state channel strategies over broadcast ``theta`` and ``alpha`` grids.

    Returns (f_direct, f_purification, f_combined, alpha_prime_opt), each
    one broadcast call: F_cl is computed once per theta, not per grid
    point.  The grids are checked once as TwoStateEnsemble and Channel
    check one value; each column equals ``two_state_direct_fidelity``,
    ``purification_fidelity_two_state`` and ``optimize_combined`` at every
    point.
    """
    theta, alpha = checked_thetas(theta), checked_alphas(alpha)
    f_cl = _classical_optimum(theta)[0]
    f_combined, alpha_prime = _optimum(theta, alpha, f_cl)
    return _direct(theta, alpha), _purification(alpha, f_cl), f_combined, alpha_prime


def unknown_state_sweep(alpha):
    """(f_direct_avg, f_purif_unknown) over an ``alpha`` grid, checked once as Channel checks."""
    alpha = checked_alphas(alpha)
    return _average_direct(alpha), _purification_unknown(alpha)


def _checked_alpha_prime(channel: Channel, alpha_prime: float) -> float:
    if not (max(channel.alpha - 1e-12, 0.0) <= alpha_prime <= _INV_SQRT2 + 1e-12):
        raise ValueError(
            f"alpha_prime {alpha_prime} outside [{channel.alpha}, 1/sqrt(2)]"
        )
    return min(max(alpha_prime, channel.alpha), _INV_SQRT2)
