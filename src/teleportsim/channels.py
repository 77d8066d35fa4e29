"""Teleportation strategies through a non-maximally entangled channel.

Three routes are compared for sending one of the two signal states through
alpha|00> + beta|11>:

  * direct: the standard measure-and-correct protocol on the channel as is;
  * purification: Procrustean filtering to a maximally entangled pair
    (success probability 2 alpha^2), falling back to the best classical
    strategy on failure;
  * combined: partial purification to an intermediate alpha', optimized.

All fidelities here are closed forms; the protocol-enumeration module is
the independent check on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classical import fidelity_optimized
from .ensembles import Channel, TwoStateEnsemble

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelStrategyReport:
    fidelity: float
    alpha_prime: Optional[float] = None


def direct_fidelity_state(theta: float, channel: Channel) -> float:
    """Fidelity of direct teleportation for one input at polar angle theta.

    cos^4(theta/2) + sin^4(theta/2) + alpha beta sin^2(theta); the input's
    azimuthal phase drops out.  It is evaluated in the equal form
    1 - (1/2 - alpha beta) sin^2(theta), with alpha beta capped at its maximum
    1/2 (it can round above), so the value never rounds above 1.
    """
    ab = min(channel.alpha * channel.beta, 0.5)
    return float(1.0 - (0.5 - ab) * np.sin(theta) ** 2)


def average_fidelity_direct(channel: Channel) -> float:
    """Direct-teleportation fidelity averaged over all input states: (2/3)(1 + alpha beta)."""
    return 2.0 / 3.0 * (1.0 + channel.alpha * channel.beta)


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


def purification_fidelity_unknown(channel: Channel) -> float:
    """Purify-then-teleport fidelity for unknown inputs: (2/3)(1 + alpha^2).

    Success (probability 2 alpha^2) teleports exactly; failure falls back to
    the classical bound 2/3.
    """
    return 2.0 / 3.0 * (1.0 + channel.alpha**2)


def purification_fidelity_two_state(ens: TwoStateEnsemble, channel: Channel) -> float:
    """Purify-then-teleport fidelity for the two-state ensemble.

    2 alpha^2 + (1 - 2 alpha^2) F_cl, with F_cl the optimized classical
    fidelity used when the filtering fails.
    """
    p = 2.0 * channel.alpha**2
    return p + (1.0 - p) * fidelity_optimized(ens).fidelity


def purification_success_probability(channel: Channel, alpha_prime: float) -> float:
    """Probability (alpha/alpha')^2 of filtering the channel up to alpha'."""
    _check_alpha_prime(channel, alpha_prime)
    if alpha_prime == channel.alpha:
        return 1.0
    return (channel.alpha / alpha_prime) ** 2


def combined_fidelity(
    ens: TwoStateEnsemble, channel: Channel, alpha_prime: float
) -> float:
    """Partial purification to alpha', direct on success, classical on failure.

    (alpha/alpha')^2 F_dir(alpha') + (1 - (alpha/alpha')^2) F_cl.  The
    endpoints reduce exactly: alpha' = alpha gives the direct fidelity and
    alpha' = 1/sqrt(2) gives the full purification strategy.
    """
    return _combined(ens, channel, alpha_prime, fidelity_optimized(ens).fidelity)


def _combined(
    ens: TwoStateEnsemble, channel: Channel, alpha_prime: float, f_cl: float
) -> float:
    """combined_fidelity with the classical fallback F_cl passed in."""
    _check_alpha_prime(channel, alpha_prime)
    p = purification_success_probability(channel, alpha_prime)
    f_dir = two_state_direct_fidelity(ens, Channel(alpha_prime))
    return p * f_dir + (1.0 - p) * f_cl


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
    """
    lo, hi = channel.alpha, _INV_SQRT2
    candidates = [lo, hi]
    s = np.sin(ens.theta)
    f_cl = fidelity_optimized(ens).fidelity
    k = direct_fidelity_state(ens.theta, Channel(0.0)) - f_cl
    if k < 0.0:
        x_star = 4.0 * k * k / (s**4 + 4.0 * k * k)
        candidates.append(float(np.clip(np.sqrt(x_star), lo, hi)))
    best_f, best_x = max(
        ((_combined(ens, channel, x, f_cl), x) for x in candidates),
        key=lambda t: t[0],
    )
    return ChannelStrategyReport(fidelity=float(best_f), alpha_prime=float(best_x))


def _check_alpha_prime(channel: Channel, alpha_prime: float) -> None:
    if not (channel.alpha - 1e-12 <= alpha_prime <= _INV_SQRT2 + 1e-12):
        raise ValueError(
            f"alpha_prime {alpha_prime} outside [{channel.alpha}, 1/sqrt(2)]"
        )
