"""The two-state input ensemble and the pure entangled channel.

The ensemble is a pair of equally likely single-qubit states

    psi1 = cos(theta/2)|0> + sin(theta/2)|1>
    psi2 = sin(theta/2)|0> + cos(theta/2)|1>

parametrized by an angle theta in [0, pi/2]; their overlap is sin(theta).
The channel is the pure resource alpha|00> + beta|11> with real
0 <= alpha <= beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState, spectrum_entropy

_HALF_SQRT2 = 1.0 / np.sqrt(2.0)
_RANGE_ATOL = 1e-12


@dataclass(frozen=True)
class TwoStateEnsemble:
    """Equal-prior pair of non-orthogonal qubit states with overlap sin(theta)."""

    theta: float

    def __post_init__(self):
        t = float(self.theta)
        if not (0.0 <= t <= np.pi / 2 + _RANGE_ATOL):
            raise ValueError(f"theta must lie in [0, pi/2], got {t}")
        object.__setattr__(self, "theta", min(t, np.pi / 2))


@dataclass(frozen=True)
class Channel:
    """Pure entangled resource alpha|00> + beta|11>, alpha <= beta."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (0.0 <= a <= _HALF_SQRT2 + _RANGE_ATOL):
            raise ValueError(f"alpha must lie in [0, 1/sqrt(2)], got {a}")
        object.__setattr__(self, "alpha", min(a, _HALF_SQRT2))

    @property
    def beta(self) -> float:
        return math.sqrt(1.0 - self.alpha**2)


def _checked_grid(values, upper: float, name: str, interval: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    bad = ~((v >= 0.0) & (v <= upper + _RANGE_ATOL))
    if bad.any():
        raise ValueError(f"{name} must lie in {interval}, got {float(v[bad][0])}")
    return np.minimum(v, upper)


def checked_thetas(theta) -> np.ndarray:
    """``theta`` (a scalar or an array) as floats, checked and clipped as TwoStateEnsemble does.

    The sweeps validate their whole grid here once, instead of building an
    ensemble per grid point; the error names the first value out of range.
    """
    return _checked_grid(theta, np.pi / 2, "theta", "[0, pi/2]")


def checked_alphas(alpha) -> np.ndarray:
    """``alpha`` (a scalar or an array) as floats, checked and clipped as Channel does."""
    return _checked_grid(alpha, _HALF_SQRT2, "alpha", "[0, 1/sqrt(2)]")


def make_states(ens: TwoStateEnsemble):
    """The two signal states (psi1, psi2) as PureState values."""
    c, s = np.cos(ens.theta / 2), np.sin(ens.theta / 2)
    return PureState(np.array([c, s])), PureState(np.array([s, c]))


def overlap(ens: TwoStateEnsemble) -> float:
    """|<psi1|psi2>| = sin(theta)."""
    return float(np.sin(ens.theta))


def ensemble_density(ens: TwoStateEnsemble) -> DensityMatrix:
    """Equal mixture (|psi1><psi1| + |psi2><psi2|)/2.

    Eigenvalues are (1 +/- sin(theta))/2 with eigenvectors (|0> +/- |1>)/sqrt(2).
    """
    psi1, psi2 = make_states(ens)
    a1, a2 = psi1.amplitudes, psi2.amplitudes
    return DensityMatrix(0.5 * (np.outer(a1, a1.conj()) + np.outer(a2, a2.conj())))


def source_entropy(ens: TwoStateEnsemble) -> float:
    """Entropy of the ensemble mixture, in bits per qubit.

    Equals the binary entropy of (1 + sin(theta))/2, so orthogonal states
    (theta = 0) give exactly 1 bit and identical states (theta = pi/2) give 0.
    At theta = pi/4 the value is ~0.6009 bits.  It is taken from that
    spectrum directly; ``ensemble_density`` has the same eigenvalues.
    """
    s = np.sin(ens.theta)
    return float(spectrum_entropy([0.5 * (1.0 + s), 0.5 * (1.0 - s)]))


def channel_state(channel: Channel) -> PureState:
    """The two-qubit resource state alpha|00> + beta|11>."""
    return PureState(np.array([channel.alpha, 0.0, 0.0, channel.beta]))
