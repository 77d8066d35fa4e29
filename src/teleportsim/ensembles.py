"""The two-state input ensemble and the pure entangled channel.

The ensemble is a pair of equally likely single-qubit states

    psi1 = cos(theta/2)|0> + sin(theta/2)|1>
    psi2 = sin(theta/2)|0> + cos(theta/2)|1>

parametrized by an angle theta in [0, pi/2]; their overlap is sin(theta).
The channel is the pure resource alpha|00> + beta|11> with real
0 <= alpha <= beta.

The module also holds the seeded draws of the Monte Carlo entry points.
Each takes an integer seed >= 0 and draws from one
``numpy.random.default_rng(seed)``: numpy's default PCG64, seeded through a
``SeedSequence``.  Draws are taken chunk after chunk from that one
generator, so the chunk partition bounds memory and fixes the summation
order, not which numbers are drawn.

Reproducibility: a seeded result is bit-identical for a given
``(samples, seed)`` within one version of the package.  The generator,
``DEFAULT_CHUNK`` and the chunk partition are fixed; a change to how a
sampler turns uniforms into inputs, or to how an estimator reduces its
draws, may move seeded values once, and the changelog lists every value
that moved.  Both Haar estimators read their draws through
``_half_z_chunks`` as w = u - 1/2, so each score is even in w, and reduce
each chunk to sums of w^2 (and w^4) with ``ndarray.sum`` and
``np.einsum``, never through BLAS, so a seeded result does not depend on
the BLAS thread count.
"""

from __future__ import annotations

import math

import numpy as np

from .states import DensityMatrix, PureState, _Value, _is_integer, _real, spectrum_entropy

_HALF_SQRT2 = 1.0 / np.sqrt(2.0)
_RANGE_ATOL = 1e-12
DEFAULT_CHUNK = 1 << 16


class TwoStateEnsemble(_Value):
    """Equal-prior pair of non-orthogonal qubit states with overlap sin(theta).

    ``theta`` is a real number; a str, bytes, bool or complex raises ValueError.
    """

    _fields = ("theta",)

    def __init__(self, theta: float):
        t = _real(theta, "theta")
        if not (0.0 <= t <= np.pi / 2 + _RANGE_ATOL):
            raise ValueError(f"theta must lie in [0, pi/2], got {t}")
        object.__setattr__(self, "theta", min(t, np.pi / 2))


class Channel(_Value):
    """Pure entangled resource alpha|00> + beta|11>, alpha <= beta.

    ``alpha`` is a real number; a str, bytes, bool or complex raises ValueError.
    """

    _fields = ("alpha",)

    def __init__(self, alpha: float):
        a = _real(alpha, "alpha")
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
    c, s = math.cos(ens.theta / 2), math.sin(ens.theta / 2)
    return PureState((c, s)), PureState((s, c))


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
    return PureState((channel.alpha, 0.0, 0.0, channel.beta))


def _chunks(samples: int, seed: int):
    """(sizes, generator): the chunk partition of ``samples`` and one generator seeded by ``seed``.

    The set-up every estimator shares, and the one place a seed becomes a
    generator.  ``sizes`` is full ``DEFAULT_CHUNK`` chunks, then the rest;
    every estimator sums chunk by chunk in this order, so the partition
    fixes how a seeded result is rounded, not which numbers it draws.  It
    checks, in this order and before any draw, that ``samples`` is an
    integer, that it is >= 100, and that ``seed`` is an integer >= 0; a bool
    or a float, even an integral one, raises ValueError.
    """
    if not _is_integer(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 100:
        raise ValueError("samples must be >= 100")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    sizes = [DEFAULT_CHUNK] * (samples // DEFAULT_CHUNK)
    if samples % DEFAULT_CHUNK:
        sizes.append(samples % DEFAULT_CHUNK)
    return sizes, np.random.default_rng(seed)


def _half_z_chunks(samples: int, seed: int):
    """Iterator over the Haar r_z draws of ``samples`` inputs, chunk by chunk, as w = u - 1/2.

    By Archimedes' hat-box theorem the z component of a uniform point on the
    sphere is uniform on [-1, 1], independent of the uniform azimuth, so
    r_z = 1 - 2 u = -2 w with u uniform on [0, 1).  Both Haar estimators
    score r_z alone, so no azimuth is drawn.  ``samples`` and ``seed`` are
    checked by ``_chunks`` when this is called, before any draw; the chunks
    are then drawn one after another, in ``_chunks`` order, from the one
    generator seeded by ``seed``.

    Every chunk is a view of one reused buffer, overwritten by the next
    chunk.  Each u is a multiple of 2^-53, so u - 1/2 is exact and -2 w is
    1 - 2 u bit for bit.  Centred, w is uniform on [-1/2, 1/2), so the odd
    powers of w have Haar mean 0 and both estimators score an even function
    of w, summing powers of w^2 alone.
    """
    sizes, gen = _chunks(samples, seed)
    buf = np.empty(sizes[0])
    return (np.subtract(gen.random(out=buf[:n]), 0.5, out=buf[:n]) for n in sizes)
