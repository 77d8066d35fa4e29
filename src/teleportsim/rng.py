"""Deterministic random-number plumbing.

All Monte Carlo entry points take an integer seed >= 0 and draw from one
``numpy.random.default_rng(seed)``: numpy's default PCG64, seeded through a
``SeedSequence``.  The name below is recorded in CSV metadata emitted by
the CLI.  Draws are taken chunk after chunk from that one generator, so the
chunk partition bounds memory and fixes the summation order, not which
numbers are drawn.

Reproducibility: a seeded result is bit-identical for a given
``(samples, seed)`` within one version of the package.  The generator,
``DEFAULT_CHUNK`` and the chunk partition are fixed; a change to how a
sampler turns uniforms into inputs may move seeded values once, and the
changelog lists every value that moved.  The Haar estimators score each
chunk in place, overwriting the array ``haar_bloch_z`` returns, with the
same IEEE operations in the same order as the out-of-place expressions they
replaced, so that rewrite moved no seeded value.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "numpy-pcg64-seedsequence"

DEFAULT_CHUNK = 1 << 16


def chunk_sizes(total: int):
    """Fixed partition of ``total`` samples: full ``DEFAULT_CHUNK`` chunks, then the rest.

    Every estimator sums chunk by chunk in this order, so the partition fixes
    how a seeded result is rounded, not which numbers it draws.  ``total``
    must be an integer >= 1; a bool or a float, even an integral one, raises
    ValueError.
    """
    if isinstance(total, bool) or not isinstance(total, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {total!r}")
    if total < 1:
        raise ValueError("samples must be >= 1")
    sizes = [DEFAULT_CHUNK] * (total // DEFAULT_CHUNK)
    if total % DEFAULT_CHUNK:
        sizes.append(total % DEFAULT_CHUNK)
    return sizes


def _chunks(samples: int, seed: int):
    """(sizes, generator): the chunk partition of ``samples`` and one generator seeded by ``seed``.

    The set-up every estimator shares, and the one place a seed becomes a
    generator.  It checks, in this order and before any draw, that
    ``samples`` is an integer (``chunk_sizes``), that it is >= 100, and that
    ``seed`` is an integer >= 0; a bool or a float seed, even an integral
    one, raises ValueError.
    """
    sizes = chunk_sizes(samples)
    if samples < 100:
        raise ValueError("samples must be >= 100")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return sizes, np.random.default_rng(seed)


def haar_bloch_z(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count,) z components of Haar-uniform Bloch vectors: 1 - 2 u, u uniform on [0, 1).

    By Archimedes' hat-box theorem the z component of a uniform point on the
    sphere is uniform on [-1, 1], independent of the uniform azimuth.  Both
    Haar estimators score r_z alone, so no azimuth is drawn; a full-sphere
    draw that takes these uniforms first and then one azimuth per sample
    shares every r_z with it.

    The result is a fresh array the caller owns and may overwrite; both Haar
    estimators score it in place.  Negating 2 u and adding 1 is 1 - 2 u bit
    for bit, since 2 u is exact.
    """
    z = rng.random(count)
    z *= -2.0
    z += 1.0
    return z
