"""Deterministic random-number plumbing.

All Monte Carlo entry points take an integer seed >= 0 and draw from one
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

import numpy as np

from .states import _is_integer

DEFAULT_CHUNK = 1 << 16


def chunk_sizes(total: int):
    """Fixed partition of ``total`` samples: full ``DEFAULT_CHUNK`` chunks, then the rest.

    Every estimator sums chunk by chunk in this order, so the partition fixes
    how a seeded result is rounded, not which numbers it draws.  ``total``
    must be an integer >= 1; a bool or a float, even an integral one, raises
    ValueError.
    """
    if not _is_integer(total):
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
    generator.  It checks, in this order and before any draw, that an
    integer ``samples`` is >= 100, that ``samples`` is an integer
    (``chunk_sizes``), and that ``seed`` is an integer >= 0; a bool or a
    float, even an integral one, raises ValueError.
    """
    if _is_integer(samples) and samples < 100:
        raise ValueError("samples must be >= 100")
    sizes = chunk_sizes(samples)
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return sizes, np.random.default_rng(seed)


def _half_z_chunks(samples: int, seed: int):
    """Iterator over the Haar r_z draws of ``samples`` inputs, chunk by chunk, as w = u - 1/2.

    By Archimedes' hat-box theorem the z component of a uniform point on the
    sphere is uniform on [-1, 1], independent of the uniform azimuth, so
    r_z = 1 - 2 u = -2 w with u uniform on [0, 1).  Both Haar estimators
    score r_z alone, so no azimuth is drawn.  ``samples`` and ``seed`` are
    checked by ``_chunks`` when this is called, before any draw; the chunks
    are then drawn one after another, in ``chunk_sizes`` order, from the one
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
