"""Deterministic random-number plumbing.

All Monte Carlo entry points take a 64-bit integer seed.  Independent
substreams are derived by seed splitting (``numpy.random.SeedSequence.spawn``)
and partial results are reduced in fixed substream order, so results are
bit-identical for a given (seed, samples) pair regardless of how the work
is scheduled.  The generator is numpy's default PCG64; the name below is
recorded in CSV metadata emitted by the CLI.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "numpy-pcg64-seedsequence"

DEFAULT_CHUNK = 1 << 16


def substreams(seed: int, count: int):
    """``count`` independent generators split from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def chunk_sizes(total: int, chunk: int = DEFAULT_CHUNK):
    """Fixed partition of ``total`` samples into chunks of at most ``chunk``.

    ``total`` must be an integer >= 1; a bool or a float, even an integral
    one, raises ValueError.
    """
    if isinstance(total, bool) or not isinstance(total, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {total!r}")
    if total < 1:
        raise ValueError("samples must be >= 1")
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def haar_qubits(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2) array of Haar-uniform single-qubit amplitude pairs."""
    z = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)
