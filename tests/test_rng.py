"""The package's seeded Haar r_z draws and the full-sphere sampler the tests keep.

The package's Haar estimators score r_z alone and read it, chunk by chunk,
as w = u - 1/2 = -r_z/2 from ``ensembles._half_z_chunks``.  ``haar_bloch_z`` is
the test-side r_z = 1 - 2 u of the same uniforms.  ``haar_bloch`` draws
whole Bloch vectors, r_z first from the same uniforms, and is the input of
the reference loops in ``test_engine.py``, which score full amplitudes or
(1, r) Q (1, r)^T and so do not rely on the score having no azimuth.
"""

import numpy as np
import pytest

from teleportsim.ensembles import _chunks, _half_z_chunks

N = 1_000_000


def haar_bloch_z(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count,) z components of Haar-uniform Bloch vectors: 1 - 2 u, u uniform on [0, 1).

    By Archimedes' hat-box theorem the z component of a uniform point on the
    sphere is uniform on [-1, 1], independent of the uniform azimuth.
    """
    return 1.0 - 2.0 * rng.random(count)


def haar_bloch(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) Bloch vectors r = (x, y, z) of Haar-uniform pure qubit states.

    z comes from ``haar_bloch_z``; then phi = 2 pi u and
    (x, y) = sqrt(1 - z^2) (cos phi, sin phi).  The state with Bloch vector
    r has amplitudes (sqrt((1 + z)/2), e^{i phi} sqrt((1 - z)/2)) up to a
    global phase, and density matrix (I + r . sigma)/2.
    """
    z = haar_bloch_z(rng, count)
    phi = 2.0 * np.pi * rng.random(count)
    sin_polar = np.sqrt(1.0 - z**2)
    return np.stack([sin_polar * np.cos(phi), sin_polar * np.sin(phi), z], axis=1)


def draw(seed=2024, count=N):
    return haar_bloch(np.random.default_rng(seed), count)


class TestHaarBloch:
    def test_shape_and_unit_length(self):
        r = draw()
        assert r.shape == (N, 3)
        assert np.abs(np.sqrt((r**2).sum(axis=1)) - 1.0).max() <= 1e-15

    def test_first_moment_is_zero(self):
        # each component has variance 1/3 on the uniform sphere
        mean = draw().mean(axis=0)
        assert np.all(np.abs(mean) <= 5 * np.sqrt(1 / 3 / N))

    def test_second_moment_is_a_third_of_identity(self):
        r = draw()
        second = r.T @ r / N
        # Var(r_i^2) = 1/5 - 1/9 = 4/45 and Var(r_i r_j) = E r_i^2 r_j^2 = 1/15
        sigma = np.where(np.eye(3, dtype=bool), np.sqrt(4 / 45 / N), np.sqrt(1 / 15 / N))
        assert np.all(np.abs(second - np.eye(3) / 3) <= 5 * sigma)

    def test_z_is_drawn_first_and_shared_with_haar_bloch_z(self):
        count = 1000
        z = haar_bloch_z(np.random.default_rng(5), count)
        r = haar_bloch(np.random.default_rng(5), count)
        assert np.array_equal(r[:, 2], z)

    def test_follows_the_archimedes_recipe(self):
        count = 1000
        gen = np.random.default_rng(6)
        u, v = gen.random(count), gen.random(count)
        r = haar_bloch(np.random.default_rng(6), count)
        assert np.array_equal(r[:, 2], 1.0 - 2.0 * u)
        polar = np.sqrt(1.0 - r[:, 2] ** 2)
        assert np.array_equal(r[:, 0], polar * np.cos(2.0 * np.pi * v))
        assert np.array_equal(r[:, 1], polar * np.sin(2.0 * np.pi * v))

    def test_z_never_reaches_the_south_pole(self):
        # 1 - 2u with u in [0, 1)
        z = haar_bloch_z(np.random.default_rng(7), N)
        assert np.all((-1.0 < z) & (z <= 1.0))


class TestHalfZChunks:
    """``_half_z_chunks``: the one seam both Haar estimators draw through."""

    @pytest.mark.parametrize("samples", [100, 65_536, 65_537, 200_000])
    def test_is_one_stream_cut_into_chunks(self, samples):
        seen = [w.copy() for w in _half_z_chunks(samples, 3)]
        assert [len(w) for w in seen] == _chunks(samples, 3)[0]
        u = np.random.default_rng(3).random(samples)
        assert np.array_equal(np.concatenate(seen) + 0.5, u)

    def test_minus_two_w_is_the_hat_box_r_z_bit_for_bit(self):
        # u - 1/2 is exact for every u = k 2^-53, and so is -2 w
        (w,) = _half_z_chunks(50_000, 9)
        assert np.array_equal(-2.0 * w, haar_bloch_z(np.random.default_rng(9), 50_000))
        assert np.all((-0.5 <= w) & (w < 0.5))

    def test_every_chunk_is_a_view_of_one_reused_buffer(self):
        chunks = _half_z_chunks(200_000, 4)
        first = next(chunks)
        for w in chunks:
            assert np.shares_memory(w, first)

    def test_checks_its_arguments_before_any_draw(self, monkeypatch):
        def no_generator(*_):
            raise AssertionError("built a generator before the checks")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for samples, seed in ((99, 1), (100.0, 1), (100, -1), (100, True)):
            with pytest.raises(ValueError):
                _half_z_chunks(samples, seed)

