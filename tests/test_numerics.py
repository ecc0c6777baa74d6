"""Numerics layer: transforms, RNG streams, complex Gaussian draws.

Transforms are checked against an independent oracle, direct O(M^2)
summation. The Levinson solver is tested with the other kernels in
test_kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfde.numerics import (
    RngStream,
    dft,
    draw_streams,
    gaussian_complex,
    idft,
    stream_states,
)

RNG = np.random.default_rng(20260815)


def _normals(master_seed, index, count):
    return RngStream(master_seed, index).generator().standard_normal(count)


def dft_direct(x):
    """O(M^2) reference transform, independent of the FFT path."""
    x = np.asarray(x, dtype=complex)
    m = len(x)
    k = np.arange(m)
    w = np.exp(-2j * np.pi * np.outer(k, k) / m)
    return w @ x


class TestDft:
    def test_impulse(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-14)

    def test_constant(self):
        np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-13)

    def test_two_point_by_hand(self):
        # X(0) = 1 + j, X(1) = 1 + j*e^{-j*pi} = 1 - j
        np.testing.assert_allclose(dft([1, 1j]), [1 + 1j, 1 - 1j], atol=1e-14)

    def test_matches_direct_summation(self):
        for m in (3, 16, 257):
            x = RNG.standard_normal(m) + 1j * RNG.standard_normal(m)
            np.testing.assert_allclose(dft(x), dft_direct(x), rtol=1e-10, atol=1e-10)

    def test_idft_examples(self):
        np.testing.assert_allclose(idft([4, 0, 0, 0]), np.ones(4), atol=1e-13)
        np.testing.assert_allclose(idft([1, 1]), [1, 0], atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 511, 512, 4096])
    def test_round_trip(self, m):
        x = RNG.standard_normal(m) + 1j * RNG.standard_normal(m)
        back = idft(dft(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))

    def test_parseval(self):
        x = RNG.standard_normal(512) + 1j * RNG.standard_normal(512)
        lhs = np.sum(np.abs(dft(x)) ** 2) / 512
        rhs = np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft([])
        with pytest.raises(ValueError):
            idft(np.array([]))


class TestRngAndGaussian:
    def test_stream_reproducibility(self):
        a = gaussian_complex(_normals(42, 7, 128), 64, 1.0)
        b = gaussian_complex(_normals(42, 7, 128), 64, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_complex(_normals(42, 7, 128), 64, 1.0)
        b = gaussian_complex(_normals(42, 8, 128), 64, 1.0)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_moments(self):
        z = gaussian_complex(_normals(3, 0, 2 * 10**6), 10**6, 1.0)
        assert abs(z.mean()) < 0.005
        assert 0.995 < np.mean(np.abs(z) ** 2) < 1.005

    def test_half_variance_per_dimension(self):
        z = gaussian_complex(_normals(4, 0, 2 * 10**6), 10**6, 0.5)
        assert np.var(z.real) == pytest.approx(0.25, rel=0.02)
        assert np.var(z.imag) == pytest.approx(0.25, rel=0.02)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            gaussian_complex(_normals(1, 0, 8), 4, 0.0)

    def test_one_call_equals_successive_calls(self):
        # a trial draws taps and noise in one standard_normal call; the
        # stream is the same as drawing the four parts one after another
        for seed, sizes in ((0, (8, 8, 64, 64)), (1, (40, 40, 1024, 1024)),
                            (2, (1, 1, 4, 4)), (3, (3, 5, 7, 11))):
            parts = RngStream(9, seed).generator()
            split = np.concatenate([parts.standard_normal(n) for n in sizes])
            whole = RngStream(9, seed).generator().standard_normal(sum(sizes))
            np.testing.assert_array_equal(split, whole)

    def test_rows_with_their_own_variance(self):
        normals = np.stack([_normals(5, k, 32) for k in range(3)])
        variance = np.array([0.5, 1.0, 2.0])
        rows = gaussian_complex(normals, 16, variance)
        assert rows.shape == (3, 16)
        for k in range(3):
            np.testing.assert_array_equal(
                rows[k], gaussian_complex(normals[k], 16, variance[k]))

    def test_bad_draws(self):
        with pytest.raises(ValueError, match="need 8 standard normals"):
            gaussian_complex(np.zeros(6), 4, 1.0)
        with pytest.raises(ValueError, match="positive"):
            gaussian_complex(np.zeros((2, 8)), 4, np.array([1.0, 0.0]))


class TestStreamDraws:
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(seed=st.integers(0, 2**80), indices=st.lists(st.integers(0, 2**80),
                                                       max_size=5),
           n_bits=st.integers(1, 70), n_normals=st.integers(1, 40))
    def test_rows_equal_the_numpy_generator(self, seed, indices, n_bits,
                                            n_normals):
        # row i is RngStream(seed, t_i)'s integers(0, 2, n_bits) then its
        # standard_normal(n_normals); index 0 (one entropy word) and an
        # index of three words share the call, so that with a seed of two
        # words or more one row takes numpy's extra mixing rounds. An odd
        # n_bits leaves a half word buffered that the normals skip
        indices = [0, *indices, 2**72 - 1]
        bits, normals = draw_streams(stream_states(seed, indices), n_bits,
                                     n_normals)
        assert bits.dtype == np.uint8 and bits.shape == (len(indices), n_bits)
        assert normals.shape == (len(indices), n_normals)
        for row, t in enumerate(indices):
            gen = RngStream(seed, t).generator()
            assert bits[row].tolist() == gen.integers(0, 2, n_bits).tolist()
            assert normals[row].tolist() == gen.standard_normal(n_normals).tolist()

    @pytest.mark.parametrize("seed, t", [(0, 0), (2**32, 2**64), (2**79, 2**95)])
    def test_states_are_those_of_seeded_pcg64(self, seed, t):
        # 2, 5 and 6 entropy words: the last two run past the pool of four
        ((state, inc),) = stream_states(seed, [t])
        bit_gen = np.random.PCG64(np.random.SeedSequence((seed, t)))
        assert bit_gen.state["state"] == {"state": state, "inc": inc}

    def test_negative_seed_or_index_rejected(self):
        for seed, indices in ((-1, [0]), (0, [1, -1])):
            with pytest.raises(ValueError, match="non-negative"):
                stream_states(seed, indices)
