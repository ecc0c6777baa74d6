"""Numerics layer: transforms, Levinson solver, RNG streams, Q function.

Expected values come from independent oracles: direct O(M^2) summation
for the transforms, a dense Toeplitz solve for Levinson, and numerical
integration of the Gaussian tail for Q.
"""

import numpy as np
import pytest
from scipy import integrate

from scfde.numerics import (
    ConditioningError,
    RngStream,
    dft,
    gaussian_complex,
    idft,
    levinson_complex,
    q_function,
)

RNG = np.random.default_rng(20260815)


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


def dense_toeplitz_solve(q, order):
    """Oracle: build A(l,m) = q(m-l) explicitly and solve A b* = -q*."""
    q = np.asarray(q, dtype=complex)
    a = np.empty((order, order), dtype=complex)
    for l in range(order):
        for m in range(order):
            d = m - l
            a[l, m] = q[abs(d)].conj() if d < 0 else q[d]
    rhs = -np.conj(q[1 : order + 1])
    return np.conj(np.linalg.solve(a, rhs))


class TestLevinson:
    def test_white_covariance(self):
        taps, err = levinson_complex([1.0, 0.0, 0.0], 2)
        np.testing.assert_allclose(taps, [0.0, 0.0], atol=1e-15)
        assert err == pytest.approx(1.0)

    def test_order_one_by_hand(self):
        # q(0) b*(1) = -q*(1) -> b(1) = -0.5, error 1 - |b|^2 q(0) = 0.75
        taps, err = levinson_complex([1.0, 0.5], 1)
        np.testing.assert_allclose(taps, [-0.5], atol=1e-15)
        assert err == pytest.approx(0.75)

    def test_real_order_one(self):
        taps, err = levinson_complex(np.array([1.0, 0.5]), 1)
        assert not np.any(taps.imag)  # real input keeps every step real
        np.testing.assert_allclose(taps, [-0.5], atol=1e-15)
        assert err == pytest.approx(0.75)

    def test_real_white(self):
        taps, _ = levinson_complex(np.array([1.0, 0.0]), 1)
        assert not np.any(taps.imag)
        np.testing.assert_allclose(taps, [0.0], atol=1e-15)

    @pytest.mark.parametrize("order", [1, 8, 19, 64])
    def test_matches_dense_solver(self, order):
        # positive spectrum on a DFT grid guarantees a positive-definite sequence
        m = 256
        spec = RNG.uniform(0.2, 3.0, m)
        q = np.fft.ifft(spec)
        taps, err = levinson_complex(q[: order + 1], order)
        oracle = dense_toeplitz_solve(q, order)
        np.testing.assert_allclose(taps, oracle, rtol=1e-8, atol=1e-10)
        # prediction error identity q(0) + Re sum b(m) q*(m)
        ident = q[0].real + np.sum(taps * np.conj(q[1 : order + 1])).real
        assert err == pytest.approx(ident, rel=1e-8)
        assert err > 0

    def test_real_matches_dense_solver(self):
        m = 128
        half = RNG.uniform(0.3, 2.0, m // 2 + 1)
        spec = np.concatenate([half, half[-2:0:-1]])
        q = np.fft.ifft(spec).real
        order = 19
        taps, err = levinson_complex(q[: order + 1], order)
        assert not np.any(taps.imag)
        oracle = dense_toeplitz_solve(q, order).real
        np.testing.assert_allclose(taps.real, oracle, rtol=1e-8, atol=1e-10)
        assert err > 0

    def test_error_non_increasing_in_order(self):
        m = 256
        spec = RNG.uniform(0.2, 3.0, m)
        q = np.fft.ifft(spec)
        errs = [levinson_complex(q[: o + 1], o)[1] for o in range(1, 24)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_non_positive_definite_raises(self):
        with pytest.raises(ConditioningError):
            levinson_complex([1.0, 1.5], 1)  # |q(1)| > q(0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            levinson_complex([1.0, 0.5], 3)  # too short
        with pytest.raises(ValueError):
            levinson_complex([-1.0, 0.5], 1)  # q(0) <= 0
        with pytest.raises(ValueError):
            levinson_complex([1.0 + 0.5j, 0.2], 1)  # q(0) not real


class TestRngAndGaussian:
    def test_stream_reproducibility(self):
        a = gaussian_complex(RngStream(42, 7), 64, 1.0)
        b = gaussian_complex(RngStream(42, 7), 64, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_complex(RngStream(42, 7), 64, 1.0)
        b = gaussian_complex(RngStream(42, 8), 64, 1.0)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_moments(self):
        z = gaussian_complex(RngStream(3, 0), 10**6, 1.0)
        assert abs(z.mean()) < 0.005
        assert 0.995 < np.mean(np.abs(z) ** 2) < 1.005

    def test_half_variance_per_dimension(self):
        z = gaussian_complex(RngStream(4, 0), 10**6, 0.5)
        assert np.var(z.real) == pytest.approx(0.25, rel=0.02)
        assert np.var(z.imag) == pytest.approx(0.25, rel=0.02)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            gaussian_complex(RngStream(1, 0), 4, 0.0)


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        assert q_function(-1.3) == pytest.approx(1 - q_function(1.3), rel=1e-12)

    def test_far_tail_underflows(self):
        assert q_function(40.0) < 1e-300

    def test_against_integration_oracle(self):
        tail, _ = integrate.quad(
            lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), 1.2816, np.inf
        )
        assert q_function(1.2816) == pytest.approx(tail, rel=1e-9)
        assert abs(q_function(1.2816) - 0.100) < 5e-4

    def test_vectorized(self):
        out = q_function(np.array([0.0, 1.2816]))
        assert out.shape == (2,)
