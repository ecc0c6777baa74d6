"""Sequential kernels against independent oracles and their plain-Python source.

Levinson taps are checked against a dense Toeplitz solve and decision
feedback against a noise-free block it must decode exactly. The parity
tests compare the compiled kernels with the plain-Python source where
numba imports; without numba both names are the same function.
"""

import numpy as np
import pytest

from scfde import kernels
from scfde.numerics import RngStream, dft, idft


def _autocov(seed, m=128):
    gen = RngStream(11, seed).generator()
    spectrum = 0.05 + gen.random(m)
    return idft(1.0 / spectrum)


def dense_prediction(q, order):
    """Direct solve of sum_m q(l-m) b(m) = -q(l), l = 1..order."""
    a = np.empty((order, order), complex)
    for l in range(1, order + 1):
        for m in range(1, order + 1):
            d = l - m
            a[l - 1, m - 1] = q[d] if d >= 0 else np.conj(q[-d])
    return np.linalg.solve(a, -q[1 : order + 1])


class TestLevinsonParity:
    @pytest.mark.parametrize("order", [1, 3, 8, 19])
    def test_matches_dense_solve(self, order):
        q = _autocov(order)
        taps, errs, fail = kernels.levinson_recursion(q, order)
        assert fail == -1
        np.testing.assert_allclose(taps, dense_prediction(q, order),
                                   rtol=1e-10, atol=1e-12)
        # the final prediction error is q(0) + Re(sum_m b(m) q*(m))
        expect = q[0].real + np.sum(taps * np.conj(q[1 : order + 1])).real
        assert errs[order] == pytest.approx(expect, rel=1e-10)
        assert np.all(np.diff(errs) <= 1e-15)

    @pytest.mark.parametrize("order", [1, 3, 8, 19])
    def test_matches_python_path(self, order):
        q = _autocov(order)
        fast = kernels.levinson_recursion(q, order)
        slow = kernels._levinson_recursion(q, order)
        np.testing.assert_allclose(fast[0], slow[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(fast[1], slow[1], rtol=0, atol=1e-13)
        assert fast[2] == slow[2] == -1

    def test_failure_step_reported(self):
        q = np.array([1.0 + 0j, 1.0, 1.0, 1.0])  # rank-one, not pos def
        taps, errs, fail = kernels.levinson_recursion(q, 3)
        assert fail >= 1
        assert errs[fail] <= 0.0


class TestFeedbackParity:
    @pytest.mark.parametrize("real_metric", [True, False])
    def test_noise_free_block_decoded_exactly(self, real_metric):
        # z_t = x + sum_t b_t x[l-t] (circular) is what the feed-forward
        # filter hands over for a noise-free block; with the true wrapped
        # tail the feedback must strip the ISI and decide every symbol
        gen = RngStream(11, 7).generator()
        m, n_taps = 64, 6
        if real_metric:
            points = np.array([1.0 + 0j, -1.0 + 0j])
        else:
            points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        x = points[gen.integers(0, points.size, m)]
        fbf = 0.3 * (gen.standard_normal(n_taps) + 1j * gen.standard_normal(n_taps))
        z_t = x + sum(b * np.roll(x, t) for t, b in enumerate(fbf, start=1))
        z_hat, dec, idx = kernels.dd_feedback(z_t, fbf, x[m - n_taps:], points,
                                              real_metric)
        np.testing.assert_array_equal(dec, x)
        np.testing.assert_array_equal(points[idx], x)
        np.testing.assert_allclose(z_hat, x, rtol=0, atol=1e-12)

    def test_matches_python_path(self):
        gen = RngStream(11, 99).generator()
        m, taps = 64, 6
        z_t = gen.standard_normal(m) + 1j * gen.standard_normal(m)
        fbf = 0.2 * (gen.standard_normal(taps) + 1j * gen.standard_normal(taps))
        points = np.array([1.0 + 0j, -1.0 + 0j])
        tail = points[gen.integers(0, 2, taps)]
        fast = kernels.dd_feedback(z_t, fbf, tail, points, True)
        slow = kernels._dd_feedback(z_t, fbf, tail, points, True)
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)

    def test_complex_metric(self):
        points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        z_t = np.array([0.9 + 0.8j, -0.7 - 0.6j, 0.1 + 0.9j, -0.9 + 0.1j])
        fbf = np.zeros(1, complex)
        tail = points[:1]
        z_hat, dec, idx = kernels.dd_feedback(z_t, fbf, tail, points, False)
        np.testing.assert_allclose(z_hat, z_t)
        expect = [np.argmin(np.abs(v - points) ** 2) for v in z_t]
        assert list(idx) == expect
        np.testing.assert_array_equal(dec, points[idx])


class TestBackendSelection:
    def test_backend_reports_numba_here(self):
        # numba is optional: it is the backend exactly when it imports; the
        # reported backend must be the one bound to the kernel names
        try:
            import numba  # noqa: F401
        except ImportError:
            numba_imports = False
        else:
            numba_imports = True
        expected = "numba" if numba_imports else "numpy"
        assert kernels.backend() == expected
        plain = expected == "numpy"
        assert (kernels.levinson_recursion is kernels._levinson_recursion) == plain
        assert (kernels.dd_feedback is kernels._dd_feedback) == plain


def test_whitening_property_through_kernel():
    # the kernel's taps must whiten the spectrum they were derived from
    m = 256
    gen = RngStream(11, 5).generator()
    h = dft(np.concatenate([gen.standard_normal(8) * 0.3 + 0.5, np.zeros(m - 8)]))
    denom = np.abs(h) ** 2 + 0.1
    q = idft(1.0 / denom)
    taps, errs, fail = kernels.levinson_recursion(q, 20)
    assert fail == -1
    one_plus_b = dft(np.concatenate([[1.0], taps, np.zeros(m - 21)]))
    lags = idft(np.abs(one_plus_b) ** 2 / denom)
    assert np.max(np.abs(lags[1:21])) < 1e-6 * abs(lags[0])
