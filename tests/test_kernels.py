"""Sequential kernels against independent oracles.

Levinson taps are checked against a dense Toeplitz solve, decision
feedback against a noise-free block it must decode exactly and against
a scalar reference loop under noise, at fixed cases and as hypothesis
properties over orders, block lengths and alphabets; the shared
nearest-point rule must slice the same way for demod_hard and the
feedback pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scfde import kernels, modem
from scfde.numerics import RngStream, dft, idft

# the suite is deterministic: every run tries the same examples
PROPERTY = settings(deadline=None, derandomize=True)

ALPHABETS = {
    "bpsk": (modem.constellation("bpsk").points, True),
    "qpsk": (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2), False),
    "16qam": (modem.constellation("16qam").points, False),
}


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


def reference_feedback(z_t, fbf, tail, points, real_metric):
    """The feedback pass as a scalar loop over positions and taps."""
    m, n_taps = len(z_t), len(fbf)
    dec = np.empty(m, complex)
    dec[m - n_taps:] = tail
    z_hat = np.empty(m, complex)
    idx = np.empty(m, int)
    for l in range(m):
        # dec[l - t] wraps to dec[M + l - t] for t > l
        z_hat[l] = z_t[l] - sum(fbf[t - 1] * dec[l - t] for t in range(1, n_taps + 1))
        err = z_hat[l] - points
        idx[l] = np.argmin(np.abs(err.real) if real_metric else np.abs(err))
        dec[l] = points[idx[l]]
    return z_hat, dec, idx


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


class TestKernelProperties:
    @PROPERTY
    @given(data=st.data(), order=st.integers(1, 24))
    def test_levinson_matches_dense_solve(self, data, order):
        # any spectrum bounded away from zero gives a positive definite
        # Toeplitz autocovariance q = idft(spectrum)
        m = data.draw(st.integers(order + 1, 96), label="m")
        spectrum = data.draw(arrays(np.float64, m, elements=st.floats(0.05, 20.0)),
                             label="spectrum")
        q = idft(spectrum)
        taps, errs, fail = kernels.levinson_recursion(q, order)
        assert fail == -1
        dense = dense_prediction(q, order)
        scale = max(1.0, np.max(np.abs(dense)))
        np.testing.assert_allclose(taps, dense, rtol=0, atol=1e-9 * scale)
        expect = q[0].real + np.sum(dense * np.conj(q[1 : order + 1])).real
        assert errs[order] == pytest.approx(expect, rel=1e-9)

    @PROPERTY
    @given(data=st.data(), alphabet=st.sampled_from(sorted(ALPHABETS)),
           m=st.integers(2, 80), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 0.4]))
    def test_feedback_matches_scalar_loop(self, data, alphabet, m, seed, noise):
        # L = m-1 reads every wrapped tail symbol. A noise-free block with
        # its true tail must decode exactly; under noise the wrong decisions
        # must propagate as in the scalar loop (decided points are fed back)
        n_taps = data.draw(st.integers(1, m - 1), label="L")
        points, real_metric = ALPHABETS[alphabet]
        gen = RngStream(12, seed).generator()
        x = points[gen.integers(0, points.size, m)]
        fbf = 0.3 * (gen.standard_normal(n_taps)
                     + 1j * gen.standard_normal(n_taps))
        z_t = (x + sum(b * np.roll(x, t) for t, b in enumerate(fbf, start=1))
               + noise * (gen.standard_normal(m) + 1j * gen.standard_normal(m)))
        args = (z_t, fbf, x[m - n_taps:], points, real_metric)
        z_hat, dec, idx = kernels.dd_feedback(*args)
        want_z, want_dec, want_idx = reference_feedback(*args)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dec, want_dec)
        np.testing.assert_allclose(z_hat, want_z, rtol=0, atol=1e-12)
        if noise == 0.0:
            np.testing.assert_array_equal(dec, x)

    @pytest.mark.parametrize("name", modem.CONSTELLATION_NAMES)
    def test_midpoints_slice_alike(self, name):
        # every midpoint between two points is a tie up to rounding, where
        # two separate slicers would be most likely to disagree
        c = modem.constellation(name)
        a, b = np.triu_indices(c.points.size, k=1)
        mid = (c.points[a] + c.points[b]) / 2
        symbols, _ = modem.demod_hard(mid, c)
        _, dec, idx = kernels.dd_feedback(mid, np.zeros(1, complex),
                                          c.points[:1], c.points, c.is_real)
        np.testing.assert_array_equal(dec, symbols)
        np.testing.assert_array_equal(c.points[idx], symbols)

    @PROPERTY
    @given(data=st.data(), order=st.integers(1, 24), rows=st.integers(1, 7))
    def test_batched_levinson_rows_equal_1d_calls(self, data, order, rows):
        # one row may be rank one (not positive definite): it fails alone
        m = data.draw(st.integers(order + 1, 64), label="m")
        spectra = data.draw(arrays(np.float64, (rows, m),
                                   elements=st.floats(0.05, 20.0)),
                            label="spectra")
        q = idft(spectra)
        bad = data.draw(st.integers(-1, rows - 1), label="bad row")
        if bad >= 0:
            q[bad] = 1.0
        taps, errs, fail = kernels.levinson_recursion(q, order)
        assert taps.shape == (rows, order) and errs.shape == (rows, order + 1)
        for row in range(rows):
            want_taps, want_errs, want_fail = kernels.levinson_recursion(q[row],
                                                                         order)
            assert fail[row] == want_fail == (1 if row == bad else -1)
            np.testing.assert_array_equal(taps[row], want_taps)
            np.testing.assert_array_equal(errs[row], want_errs)

    @PROPERTY
    @given(data=st.data(), alphabet=st.sampled_from(sorted(ALPHABETS)),
           m=st.integers(2, 64), rows=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_feedback_rows_equal_1d_calls(self, data, alphabet, m, rows,
                                                  seed):
        n_taps = data.draw(st.integers(1, m - 1), label="L")
        points, real_metric = ALPHABETS[alphabet]
        gen = RngStream(13, seed).generator()
        x = points[gen.integers(0, points.size, (rows, m))]
        fbf = 0.3 * (gen.standard_normal((rows, n_taps))
                     + 1j * gen.standard_normal((rows, n_taps)))
        z_t = x + 0.4 * (gen.standard_normal((rows, m))
                         + 1j * gen.standard_normal((rows, m)))
        tail = x[:, m - n_taps:]
        z_hat, dec, idx = kernels.dd_feedback(z_t, fbf, tail, points, real_metric)
        for row in range(rows):
            want = kernels.dd_feedback(z_t[row], fbf[row], tail[row], points,
                                       real_metric)
            for got, expect in zip((z_hat[row], dec[row], idx[row]), want):
                np.testing.assert_array_equal(got, expect)

