"""Sequential kernels against independent oracles.

Levinson taps are checked against hand-solved small cases and a dense
Toeplitz solve, its input checks and its loss of positive definiteness
against the errors they raise, decision feedback against a noise-free
block it must decode exactly and against a scalar reference loop under
noise, at fixed cases and as hypothesis properties over orders, block
lengths and alphabets; the shared nearest-point rule must slice the same
way for a block's hard decisions and the feedback pass, and its per-axis
grid decisions must equal a brute-force argmin over the points.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scfde import kernels, modem
from scfde.kernels import ConditioningError
from scfde.numerics import RngStream, dft, idft


# 4 real levels by 2 imaginary: a grid whose axes cut at different values
UNLIKE_GRID = np.array([x + 1j * y for y in (-1, 1)
                        for x in (-3, -1, 1, 3)]) / np.sqrt(6)
# the feedback pass decides BPSK (real) and QPSK and 16-QAM (complex) on
# the levels of a float view, 8-PSK (argmin) and the unlike grid by index
ALPHABETS = {
    "bpsk": (modem.constellation("bpsk").points, True),
    "qpsk": (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2), False),
    "16qam": (modem.constellation("16qam").points, False),
    "8psk": (modem.constellation("8psk").points, False),
    "4x2": (UNLIKE_GRID, False),
}
# every shipped alphabet and the tests' QPSK, each under both metrics
SLICED = [(name, modem.constellation(name).points, real_metric)
          for name in modem.CONSTELLATION_NAMES for real_metric in (True, False)]
SLICED += [("qpsk", ALPHABETS["qpsk"][0], real_metric)
           for real_metric in (True, False)]
SLICED_IDS = [f"{name}-{'real' if real else 'complex'}" for name, _, real in SLICED]


def brute_force_index(z, points, real_metric):
    """argmin_i |z - points[i]| over the last axis, first minimum on ties."""
    z = np.asarray(z)[..., None]
    d = np.abs(z.real - points.real) if real_metric else np.abs(z - points)
    return d.argmin(axis=-1)


def per_axis_index(z, points, real_metric):
    """The lowest index among the points nearest z on every axis, each axis
    compared apart as |x - level| rounds: the rule of a grid alphabet."""
    z = np.asarray(z)[..., None]
    nearest = [np.abs(part(z) - part(points)) for part in
               ((np.real,) if real_metric else (np.real, np.imag))]
    on_all = np.logical_and.reduce([d == d.min(axis=-1, keepdims=True)
                                    for d in nearest])
    return on_all.argmax(axis=-1)  # first True = lowest index


def midpoints(points):
    """The midpoint of every pair of points, and each nudged by one ulp
    either way along each axis."""
    a, b = np.triu_indices(points.size, k=1)
    mid = (points[a] + points[b]) / 2
    re, im = mid.real, mid.imag
    return np.concatenate([mid] + [np.nextafter(re, d) + 1j * im
                                   for d in (-np.inf, np.inf)]
                          + [re + 1j * np.nextafter(im, d)
                             for d in (-np.inf, np.inf)])


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
    """The feedback pass as a scalar loop over positions and taps; returns
    the decided indices."""
    m, n_taps = len(z_t), len(fbf)
    dec = np.empty(m, complex)
    dec[m - n_taps:] = tail
    idx = np.empty(m, int)
    for l in range(m):
        # dec[l - t] wraps to dec[M + l - t] for t > l
        z_hat = z_t[l] - sum(fbf[t - 1] * dec[l - t] for t in range(1, n_taps + 1))
        err = z_hat - points
        idx[l] = np.argmin(np.abs(err.real) if real_metric else np.abs(err))
        dec[l] = points[idx[l]]
    return idx


class TestLevinsonParity:
    @pytest.mark.parametrize("order", [1, 3, 8, 19])
    def test_matches_dense_solve(self, order):
        q = _autocov(order)
        taps, err = kernels.levinson_recursion(q, order)
        np.testing.assert_allclose(taps, dense_prediction(q, order),
                                   rtol=1e-10, atol=1e-12)
        # the final prediction error is q(0) + Re(sum_m b(m) q*(m))
        expect = q[0].real + np.sum(taps * np.conj(q[1 : order + 1])).real
        assert err == pytest.approx(expect, rel=1e-10)
        errs = [q[0].real] + [kernels.levinson_recursion(q, o)[1]
                              for o in range(1, order + 1)]
        assert np.all(np.diff(errs) <= 1e-15)

    def test_failure_step_reported(self):
        q = np.array([1.0 + 0j, 1.0, 1.0, 1.0])  # rank-one, not pos def
        with pytest.raises(ConditioningError, match=r"0\.000e\+00 at order 1;"):
            kernels.levinson_recursion(q, 3)


class TestLevinson:
    def test_white_covariance(self):
        taps, err = kernels.levinson_recursion([1.0, 0.0, 0.0], 2)
        np.testing.assert_allclose(taps, [0.0, 0.0], atol=1e-15)
        assert err == pytest.approx(1.0)

    def test_order_one_by_hand(self):
        # q(0) b*(1) = -q*(1) -> b(1) = -0.5, error 1 - |b|^2 q(0) = 0.75
        taps, err = kernels.levinson_recursion([1.0, 0.5], 1)
        np.testing.assert_allclose(taps, [-0.5], atol=1e-15)
        assert err == pytest.approx(0.75)

    def test_real_order_one(self):
        taps, err = kernels.levinson_recursion(np.array([1.0, 0.5]), 1)
        assert not np.any(taps.imag)  # real input keeps every step real
        np.testing.assert_allclose(taps, [-0.5], atol=1e-15)
        assert err == pytest.approx(0.75)

    def test_real_white(self):
        taps, _ = kernels.levinson_recursion(np.array([1.0, 0.0]), 1)
        assert not np.any(taps.imag)
        np.testing.assert_allclose(taps, [0.0], atol=1e-15)

    @pytest.mark.parametrize("order", [1, 8, 19, 64])
    def test_matches_dense_solver(self, order):
        # positive spectrum on a DFT grid guarantees a positive-definite sequence
        spec = RngStream(14, order).generator().uniform(0.2, 3.0, 256)
        q = np.fft.ifft(spec)
        taps, err = kernels.levinson_recursion(q[: order + 1], order)
        oracle = dense_prediction(q, order)
        np.testing.assert_allclose(taps, oracle, rtol=1e-8, atol=1e-10)
        # prediction error identity q(0) + Re sum b(m) q*(m)
        ident = q[0].real + np.sum(taps * np.conj(q[1 : order + 1])).real
        assert err == pytest.approx(ident, rel=1e-8)
        assert err > 0

    def test_real_matches_dense_solver(self):
        m = 128
        half = RngStream(15, 0).generator().uniform(0.3, 2.0, m // 2 + 1)
        spec = np.concatenate([half, half[-2:0:-1]])
        q = np.fft.ifft(spec).real
        order = 19
        taps, err = kernels.levinson_recursion(q[: order + 1], order)
        assert not np.any(taps.imag)
        oracle = dense_prediction(q, order).real
        np.testing.assert_allclose(taps.real, oracle, rtol=1e-8, atol=1e-10)
        assert err > 0

    def test_error_non_increasing_in_order(self):
        spec = RngStream(16, 0).generator().uniform(0.2, 3.0, 256)
        q = np.fft.ifft(spec)
        errs = [kernels.levinson_recursion(q[: o + 1], o)[1] for o in range(1, 24)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_non_positive_definite_raises(self):
        with pytest.raises(ConditioningError, match="not positive definite"):
            kernels.levinson_recursion([1.0, 1.5], 1)  # |q(1)| > q(0)

    def test_first_failing_order_of_a_batch_is_reported(self):
        # errors are checked once the loop is done: the order reported is
        # the first at which any row fails, with the least error there,
        # and a NaN error fails too; no RuntimeWarning escapes the loop
        good = idft(np.linspace(0.5, 2.0, 32))[:6]
        late = np.array([1.0, 0.0, 0.0, 1.5, 0.0, 0.0], complex)  # order 3
        early = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], complex)  # order 1
        with pytest.raises(ConditioningError, match=r"-1\.250e\+00 at order 3;"):
            kernels.levinson_recursion(np.stack([good, late, good]), 5)
        with pytest.raises(ConditioningError, match=r"at order 1;"):
            kernels.levinson_recursion(np.stack([late, good, early]), 5)
        nan = good.copy()
        nan[2] = np.nan
        with pytest.raises(ConditioningError, match=r"nan at order 2;"):
            kernels.levinson_recursion(np.stack([good, nan]), 5)
        with pytest.raises(ValueError, match="real and positive"):
            kernels.levinson_recursion([np.nan, 0.5], 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kernels.levinson_recursion([1.0, 0.5], 3)  # too short
        with pytest.raises(ValueError):
            kernels.levinson_recursion([-1.0, 0.5], 1)  # q(0) <= 0
        with pytest.raises(ValueError):
            kernels.levinson_recursion([1.0 + 0.5j, 0.2], 1)  # q(0) not real
        with pytest.raises(ValueError):
            kernels.levinson_recursion([1.0, 0.5], -1)  # negative order


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
        idx = kernels.dd_feedback(z_t, fbf, x[m - n_taps:], points, real_metric)
        np.testing.assert_array_equal(points[idx], x)

    def test_complex_metric(self):
        points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        z_t = np.array([0.9 + 0.8j, -0.7 - 0.6j, 0.1 + 0.9j, -0.9 + 0.1j])
        fbf = np.zeros(1, complex)
        tail = points[:1]
        idx = kernels.dd_feedback(z_t, fbf, tail, points, False)
        expect = [np.argmin(np.abs(v - points) ** 2) for v in z_t]
        assert list(idx) == expect


def test_whitening_property_through_kernel():
    # the kernel's taps must whiten the spectrum they were derived from
    m = 256
    gen = RngStream(11, 5).generator()
    h = dft(np.concatenate([gen.standard_normal(8) * 0.3 + 0.5, np.zeros(m - 8)]))
    denom = np.abs(h) ** 2 + 0.1
    q = idft(1.0 / denom)
    taps, _ = kernels.levinson_recursion(q, 20)
    one_plus_b = dft(np.concatenate([[1.0], taps, np.zeros(m - 21)]))
    lags = idft(np.abs(one_plus_b) ** 2 / denom)
    assert np.max(np.abs(lags[1:21])) < 1e-6 * abs(lags[0])


class TestKernelProperties:
    @given(data=st.data(), order=st.integers(1, 24))
    def test_levinson_matches_dense_solve(self, data, order):
        # any spectrum bounded away from zero gives a positive definite
        # Toeplitz autocovariance q = idft(spectrum)
        m = data.draw(st.integers(order + 1, 96), label="m")
        spectrum = data.draw(arrays(np.float64, m, elements=st.floats(0.05, 20.0)),
                             label="spectrum")
        q = idft(spectrum)
        taps, err = kernels.levinson_recursion(q, order)
        dense = dense_prediction(q, order)
        scale = max(1.0, np.max(np.abs(dense)))
        np.testing.assert_allclose(taps, dense, rtol=0, atol=1e-9 * scale)
        expect = q[0].real + np.sum(dense * np.conj(q[1 : order + 1])).real
        assert err == pytest.approx(expect, rel=1e-9)

    @given(data=st.data(), alphabet=st.sampled_from(sorted(ALPHABETS)),
           m=st.integers(2, 80), rows=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 0.4]))
    def test_feedback_matches_scalar_loop(self, data, alphabet, m, rows, seed,
                                          noise):
        # L = m-1 reads every wrapped tail symbol. A noise-free block with
        # its true tail must decode exactly; under noise the wrong decisions
        # must propagate as in the scalar loop (decided points are fed back).
        # Each row of a batch has its own taps, block and tail, and decides
        # as the scalar loop does on that row alone; a lone row is 1-d
        n_taps = data.draw(st.integers(1, m - 1), label="L")
        points, real_metric = ALPHABETS[alphabet]
        gen = RngStream(12, seed).generator()
        x = points[gen.integers(0, points.size, (rows, m))]
        fbf = 0.3 * (gen.standard_normal((rows, n_taps))
                     + 1j * gen.standard_normal((rows, n_taps)))
        isi = sum(fbf[:, t - 1 : t] * np.roll(x, t, axis=1)
                  for t in range(1, n_taps + 1))
        z_t = x + isi + noise * (gen.standard_normal((rows, m))
                                 + 1j * gen.standard_normal((rows, m)))
        tail = x[:, m - n_taps:]
        batch = (z_t, fbf, tail) if rows > 1 else (z_t[0], fbf[0], tail[0])
        idx = kernels.dd_feedback(*batch, points, real_metric).reshape(rows, m)
        assert idx.dtype == np.uint8
        for row in range(rows):
            np.testing.assert_array_equal(
                idx[row], reference_feedback(z_t[row], fbf[row], tail[row],
                                             points, real_metric))
        if noise == 0.0:
            np.testing.assert_array_equal(points[idx], x)

    def test_complex_tail_keeps_the_complex_pass(self):
        # a real alphabet under the real metric runs in float64 only when
        # its tail is real too: the imaginary part of a tail symbol moves
        # the real part of b_t d(l - t) through the imaginary part of b_t
        points, real_metric = ALPHABETS["bpsk"]
        m, n_taps = 16, 8
        moved = 0
        for seed in range(20):
            gen = RngStream(21, seed).generator()
            fbf = gen.standard_normal(n_taps) + 1j * gen.standard_normal(n_taps)
            tail = points[gen.integers(0, 2, n_taps)] + 1j * gen.standard_normal(n_taps)
            z_t = gen.standard_normal(m) + 1j * gen.standard_normal(m)
            idx = kernels.dd_feedback(z_t, fbf, tail, points, real_metric)
            np.testing.assert_array_equal(
                idx, reference_feedback(z_t, fbf, tail, points, real_metric))
            moved += (idx != kernels.dd_feedback(z_t, fbf, tail.real, points,
                                                 real_metric)).any()
        assert moved  # the imaginary parts of the tail did decide

    @pytest.mark.parametrize("name", modem.CONSTELLATION_NAMES)
    def test_midpoints_slice_alike(self, name):
        # every midpoint between two points is a tie up to rounding, where
        # two separate slicers would be most likely to disagree
        c = modem.constellation(name)
        a, b = np.triu_indices(c.points.size, k=1)
        mid = (c.points[a] + c.points[b]) / 2
        symbols = c.points[kernels.nearest_index(mid, c.points, c.is_real)]
        idx = kernels.dd_feedback(mid, np.zeros(1, complex), c.points[:1],
                                  c.points, c.is_real)
        np.testing.assert_array_equal(c.points[idx], symbols)

    @given(case=st.sampled_from(SLICED), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.1, 1.0, 4.0, 100.0]))
    def test_grid_slicer_equals_brute_force(self, case, seed, scale):
        # random z, and the exact midpoints where the lower index must win.
        # z is drawn at the scale of the points: within a few ulps of a
        # cut, brute force's rounded hypot can call a near-tie a tie where
        # the per-axis rule still takes the nearer point (next test)
        _, points, real_metric = case
        gen = RngStream(15, seed).generator()
        z = scale * (gen.standard_normal(500) + 1j * gen.standard_normal(500))
        for sample in (z, midpoints(points)):
            np.testing.assert_array_equal(
                kernels.nearest_index(sample, points, real_metric),
                brute_force_index(sample, points, real_metric))

    @pytest.mark.parametrize("name, points, real_metric", SLICED, ids=SLICED_IDS)
    def test_grid_slicer_decides_each_axis_near_zero(self, name, points,
                                                     real_metric):
        # at |z| ~ 1e-15 every sample is within a few ulps of a cut, where
        # a grid is still sliced per axis; 8-PSK is no grid and keeps the
        # argmin
        gen = RngStream(17, 0).generator()
        z = 1e-15 * (gen.standard_normal(5000) + 1j * gen.standard_normal(5000))
        got = kernels.nearest_index(z, points, real_metric)
        grid = real_metric or name != "8psk"
        reference = per_axis_index if grid else brute_force_index
        np.testing.assert_array_equal(got, reference(z, points, real_metric))
        if name == "16qam" and not real_metric:
            # the one place the rules part: the argmin calls some of these
            # near-ties ties and takes the lower index instead
            assert (got != brute_force_index(z, points, real_metric)).any()

    def test_grid_with_unlike_axes_is_sliced_per_axis(self):
        # 4 real levels by 2 imaginary: the axes cut at different values.
        # An inexact midpoint lies within an ulp of a cut, where the
        # argmin's rounded hypot may call the two distances equal, so
        # midpoints are checked against the per-axis rule alone
        points = UNLIKE_GRID
        gen = RngStream(18, 0).generator()
        z = gen.standard_normal(2000) + 1j * gen.standard_normal(2000)
        for real_metric in (True, False):
            got = kernels.nearest_index(z, points, real_metric)
            np.testing.assert_array_equal(
                got, brute_force_index(z, points, real_metric))
            for sample in (1e-15 * z, midpoints(points)):
                np.testing.assert_array_equal(
                    kernels.nearest_index(sample, points, real_metric),
                    per_axis_index(sample, points, real_metric))

    def test_grid_of_unlike_order_falls_back_to_the_argmin(self):
        # a 2 x 2 grid whose upper real level has the higher index in one
        # row and the lower in the other: no one cut keeps the lower-index
        # tie rule, so _grid_cuts gives up and the argmin slices
        points = np.array([-1 - 1j, 1 + 1j, 1 - 1j, -1 + 1j])
        assert kernels._slicer(points.tobytes(), False).__name__ == "argmin"
        gen = RngStream(19, 0).generator()
        z = gen.standard_normal(2000) + 1j * gen.standard_normal(2000)
        for sample in (z, midpoints(points)):
            np.testing.assert_array_equal(
                kernels.nearest_index(sample, points, False),
                brute_force_index(sample, points, False))

    @pytest.mark.parametrize("name, points, real_metric", SLICED, ids=SLICED_IDS)
    def test_slicer_keeps_the_shape_of_z(self, name, points, real_metric):
        z = np.array([[0.3 - 0.9j, -2.0 + 0.1j, 0.0]])
        got = kernels.nearest_index(z, points, real_metric)
        assert got.shape == z.shape
        assert kernels.nearest_index(z[0, 0], points, real_metric) == got[0, 0]
        np.testing.assert_array_equal(got, brute_force_index(z, points,
                                                             real_metric))

    @pytest.mark.parametrize("real_metric", [True, False])
    @pytest.mark.parametrize("points", [np.array([1.0 + 0j, -1.0]),
                                        np.array([-1.0 + 0j, 1.0])],
                             ids=["bpsk", "bpsk-reversed"])
    def test_two_level_slice_equals_the_table(self, points, real_metric):
        # a two-point axis is sliced by one comparison, negated where the
        # upper level has index 0, with no gather through the level-to-
        # index table; it gives the table's indices, dtype and shape on
        # +-0, +-inf, NaN (level 0, as greater_equal puts it), the cut and
        # its neighbouring doubles, random samples and a 0-d z
        decide = kernels._slicer(points.tobytes(), real_metric)
        assert decide.__name__ == "two_level"
        parts, _, cuts, table = decide.grid
        (cut,) = cuts[0]
        gen = RngStream(21, 0).generator()
        x = np.concatenate([gen.standard_normal(200),
                            [0.0, -0.0, np.inf, -np.inf, np.nan, cut,
                             np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)]])
        z = np.empty(len(x), complex)
        z.real, z.imag = x, gen.permutation(x)
        for sample in (z, z.reshape(4, -1), x.astype(complex)):
            want = table[kernels._level(cuts[0], getattr(sample, parts[0]))]
            got = decide(sample)
            assert got.dtype == want.dtype and got.shape == sample.shape
            np.testing.assert_array_equal(got, want)
        for one in z:
            zero_d = np.asarray(one)
            want = table[kernels._level(cuts[0], zero_d.real)]
            got = kernels.nearest_index(zero_d, points, real_metric)
            assert (np.shape(got), got.dtype, got) == ((), want.dtype, want)

    def test_two_level_slice_is_for_index_pairs_only(self):
        # a real metric on QPSK has two levels whose lowest indices are 2
        # and 0, so its slice keeps the table
        points = ALPHABETS["qpsk"][0]
        assert kernels._slicer(points.tobytes(), True).__name__ == "decide"
        z = np.array([0.5, -0.5, 0.0, -0.0, np.nan]) + 0j
        np.testing.assert_array_equal(kernels.nearest_index(z, points, True),
                                      [0, 2, 0, 0, 2])

    @pytest.mark.parametrize("points", [modem.constellation("16qam").points,
                                        UNLIKE_GRID, np.arange(-7.0, 8.0, 2.0)],
                             ids=["16qam", "4x2", "8-pam"])
    def test_bulk_levels_count_as_searchsorted_does(self, points):
        # a bulk slice counts the cuts above each sample of an axis of more
        # than one cut: on random samples, on every cut and one ulp either
        # side of it, and on NaN and +-inf it gives the levels, and the
        # points, of the per-position rule, a searchsorted there
        decide = kernels._slicer(np.asarray(points, complex).tobytes(), False)
        parts, _, cuts, table = decide.grid
        every = np.concatenate(cuts)
        gen = RngStream(20, 0).generator()
        x = np.concatenate([2 * gen.standard_normal(1000), every,
                            np.nextafter(every, -np.inf),
                            np.nextafter(every, np.inf),
                            [np.nan, np.inf, -np.inf, 0.0, -0.0]])
        counted = [axis for axis in cuts if len(axis) > 1]
        assert counted
        for axis in counted:
            np.testing.assert_array_equal(kernels._bulk_level(axis, x),
                                          axis.searchsorted(x, "right"))
        z = np.empty(len(x), complex)
        z.real, z.imag = x, gen.permutation(x)
        one_by_one = table[tuple(kernels._level(cut, getattr(z, part))
                                 for part, cut in zip(parts, cuts))]
        np.testing.assert_array_equal(decide(z), one_by_one)

    def test_one_row_sums_its_taps_as_in_a_batch(self):
        # numpy sums an (L, 1) array pairwise and an (L, R >= 2) array in
        # order. Build a row whose two sums of b_t x d(l - t) at position 0
        # fall on opposite sides of the BPSK threshold, then check that it
        # decides alike alone and as the middle row of three
        points, real_metric = ALPHABETS["bpsk"]
        m, n_taps = 32, 20
        for seed in range(100):
            gen = RngStream(16, seed).generator()
            fbf = gen.standard_normal(n_taps) + 1j * gen.standard_normal(n_taps)
            tail = points[gen.integers(0, 2, n_taps)]
            # the pass pairs b_t with the decision t positions back: the
            # tail's last entry with b_1
            products = fbf[::-1] * tail
            in_order = products[0]
            for p in products[1:]:
                in_order = in_order + p
            pairwise = np.add.reduce(products)
            # one sum leaves 0, the other a negative remainder
            z0 = min(in_order.real, pairwise.real)
            want = kernels.nearest_index(z0 - in_order, points, real_metric)
            if want != kernels.nearest_index(z0 - pairwise, points, real_metric):
                break
        else:
            pytest.fail("no row whose two tap sums decide apart")
        z_t = np.concatenate([[z0], gen.standard_normal(m - 1)]) + 0j
        alone = kernels.dd_feedback(z_t, fbf, tail, points, real_metric)
        assert alone[0] == want
        others = gen.standard_normal((2, m)) + 0j
        batch = kernels.dd_feedback(
            np.stack([others[0], z_t, others[1]]), np.stack([fbf] * 3),
            np.stack([tail] * 3), points, real_metric)
        np.testing.assert_array_equal(batch[1], alone)

    @given(data=st.data(), order=st.integers(1, 24), rows=st.integers(1, 7))
    def test_batched_levinson_rows_equal_1d_calls(self, data, order, rows):
        # one row may be rank one (not positive definite): its batch raises
        # at order 1, before any division by its zero error (pytest turns
        # the RuntimeWarning of such a division into an error)
        m = data.draw(st.integers(order + 1, 64), label="m")
        spectra = data.draw(arrays(np.float64, (rows, m),
                                   elements=st.floats(0.05, 20.0)),
                            label="spectra")
        q = idft(spectra)
        bad = data.draw(st.integers(-1, rows - 1), label="bad row")
        if bad >= 0:
            q[bad] = 1.0
            with pytest.raises(ConditioningError, match="at order 1;"):
                kernels.levinson_recursion(q, order)
            q = np.delete(q, bad, axis=0)
        taps, err = kernels.levinson_recursion(q, order)
        assert taps.shape == (len(q), order) and err.shape == (len(q),)
        for row in range(len(q)):
            want_taps, want_err = kernels.levinson_recursion(q[row], order)
            np.testing.assert_array_equal(taps[row], want_taps)
            assert err[row] == want_err

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
        idx = kernels.dd_feedback(z_t, fbf, tail, points, real_metric)
        for row in range(rows):
            np.testing.assert_array_equal(
                idx[row], kernels.dd_feedback(z_t[row], fbf[row], tail[row],
                                              points, real_metric))


    @given(data=st.data(), m=st.integers(2, 64), wl_rows=st.integers(1, 4),
           conv_rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_stacked_real_and_complex_rows_equal_1d_calls(self, data, m, wl_rows,
                                                          conv_rows, seed):
        # widely linear rows (real z_t, real taps) stacked under conventional
        # ones (complex) are cast to complex by the stacking; each row still
        # decides as its own 1-d call, on its own dtypes, bit for bit. Ties
        # and signed zeros (z_t = +-0, zero taps) are drawn on purpose
        n_taps = data.draw(st.integers(1, m - 1), label="L")
        points, real_metric = ALPHABETS["bpsk"]
        gen = RngStream(14, seed).generator()
        special = np.array([0.0, -0.0, 1.0, -1.0])
        wl_z = gen.standard_normal((wl_rows, m))
        mask = gen.random((wl_rows, m)) < 0.3
        wl_z[mask] = special[gen.integers(0, 4, np.count_nonzero(mask))]
        wl_taps = 0.3 * gen.standard_normal((wl_rows, n_taps))
        wl_taps[gen.random((wl_rows, n_taps)) < 0.3] = 0.0
        conv_z = (gen.standard_normal((conv_rows, m))
                  + 1j * gen.standard_normal((conv_rows, m)))
        conv_taps = 0.3 * (gen.standard_normal((conv_rows, n_taps))
                           + 1j * gen.standard_normal((conv_rows, n_taps)))
        tails = points[gen.integers(0, 2, (wl_rows + conv_rows, n_taps))]
        rows = list(zip(wl_z, wl_taps)) + list(zip(conv_z, conv_taps))
        if data.draw(st.booleans(), label="conventional rows first"):
            rows = rows[wl_rows:] + rows[:wl_rows]
        z_t = np.concatenate([z[None] for z, _ in rows])
        taps = np.concatenate([b[None] for _, b in rows])
        assert z_t.dtype == taps.dtype == np.complex128
        idx = kernels.dd_feedback(z_t, taps, tails, points, real_metric)
        for row, (z, b) in enumerate(rows):
            np.testing.assert_array_equal(
                idx[row], kernels.dd_feedback(z, b, tails[row], points,
                                              real_metric))
