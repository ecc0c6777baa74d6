"""Rayleigh block-fading channel: generation, application, MFB energy."""

import numpy as np
import pytest

from scfde.channel import (
    apply_channel_freq,
    apply_channel_time,
    draw_channel,
)
from scfde.numerics import RngStream, dft, gaussian_complex, idft


def _normals(master_seed, index, count):
    return RngStream(master_seed, index).generator().standard_normal(count)


def _taps(normals, n_r, v):
    """draw_channel's documented taps for normals, restated: (..., n_r, v)."""
    taps = gaussian_complex(normals, n_r * v, 1.0 / v)
    return taps.reshape(*taps.shape[:-1], n_r, v)


def test_single_tap_is_flat():
    h = draw_channel(_normals(1, 0, 4), n_r=2, v=1, m=64)
    mags = np.abs(h)
    np.testing.assert_allclose(mags, np.broadcast_to(mags[:, :1], mags.shape),
                               rtol=1e-12)


def test_replay_is_identical():
    a = draw_channel(_normals(5, 3, 80), 2, 20, 128)
    b = draw_channel(_normals(5, 3, 80), 2, 20, 128)
    np.testing.assert_array_equal(a, b)


def test_freq_response_is_padded_transform():
    normals = _normals(2, 0, 40)
    h = draw_channel(normals, 1, 20, 512)
    taps = _taps(normals, 1, 20)
    padded = np.zeros(512, complex)
    padded[:20] = taps[0]
    np.testing.assert_allclose(h[0], dft(padded), rtol=1e-12)
    # bit for bit the fft of the documented taps, and nothing past them
    np.testing.assert_array_equal(h, np.fft.fft(taps, n=512, axis=-1))
    assert np.max(np.abs(idft(h)[..., 20:])) < 1e-12


def test_dimensions_and_validation():
    assert draw_channel(_normals(0, 0, 24), 3, 4, 32).shape == (3, 32)
    with pytest.raises(ValueError):
        draw_channel(_normals(0, 0, 66), 1, 33, 32)
    with pytest.raises(ValueError):
        draw_channel(_normals(0, 0, 0), 0, 4, 32)


def test_tap_statistics():
    # per-tap variance 1/v, per-antenna total energy mean 1 variance 1/v
    rng = np.random.default_rng(11)
    v = 8
    taps = idft(draw_channel(rng.standard_normal((4000, 2 * v)), 1, v, 16))[..., :v]
    energies = np.sum(np.abs(taps) ** 2, axis=(-2, -1))
    assert np.mean(np.abs(taps) ** 2) == pytest.approx(1 / v, rel=0.03)
    assert np.mean(energies) == pytest.approx(1.0, rel=0.02)
    assert np.var(energies) == pytest.approx(1 / v, rel=0.15)


def test_subcarrier_variance_and_log_mean():
    # h(k) is CN(0,1) marginally; E|h(k)|^2 = 1 and E ln|h(k)|^2 = -0.5772
    rng = np.random.default_rng(12)
    h = draw_channel(rng.standard_normal((300, 40)), 1, 20, 512)
    g = np.abs(h.ravel()) ** 2  # 153600 correlated-but-fair samples
    assert np.mean(g) == pytest.approx(1.0, abs=0.05)
    assert np.mean(np.log(g)) == pytest.approx(-0.5772, abs=0.01)


def test_identity_channel_time_path():
    x = np.arange(8.0) + 0j
    y = apply_channel_time(x, np.array([[1.0 + 0j]]))
    np.testing.assert_allclose(y[0], x, atol=1e-12)


def test_pure_delay_circular_shift():
    x = np.arange(8.0) + 0j
    y = apply_channel_time(x, np.array([[0.0 + 0j, 1.0 + 0j]]))
    np.testing.assert_allclose(y[0], np.roll(x, 1), atol=1e-12)


def test_time_freq_equivalence():
    # draw_channel's response against a direct-sum convolution with the
    # restated taps
    rng = np.random.default_rng(4)
    normals = rng.standard_normal(80)
    h = draw_channel(normals, 2, 20, 256)
    x_t = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    y_t = apply_channel_time(x_t, _taps(normals, 2, 20))
    y_f = apply_channel_freq(dft(x_t), h, 0.0, None)
    for r in range(2):
        np.testing.assert_allclose(
            dft(y_t[r]), y_f[r], rtol=1e-10, atol=1e-10 * np.abs(y_f[r]).max()
        )


def test_freq_noise_scaling():
    # noise-only input: per-subcarrier variance M sigma_n^2
    m, sigma = 128, 0.3
    rng = np.random.default_rng(5)
    h = draw_channel(rng.standard_normal(2), 1, 1, m)
    samples = [
        apply_channel_freq(np.zeros(m, complex), h, sigma, rng.standard_normal(2 * m))
        for _ in range(400)
    ]
    var = np.mean(np.abs(np.stack(samples)) ** 2)
    assert var == pytest.approx(m * sigma, rel=0.02)


def test_input_length_validated():
    # the time path reads m from the block, so only a block shorter than
    # the taps or not one block is refused
    with pytest.raises(ValueError):
        apply_channel_time(np.zeros(2, complex), np.ones((1, 3), complex))
    with pytest.raises(ValueError):
        apply_channel_time(np.zeros((2, 8), complex), np.ones((1, 3), complex))
    h = draw_channel(_normals(9, 0, 4), 1, 2, 16)
    with pytest.raises(ValueError):
        apply_channel_freq(np.zeros(8, complex), h, 0.0, None)


@pytest.mark.parametrize("source", [RngStream(1, 0), np.random.default_rng(1)],
                         ids=["stream", "generator"])
def test_a_stream_in_place_of_draws_is_a_value_error(source):
    # the random layers read only drawn normals; a stream or generator is
    # refused with the count it should have been drawn into
    with pytest.raises(ValueError, match="need 8 standard normals"):
        gaussian_complex(source, 4, 1.0)
    with pytest.raises(ValueError, match="need 12 standard normals"):
        draw_channel(source, 2, 3, 16)
    h = draw_channel(np.zeros(12), 2, 3, 16)
    with pytest.raises(ValueError, match="need 64 standard normals"):
        apply_channel_freq(np.zeros(16), h, 0.1, source)


class TestMfb:
    def test_ensemble_mean(self):
        # the matched filter bound collects E = sum |h|^2; its closed form
        # (analytics.mfb_ber) takes E ~ Gamma(n_r v, 1/v): mean n_r, variance n_r/v
        rng = np.random.default_rng(13)
        for n_r, v in ((1, 1), (2, 20)):
            h = draw_channel(rng.standard_normal((20000, 2 * n_r * v)), n_r, v, 32)
            energy = np.sum(np.abs(h) ** 2, axis=(-2, -1)) / 32  # Parseval
            assert energy.mean() == pytest.approx(n_r, rel=0.03)
            assert energy.var() == pytest.approx(n_r / v, rel=0.08)


def test_rows_of_drawn_normals_equal_single_draws():
    # row i of a batch built from draws is the channel and noise an
    # unbatched call makes from the same draws
    n_r, v, m = 2, 3, 16
    normals = np.stack([_normals(8, k, 2 * n_r * (v + m)) for k in range(4)])
    sigma = np.array([0.1, 0.2, 0.4, 0.8])
    x_f = dft(np.exp(2j * np.pi * np.arange(4 * m).reshape(4, m) / 7))
    h = draw_channel(normals[:, : 2 * n_r * v], n_r, v, m)
    y = apply_channel_freq(x_f, h, sigma, normals[:, 2 * n_r * v :])
    assert h.shape == (4, n_r, m) and y.shape == (4, n_r, m)
    for k in range(4):
        one = draw_channel(normals[k, : 2 * n_r * v], n_r, v, m)
        np.testing.assert_array_equal(h[k], one)
        np.testing.assert_array_equal(
            y[k], apply_channel_freq(x_f[k], one, sigma[k], normals[k, 2 * n_r * v :]))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1, [0.1, np.nan]])
def test_a_variance_that_is_no_finite_number_is_refused(sigma):
    # NaN failed "> 0" and gave the noiseless block; 0 stays noiseless
    h = draw_channel(np.ones((2, 6)), 1, 3, 16)
    normals = np.ones((2, 32))
    with pytest.raises(ValueError, match="finite and >= 0"):
        apply_channel_freq(np.ones((2, 16)), h, sigma, normals)
    assert apply_channel_freq(np.ones((2, 16)), h, 0.0, None).tobytes() == h.tobytes()


def test_workspace_writes_the_allocating_bytes():
    # the response is transformed in place over the zero-padded taps: the
    # bytes of a zero-padded FFT, and the block's those of y + noise
    n_r, v, m = 2, 3, 16
    normals = np.stack([_normals(10, k, 2 * n_r * (v + m)) for k in range(4)])
    sigma = np.array([0.1, 0.2, 0.4, 0.8])
    x_f = dft(np.exp(2j * np.pi * np.arange(4 * m).reshape(4, m) / 7))
    work = {"taps": np.empty((4, n_r * v), complex),
            "h": np.full((4, n_r, m), np.nan, complex),
            "y": np.empty((4, n_r, m), complex),
            "noise": np.empty((4, n_r * m), complex)}
    h = draw_channel(normals[:, : 2 * n_r * v], n_r, v, m, work=work)
    assert h is work["h"]
    assert h.tobytes() == np.fft.fft(_taps(normals[:, : 2 * n_r * v], n_r, v),
                                     n=m, axis=-1).tobytes()
    y = apply_channel_freq(x_f, h, sigma, normals[:, 2 * n_r * v :], work=work)
    noise = gaussian_complex(normals[:, 2 * n_r * v :], n_r * m, m * sigma)
    assert y is work["y"]
    assert y.tobytes() == (h * x_f[:, None, :] + noise.reshape(y.shape)).tobytes()
