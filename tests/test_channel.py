"""Rayleigh block-fading channel: generation, application, MFB energy."""

import numpy as np
import pytest

from scfde.channel import (
    apply_channel_freq,
    apply_channel_time,
    draw_channel,
)
from scfde.numerics import RngStream, dft, gaussian_complex


def _normals(master_seed, index, count):
    return RngStream(master_seed, index).generator().standard_normal(count)


def test_single_tap_is_flat():
    ch = draw_channel(_normals(1, 0, 4), n_r=2, v=1, m=64)
    mags = np.abs(ch.freq_response)
    np.testing.assert_allclose(mags, np.broadcast_to(mags[:, :1], mags.shape),
                               rtol=1e-12)


def test_replay_is_identical():
    a = draw_channel(_normals(5, 3, 80), 2, 20, 128)
    b = draw_channel(_normals(5, 3, 80), 2, 20, 128)
    np.testing.assert_array_equal(a.taps, b.taps)
    np.testing.assert_array_equal(a.freq_response, b.freq_response)


def test_freq_response_is_padded_transform():
    ch = draw_channel(_normals(2, 0, 40), 1, 20, 512)
    padded = np.zeros(512, complex)
    padded[:20] = ch.taps[0]
    np.testing.assert_allclose(ch.freq_response[0], dft(padded), rtol=1e-12)


def test_dimensions_and_validation():
    ch = draw_channel(_normals(0, 0, 24), 3, 4, 32)
    assert ch.taps.shape == (3, 4)
    assert ch.freq_response.shape == (3, 32)
    assert (ch.n_r, ch.v, ch.m) == (3, 4, 32)
    with pytest.raises(ValueError):
        draw_channel(_normals(0, 0, 66), 1, 33, 32)
    with pytest.raises(ValueError):
        draw_channel(_normals(0, 0, 0), 0, 4, 32)


def test_tap_statistics():
    # per-tap variance 1/v, per-antenna total energy mean 1 variance 1/v
    rng = np.random.default_rng(11)
    v = 8
    taps = draw_channel(rng.standard_normal((4000, 2 * v)), 1, v, 16).taps
    energies = np.sum(np.abs(taps) ** 2, axis=(-2, -1))
    assert np.mean(np.abs(taps) ** 2) == pytest.approx(1 / v, rel=0.03)
    assert np.mean(energies) == pytest.approx(1.0, rel=0.02)
    assert np.var(energies) == pytest.approx(1 / v, rel=0.15)


def test_subcarrier_variance_and_log_mean():
    # h(k) is CN(0,1) marginally; E|h(k)|^2 = 1 and E ln|h(k)|^2 = -0.5772
    rng = np.random.default_rng(12)
    ch = draw_channel(rng.standard_normal((300, 40)), 1, 20, 512)
    g = np.abs(ch.freq_response.ravel()) ** 2  # 153600 correlated-but-fair samples
    assert np.mean(g) == pytest.approx(1.0, abs=0.05)
    assert np.mean(np.log(g)) == pytest.approx(-0.5772, abs=0.01)


def test_identity_channel_time_path():
    ch = draw_channel(_normals(3, 0, 2), 1, 1, 8)
    object.__setattr__(ch, "taps", np.array([[1.0 + 0j]]))
    object.__setattr__(ch, "freq_response", np.ones((1, 8), complex))
    x = np.arange(8.0) + 0j
    y = apply_channel_time(x, ch)
    np.testing.assert_allclose(y[0], x, atol=1e-12)


def test_pure_delay_circular_shift():
    ch = draw_channel(_normals(3, 1, 4), 1, 2, 8)
    object.__setattr__(ch, "taps", np.array([[0.0 + 0j, 1.0 + 0j]]))
    x = np.arange(8.0) + 0j
    y = apply_channel_time(x, ch)
    np.testing.assert_allclose(y[0], np.roll(x, 1), atol=1e-12)


def test_time_freq_equivalence():
    rng = np.random.default_rng(4)
    ch = draw_channel(rng.standard_normal(80), 2, 20, 256)
    x_t = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    y_t = apply_channel_time(x_t, ch)
    y_f = apply_channel_freq(dft(x_t), ch, 0.0, None)
    for r in range(2):
        np.testing.assert_allclose(
            dft(y_t[r]), y_f[r], rtol=1e-10, atol=1e-10 * np.abs(y_f[r]).max()
        )


def test_freq_noise_scaling():
    # noise-only input: per-subcarrier variance M sigma_n^2
    m, sigma = 128, 0.3
    rng = np.random.default_rng(5)
    ch = draw_channel(rng.standard_normal(2), 1, 1, m)
    samples = [
        apply_channel_freq(np.zeros(m, complex), ch, sigma, rng.standard_normal(2 * m))
        for _ in range(400)
    ]
    var = np.mean(np.abs(np.stack(samples)) ** 2)
    assert var == pytest.approx(m * sigma, rel=0.02)


def test_input_length_validated():
    ch = draw_channel(_normals(9, 0, 4), 1, 2, 16)
    with pytest.raises(ValueError):
        apply_channel_time(np.zeros(8, complex), ch)
    with pytest.raises(ValueError):
        apply_channel_freq(np.zeros(8, complex), ch, 0.0, None)


@pytest.mark.parametrize("source", [RngStream(1, 0), np.random.default_rng(1)],
                         ids=["stream", "generator"])
def test_a_stream_in_place_of_draws_is_a_value_error(source):
    # the random layers read only drawn normals; a stream or generator is
    # refused with the count it should have been drawn into
    with pytest.raises(ValueError, match="need 8 standard normals"):
        gaussian_complex(source, 4, 1.0)
    with pytest.raises(ValueError, match="need 12 standard normals"):
        draw_channel(source, 2, 3, 16)
    ch = draw_channel(np.zeros(12), 2, 3, 16)
    with pytest.raises(ValueError, match="need 64 standard normals"):
        apply_channel_freq(np.zeros(16), ch, 0.1, source)


class TestMfb:
    def test_ensemble_mean(self):
        # the matched filter bound collects E = sum |h|^2; its closed form
        # (analytics.mfb_ber) takes E ~ Gamma(n_r v, 1/v): mean n_r, variance n_r/v
        rng = np.random.default_rng(13)
        for n_r, v in ((1, 1), (2, 20)):
            taps = draw_channel(rng.standard_normal((20000, 2 * n_r * v)), n_r, v, 32).taps
            energy = np.sum(np.abs(taps) ** 2, axis=(-2, -1))
            assert energy.mean() == pytest.approx(n_r, rel=0.03)
            assert energy.var() == pytest.approx(n_r / v, rel=0.08)


def test_rows_of_drawn_normals_equal_single_draws():
    # row i of a batch built from draws is the channel and noise an
    # unbatched call makes from the same draws
    n_r, v, m = 2, 3, 16
    normals = np.stack([_normals(8, k, 2 * n_r * (v + m)) for k in range(4)])
    sigma = np.array([0.1, 0.2, 0.4, 0.8])
    x_f = dft(np.exp(2j * np.pi * np.arange(4 * m).reshape(4, m) / 7))
    ch = draw_channel(normals[:, : 2 * n_r * v], n_r, v, m)
    y = apply_channel_freq(x_f, ch, sigma, normals[:, 2 * n_r * v :])
    assert ch.taps.shape == (4, n_r, v) and y.shape == (4, n_r, m)
    for k in range(4):
        one = draw_channel(normals[k, : 2 * n_r * v], n_r, v, m)
        np.testing.assert_array_equal(ch.taps[k], one.taps)
        np.testing.assert_array_equal(ch.freq_response[k], one.freq_response)
        np.testing.assert_array_equal(
            y[k], apply_channel_freq(x_f[k], one, sigma[k], normals[k, 2 * n_r * v :]))
