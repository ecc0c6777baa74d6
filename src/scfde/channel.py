"""Block-fading multipath channel with receive diversity.

Each antenna sees an independent FIR channel of ``v`` equal-power
Rayleigh taps (total unit average energy).  A cyclic prefix is assumed
long enough that one transmitted block of ``m`` samples experiences a
circular convolution, so the channel is diagonal in the DFT domain.

draw_channel and apply_channel_freq take their randomness as an array of
standard normals already drawn (see numerics.gaussian_complex). An array
with a leading row axis serves a batch: row i of every output comes from
row i of the draws exactly as an unbatched call with those draws would
make it. apply_channel_time is the noise-free reference that the
frequency-domain path is checked against.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import gaussian_complex

__all__ = [
    "ChannelRealization",
    "draw_channel",
    "apply_channel_time",
    "apply_channel_freq",
]


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: impulse responses and their transforms.

    taps has shape (n_r, v); freq_response has shape (n_r, m) where
    row r is the m-point DFT of the zero-padded row of taps. A batch of
    draws puts a leading row axis on both.
    """

    taps: np.ndarray
    freq_response: np.ndarray
    n_r: int
    v: int
    m: int


def draw_channel(normals, n_r: int, v: int, m: int) -> ChannelRealization:
    """Draw an i.i.d. Rayleigh channel: taps are CN(0, 1/v) per antenna.

    normals holds (..., 2 n_r v) standard normals, one channel per row.
    """
    if n_r < 1:
        raise ValueError("need at least one receive antenna")
    if not 1 <= v <= m:
        raise ValueError(f"tap count must satisfy 1 <= v <= block size, got v={v} m={m}")
    taps = gaussian_complex(normals, n_r * v, 1.0 / v)
    taps = taps.reshape(*taps.shape[:-1], n_r, v)
    freq = np.fft.fft(taps, n=m, axis=-1)
    return ChannelRealization(taps=taps, freq_response=freq, n_r=n_r, v=v, m=m)


def apply_channel_time(x_t: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """Circularly convolve a time-domain block with each antenna's taps.

    Implemented by direct summation rather than transforms so it can
    serve as an independent, noise-free reference for the
    frequency-domain path. Returns an (n_r, m) array.
    """
    x_t = np.asarray(x_t, dtype=complex)
    if x_t.shape != (channel.m,):
        raise ValueError(f"block must have length {channel.m}, got {x_t.shape}")
    m, v = channel.m, channel.v
    idx = (np.arange(m)[None, :] - np.arange(v)[:, None]) % m
    return channel.taps @ x_t[idx]


def apply_channel_freq(x_f: np.ndarray, channel: ChannelRealization,
                       sigma_n_sq, normals) -> np.ndarray:
    """Apply the channel in the DFT domain: y_r(k) = h_r(k) x(k) + n_r(k).

    The unnormalized DFT of unit-variance time noise has variance
    m * sigma_n_sq per subcarrier, and that is what is added here from
    normals, (..., 2 n_r m) standard normals that are read only where the
    variance is positive (None serves a noiseless call). For a batched
    channel x_f has one row per channel and sigma_n_sq may give one
    variance per row.
    """
    x_f = np.asarray(x_f, dtype=complex)
    lead = channel.freq_response.shape[:-2]
    if x_f.shape != (*lead, channel.m):
        raise ValueError(f"block must have shape {(*lead, channel.m)}, "
                         f"got {x_f.shape}")
    y = channel.freq_response * x_f[..., None, :]
    variance = channel.m * np.asarray(sigma_n_sq)
    if np.any(variance > 0):
        noise = gaussian_complex(normals, channel.n_r * channel.m, variance)
        y += noise.reshape(y.shape)
    return y
