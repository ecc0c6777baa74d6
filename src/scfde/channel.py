"""Block-fading multipath channel with receive diversity.

Each antenna sees an independent FIR channel of ``v`` equal-power
Rayleigh taps (total unit average energy).  A cyclic prefix is assumed
long enough that one transmitted block of ``m`` samples experiences a
circular convolution, so the channel is diagonal in the DFT domain.

Given a list of streams instead of one, draw_channel and
apply_channel_freq serve a batch: row i of every array is drawn from
streams[i] exactly as an unbatched call with that stream would draw it.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_generator, gaussian_complex

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


def draw_channel(stream, n_r: int, v: int, m: int) -> ChannelRealization:
    """Draw an i.i.d. Rayleigh channel: taps are CN(0, 1/v) per antenna.

    A list of streams draws one channel per stream.
    """
    if n_r < 1:
        raise ValueError("need at least one receive antenna")
    if not 1 <= v <= m:
        raise ValueError(f"tap count must satisfy 1 <= v <= block size, got v={v} m={m}")
    taps = gaussian_complex(stream, n_r * v, 1.0 / v)
    taps = taps.reshape(*taps.shape[:-1], n_r, v)
    freq = np.fft.fft(taps, n=m, axis=-1)
    return ChannelRealization(taps=taps, freq_response=freq, n_r=n_r, v=v, m=m)


def apply_channel_time(x_t: np.ndarray, channel: ChannelRealization,
                       sigma_n_sq: float, stream) -> np.ndarray:
    """Circularly convolve a time-domain block with each antenna's taps.

    Implemented by direct summation rather than transforms so it can
    serve as an independent check of the frequency-domain path.
    Returns an (n_r, m) array including CN(0, sigma_n_sq) noise.
    """
    x_t = np.asarray(x_t, dtype=complex)
    if x_t.shape != (channel.m,):
        raise ValueError(f"block must have length {channel.m}, got {x_t.shape}")
    m, v = channel.m, channel.v
    idx = (np.arange(m)[None, :] - np.arange(v)[:, None]) % m
    y = channel.taps @ x_t[idx]
    if sigma_n_sq > 0:
        gen = as_generator(stream)
        y = y + gaussian_complex(gen, channel.n_r * m, sigma_n_sq).reshape(channel.n_r, m)
    return y


def apply_channel_freq(x_f: np.ndarray, channel: ChannelRealization,
                       sigma_n_sq: float, stream) -> np.ndarray:
    """Apply the channel in the DFT domain: y_r(k) = h_r(k) x(k) + n_r(k).

    The unnormalized DFT of unit-variance time noise has variance
    m * sigma_n_sq per subcarrier, and that is what is added here. For a
    batched channel x_f has one row per channel and stream is the list of
    streams, one per row.
    """
    x_f = np.asarray(x_f, dtype=complex)
    lead = channel.freq_response.shape[:-2]
    if x_f.shape != (*lead, channel.m):
        raise ValueError(f"block must have shape {(*lead, channel.m)}, "
                         f"got {x_f.shape}")
    y = channel.freq_response * x_f[..., None, :]
    if sigma_n_sq > 0:
        noise = gaussian_complex(stream, channel.n_r * channel.m,
                                 channel.m * sigma_n_sq)
        y += noise.reshape(y.shape)
    return y
