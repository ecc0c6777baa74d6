"""Block-fading multipath channel with receive diversity.

Each antenna sees an independent FIR channel of ``v`` equal-power
Rayleigh taps (total unit average energy).  A cyclic prefix is assumed
long enough that one transmitted block of ``m`` samples experiences a
circular convolution, so the channel is diagonal in the DFT domain and is
passed on as its (n_r, m) frequency response, row r the m-point DFT of
antenna r's zero-padded taps; sizes are read from array shapes.

draw_channel and apply_channel_freq take their randomness as an array of
standard normals already drawn (see numerics.gaussian_complex). An array
with a leading row axis serves a batch: row i of every output comes from
row i of the draws exactly as an unbatched call with those draws would
make it. Both write into a pass workspace where one is given (see
numerics). apply_channel_time is the noise-free reference that the
frequency-domain path is checked against.
"""

import numpy as np

from .numerics import gaussian_complex, slot

__all__ = [
    "draw_channel",
    "apply_channel_time",
    "apply_channel_freq",
]


def draw_channel(normals, n_r: int, v: int, m: int, work=None) -> np.ndarray:
    """Frequency response (..., n_r, m) of an i.i.d. Rayleigh channel.

    The taps are gaussian_complex(normals, n_r v, 1/v) read as (n_r, v),
    CN(0, 1/v) each; normals holds (..., 2 n_r v) standard normals, one
    channel per row. The taps and the response are written into work's
    "taps" and "h" where a workspace is given.
    """
    if n_r < 1:
        raise ValueError("need at least one receive antenna")
    if not 1 <= v <= m:
        raise ValueError(f"tap count must satisfy 1 <= v <= block size, got v={v} m={m}")
    taps = gaussian_complex(normals, n_r * v, 1.0 / v, slot(work, "taps"))
    # the transform runs in place over the zero-padded taps: the bytes of
    # np.fft.fft(taps, n=m), without its padded copy
    h = (np.empty((*taps.shape[:-1], n_r, m), complex) if work is None
         else work["h"])
    h[..., :v] = taps.reshape(*taps.shape[:-1], n_r, v)
    h[..., v:] = 0.0
    return np.fft.fft(h, axis=-1, out=h)


def apply_channel_time(x_t: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Circularly convolve a time-domain block with each antenna's taps.

    taps is (n_r, v). Implemented by direct summation rather than
    transforms so it can serve as an independent, noise-free reference
    for the frequency-domain path. Returns an (n_r, m) array.
    """
    x_t = np.asarray(x_t, dtype=complex)
    m, v = x_t.shape[-1], taps.shape[-1]
    if x_t.ndim != 1 or not 1 <= v <= m:
        raise ValueError(f"need one block of at least {v} samples, got {x_t.shape}")
    idx = (np.arange(m)[None, :] - np.arange(v)[:, None]) % m
    return taps @ x_t[idx]


def apply_channel_freq(x_f: np.ndarray, freq_response: np.ndarray,
                       sigma_n_sq, normals, work=None) -> np.ndarray:
    """Apply the channel in the DFT domain: y_r(k) = h_r(k) x(k) + n_r(k).

    freq_response is (..., n_r, m). The unnormalized DFT of unit-variance
    time noise has variance m * sigma_n_sq per subcarrier, and that is
    what is added here from normals, (..., 2 n_r m) standard normals that
    are read only where the variance is positive (None serves a noiseless
    call). For a batched channel x_f has one row per channel and
    sigma_n_sq may give one variance per row; each is finite and >= 0.
    The block and its noise are written into work's "y" and "noise" where
    a workspace is given.
    """
    x_f = np.asarray(x_f, dtype=complex)
    *lead, n_r, m = freq_response.shape
    if x_f.shape != (*lead, m):
        raise ValueError(f"block must have shape {(*lead, m)}, got {x_f.shape}")
    variance = m * np.asarray(sigma_n_sq, dtype=float)
    if not ((variance >= 0) & (variance < np.inf)).all():  # NaN fails too
        raise ValueError(f"sigma_n_sq must be finite and >= 0, got {sigma_n_sq}")
    y = np.multiply(freq_response, x_f[..., None, :], out=slot(work, "y"))
    if np.any(variance > 0):
        noise = gaussian_complex(normals, n_r * m, variance, slot(work, "noise"))
        y += noise.reshape(y.shape)
    return y
