"""Transforms, seeded RNG streams and complex Gaussian draws.

Conventions used throughout the package: the forward transform is
X(k) = sum_l x(l) exp(-j2πkl/M) and the inverse carries the 1/M, so a
white time-domain sequence of variance s has frequency-domain variance
M s. Transforms act on the last axis, so a leading axis holds a batch of
independent blocks. The transforms and gaussian_complex are pure
functions of arrays; randomness enters only as standard normals drawn
from an RngStream, of which every trial builds its own. The Levinson
solver is kernels.levinson_recursion.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable RNG handle.

    Identical (master_seed, stream_index) pairs replay identical
    sequences; distinct stream_index values give independent streams via
    numpy's SeedSequence entropy pooling.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValueError("seed and stream index must be non-negative")

    def generator(self):
        """A fresh numpy Generator seeded from (master_seed, stream_index)."""
        return np.random.default_rng(
            np.random.SeedSequence((self.master_seed, self.stream_index))
        )


def _as_blocks(x, name):
    arr = np.asarray(x)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"{name} must hold non-empty blocks along its last axis")
    return arr.astype(np.complex128, copy=False)


def dft(x):
    """Forward M-point transform over the last axis,
    X(k) = sum_l x(l) e^{-j2pi kl/M}."""
    return np.fft.fft(_as_blocks(x, "x"))


def idft(x):
    """Inverse transform over the last axis, with the 1/M normalization."""
    return np.fft.ifft(_as_blocks(x, "X"))


def gaussian_complex(normals, n, variance):
    """n i.i.d. circularly symmetric complex Gaussians, total variance per sample.

    normals is an array (..., 2n) of standard normals, n real parts then n
    imaginary parts, one row per batch row. variance is a scalar or one
    value per row.
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be positive")
    if not isinstance(normals, np.ndarray) or normals.shape[-1:] != (2 * n,):
        got = (normals.shape if isinstance(normals, np.ndarray)
               else type(normals).__name__)
        raise ValueError(f"need {2 * n} standard normals per row in an array, "
                         f"got {got}")
    # scaled straight into the parts of one complex array: a batch's draws
    # are large, and temporaries of that size cost page faults
    scale = np.sqrt(variance / 2.0)[..., None]
    out = np.empty((*normals.shape[:-1], n), complex)
    np.multiply(normals[..., :n], scale, out=out.real)
    np.multiply(normals[..., n:], scale, out=out.imag)
    return out
