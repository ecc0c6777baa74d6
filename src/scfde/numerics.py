"""Transforms, Toeplitz prediction solvers, seeded RNG streams, Q function.

Conventions used throughout the package: the forward transform is
X(k) = sum_l x(l) exp(-j2πkl/M) and the inverse carries the 1/M, so a
white time-domain sequence of variance s has frequency-domain variance
M s. All solvers are pure functions; RngStream is the only stateful
handle and every trial builds its own.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import kernels


class ConditioningError(ArithmeticError):
    """Raised when a recursion loses positive definiteness."""


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

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.master_seed, self.stream_index))
        )


def as_generator(stream) -> np.random.Generator:
    """Accept either an RngStream or an already-built Generator."""
    if isinstance(stream, RngStream):
        return stream.generator()
    if isinstance(stream, np.random.Generator):
        return stream
    raise ValueError(f"expected RngStream or Generator, got {type(stream).__name__}")


def _as_vector(x, name):
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    return arr


def dft(x):
    """Forward M-point transform, X(k) = sum_l x(l) e^{-j2pi kl/M}."""
    return np.fft.fft(_as_vector(x, "x").astype(np.complex128, copy=False))


def idft(x):
    """Inverse transform with the 1/M normalization."""
    return np.fft.ifft(_as_vector(x, "X").astype(np.complex128, copy=False))


def _validated_autocov(autocov, order, name):
    arr = np.asarray(autocov)
    if order < 0:
        raise ValueError("order must be >= 0")
    if arr.ndim != 1 or arr.size < order + 1:
        raise ValueError(f"{name} needs length >= order + 1 = {order + 1}")
    r0 = complex(arr[0])
    if abs(r0.imag) > 1e-10 * max(abs(r0.real), 1e-300) or r0.real <= 0:
        raise ValueError("autocov(0) must be real and positive")
    return np.ascontiguousarray(arr[: order + 1], dtype=np.complex128)


def levinson_complex(autocov, order):
    """Order-`order` prediction-error taps for a Hermitian Toeplitz system.

    Solves the normal equations sum_m q(l-m) b(m) = -q(l) (equivalently
    A b* = -q* with A(l,m) = q(m-l)) by the Levinson-Durbin recursion.

    Returns (taps, prediction_error) where prediction_error equals
    q(0) + Re(sum_m b(m) q*(m)) and is positive, non-increasing in order.
    Raises ConditioningError if the sequence is not positive definite.
    """
    q = _validated_autocov(autocov, order, "autocov")
    taps, errs, fail = kernels.levinson_recursion(q, order)
    if fail >= 0:
        raise ConditioningError(
            f"prediction error {errs[fail]:.3e} at order {fail}; "
            "autocovariance is not positive definite"
        )
    return taps, float(errs[order])


def gaussian_complex(stream, n, variance):
    """n i.i.d. circularly symmetric complex Gaussians, total variance per sample."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    rng = as_generator(stream)
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * special.erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))
