"""Transforms, Toeplitz prediction solvers, seeded RNG streams.

Conventions used throughout the package: the forward transform is
X(k) = sum_l x(l) exp(-j2πkl/M) and the inverse carries the 1/M, so a
white time-domain sequence of variance s has frequency-domain variance
M s. Transforms and solvers act on the last axis, so a leading axis
holds a batch of independent blocks. All solvers are pure functions;
RngStream is the only stateful handle and every trial builds its own.
"""

from dataclasses import dataclass

import numpy as np

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


def _validated_autocov(autocov, order, name):
    arr = np.asarray(autocov)
    if order < 0:
        raise ValueError("order must be >= 0")
    if arr.ndim not in (1, 2) or arr.shape[-1] < order + 1:
        raise ValueError(f"{name} needs 1 or 2 axes and length >= order + 1 = "
                         f"{order + 1}")
    r0 = arr[..., 0].astype(np.complex128)
    if np.any(np.abs(r0.imag) > 1e-10 * np.maximum(np.abs(r0.real), 1e-300)) \
            or np.any(r0.real <= 0):
        raise ValueError("autocov(0) must be real and positive")
    return np.ascontiguousarray(arr[..., : order + 1], dtype=np.complex128)


def levinson_complex(autocov, order):
    """Order-`order` prediction-error taps for a Hermitian Toeplitz system.

    Solves the normal equations sum_m q(l-m) b(m) = -q(l) (equivalently
    A b* = -q* with A(l,m) = q(m-l)) by the Levinson-Durbin recursion.

    Returns (taps, prediction_error) where prediction_error equals
    q(0) + Re(sum_m b(m) q*(m)) and is positive, non-increasing in order.
    A 2-d autocov is a batch of rows: taps and prediction_error then carry
    one row each. Raises ConditioningError if a sequence is not positive
    definite.
    """
    q = _validated_autocov(autocov, order, "autocov")
    taps, errs, fail = kernels.levinson_recursion(q, order)
    rows_errs, rows_fail = np.atleast_2d(errs), np.atleast_1d(fail)
    if np.any(rows_fail >= 0):
        row = int(np.argmax(rows_fail >= 0))
        step = rows_fail[row]
        raise ConditioningError(
            f"prediction error {rows_errs[row, step]:.3e} at order {step}; "
            "autocovariance is not positive definite"
        )
    return taps, (float(errs[order]) if q.ndim == 1 else errs[:, order])


def gaussian_complex(source, n, variance):
    """n i.i.d. circularly symmetric complex Gaussians, total variance per sample.

    source is a stream, which draws 2n standard normals, n real parts
    then n imaginary parts, or an array (..., 2n) of such draws, one row
    per batch row. variance is a scalar or one value per row.
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be positive")
    if isinstance(source, np.ndarray):
        normals = source
        if normals.shape[-1] != 2 * n:
            raise ValueError(f"need {2 * n} standard normals per row, got "
                             f"{normals.shape[-1]}")
    else:
        normals = as_generator(source).standard_normal(2 * n)
    # scaled straight into the parts of one complex array: a batch's draws
    # are large, and temporaries of that size cost page faults
    scale = np.sqrt(variance / 2.0)[..., None]
    out = np.empty((*normals.shape[:-1], n), complex)
    np.multiply(normals[..., :n], scale, out=out.real)
    np.multiply(normals[..., n:], scale, out=out.imag)
    return out
