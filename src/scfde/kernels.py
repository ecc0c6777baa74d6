"""The two sequential steps of the DFE, plus the nearest-point slicer.

The Levinson-Durbin recursion is order-recursive and the decision-directed
feedback pass feeds each decision into the next, so each keeps one Python
loop (over orders, over positions) and does the work of one iteration in
a few numpy calls. Both take a leading batch axis and advance every row
of the batch in the same iteration, so the loop runs once per batch, not
once per block. Dot products are elementwise products summed over the
last axis by np.add.reduce (np.sum without its Python wrapper), which
rounds each row the same way at any batch size; einsum and matmul do not
promise that.

Each step is written once and returns only what its caller reads:
levinson_recursion checks its input and raises ConditioningError itself,
and dd_feedback returns the decided indices.
"""

import numpy as np


class ConditioningError(ArithmeticError):
    """Raised when a recursion loses positive definiteness."""


def backend():
    """Name of the kernel implementation; there is one, plain numpy."""
    return "numpy"


def nearest_index(z, points, real_metric):
    """Index of the nearest point for each sample of z, over the last axis.

    Ties resolve to the lower point index. real_metric slices on the real
    part only, since only real noise moves a real-valued decision across
    its boundary.
    """
    z = np.asarray(z)[..., None]
    d = np.abs(z.real - points.real) if real_metric else np.abs(z - points)
    return d.argmin(axis=-1)  # first minimum = lowest index


def levinson_recursion(autocov, order):
    """Order-`order` prediction-error taps for a Hermitian Toeplitz system.

    Solves the normal equations sum_m q(l-m) b(m) = -q(l), l = 1..order
    (equivalently A b* = -q* with A(l,m) = q(m-l)), in complex arithmetic
    whatever the input dtype.

    Returns (taps, prediction_error) where prediction_error equals
    q(0) + Re(sum_m b(m) q*(m)) and is positive, non-increasing in order.
    Leading axes of autocov are a batch of independent rows; taps and
    prediction_error then carry one row each. A row is computed with the
    same operations at any batch size, so it equals the 1-d call on that
    row bit for bit.

    Raises ValueError for a negative order, fewer than order + 1 lags or
    a q(0) that is not real and positive, and ConditioningError as soon
    as a row's prediction error falls to <= 0 (not positive definite).
    """
    q = np.asarray(autocov)
    if order < 0:
        raise ValueError("order must be >= 0")
    if q.ndim == 0 or q.shape[-1] < order + 1:
        raise ValueError(f"autocov needs length >= order + 1 = {order + 1} "
                         "along its last axis")
    q = q[..., : order + 1].astype(np.complex128)
    q0 = q[..., 0]
    if np.any(np.abs(q0.imag) > 1e-10 * np.maximum(np.abs(q0.real), 1e-300)) \
            or np.any(q0.real <= 0):
        raise ValueError("autocov(0) must be real and positive")
    taps = np.zeros((*q.shape[:-1], order), np.complex128)
    err = q0.real.copy()
    for i in range(1, order + 1):
        past = taps[..., : i - 1]
        k = -(q[..., i] + np.add.reduce(past * q[..., i - 1 : 0 : -1], axis=-1)) / err
        past += k[..., None] * np.conj(past[..., ::-1])
        taps[..., i - 1] = k
        err = err * (1.0 - np.abs(k) ** 2)
        if (err <= 0.0).any():
            raise ConditioningError(
                f"prediction error {np.min(err):.3e} at order {i}; "
                "autocovariance is not positive definite"
            )
    return taps, (float(err) if q.ndim == 1 else err)


def dd_feedback(z_t, fbf, tail, points, real_metric):
    """Sequential decision-directed feedback over one block or a batch.

    z_t is the feed-forward output, fbf the feedback taps b_t(1..L),
    tail the L initialization symbols for positions M-L..M-1 (consumed
    only by the wrapped indices at the start of the pass), points the
    constellation, sliced by nearest_index with real_metric. Leading axes
    of z_t, fbf and tail are a batch of rows, all advanced one position
    per step; each row equals the 1-d call on that row bit for bit.

    Returns the decided indices into points, shaped like z_t, in the
    narrowest unsigned dtype that holds len(points) - 1.
    """
    z_t, fbf, tail = np.asarray(z_t), np.asarray(fbf), np.asarray(tail)
    *rows, m = z_t.shape
    n_taps = fbf.shape[-1]
    # past[..., l:l + L] holds the decisions for positions l-L..l-1, the
    # wrapped ones taken from tail, so b_t pairs with past[..., l + L - t]
    past = np.empty((*rows, n_taps + m), np.complex128)
    past[..., :n_taps] = tail
    reversed_fbf = np.asarray(fbf[..., ::-1], np.complex128)
    products = np.empty((*rows, n_taps), np.complex128)
    # position-major, so that each step writes one contiguous row, in the
    # narrowest unsigned dtype that holds every index of the alphabet
    idx = np.empty((m, *rows), np.min_scalar_type(len(points) - 1))
    z_by_position = np.moveaxis(z_t, -1, 0)
    for l in range(m):
        np.multiply(reversed_fbf, past[..., l : l + n_taps], out=products)
        best = nearest_index(z_by_position[l] - np.add.reduce(products, axis=-1),
                             points, real_metric)
        idx[l] = best
        past[..., l + n_taps] = points[best]
    return np.moveaxis(idx, 0, -1)
