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
"""

import numpy as np


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
    """Solve sum_m q(l-m) b(m) = -q(l), l = 1..order, for Hermitian Toeplitz q.

    Returns (taps, err_history, fail_step). err_history[i] is the
    prediction error after order i; fail_step is the first order whose
    error fell to <= 0 (input not positive definite), or -1 on success.
    A failed row keeps its taps and error from that order on.

    Leading axes of autocov are a batch of independent rows; taps,
    err_history and fail_step then carry the same leading axes. A row is
    computed with the same operations at any batch size, so it equals the
    1-d call on that row bit for bit.
    """
    q = np.asarray(autocov)
    rows = q.shape[:-1]
    taps = np.zeros((*rows, order), np.complex128)
    errs = np.zeros((*rows, order + 1), np.float64)
    fail = np.full(rows, -1)
    err = q[..., 0].real.copy()
    errs[..., 0] = err
    for i in range(1, order + 1):
        past = taps[..., : i - 1]
        failed = fail >= 0
        # a failed row divides by 1 and takes k = 0, so it stays as it was
        k = np.where(failed, 0.0, -(q[..., i] + np.add.reduce(
            past * q[..., i - 1 : 0 : -1], axis=-1)) / np.where(failed, 1.0, err))
        past += k[..., None] * np.conj(past[..., ::-1])
        taps[..., i - 1] = k
        err = err * (1.0 - np.abs(k) ** 2)
        errs[..., i] = err
        fail[(err <= 0.0) & ~failed] = i
    return taps, errs, fail


def dd_feedback(z_t, fbf, tail, points, real_metric):
    """Sequential decision-directed feedback over one block or a batch.

    z_t is the feed-forward output, fbf the feedback taps b_t(1..L),
    tail the L initialization symbols for positions M-L..M-1 (consumed
    only by the wrapped indices at the start of the pass), points the
    constellation, sliced by nearest_index with real_metric. Leading axes
    of z_t, fbf and tail are a batch of rows, all advanced one position
    per step; each row equals the 1-d call on that row bit for bit.

    Returns (z_hat, decided_symbols, decided_indices).
    """
    z_t, fbf, tail = np.asarray(z_t), np.asarray(fbf), np.asarray(tail)
    *rows, m = z_t.shape
    n_taps = fbf.shape[-1]
    # past[..., l:l + L] holds the decisions for positions l-L..l-1, the
    # wrapped ones taken from tail, so b_t pairs with past[..., l + L - t]
    past = np.concatenate([tail, np.empty((*rows, m), np.complex128)], axis=-1)
    reversed_fbf = np.asarray(fbf[..., ::-1], np.complex128)
    products = np.empty((*rows, n_taps), np.complex128)
    # position-major, so that each step writes one contiguous row
    z_hat = np.empty((m, *rows), np.complex128)
    idx = np.empty((m, *rows), np.int64)
    z_by_position = np.moveaxis(z_t, -1, 0)
    for l in range(m):
        np.multiply(reversed_fbf, past[..., l : l + n_taps], out=products)
        val = z_by_position[l] - np.add.reduce(products, axis=-1)
        best = nearest_index(val, points, real_metric)
        z_hat[l] = val
        idx[l] = best
        past[..., l + n_taps] = points[best]
    return np.moveaxis(z_hat, 0, -1), past[..., n_taps:], np.moveaxis(idx, 0, -1)
