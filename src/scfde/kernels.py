"""The two sequential steps of the DFE, plus the nearest-point slicer.

The Levinson-Durbin recursion is order-recursive and the decision-directed
feedback pass feeds each decision into the next, so each keeps one Python
loop (over orders, over positions) and does the work of one iteration in
a few numpy calls.
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
    """
    taps = np.zeros(order, np.complex128)
    errs = np.zeros(order + 1, np.float64)
    err = autocov[0].real
    errs[0] = err
    for i in range(1, order + 1):
        past = taps[: i - 1]
        k = -(autocov[i] + np.dot(past, autocov[i - 1 : 0 : -1])) / err
        past += k * np.conj(past[::-1])
        taps[i - 1] = k
        err = err * (1.0 - abs(k) ** 2)
        errs[i] = err
        if err <= 0.0:
            return taps, errs, i
    return taps, errs, -1


def dd_feedback(z_t, fbf, tail, points, real_metric):
    """Sequential decision-directed feedback over one block.

    z_t is the feed-forward output, fbf the feedback taps b_t(1..L),
    tail the L initialization symbols for positions M-L..M-1 (consumed
    only by the wrapped indices at the start of the pass), points the
    constellation, sliced by nearest_index with real_metric.

    Returns (z_hat, decided_symbols, decided_indices).
    """
    m = z_t.shape[0]
    n_taps = fbf.shape[0]
    # past[l:l + L] holds the decisions for positions l-L..l-1, the
    # wrapped ones taken from tail, so b_t pairs with past[l + L - t]
    past = np.concatenate([tail, np.empty(m, np.complex128)])
    reversed_fbf = fbf[::-1]
    z_hat = np.empty(m, np.complex128)
    idx = np.empty(m, np.int64)
    for l in range(m):
        val = z_t[l] - np.dot(reversed_fbf, past[l : l + n_taps])
        best = nearest_index(val, points, real_metric)
        z_hat[l] = val
        idx[l] = best
        past[l + n_taps] = points[best]
    return z_hat, past[n_taps:], idx
