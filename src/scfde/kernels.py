"""Sequential hot loops with a numba fast path and a plain-Python fallback.

The two loops that cannot be vectorized are the Levinson-Durbin recursion
(order-recursive) and the decision-directed feedback pass of the DFE
(each decision feeds the next). Both are compiled with numba when numba
imports; otherwise the identical Python source runs uncompiled (numba's
own NUMBA_DISABLE_JIT=1 does the same where numba is installed).
fastmath stays off so the two paths execute the same IEEE operations in
the same order.
"""

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # numba is optional; the plain-Python source runs
    HAVE_NUMBA = False


def backend():
    """Name of the active kernel backend, "numba" or "numpy"."""
    return "numba" if HAVE_NUMBA else "numpy"


def _levinson_recursion(autocov, order):
    """Solve sum_m q(l-m) b(m) = -q(l), l = 1..order, for Hermitian Toeplitz q.

    Returns (taps, err_history, fail_step). err_history[i] is the
    prediction error after order i; fail_step is the first order whose
    error fell to <= 0 (input not positive definite), or -1 on success.
    """
    taps = np.zeros(order, np.complex128)
    scratch = np.zeros(order, np.complex128)
    errs = np.zeros(order + 1, np.float64)
    err = autocov[0].real
    errs[0] = err
    fail = -1
    for i in range(1, order + 1):
        acc = autocov[i]
        for j in range(1, i):
            acc += taps[j - 1] * autocov[i - j]
        k = -acc / err
        for j in range(i - 1):
            scratch[j] = taps[j] + k * np.conj(taps[i - 2 - j])
        for j in range(i - 1):
            taps[j] = scratch[j]
        taps[i - 1] = k
        err = err * (1.0 - abs(k) ** 2)
        errs[i] = err
        if err <= 0.0:
            fail = i
            break
    return taps, errs, fail


def _dd_feedback(z_t, fbf, tail, points, real_metric):
    """Sequential decision-directed feedback over one block.

    z_t is the feed-forward output, fbf the feedback taps b_t(1..L),
    tail the L initialization symbols for positions M-L..M-1 (consumed
    only by the wrapped indices at the start of the pass), points the
    constellation. Nearest-point ties keep the lowest index; real_metric
    restricts the decision metric to the real part.

    Returns (z_hat, decided_symbols, decided_indices).
    """
    m = z_t.shape[0]
    n_taps = fbf.shape[0]
    n_points = points.shape[0]
    z_hat = np.empty(m, np.complex128)
    dec = np.empty(m, np.complex128)
    idx = np.empty(m, np.int64)
    for i in range(n_taps):
        dec[m - n_taps + i] = tail[i]
    for l in range(m):
        acc = 0.0 + 0.0j
        for t in range(1, n_taps + 1):
            j = l - t
            if j < 0:
                j += m
            acc += fbf[t - 1] * dec[j]
        val = z_t[l] - acc
        z_hat[l] = val
        best = 0
        best_d = np.inf
        for p in range(n_points):
            dr = val.real - points[p].real
            if real_metric:
                d = dr * dr
            else:
                di = val.imag - points[p].imag
                d = dr * dr + di * di
            if d < best_d:
                best_d = d
                best = p
        dec[l] = points[best]
        idx[l] = best
    return z_hat, dec, idx


if HAVE_NUMBA:
    levinson_recursion = numba.njit(cache=True)(_levinson_recursion)
    dd_feedback = numba.njit(cache=True)(_dd_feedback)
else:
    levinson_recursion = _levinson_recursion
    dd_feedback = _dd_feedback
