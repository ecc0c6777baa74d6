"""The two sequential steps of the DFE, plus the nearest-point slicer.

The Levinson-Durbin recursion is order-recursive and the decision-directed
feedback pass feeds each decision into the next, so each keeps one Python
loop (over orders, over positions) and does the work of one iteration in
a few numpy calls. Both take a leading batch axis and advance every row
of the batch in the same iteration, so the loop runs once per batch, not
once per block.

Levinson keeps the rows on the outer axis. Its dot products are
elementwise products summed over the last axis by np.add.reduce (np.sum
without its Python wrapper), which rounds each row the same way at any
batch size; einsum and matmul do not promise that.

The feedback pass puts the rows on the contiguous inner axis, since one
position is only L taps and one decision per row: it holds its decision
history as (L + M, rows) and its reversed taps as (L, rows), so a
position is five numpy calls, each over contiguous rows: a multiply, a
reduce and a subtraction give the estimates, then one slicing call and
one take write the decisions into the history. Its tap sum reduces the
(L, rows) products over their first axis, which numpy does in one fixed
order, b_L first, for two rows or more; an (L, 1) array it would sum
pairwise, so a lone row runs as two. The slicer decides per axis on grid
alphabets (see nearest_index). Where every float of a row (BPSK's real
part, 16-QAM's real and imaginary parts) is sliced on the same cuts, the
pass levels the float view of the estimates and takes the level values
straight into the history, and reads the indices from the history once
the loop is done; 8-PSK and a grid whose axes cut apart slice to indices
and take the points. A real alphabet under the real metric runs in
float64, as only real parts decide.

Each step is written once and returns only what its caller reads:
levinson_recursion checks its input and raises ConditioningError itself,
and dd_feedback returns the decided indices.
"""

import functools
import struct

import numpy as np


class ConditioningError(ArithmeticError):
    """Raised when a recursion loses positive definiteness."""


def backend():
    """Name of the kernel implementation; there is one, plain numpy."""
    return "numpy"


def nearest_index(z, points, real_metric):
    """Index of the nearest point for each sample of z, over the last axis.

    On a grid alphabet each axis takes its nearest level, as the rounded
    |x - level| compares, and ties go to the lower point index; on any
    other alphabet (8-PSK) the rule is argmin_i |z - points[i]| as numpy
    rounds it, ties going to the lower index. real_metric slices on the
    real part only, since only real noise moves a real-valued decision
    across its boundary.

    A grid's points are every pair of a set of real and a set of imaginary
    levels (16-QAM), or for a real metric the real levels alone (BPSK).
    An axis of two levels takes one comparison, an axis of more one
    comparison a cut, counting the cuts above each sample, and a
    level-to-index table gives the point. Where the grid is two points
    on one axis (BPSK), the comparison is the index, or its negation
    where the upper level is point 0, with no gather through the table;
    NaN, below every cut as >= puts it, takes the lower level's point
    either way. The cut between two neighbouring
    levels is the least double at which the rounded distance to the upper
    level is smaller, or equal where the upper level has the lower index,
    so an exact midpoint goes to the lower point index. Where the two
    rules differ is on a complex grid within a few ulps of a cut, where
    the argmin's rounded |z - p| can call two different distances equal:
    16-QAM samples at |z| ~ 1e-15 are sliced per axis, not as the argmin
    would.

    Returns integer indices shaped like z.
    """
    return _slicer(np.asarray(points, np.complex128).tobytes(),
                   bool(real_metric))(np.asarray(z))


def _rank(x: float) -> int:
    """Position of the double x in the order of doubles (0.0 and -0.0
    share 0), so that neighbouring doubles differ by one."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _unrank(rank: int) -> float:
    (x,) = struct.unpack("<d", struct.pack("<q", abs(rank)))
    return x if rank >= 0 else -x


def _cut(lo: float, hi: float, hi_wins_ties: bool) -> float:
    """The least double x at which |x - hi| < |x - lo|, or == where the
    upper level hi takes ties; the comparison is monotone in x."""
    def upper(x):
        d_lo, d_hi = abs(x - lo), abs(x - hi)
        return d_hi < d_lo or (hi_wins_ties and d_hi == d_lo)

    below, above = _rank(lo), _rank(hi)  # upper(lo) is False, upper(hi) True
    while above - below > 1:
        mid = (below + above) // 2
        if upper(_unrank(mid)):
            above = mid
        else:
            below = mid
    return _unrank(above)


def _grid_cuts(levels, table):
    """The cuts of each axis of a grid, or None where a pair of neighbouring
    levels is not ordered alike in every row: the upper level has the
    lower index in some rows and the higher in others, so no one cut
    keeps the lower-index tie rule."""
    cuts = []
    for k, lv in enumerate(levels):
        by_level = np.moveaxis(table, k, 0).reshape(len(lv), -1)
        upper_first = by_level[1:] < by_level[:-1]
        if (upper_first.any(axis=1) != upper_first.all(axis=1)).any():
            return None
        cuts.append(np.array([_cut(lo, hi, first) for lo, hi, first in zip(
            lv.tolist(), lv[1:].tolist(), upper_first[:, 0].tolist())]))
    return cuts


def _level(cuts, x):
    """Level of each x on an axis: how many of its cuts are <= x."""
    if len(cuts) == 1:  # a bool is a level once viewed as an integer
        return np.greater_equal(x, cuts[0]).view(np.uint8)
    return cuts.searchsorted(x, "right")


def _bulk_level(cuts, x):
    """_level of a whole array: the cuts less the count of cuts above x,
    one comparison a cut, which in bulk is far faster than searchsorted
    and, as it does, puts NaN above every cut."""
    if len(cuts) == 1:
        return _level(cuts, x)
    level = np.full(x.shape, len(cuts), np.min_scalar_type(len(cuts)))
    above = np.empty(x.shape, bool)
    for cut in cuts.tolist():
        level -= np.less(x, cut, out=above)
    return level


def _grid(points, real_metric: bool):
    """(parts, levels, cuts, table) of a grid alphabet, or None for any
    other alphabet."""
    n = len(points)
    # the axes on which the points take more than one level, their sorted
    # levels, and each point's level on each, found in plain Python: the
    # first np.unique call imports numpy.ma, a MiB of resident memory
    parts, levels, at = [], [], []
    for part in ("real",) if real_metric else ("real", "imag"):
        coord = getattr(points, part).tolist()
        lv = sorted(set(coord))
        if len(lv) > 1:
            parts.append(part)
            levels.append(np.array(lv))
            at.append([lv.index(x) for x in coord])
    # levels -> lowest index of a point there; a complex grid has a point
    # per pair of levels, a real metric maybe more
    table = np.full([len(lv) for lv in levels], n, np.min_scalar_type(n))
    for i in reversed(range(n)):
        table[tuple(level[i] for level in at)] = i
    if not parts or (table == n).any() or not (real_metric or table.size == n):
        return None
    cuts = _grid_cuts(levels, table)
    if cuts is None:
        return None
    # in dd_feedback's index dtype, now that every entry is a point
    return tuple(parts), levels, cuts, table.astype(np.min_scalar_type(n - 1))


@functools.lru_cache(maxsize=16)
def _slicer(points_bytes: bytes, real_metric: bool):
    """nearest_index for one alphabet and metric, as a function of z,
    which carries the alphabet's _grid as its attribute grid."""
    points = np.frombuffer(points_bytes, np.complex128)
    grid = _grid(points, real_metric)
    if grid is None:
        def argmin(z):
            d = (np.abs(z[..., None].real - points.real) if real_metric
                 else np.abs(z[..., None] - points))
            return d.argmin(axis=-1)  # first minimum = lowest index
        decide = argmin
    else:
        parts, _, cuts, table = grid
        if table.shape == (2,) and sorted(table.tolist()) == [0, 1]:
            # two points on one axis (BPSK): a point's index is the level
            # or, where the upper level has index 0, its negation, so one
            # comparison and no table gather decide
            ((cut,),), flip = cuts, bool(table[1] == 0)

            def two_level(z):
                level = np.greater_equal(getattr(z, parts[0]), cut)
                if flip:
                    level ^= True  # in place, or a new scalar for a 0-d z
                return level.view(table.dtype)
            decide = two_level
        else:
            def decide(z):
                return table[tuple(_bulk_level(cut, getattr(z, part))
                                   for part, cut in zip(parts, cuts))]
    decide.grid = grid
    return decide


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
    a q(0) that is not real and positive, and ConditioningError at the
    first order where a row's prediction error is <= 0 or NaN (not
    positive definite). The errors of all orders are kept and checked
    once the loop is done: a row that fails only fills its later orders
    with infinities and NaNs, and every other row is computed as alone.
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
            or not np.all(q0.real > 0):
        raise ValueError("autocov(0) must be real and positive")
    taps = np.zeros((*q.shape[:-1], order), np.complex128)
    errors = np.empty((order + 1, *q.shape[:-1]))  # order i's in errors[i]
    errors[0] = q0.real
    with np.errstate(all="ignore"):
        for i in range(1, order + 1):
            past = taps[..., : i - 1]
            k = -(q[..., i] + np.add.reduce(past * q[..., i - 1 : 0 : -1],
                                            axis=-1)) / errors[i - 1]
            past += k[..., None] * np.conj(past[..., ::-1])
            taps[..., i - 1] = k
            np.multiply(errors[i - 1], 1.0 - np.abs(k) ** 2, out=errors[i, ...])
    failed = ~(errors[1:] > 0.0)  # NaN fails too
    if failed.any():
        i = 1 + int(failed.reshape(order, -1).any(axis=1).argmax())
        raise ConditioningError(
            f"prediction error {np.min(errors[i]):.3e} at order {i}; "
            "autocovariance is not positive definite"
        )
    return taps, (float(errors[order]) if q.ndim == 1 else errors[order])


def dd_feedback(z_t, fbf, tail, points, real_metric):
    """Sequential decision-directed feedback over one block or a batch.

    z_t is the feed-forward output, fbf the feedback taps b_t(1..L),
    tail the L initialization symbols for positions M-L..M-1 (consumed
    only by the wrapped indices at the start of the pass), points the
    constellation, sliced by nearest_index with real_metric. Leading axes
    of z_t, fbf and tail are a batch of rows, all advanced one position
    per step; each row equals the 1-d call on that row bit for bit.

    Where points, metric and tail are real, only the real parts of z_t
    and the finite taps decide, so the pass runs on them in float64 and
    decides as the complex pass would, bit for bit.

    Returns the decided indices into points, shaped like z_t, in the
    narrowest unsigned dtype that holds len(points) - 1.
    """
    z_t, fbf, tail = np.asarray(z_t), np.asarray(fbf), np.asarray(tail)
    points = np.asarray(points, np.complex128)
    *rows, m = z_t.shape
    n_taps = fbf.shape[-1]
    z_t, fbf, tail = (a.reshape(-1, a.shape[-1]) for a in (z_t, fbf, tail))
    n = len(z_t)
    if n == 1:
        # numpy sums an (L, 1) array pairwise and an (L, R >= 2) one in
        # order, so a lone row runs twice to sum as it does in any batch
        z_t, fbf, tail = (np.concatenate([a, a]) for a in (z_t, fbf, tail))
    decide = _slicer(points.tobytes(), bool(real_metric))
    real = real_metric and not points.imag.any() and not tail.imag.any()
    if real:
        z_t, fbf, tail, points = z_t.real, fbf.real, tail.real, points.real
    # rows on the inner axis: past[l:l + L] holds the decisions for
    # positions l-L..l-1, the wrapped ones taken from tail, so b_t pairs
    # with past[l + L - t], and the taps are stored reversed to match;
    # past[l + L] holds z_t at position l until its decision overwrites it
    past = np.empty((n_taps + m, len(z_t)), points.dtype)
    past[:n_taps] = tail.T
    past[n_taps:] = z_t.T
    reversed_fbf = np.array(fbf[:, ::-1].T, points.dtype, order="C")
    products = np.empty_like(reversed_fbf)
    z_hat = np.empty(len(z_t), points.dtype)
    # a row of the history is one float, or a real and an imaginary part.
    # A grid that slices every float of a row on the same levels and cuts
    # decides on the float view of z_hat and writes the decided levels
    # into the history, whose indices it reads once the pass is done. Any
    # other alphabet, a grid whose axes cut apart included, decides
    # indices through the slicer and keeps them as it goes
    parts, levels, cuts, table = decide.grid or ((),) * 4
    if len(parts) == (1 if real else 2) and all(
            np.array_equal(a, levels[0]) and np.array_equal(c, cuts[0])
            for a, c in zip(levels, cuts)):
        step, values, view = functools.partial(_level, cuts[0]), levels[0], np.float64
        kept = None
    else:
        step, values, view = decide, points, past.dtype
        kept = np.empty((m, len(z_t)), np.min_scalar_type(len(points) - 1))
    z_view, decided = z_hat.view(view), past[n_taps:].view(view)
    for l in range(m):
        np.multiply(reversed_fbf, past[l : l + n_taps], out=products)
        np.add.reduce(products, axis=0, out=z_hat)
        np.subtract(past[l + n_taps], z_hat, out=z_hat)
        decision = step(z_view)
        # "clip" writes straight into out, which "raise" would buffer
        values.take(decision, out=decided[l], mode="clip")
        if kept is not None:
            kept[l] = decision
    if kept is None:
        # each decided float's level is the count of cuts at or below it:
        # over the whole history one comparison a cut is far faster than
        # searchsorted, and a decided level is never NaN
        level = np.zeros(decided.shape, np.min_scalar_type(table.size))
        for cut in cuts[0]:
            level += decided >= cut
        if len(parts) == 2:  # a point's real and imaginary levels
            level = level[:, 0::2] * len(levels[0]) + level[:, 1::2]
        kept = table.ravel()[level]  # take would copy level as intp
    return kept[:, :n].T.reshape(*rows, m)
