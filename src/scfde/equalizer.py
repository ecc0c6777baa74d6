"""Frequency-domain equalizers: {conventional, widely linear} x {ZF, MMSE} x {LE, DFE}.

All eight receivers share one construction. A per-subcarrier feed-forward
filter collapses the antenna observations onto the transmitted spectrum
with a regularized matched-filter division, and the DFE variants add a
time-domain feedback filter obtained by Levinson-Durbin linear prediction
of the linear equalizer's residual error spectrum: the order-L
prediction-error filter (1 + b) whitens that residual, and subtracting
past symbols through b removes the ISI that (1 + b) re-introduces.

The widely linear variants additionally exploit that a real alphabet
makes x(M-k) = x*(k): each subcarrier gets a second, conjugated look at
the frequency-reversed observation. Their filter is the conventional one
with the combined spectrum S(k) = ||h(k)||^2 + ||h(M-k)||^2 in the
denominator, and the second look adds conj(z(M-k)) to each output z(k);
since idft(z(k) + conj(z(M-k))) = 2 Re(idft(z)), a widely linear block is
the conventional construction on S plus a real part. S is even, so the
prediction problem turns real-coefficient and the feedback taps are real.

ZF synthesis inverts the noise-free spectrum plus the fixed floor
ZF_FLOOR; sigma_n_sq enters only the predicted-mse bookkeeping so the
filters themselves stay noise-independent.

A linear equalizer is the DFE with no feedback taps, 1 + b = 1, so one
pass, equalize, serves all eight receivers: it filters the received
spectrum once, returns the ideal-feedback output (exactly the LE output
when b = 0) and slices with the receiver's feedback mode. The one
sequential step, a decision-directed DFE's feedback pass, is returned
as its inputs (a FeedbackPass), so that a caller can run the rows of
many blocks and receivers through kernels.dd_feedback in one call.

The channel is its (n_r, M) frequency response (see channel), and M is
read from its shape. A batch of responses (a leading row axis) gives
batched filters, and equalize then takes one received block per row.
Every step is elementwise or a transform over the last axis, so a row's
outputs do not depend on the batch it ran in.
"""

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .numerics import dft, idft, integer, slot

__all__ = [
    "RECEIVER_NAMES",
    "ReceiverSpec",
    "EqualizerFilters",
    "FeedbackPass",
    "ZF_FLOOR",
    "synthesize",
    "equalize",
]

RECEIVER_NAMES = (
    "zf-le",
    "mmse-le",
    "zf-dfe",
    "mmse-dfe",
    "wl-zf-le",
    "wl-mmse-le",
    "wl-zf-dfe",
    "wl-mmse-dfe",
)

_FEEDBACK_MODES = {
    "genie": "ideal_genie",
    "ideal_genie": "ideal_genie",
    "decision": "decision_directed",
    "decision_directed": "decision_directed",
}


# added to the channel energy a ZF receiver inverts: an exact spectral null
# (probability 0 under Rayleigh taps) gives finite filters, not a 1/0
ZF_FLOOR = 1e-12


@dataclass(frozen=True)
class ReceiverSpec:
    """A receiver: its name from RECEIVER_NAMES, which family, criterion and
    structure are read from; its feedback length, an integer (by
    numerics.integer) >= 1 for a DFE; and its feedback mode."""

    name: str
    fbf_length: int = 20
    feedback_mode: str = "ideal_genie"

    def __post_init__(self):
        if self.name not in RECEIVER_NAMES:
            raise ValueError(f"unknown receiver {self.name!r}; "
                             f"choose from {RECEIVER_NAMES}")
        if self.feedback_mode not in tuple(_FEEDBACK_MODES):
            raise ValueError(f"unknown feedback mode {self.feedback_mode!r}; "
                             "use genie or decision")
        # interned: every result row stores it, so all rows share one string
        object.__setattr__(self, "name", sys.intern(self.name))
        object.__setattr__(self, "feedback_mode", _FEEDBACK_MODES[self.feedback_mode])
        object.__setattr__(self, "fbf_length", integer(
            "fbf_length", self.fbf_length, 1 if self.structure == "dfe" else None))

    @property
    def family(self) -> str:  # conventional | widely-linear
        return "widely-linear" if self.name.startswith("wl-") else "conventional"

    @property
    def criterion(self) -> str:  # zf | mmse
        return self.name.removeprefix("wl-").split("-")[0]

    @property
    def structure(self) -> str:  # le | dfe
        return self.name.rsplit("-", 1)[1]

    @classmethod
    def from_name(cls, name: str, fbf_length: int = 20,
                  feedback_mode: str = "genie") -> "ReceiverSpec":
        """The spec of a name and a feedback mode read case-blind, the name
        with an optional conv- prefix."""
        return cls(name.strip().lower().removeprefix("conv-"), fbf_length,
                   feedback_mode.strip().lower())

    def check_fbf_length(self, m: int):
        """Reject a DFE whose feedback filter does not fit an M-point block.

        The limit is L <= M-1 for conventional receivers and L <= M/2 for
        widely linear ones, whose prediction problem lives on the even
        half of the spectrum (L >= 1 holds for every DFE spec). Linear
        equalizers have no feedback filter.
        """
        limit, what = ((m // 2, "M/2") if self.family == "widely-linear"
                       else (m - 1, "M-1"))
        if self.structure == "dfe" and self.fbf_length > limit:
            raise ValueError(
                f"fbf_length must satisfy 1 <= L <= {what}, got {self.fbf_length}")


@dataclass(frozen=True)
class EqualizerFilters:
    """Synthesized filters plus their design-time error statistic.

    fff is (m, n_r), one row per subcarrier, for both families: a
    conventional receiver outputs idft of the filtered spectrum, a widely
    linear one 2 Re(idft(...)). fbf_taps holds b_t(1..L), real for the widely
    linear family and empty for a linear equalizer, and one_plus_b the
    spectrum of the prediction-error filter 1 + b (all ones for a linear
    equalizer). predicted_mse is the design MSE at the slicer. Filters of a
    batched channel carry a leading row axis on each array and one
    predicted_mse per row. The receiver they belong to is the spec that
    synthesized them.
    """

    fff: np.ndarray
    fbf_taps: np.ndarray
    one_plus_b: np.ndarray
    predicted_mse: float


class FeedbackPass(NamedTuple):
    """The inputs of a decision-directed DFE's sequential feedback pass:
    its decisions are kernels.dd_feedback(z_t, taps, tail, c.points,
    c.is_real). The rows of several passes with as many taps share one
    call, held in one array over the first axis, and give the same
    indices row for row, real widely linear rows among complex ones too."""

    z_t: np.ndarray
    taps: np.ndarray
    tail: np.ndarray


def _one_plus_b(taps, m, out=None) -> np.ndarray:
    """Spectrum of the prediction-error filter 1 + b, transformed in place
    over its taps, zero-padded to m, in out where given."""
    taps = np.asarray(taps)
    poly = np.empty((*taps.shape[:-1], m), complex) if out is None else out
    poly[...] = 0.0
    poly[..., 0] = 1.0
    poly[..., 1 : taps.shape[-1] + 1] = taps
    return dft(poly, poly)


def _prediction_taps(inverse, order, widely_linear, out=None):
    """Order-L prediction-error taps for the residual spectrum inverse =
    1/denom, and their prediction error, mean(|1 + b|^2 inverse).

    The spectrum is copied into a complex array, out where given, and its
    inverse transform, of which the recursion reads L+1 lags, runs in
    place: the bytes of idft(inverse), with no temporary of its cast.
    """
    recip = np.empty(inverse.shape, complex) if out is None else out
    recip[...] = inverse
    autocov = idft(recip, recip)[..., : order + 1]
    if widely_linear:  # even spectrum: real autocovariance, real taps
        taps, error = kernels.levinson_recursion(autocov.real, order)
        return taps.real, error
    return kernels.levinson_recursion(autocov, order)


def synthesize(spec: ReceiverSpec, freq_response, sigma_n_sq,
               work=None) -> EqualizerFilters:
    """Filters of the receiver `spec` for the channel freq_response, (n_r, M).

    Alphabets have unit energy (sigma_x^2 = 1), so the input SNR is
    1/sigma_n^2 and MMSE receivers regularize by sigma_n^2: w(k) = h^H(k) /
    (||h(k)||^2 + sigma_n^2) conventional, w(k) = h*(k) / (S(k) + sigma_n^2)
    widely linear. ZF receivers regularize by ZF_FLOOR instead, and
    sigma_n_sq then only prices the residual-noise MSE. DFEs put an order-L
    prediction-error FBF behind that front end, real-tap for the widely
    linear family. The design MSE is sigma_n^2 times mean(1/denom) for an
    LE and times Levinson's prediction error, mean(|1 + b|^2 / denom), for
    a DFE. A batch of responses gives filters with one row per channel,
    and sigma_n_sq may then give one noise variance per row. A variance
    is finite, and positive for an MMSE receiver; ZF synthesis takes 0.

    Where a pass workspace is given (see numerics), the filters and the
    steps' arrays are written into its buffers: "fff", which may be the
    memory of freq_response, overwritten once the energies are read,
    "one_plus_b", a DFE's "autocov", which may share its memory, and the
    scratch "energy", "gains", "mirror", "denom" and "inverse".
    """
    sigma_n_sq = np.asarray(sigma_n_sq, dtype=float)
    if not ((sigma_n_sq >= 0) & (sigma_n_sq < np.inf)).all():  # NaN fails too
        raise ValueError(f"sigma_n_sq must be finite and >= 0, got {sigma_n_sq}")
    if spec.criterion == "mmse":
        if np.any(sigma_n_sq == 0):
            raise ValueError("MMSE synthesis needs sigma_n_sq > 0; use the ZF variant")
        reg = sigma_n_sq[..., None]
    else:
        reg = ZF_FLOOR
    m = freq_response.shape[-1]
    spec.check_fbf_length(m)
    widely_linear = spec.family == "widely-linear"
    fbf_length = spec.fbf_length
    # each step writes over its own input where nothing reads it again
    energy = np.abs(freq_response, out=slot(work, "energy"))
    gains = np.sum(np.square(energy, out=energy), axis=-2, out=slot(work, "gains"))
    if widely_linear:  # S(k) = g(k) + g(M-k)
        gains = np.add(gains, np.take(gains, -np.arange(m), axis=-1,
                                      out=slot(work, "mirror"), mode="wrap"),
                       out=slot(work, "denom"))
    denom = np.add(gains, reg, out=slot(work, "denom"))
    inverse = np.divide(1.0, denom, out=slot(work, "inverse"))
    if spec.structure == "dfe":
        taps, error = _prediction_taps(inverse, fbf_length, widely_linear,
                                       slot(work, "autocov"))
        one_plus_b = _one_plus_b(taps, m, slot(work, "one_plus_b"))
    else:
        taps = np.zeros((*denom.shape[:-1], 0),
                        dtype=float if widely_linear else complex)
        one_plus_b = (np.empty(denom.shape, complex) if work is None
                      else work["one_plus_b"])
        one_plus_b[...] = 1.0
        error = np.mean(inverse, axis=-1)
    # in place where the operand order allows; the order decides the
    # rounding (numpy divides by a real as it multiplies by its reciprocal)
    fff = np.conjugate(np.swapaxes(freq_response, -1, -2), out=slot(work, "fff"))
    np.multiply(one_plus_b[..., None], fff, out=fff)
    fff *= inverse[..., None]
    return EqualizerFilters(
        fff=fff,
        fbf_taps=taps,
        one_plus_b=one_plus_b,
        predicted_mse=sigma_n_sq * error,
    )


def _filtered_spectrum(filters: EqualizerFilters, received_freq,
                       work=None) -> np.ndarray:
    y = np.asarray(received_freq, dtype=complex)
    *rows, m, n_r = filters.fff.shape
    if y.shape != (*rows, n_r, m):
        raise ValueError(f"received block must have shape {(*rows, n_r, m)}, "
                         f"got {y.shape}")
    product = np.multiply(filters.fff, np.swapaxes(y, -1, -2),
                          out=slot(work, "product"))
    return np.sum(product, axis=-1, out=slot(work, "z_f"))


def _time_block(widely_linear: bool, spectrum, out=None, real_out=None):
    """Time-domain block of a filtered spectrum: idft, and for the widely
    linear family 2 Re(idft), which adds the conjugate mirrored look;
    into out and real_out where given."""
    z = idft(spectrum, out)
    return np.multiply(2.0, z.real, out=real_out) if widely_linear else z


def equalize(spec: ReceiverSpec, filters: EqualizerFilters, received_freq, c,
             precoded, work=None):
    """Equalize received blocks with the filters spec synthesized.

    precoded is the spectrum X(k) of the transmitted symbols. The
    feed-forward spectrum z_f is formed once. The returned z is the
    ideal-feedback output idft(z_f - b(k) X(k)): the ISI that (1 + b) put
    into z_f is removed with the true symbols, and for a linear equalizer
    b = 0, so z is its output. The receiver's decisions are the nearest
    points to z, except for a decision-directed DFE: its decisions come
    from the sequential feedback pass on idft(z_f), its wrapped tail
    (positions M-L..M-1) taken from hard decisions of the companion
    linear equalizer z_f / (1 + b), and that pass is returned as its
    inputs for the caller to run.

    Where a pass workspace is given (see numerics), the arrays are
    written into its buffers "product" (which may be the memory of
    received_freq), "z_f", "isi", "z", "z_real", "quotient", "linear",
    "linear_real", "z_t" and "z_t_real"; z and the FeedbackPass's z_t are
    among them. "linear" may be the memory of "quotient" and "z_t" that
    of "z_f": an inverse transform runs in place where its input is not
    read again.

    Returns (z, decided): decided is the decisions as indices into
    c.points, or a FeedbackPass for a decision-directed DFE.
    """
    widely_linear = spec.family == "widely-linear"
    if widely_linear and not c.is_real:
        raise ValueError("widely linear receivers require a real constellation")
    z_f = _filtered_spectrum(filters, received_freq, work)
    isi = np.subtract(filters.one_plus_b, 1.0, out=slot(work, "isi"))
    np.multiply(isi, precoded, out=isi)
    if widely_linear:
        # 2 Re(idft) adds the mirrored conjugate of the Hermitian ISI
        # spectrum, i.e. counts it twice
        isi *= 0.5
    # z_f - isi overwrites isi, which nothing reads after it
    z = _time_block(widely_linear, np.subtract(z_f, isi, out=isi),
                    slot(work, "z"), slot(work, "z_real"))
    if spec.structure == "le" or spec.feedback_mode == "ideal_genie":
        return z, kernels.nearest_index(z, c.points, c.is_real)
    tail = c.points[kernels.nearest_index(
        _linear_tail(widely_linear, filters, z_f, work), c.points, c.is_real)]
    return z, FeedbackPass(_time_block(widely_linear, z_f, slot(work, "z_t"),
                                       slot(work, "z_t_real")),
                           filters.fbf_taps, tail)


def _linear_tail(widely_linear, filters: EqualizerFilters, z_f,
                 work=None) -> np.ndarray:
    """Last L outputs of the companion linear equalizer, as a copy, as its
    block is scratch: in a pass workspace, later steps write over it."""
    start = z_f.shape[-1] - filters.fbf_taps.shape[-1]
    quotient = np.divide(z_f, filters.one_plus_b, out=slot(work, "quotient"))
    return _time_block(widely_linear, quotient, slot(work, "linear"),
                       slot(work, "linear_real"))[..., start:].copy()
