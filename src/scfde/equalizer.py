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

ZF synthesis runs on the noise-free spectrum (optionally guarded by
zf_epsilon); sigma_n_sq enters only the predicted-mse bookkeeping so the
filters themselves stay noise-independent.

A linear equalizer is the DFE with no feedback taps, 1 + b = 1, so one
pass, equalize, serves all eight receivers: it filters the received
spectrum once, returns the ideal-feedback output (exactly the LE output
when b = 0) and slices with the receiver's feedback mode.

A batched channel realization (a leading row axis, see channel) gives
batched filters, and equalize then takes one received block per row.
Every step is elementwise or a transform over the last axis, so a row's
outputs do not depend on the batch it ran in.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import dft, idft, levinson_complex

__all__ = [
    "RECEIVER_NAMES",
    "ReceiverSpec",
    "EqualizerFilters",
    "SingularChannelError",
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


class SingularChannelError(ArithmeticError):
    """Unregularized zero-forcing hit an exactly null subcarrier.

    rows holds the indices of the singular rows; an unbatched synthesis is
    row 0.
    """

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class ReceiverSpec:
    family: str  # conventional | widely-linear
    criterion: str  # zf | mmse
    structure: str  # le | dfe
    fbf_length: int = 20
    feedback_mode: str = "ideal_genie"
    zf_epsilon: float = 1e-12

    def __post_init__(self):
        if self.family not in ("conventional", "widely-linear"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.criterion not in ("zf", "mmse"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.structure not in ("le", "dfe"):
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.structure == "dfe" and self.fbf_length < 1:
            raise ValueError("dfe needs fbf_length >= 1")
        if self.feedback_mode not in ("ideal_genie", "decision_directed"):
            raise ValueError(f"unknown feedback mode {self.feedback_mode!r}")
        if not 0 <= self.zf_epsilon < math.inf:
            raise ValueError(
                f"zf_epsilon must be finite and >= 0, got {self.zf_epsilon!r}"
            )

    @property
    def name(self) -> str:
        base = f"{self.criterion}-{self.structure}"
        # interned: every result row stores it, so all rows share one string
        return sys.intern(f"wl-{base}" if self.family == "widely-linear" else base)

    @classmethod
    def from_name(cls, name: str, fbf_length: int = 20,
                  feedback_mode: str = "genie",
                  zf_epsilon: float = 1e-12) -> "ReceiverSpec":
        key = name.strip().lower()
        if key.startswith("conv-"):
            key = key[5:]
        if key not in RECEIVER_NAMES:
            raise ValueError(f"unknown receiver {name!r}; choose from {RECEIVER_NAMES}")
        mode = _FEEDBACK_MODES.get(feedback_mode.strip().lower())
        if mode is None:
            raise ValueError(
                f"unknown feedback mode {feedback_mode!r}; use genie or decision"
            )
        family = "widely-linear" if key.startswith("wl-") else "conventional"
        criterion, structure = key.removeprefix("wl-").rsplit("-", 1)
        return cls(family, criterion, structure, fbf_length, mode, zf_epsilon)

    def check_fbf_length(self, m: int):
        """Reject a DFE whose feedback filter does not fit an M-point block.

        The limit is L <= M-1 for conventional receivers and L <= M/2 for
        widely linear ones, whose prediction problem lives on the even
        half of the spectrum. Linear equalizers have no feedback filter.
        """
        if self.structure != "dfe":
            return
        limit, what = ((m // 2, "M/2") if self.family == "widely-linear"
                       else (m - 1, "M-1"))
        if not 1 <= self.fbf_length <= limit:
            raise ValueError(
                f"fbf_length must satisfy 1 <= L <= {what}, got {self.fbf_length}"
            )


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


def _one_plus_b(taps, m) -> np.ndarray:
    taps = np.asarray(taps)
    poly = np.zeros((*taps.shape[:-1], m), dtype=complex)
    poly[..., 0] = 1.0
    poly[..., 1 : taps.shape[-1] + 1] = taps
    return dft(poly)


def _prediction_taps(denom, order, widely_linear):
    """Order-L prediction-error taps for the residual spectrum 1/denom.

    A function of its own so that the full inverse transform, of which
    the recursion reads L+1 lags, is freed on return.
    """
    autocov = idft(1.0 / denom)[..., : order + 1]
    if widely_linear:  # even spectrum: real autocovariance, real taps
        return levinson_complex(autocov.real, order)[0].real
    return levinson_complex(autocov, order)[0]


def synthesize(spec: ReceiverSpec, ch, sigma_x_sq, sigma_n_sq) -> EqualizerFilters:
    """Filters of the receiver `spec` for one channel realization.

    MMSE receivers regularize by sigma_n^2/sigma_x^2: w(k) = h^H(k) /
    (||h(k)||^2 + sigma_n^2/sigma_x^2) conventional, w(k) = h*(k) /
    (S(k) + sigma_n^2/sigma_x^2) widely linear. ZF receivers invert the
    channel with spec.zf_epsilon as the only guard, and sigma_n_sq then
    only prices the residual-noise MSE. DFEs put an order-L
    prediction-error FBF behind that front end, real-tap for the widely
    linear family. A batched ch gives filters with one row per channel;
    a singular row raises SingularChannelError naming the rows.
    """
    if spec.criterion == "mmse":
        if sigma_n_sq <= 0:
            raise ValueError("MMSE synthesis needs sigma_n_sq > 0; use the ZF variant")
        reg = sigma_n_sq / sigma_x_sq
    else:
        reg = spec.zf_epsilon
    spec.check_fbf_length(ch.m)
    widely_linear = spec.family == "widely-linear"
    fbf_length = spec.fbf_length
    gains = np.sum(np.abs(ch.freq_response) ** 2, axis=-2)
    signal = gains + gains[..., -np.arange(ch.m)] if widely_linear else gains  # g(M-k)
    denom = signal + reg
    singular = denom.min(axis=-1) <= 0
    if np.any(singular):
        rows = np.flatnonzero(singular)
        raise SingularChannelError(
            "a subcarrier has zero channel energy and zf_epsilon=0 in rows "
            f"{rows.tolist()}", rows)
    if spec.structure == "dfe":
        taps = _prediction_taps(denom, fbf_length, widely_linear)
        one_plus_b = _one_plus_b(taps, ch.m)
    else:
        taps = np.zeros((*denom.shape[:-1], 0),
                        dtype=float if widely_linear else complex)
        one_plus_b = np.ones(denom.shape, dtype=complex)
    # in place where the operand order allows, since a batch's arrays are
    # large; the order decides the rounding
    fff = np.conj(np.swapaxes(ch.freq_response, -1, -2))
    np.multiply(one_plus_b[..., None], fff, out=fff)
    fff /= denom[..., None]
    error_gain = np.abs(one_plus_b) ** 2
    error_gain /= denom
    return EqualizerFilters(
        fff=fff,
        fbf_taps=taps,
        one_plus_b=one_plus_b,
        predicted_mse=sigma_n_sq * np.mean(error_gain, axis=-1),
    )


def _filtered_spectrum(filters: EqualizerFilters, received_freq) -> np.ndarray:
    y = np.asarray(received_freq, dtype=complex)
    *rows, m, n_r = filters.fff.shape
    if y.shape != (*rows, n_r, m):
        raise ValueError(f"received block must have shape {(*rows, n_r, m)}, "
                         f"got {y.shape}")
    return np.sum(filters.fff * np.swapaxes(y, -1, -2), axis=-1)


def _time_block(widely_linear: bool, spectrum) -> np.ndarray:
    """Time-domain block of a filtered spectrum: idft, and for the widely
    linear family 2 Re(idft), which adds the conjugate mirrored look."""
    z = idft(spectrum)
    return 2.0 * z.real if widely_linear else z


def equalize(spec: ReceiverSpec, filters: EqualizerFilters, received_freq, c,
             precoded):
    """Equalize received blocks with the filters spec synthesized.

    precoded is the spectrum X(k) of the transmitted symbols. The
    feed-forward spectrum z_f is formed once. The returned z is the
    ideal-feedback output idft(z_f - b(k) X(k)): the ISI that (1 + b) put
    into z_f is removed with the true symbols, and for a linear equalizer
    b = 0, so z is its output. The returned indices (into c.points) are
    the receiver's decisions: for a decision-directed DFE those of the
    sequential feedback pass on idft(z_f), its wrapped tail (positions
    M-L..M-1) taken from hard decisions of the companion linear equalizer
    z_f / (1 + b); otherwise the nearest points to z.

    Returns (z, indices).
    """
    widely_linear = spec.family == "widely-linear"
    if widely_linear and not c.is_real:
        raise ValueError("widely linear receivers require a real constellation")
    z_f = _filtered_spectrum(filters, received_freq)
    isi = (filters.one_plus_b - 1.0) * precoded
    if widely_linear:
        # 2 Re(idft) adds the mirrored conjugate of the Hermitian ISI
        # spectrum, i.e. counts it twice
        isi *= 0.5
    z = _time_block(widely_linear, z_f - isi)
    if spec.structure == "le" or spec.feedback_mode == "ideal_genie":
        return z, kernels.nearest_index(z, c.points, c.is_real)
    tail = c.points[kernels.nearest_index(
        _linear_tail(widely_linear, filters, z_f), c.points, c.is_real)]
    _, _, indices = kernels.dd_feedback(_time_block(widely_linear, z_f),
                                        filters.fbf_taps, tail, c.points,
                                        c.is_real)
    return z, indices


def _linear_tail(widely_linear, filters: EqualizerFilters, z_f) -> np.ndarray:
    """Last L outputs of the companion linear equalizer, as a copy, so that
    the rest of its block is freed on return."""
    start = z_f.shape[-1] - filters.fbf_taps.shape[-1]
    return _time_block(widely_linear, z_f / filters.one_plus_b)[..., start:].copy()
