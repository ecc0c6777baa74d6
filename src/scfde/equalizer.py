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
the frequency-reversed observation, the combined spectrum
S(k) = ||h(k)||^2 + ||h(M-k)||^2 is even, the prediction problem turns
real-coefficient, and the equalized time block comes out real.

ZF synthesis runs on the noise-free spectrum (optionally guarded by
zf_epsilon); sigma_n_sq enters only the predicted-mse bookkeeping so the
filters themselves stay noise-independent.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, modem
from .numerics import cosine_transform, dft, idft, levinson_complex, levinson_real

__all__ = [
    "RECEIVER_NAMES",
    "ReceiverSpec",
    "EqualizerFilters",
    "SingularChannelError",
    "synthesize",
    "equalize_le",
    "equalize_dfe",
    "unbiased_post_snr",
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
    """Unregularized zero-forcing hit an exactly null subcarrier."""


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
        if self.zf_epsilon < 0:
            raise ValueError("zf_epsilon must be >= 0")

    @property
    def name(self) -> str:
        base = f"{self.criterion}-{self.structure}"
        return f"wl-{base}" if self.family == "widely-linear" else base

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
    """Synthesized filters plus their design-time error statistics.

    fff rows are per-subcarrier: (m, n_r) conventional, (m, 2 n_r) widely
    linear where columns [n_r:] at index k equal the conjugate of columns
    [:n_r] at index M-k. fbf_taps holds b_t(1..L), real for the widely
    linear family. predicted_mse is the design MSE at the slicer and
    bias_factor the signal gain there (MMSE filters are biased).
    """

    family: str
    criterion: str
    structure: str
    fff: np.ndarray
    fbf_taps: np.ndarray
    predicted_mse: float
    bias_factor: float
    sigma_x_sq: float
    m: int
    n_r: int


def _reversal_index(m: int) -> np.ndarray:
    return (m - np.arange(m)) % m


def _one_plus_b(taps, m) -> np.ndarray:
    poly = np.zeros(m, dtype=complex)
    poly[0] = 1.0
    if len(taps):
        poly[1 : len(taps) + 1] = taps
    return dft(poly)


def synthesize(spec: ReceiverSpec, ch, sigma_x_sq, sigma_n_sq) -> EqualizerFilters:
    """Filters of the receiver `spec` for one channel realization.

    MMSE receivers regularize by sigma_n^2/sigma_x^2: w(k) = h^H(k) /
    (||h(k)||^2 + sigma_n^2/sigma_x^2) conventional, w(k) = h*(k) /
    (S(k) + sigma_n^2/sigma_x^2) widely linear. ZF receivers invert the
    channel with spec.zf_epsilon as the only guard, and sigma_n_sq then
    only prices the residual-noise MSE. DFEs put an order-L
    prediction-error FBF behind that front end, real-tap for the widely
    linear family.
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
    gains = np.sum(np.abs(ch.freq_response) ** 2, axis=0)
    if widely_linear:
        rev = _reversal_index(ch.m)
        signal = gains + gains[rev]
    else:
        signal = gains
    denom = signal + reg
    if denom.min() <= 0:
        k = int(np.argmin(denom))
        raise SingularChannelError(
            f"subcarrier {k} has zero channel energy and zf_epsilon=0"
        )
    if spec.structure == "dfe":
        if widely_linear:
            taps, _ = levinson_real(cosine_transform(1.0 / denom)[: fbf_length + 1],
                                    fbf_length)
        else:
            taps, _ = levinson_complex(idft(1.0 / denom)[: fbf_length + 1],
                                       fbf_length)
        one_plus_b = _one_plus_b(taps, ch.m)
    else:
        taps = np.zeros(0, dtype=float if widely_linear else complex)
        one_plus_b = np.ones(ch.m, dtype=complex)
    first = one_plus_b[:, None] * np.conj(ch.freq_response.T) / denom[:, None]
    if widely_linear:
        fff = np.hstack([first, np.conj(first[rev])])
    else:
        fff = first
    mse = sigma_n_sq * float(np.mean(np.abs(one_plus_b) ** 2 / denom))
    bias = float(np.real(np.mean(one_plus_b * signal / denom)))
    return EqualizerFilters(
        family=spec.family,
        criterion=spec.criterion,
        structure=spec.structure,
        fff=fff,
        fbf_taps=taps,
        predicted_mse=mse,
        bias_factor=bias,
        sigma_x_sq=sigma_x_sq,
        m=ch.m,
        n_r=ch.n_r,
    )


def _filtered_spectrum(filters: EqualizerFilters, received_freq) -> np.ndarray:
    y = np.asarray(received_freq, dtype=complex)
    if y.shape != (filters.n_r, filters.m):
        raise ValueError(
            f"received block must have shape {(filters.n_r, filters.m)}, got {y.shape}"
        )
    n_r = filters.n_r
    z = np.einsum("kr,rk->k", filters.fff[:, :n_r], y)
    if filters.family == "widely-linear":
        rev = _reversal_index(filters.m)
        z = z + np.einsum("kr,rk->k", filters.fff[:, n_r:], np.conj(y[:, rev]))
    return z


def equalize_le(filters: EqualizerFilters, received_freq) -> np.ndarray:
    """Apply the feed-forward filter and return the time-domain block."""
    return idft(_filtered_spectrum(filters, received_freq))


def equalize_dfe(filters: EqualizerFilters, received_freq, spec: ReceiverSpec,
                 genie_symbols=None, c=None):
    """Feed-forward filtering plus circular feedback subtraction.

    Genie mode subtracts the true past symbols; decision-directed mode
    runs the sequential slicer, with the wrapped tail (positions
    M-L..M-1) initialized from hard decisions of the companion linear
    equalizer, recovered in place by dividing the feed-forward spectrum
    by (1 + b(k)). Returns (z_hat_t, decided_symbols).
    """
    if filters.structure != "dfe":
        raise ValueError("equalize_dfe needs filters synthesized for a dfe")
    if c is None:
        raise ValueError("equalize_dfe needs the constellation")
    if filters.family == "widely-linear" and not c.is_real:
        raise ValueError("widely linear receivers require a real constellation")
    z_f = _filtered_spectrum(filters, received_freq)
    z_t = idft(z_f)
    taps = np.asarray(filters.fbf_taps, dtype=complex)
    one_plus_b = _one_plus_b(taps, filters.m)
    if spec.feedback_mode == "ideal_genie":
        if genie_symbols is None:
            raise ValueError("genie feedback needs the transmitted symbols")
        x = np.asarray(genie_symbols, dtype=complex)
        isi = idft((one_plus_b - 1.0) * dft(x))
        z_hat = z_t - isi
        decided, _ = modem.demod_hard(z_hat, c)
    else:
        init, _ = modem.demod_hard(idft(z_f / one_plus_b), c)
        tail = init[filters.m - len(taps):]
        z_hat, decided, _ = kernels.dd_feedback(z_t, taps, tail, c.points,
                                                c.is_real)
    return z_hat, decided


def unbiased_post_snr(filters: EqualizerFilters, criterion=None) -> float:
    """Design post-SNR at the slicer, with the MMSE bias term removed."""
    crit = filters.criterion if criterion is None else criterion
    if filters.predicted_mse <= 0:
        raise ValueError("predicted_mse must be positive (was noise accounted for?)")
    ratio = filters.sigma_x_sq / filters.predicted_mse
    return ratio - 1.0 if crit == "mmse" else ratio
