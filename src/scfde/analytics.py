"""Limiting post-SNR formulas and the chi-square statistics behind them.

Averaged over the fading ensemble (and for block lengths and channel
orders large enough for per-block spectral averages to self-average),
the zero-forcing receivers reach SNRs that no longer depend on the
channel: the LE variants through E[1/chi-square] and the DFE variants
through exp(E[ln chi-square]), with the widely linear family seeing
twice the degrees of freedom. This module implements those ZF closed
forms; the MMSE-DFE limit is a Monte Carlo estimate of the same
log-average here.

The matched filter bound's BER is closed form for every alphabet
(Craig's form and the Gamma energy's moment generating function).

All SNRs here are linear ratios of the input SNR r = sigma_x^2 /
sigma_n^2; gaps are in dB against the matched filter bound N_r r
(doubled for real alphabets, where only the real noise component
matters). Counts and ratios pass numerics.integer and numerics.real, as
a sweep config's do: an antenna count of 2.0 or "2" is 2, 2.5 or True a
ValueError.
"""

import contextlib
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equalizer import ReceiverSpec
from .modem import constellation, count_bit_errors
from .numerics import RngStream, integer, real

__all__ = [
    "EULER_GAMMA",
    "LIMIT_RECEIVERS",
    "MAX_ANTENNAS",
    "GapRow",
    "NoFiniteLimit",
    "harmonic",
    "expected_log_chisq",
    "inverse_chisq_mean",
    "inverse_chisq_mean_var",
    "limit_snr",
    "gap_to_mfb_db",
    "gap_table",
    "mfb_ber",
    "mmse_dfe_post_snr_from_gains",
    "mmse_dfe_limit_snr_mc",
]

EULER_GAMMA = float(np.euler_gamma)

# the four receivers with closed-form limits, in Table order
LIMIT_RECEIVERS = ("conv-zf-le", "conv-zf-dfe", "wl-zf-le", "wl-zf-dfe")

# the most antennas a sweep admits (its most samples a block, at a block
# of one sample); the limits and the MFB refuse more, and the chi-square
# statistics more than twice as many degrees (a widely linear limit's)
MAX_ANTENNAS = 1 << 20


def _input_snr(r) -> float:
    r = real("r", r)
    if not 0 < r < np.inf:
        raise ValueError(f"r must be positive and finite, got {r!r}")
    return r


def _snrs(r) -> np.ndarray:
    """r as a float array of linear SNRs >= 0 (inf too): ValueError for a
    NaN, a negative, a bool or anything that is not a number, as
    numerics.real reads one."""
    snrs = None
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if np.asarray(r).dtype != bool:
            snrs = np.asarray(r, dtype=float)
    if snrs is None or not (snrs >= 0).all():
        raise ValueError(f"r must be a number or an array of numbers >= 0, "
                         f"got {r!r}")
    return snrs


def harmonic(n: int) -> float:
    """H_n = sum_{m=1}^{n} 1/m, with H_0 = 0, for n <= 2 MAX_ANTENNAS."""
    n = integer("n", n, 0, 2 * MAX_ANTENNAS)
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def expected_log_chisq(n_r: int) -> float:
    """E[ln X] for X a sum of n_r unit-mean exponentials: -gamma + H_{n_r-1},
    for n_r <= 2 MAX_ANTENNAS."""
    return -EULER_GAMMA + harmonic(integer("n_r", n_r, 1, 2 * MAX_ANTENNAS) - 1)


def inverse_chisq_mean(n_r: int) -> float:
    """E[1/S] for S a sum of 2 n_r unit-mean exponentials: 1/(2 n_r - 1)."""
    return 1.0 / (2 * integer("n_r", n_r, 1, 2 * MAX_ANTENNAS) - 1)


def inverse_chisq_mean_var(n_r: int):
    """(mean, variance) of 1/S; the variance exists only for n_r > 1.

    Var[1/S] = 1/(2 (2 n_r - 1)^2 (n_r - 1)), e.g. 1/18 at n_r = 2.
    """
    n_r = integer("n_r", n_r, 1, 2 * MAX_ANTENNAS)
    if n_r < 2:
        raise ValueError("variance of 1/S is unbounded for n_r = 1")
    return inverse_chisq_mean(n_r), 1.0 / (2.0 * (2 * n_r - 1) ** 2 * (n_r - 1))


class NoFiniteLimit(ValueError):
    """The receiver has no finite limiting post-SNR at this n_r."""


def limit_snr(receiver: str, n_r: int, r: float = 1.0,
              real_modulation: bool = False) -> float:
    """Channel-independent limiting post-SNR of a ZF receiver at input SNR r.

    receiver is a name ReceiverSpec.from_name reads. Conventional formulas
    double for real alphabets (the real noise component carries half the
    power); the widely linear ones are real-alphabet quantities already.
    n_r must be an integer in [1, MAX_ANTENNAS] and r positive and finite;
    a limit past the largest double is inf.
    """
    n_r, r = integer("n_r", n_r, 1, MAX_ANTENNAS), _input_snr(r)
    spec = ReceiverSpec.from_name(receiver)
    if spec.criterion == "mmse":
        raise ValueError(f"{receiver!r} has no closed form; see mmse_dfe_limit_snr_mc")
    double = 2.0 if real_modulation else 1.0
    if spec.name == "zf-le":
        if n_r == 1:
            raise NoFiniteLimit(
                "conventional ZF-LE has no finite limit for N_r=1 "
                "(residual noise 1/||h(k)||^2 has unbounded mean)"
            )
        return double * (n_r - 1) * r
    if spec.name == "zf-dfe":
        return double * r * float(np.exp(expected_log_chisq(n_r)))
    if spec.name == "wl-zf-le":
        # mean formula; for n_r = 1 the variance is unbounded but the
        # mean (2 n_r - 1) r still holds
        return (2 * n_r - 1) * r
    return r * float(np.exp(expected_log_chisq(2 * n_r)))


def gap_to_mfb_db(receiver: str, n_r: int) -> float:
    """10 log10(MFB / limit_snr) for a real alphabet, where the MFB is
    2 n_r r; the gap does not depend on r."""
    n_r = integer("n_r", n_r, 1, MAX_ANTENNAS)
    return float(10.0 * np.log10(2 * n_r / limit_snr(receiver, n_r, 1.0, True)))


@dataclass(frozen=True)
class GapRow:
    receiver: str
    n_r: int
    gap_db: Optional[float]  # None where no finite limit exists


def gap_table(n_r_values=(1, 2), receivers=LIMIT_RECEIVERS) -> tuple:
    """Gap to the MFB of each receiver at each antenna count, as GapRows.

    A cell without a finite limit has gap_db None; any other ValueError
    (a receiver without a closed form, a bad n_r) propagates.
    """
    rows = []
    for name in receivers:
        for n_r in (integer("n_r", n, 1, MAX_ANTENNAS) for n in n_r_values):
            try:
                gap = gap_to_mfb_db(name, n_r)
            except NoFiniteLimit:
                gap = None
            rows.append(GapRow(name, n_r, gap))
    return tuple(rows)


def mmse_dfe_post_snr_from_gains(gains, r: float) -> float:
    """e^{mean ln(1 + r g)} - 1 over the supplied channel energy samples;
    r is positive and finite."""
    r = _input_snr(r)
    g = np.asarray(gains, dtype=float)
    if g.size == 0 or np.any(g < 0):
        raise ValueError("gains must be a non-empty array of non-negative energies")
    if r * float(g.max()) == np.inf:
        raise ValueError(f"r x gains overflows a double at r={r!r}")
    return float(np.expm1(np.mean(np.log1p(r * g))))


def mmse_dfe_limit_snr_mc(n_r: int, r: float, samples: int,
                          stream: RngStream = RngStream(0, 0)) -> float:
    """Monte Carlo limiting post-SNR of the unbiased MMSE-DFE.

    ||h(k)||^2 is a sum of n_r unit-mean exponentials, i.e. Gamma(n_r, 1);
    the limit interpolates n_r * r at small r and the ZF-DFE constant
    r e^{-gamma + H_{n_r-1}} at large r. samples is at least 10^4, for a
    stable log-average, and at most 10^7, some hundreds of MB of arrays.
    """
    n_r, r = integer("n_r", n_r, 1, MAX_ANTENNAS), _input_snr(r)
    samples = integer("samples", samples, 10**4, 10**7)
    gains = stream.generator().gamma(float(n_r), 1.0, samples)
    return mmse_dfe_post_snr_from_gains(gains, r)


@functools.cache
def _gauss_legendre():
    """(nodes, weights) of the 256-point Gauss-Legendre rule on [-1, 1],
    nodes ascending; reaches the exact BPSK sum to ~1e-13.

    Newton's method on theta finds the roots x = cos(theta) of P_256 in
    (0, 1), each P_n(x) from the three-term recurrence, and mirrors them.
    Tricomi's start is within 2e-4 of a root, so four quadratic steps
    converge; the fifth evaluation gives the weights 2 / (sin(theta)
    P_n'(x))^2, which need no 1 - x^2 near the ends. numpy only: no
    numpy.polynomial import and no LAPACK call.
    """
    n = 256
    theta = np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5)
    for _ in range(5):
        x = np.cos(theta)
        below, p = np.ones_like(x), x  # P_{k-1}, P_k
        for k in range(1, n):
            below, p = p, ((2 * k + 1) * x * p - k * below) / (k + 1)
        # sin(theta) P_n'(x) = -d P_n(cos theta) / d theta
        slope = n * (below - x * p) / np.sin(theta)
        theta = theta + p / slope
    weights = 2.0 / slope**2
    return np.concatenate([-x, x[::-1]]), np.concatenate([weights, weights[::-1]])


def _craig_terms(name: str):
    """(w, c, theta): Gray BER(g) = sum_j w_j / pi * int_0^theta_j
    exp(-c_j g / sin^2 t) dt at symbol SNR g.

    16-QAM: Cho & Yoon's per-axis sum of Q((2k+1) sqrt(g/5)). M-PSK (BPSK
    is M = 2): Pawula's form, one term per sector boundary (2j-1) pi/M
    with weight (D_j - D_{j-1}) / bits, D_k the mean Hamming distance of
    the modem labels k points apart around the ring.
    """
    c = constellation(name)
    if c.name == "16qam":
        return (np.array([0.75, 0.5, -0.25]), np.array([0.1, 0.9, 2.5]),
                np.full(3, np.pi / 2))
    m = len(c.points)
    ring = np.argsort(np.angle(c.points) % (2 * np.pi))  # labels by angle
    hamming = [count_bit_errors(ring, np.roll(ring, -k)) / m
               for k in range(m // 2 + 1)]
    psi = (2 * np.arange(1, m // 2 + 1) - 1) * np.pi / m
    return np.diff(hamming) / c.bits_per_symbol, np.sin(psi) ** 2, np.pi - psi


def mfb_ber(constellation_name: str, n_r: int, r, taps: Optional[int] = None):
    """Gray BER of the matched filter bound at linear input SNR r.

    The matched filter collects the channel energy E = sum |h|^2: the
    alphabet's AWGN BER at r E. taps=v averages it over the Gamma(n_r v,
    1/v) energy of n_r antennas of v CN(0, 1/v) taps, so exp(-c r E /
    sin^2 t) becomes (1 + c r / (v sin^2 t))^(-n_r v); taps=None is the
    v -> inf limit, AWGN at n_r r. n_r is at most MAX_ANTENNAS and taps at
    most 2^53, up to which a double counts them exactly; r is one or an
    array of numbers >= 0, and one so large that r E overflows has BER 0.
    Returns an array shaped like r.
    """
    n_r = integer("n_r", n_r, 1, MAX_ANTENNAS)
    if taps is not None:
        taps = integer("taps", taps, 1, 1 << 53)
    snrs = _snrs(r)
    w, c, theta_max = _craig_terms(constellation_name)
    nodes, weights = _gauss_legendre()
    half = theta_max[:, None] / 2  # maps the rule onto [0, theta_j]
    with np.errstate(over="ignore"):  # an r past the doubles has BER 0
        x = snrs[..., None, None] * (c[:, None] / np.sin(half * (1.0 + nodes)) ** 2)
        integrand = (np.exp(-n_r * x) if taps is None
                     else np.exp(-n_r * taps * np.log1p(x / taps)))
    return np.sum(w[:, None] * half * weights * integrand, axis=(-2, -1)) / np.pi
