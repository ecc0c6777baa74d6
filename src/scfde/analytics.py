"""Limiting post-SNR formulas and the chi-square statistics behind them.

Averaged over the fading ensemble (and for block lengths and channel
orders large enough for per-block spectral averages to self-average),
the zero-forcing receivers reach SNRs that no longer depend on the
channel: the LE variants through E[1/chi-square] and the DFE variants
through exp(E[ln chi-square]), with the widely linear family seeing
twice the degrees of freedom. The MMSE limits take the same averages
of 1 + r S, for the channel energy S, each as one integral of its
moment generating function.

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
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equalizer import ReceiverSpec
from .modem import constellation, count_bit_errors
from .numerics import integer, real

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
]

EULER_GAMMA = float(np.euler_gamma)

# the gap table's receivers, whose gap does not depend on r, in Table order
LIMIT_RECEIVERS = ("conv-zf-le", "conv-zf-dfe", "wl-zf-le", "wl-zf-dfe")

# the most antennas a sweep admits (its most samples a block, at a block
# of one sample); the limits and the MFB refuse more, and the chi-square
# statistics more than twice as many degrees (a widely linear limit's)
MAX_ANTENNAS = 1 << 20


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
    """Channel-independent limiting post-SNR of a receiver at input SNR r.

    receiver is a name ReceiverSpec.from_name reads. Conventional ZF
    formulas double for real alphabets (the real noise component carries
    half the power), conventional MMSE ones refuse them (the real part of
    their error is not circular); the widely linear ones are real-alphabet
    quantities already. n_r must be an integer in [1, MAX_ANTENNAS] and r
    positive and finite; a limit past the largest double is inf.
    """
    n_r, r = integer("n_r", n_r, 1, MAX_ANTENNAS), real("r", r)
    if not 0 < r < np.inf:
        raise ValueError(f"r must be positive and finite, got {r!r}")
    spec = ReceiverSpec.from_name(receiver)
    wl = spec.family == "widely-linear"
    if spec.criterion == "mmse":
        if real_modulation and not wl:
            raise ValueError(f"{receiver!r} has no real-alphabet limit: the real "
                             "part of its error is not circular")
        return _mmse_limit(spec.structure, wl, n_r, r)
    # S ~ Gamma(n, 1): ZF-DFE is r exp(E[ln S]), ZF-LE r / E[1/S] = (n - 1) r,
    # which for WL at n_r = 1 holds as a mean of unbounded variance
    n, double = (2 * n_r, 1.0) if wl else (n_r, 2.0 if real_modulation else 1.0)
    if spec.structure == "dfe":
        return double * r * float(np.exp(expected_log_chisq(n)))
    if n == 1:
        raise NoFiniteLimit("conventional ZF-LE has no finite limit for N_r=1 "
                            "(residual noise 1/||h(k)||^2 has unbounded mean)")
    return double * (n - 1) * r


@functools.lru_cache(maxsize=256)  # a sweep asks once a row
def _mmse_limit(structure: str, wl: bool, n_r: int, r: float) -> float:
    """exp(E[ln(1 + r S)]) - 1 for an MMSE-DFE, its unbiased SNR (Cioffi,
    Dudevoir, Eyuboglu & Forney 1995), and 1/E[1/(1 + r S)] - 1 for an
    MMSE-LE, with S ~ Gamma(n_r, 1), or Gamma(2 n_r, 1) widely linear."""
    log_mean, signal, noise = _energy_moments(1.0, float(wl), n_r, r)
    if structure == "le":
        return signal / noise  # a float quotient past the doubles is inf
    with np.errstate(over="ignore"):
        return float(np.expm1(log_mean))


def _energy_moments(a: float, b: float, n: int, r: float):
    """(E[ln(1 + r S)], E[r S/(1 + r S)], E[1/(1 + r S)]) at r > 0 for an
    energy S with E[e^{-s S}] = M(s) = (1 + a s)^-n (1 + b s)^-n.

    By Frullani, they are the integrals over t > 0 of e^{-t} (1 - M(r t))
    / t, e^{-t} (1 - M(r t)) and e^{-t} M(r t): in x = ln t, a trapezoid
    rule of step 1/4 from x = 6.62, where e^{-t} underflows, down to t =
    e^{-37} / max(1, r n (a + b)), below which the first two integrands
    are under 1e-16 of their integrals; 1e-12 relative in all.
    """
    span = 43.62 + max(0.0, math.log(r) + math.log(n * (a + b)))
    t = np.exp(6.62 - 0.25 * np.arange(math.ceil(4 * span) + 1))
    with np.errstate(over="ignore"):  # an r t past the doubles has M = 0
        log_m = -n * sum(np.log1p(c * r * t) for c in (a, b) if c)
    weight = 0.25 * np.exp(-t)
    miss = -np.expm1(log_m)  # 1 - M(r t), with no digits lost at a small r
    return (float(weight @ miss), float((weight * t) @ miss),
            float((weight * t) @ np.exp(log_m)))


def gap_to_mfb_db(receiver: str, n_r: int) -> float:
    """10 log10(MFB / limit_snr) of a ZF receiver for a real alphabet,
    where the MFB is 2 n_r r; the gap does not depend on r. An MMSE
    receiver's does, and is refused."""
    n_r = integer("n_r", n_r, 1, MAX_ANTENNAS)
    if ReceiverSpec.from_name(receiver).criterion == "mmse":
        raise ValueError(f"{receiver!r} has a gap to the MFB that depends on "
                         "the SNR; see post-snr for its limit")
    return float(10.0 * np.log10(2 * n_r / limit_snr(receiver, n_r, 1.0, True)))


@dataclass(frozen=True)
class GapRow:
    receiver: str
    n_r: int
    gap_db: Optional[float]  # None where no finite limit exists


def gap_table(n_r_values=(1, 2), receivers=LIMIT_RECEIVERS) -> tuple:
    """Gap to the MFB of each receiver at each antenna count, as GapRows.

    A cell without a finite limit has gap_db None; any other ValueError
    (an MMSE receiver, a bad n_r) propagates.
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
