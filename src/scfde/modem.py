"""Modulation alphabets, bit mapping, block precoding, bit error counting.

A block is its time-domain symbols, map_bits' output; precode returns
their spectrum X(k), which is what the channel and the equalizers read.

A symbol's label is its bits read MSB first, as one uint8. map_bits
packs drawn bits into labels and reads each label's point from the
constellation's label-to-point table (label_points); a decided point
index reads its label from the point-to-label table (labels), so bit
errors are the popcount of tx_label XOR rx_label and no per-bit array is
built.

Gray labeling is pinned here because uncoded BER at a given SNR depends
on it: BPSK maps bit 0 to +1; 8-PSK places points at angles 2pi m/8 with
the reflected-binary code around the ring; 16-QAM uses the per-axis
{00,01,11,10} -> {-3,-1,+1,+3} rule, scaled by 1/sqrt(10) so every
alphabet has unit average energy (sigma_x^2 = 1, SNR = 1/sigma_n^2).
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import dft


@dataclass(frozen=True)
class Constellation:
    name: str
    points: np.ndarray
    bit_labels: np.ndarray  # shape (n_points, bits_per_symbol), entries 0/1
    bits_per_symbol: int
    is_real: bool
    # point index -> its label, and label -> its point; every label of
    # bits_per_symbol bits names one point
    labels: np.ndarray = field(init=False, repr=False)
    label_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        labels = (self.bit_labels @ weights).astype(np.uint8)
        label_points = np.empty(2**self.bits_per_symbol, complex)
        label_points[labels] = self.points
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_points", label_points)


def _bpsk():
    return Constellation(
        name="bpsk",
        points=np.array([1.0 + 0j, -1.0 + 0j]),
        bit_labels=np.array([[0], [1]], dtype=np.uint8),
        bits_per_symbol=1,
        is_real=True,
    )


def _psk8():
    m = np.arange(8)
    gray = m ^ (m >> 1)
    labels = ((gray[:, None] >> np.array([2, 1, 0])) & 1).astype(np.uint8)
    return Constellation(
        name="8psk",
        points=np.exp(2j * np.pi * m / 8),
        bit_labels=labels,
        bits_per_symbol=3,
        is_real=False,
    )


def _qam16():
    level = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}
    points = np.empty(16, dtype=complex)
    labels = np.empty((16, 4), dtype=np.uint8)
    for val in range(16):
        b = [(val >> s) & 1 for s in (3, 2, 1, 0)]
        labels[val] = b
        points[val] = (level[(b[0], b[1])] + 1j * level[(b[2], b[3])]) / np.sqrt(10)
    return Constellation(
        name="16qam",
        points=points,
        bit_labels=labels,
        bits_per_symbol=4,
        is_real=False,
    )


_TABLES = {"bpsk": _bpsk(), "8psk": _psk8(), "16qam": _qam16()}

CONSTELLATION_NAMES = tuple(_TABLES)


def constellation(name: str) -> Constellation:
    try:
        return _TABLES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown constellation {name!r}; choose from {CONSTELLATION_NAMES}"
        ) from None


def map_bits(bits, c: Constellation):
    """Map 0/1 sequences onto constellation symbols, MSB first per symbol.

    The last axis holds one block's bits; leading axes are a batch.
    Returns (labels, symbols): each symbol's uint8 label and its point.
    """
    b = np.atleast_1d(np.asarray(bits, dtype=np.uint8))
    if b.shape[-1] % c.bits_per_symbol:
        raise ValueError(
            f"bit count {b.shape[-1]} not divisible by bits_per_symbol "
            f"{c.bits_per_symbol}"
        )
    groups = b.reshape(*b.shape[:-1], -1, c.bits_per_symbol)
    labels = groups[..., 0].copy()
    for k in range(1, c.bits_per_symbol):
        labels <<= 1
        labels |= groups[..., k]
    return labels, c.label_points.take(labels)


def precode(x_t) -> np.ndarray:
    """Spectrum of symbol blocks (last axis): the forward transform that
    spreads each symbol over every subcarrier (single-carrier precoding)."""
    return dft(x_t)


def count_bit_errors(tx_labels, rx_labels):
    """Bit errors between two arrays of uint8 symbol labels, over the last
    axis: the popcount of tx XOR rx. An int for one block, one count per
    block for a batch."""
    a = np.asarray(tx_labels)
    b = np.asarray(rx_labels)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # popcount of each byte, counted in bit pairs, then nibbles, then the
    # byte, all in uint8 (np.bitwise_count needs numpy 2)
    x = (a ^ b).astype(np.uint8)
    x -= (x >> 1) & 0x55
    x = (x & 0x33) + ((x >> 2) & 0x33)
    errors = ((x + (x >> 4)) & 0x0F).sum(axis=-1)
    return int(errors) if a.ndim == 1 else errors
