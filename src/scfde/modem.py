"""Modulation alphabets, bit mapping, block precoding, bit error counting.

A block is its time-domain symbols, map_bits' output; precode returns
their spectrum X(k), which is what the channel and the equalizers read.

A symbol's label is its bits read MSB first, as one uint8, and an
alphabet stores its points in label order, so a point's index is its
label. map_bits packs drawn bits into labels and takes each label's
point; a decided point index is the decided label, so bit errors are the
popcount of tx_label XOR rx_label and no per-bit array is built.

Gray labeling is pinned here because uncoded BER at a given SNR depends
on it: BPSK maps bit 0 to +1; 8-PSK gives the point at angle 2pi m/8 the
label m ^ (m >> 1), the reflected-binary code around the ring; 16-QAM
uses the per-axis {00,01,11,10} -> {-3,-1,+1,+3} rule, scaled by
1/sqrt(10) so every alphabet has unit average energy (sigma_x^2 = 1,
SNR = 1/sigma_n^2).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import dft, slot


@dataclass(frozen=True)
class Constellation:
    """An alphabet's points in label order: points[label] is the point
    whose bits, read MSB first, are label."""

    name: str
    points: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return len(self.points).bit_length() - 1

    @property
    def is_real(self) -> bool:
        return not self.points.imag.any()


def _bpsk():
    return Constellation("bpsk", np.array([1.0 + 0j, -1.0 + 0j]))


def _psk8():
    # the point at angle 2pi m/8 has the Gray label m ^ (m >> 1)
    m = np.arange(8)
    points = np.empty(8, complex)
    points[m ^ (m >> 1)] = np.exp(2j * np.pi * m / 8)
    return Constellation("8psk", points)


def _qam16():
    # the level of each axis, indexed by its two bits: 00, 01, 10, 11
    level = np.array([-3.0, -1.0, 3.0, 1.0])
    points = (level[:, None] + 1j * level).ravel() / np.sqrt(10)
    return Constellation("16qam", points)


_TABLES = {"bpsk": _bpsk(), "8psk": _psk8(), "16qam": _qam16()}

CONSTELLATION_NAMES = tuple(_TABLES)


def constellation(name: str) -> Constellation:
    try:
        return _TABLES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown constellation {name!r}; choose from {CONSTELLATION_NAMES}"
        ) from None


def map_bits(bits, c: Constellation, work=None):
    """Map 0/1 sequences onto constellation symbols, MSB first per symbol.

    The last axis holds one block's bits; leading axes are a batch.
    Returns (labels, symbols): each symbol's uint8 label and its point,
    written into work's "labels" and "x_t" where a workspace is given.
    """
    b = np.atleast_1d(np.asarray(bits, dtype=np.uint8))
    if b.shape[-1] % c.bits_per_symbol:
        raise ValueError(
            f"bit count {b.shape[-1]} not divisible by bits_per_symbol "
            f"{c.bits_per_symbol}"
        )
    groups = b.reshape(*b.shape[:-1], -1, c.bits_per_symbol)
    labels = np.positive(groups[..., 0], out=slot(work, "labels"))  # a copy
    for k in range(1, c.bits_per_symbol):
        labels <<= 1
        labels |= groups[..., k]
    # "clip" writes straight into out, which "raise" would buffer; labels
    # are always in range
    return labels, c.points.take(labels, out=slot(work, "x_t"), mode="clip")


def precode(x_t, out=None) -> np.ndarray:
    """Spectrum of symbol blocks (last axis): the forward transform that
    spreads each symbol over every subcarrier (single-carrier precoding),
    into out where given."""
    return dft(x_t, out)


def count_bit_errors(tx_labels, rx_labels):
    """Bit errors between two arrays of symbol labels (or decided point
    indices, which are labels), over the last axis: the popcount of tx XOR
    rx. An int for one block, one count per block for a batch."""
    a = np.asarray(tx_labels)
    b = np.asarray(rx_labels)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    errors = np.bitwise_count(a ^ b).sum(axis=-1)
    return int(errors) if a.ndim == 1 else errors
