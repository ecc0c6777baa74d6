"""Modulation alphabets, bit mapping, block precoding, hard decisions.

Gray labeling is pinned here because uncoded BER at a given SNR depends
on it: BPSK maps bit 0 to +1; 8-PSK places points at angles 2pi m/8 with
the reflected-binary code around the ring; 16-QAM uses the per-axis
{00,01,11,10} -> {-3,-1,+1,+3} rule, scaled by 1/sqrt(10) so every
alphabet has unit average energy (sigma_x^2 = 1, SNR = 1/sigma_n^2).
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import nearest_index
from .numerics import dft


@dataclass(frozen=True)
class Constellation:
    name: str
    points: np.ndarray
    bit_labels: np.ndarray  # shape (n_points, bits_per_symbol), entries 0/1
    bits_per_symbol: int
    is_real: bool
    symbol_variance: float = 1.0
    # label integer (MSB first) -> index into points
    _label_to_index: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        lut = np.full(2**self.bits_per_symbol, -1, dtype=np.int64)
        lut[self.bit_labels @ weights] = np.arange(len(self.points))
        object.__setattr__(self, "_label_to_index", lut)


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


@dataclass(frozen=True)
class SymbolBlock:
    """A time-domain symbol block together with its precoded spectrum."""

    time_symbols: np.ndarray
    precoded: np.ndarray


def map_bits(bits, c: Constellation) -> np.ndarray:
    """Map 0/1 sequences onto constellation symbols, MSB first per symbol.

    The last axis holds one block's bits; leading axes are a batch.
    """
    b = np.atleast_1d(np.asarray(bits, dtype=np.int64))
    if b.shape[-1] % c.bits_per_symbol:
        raise ValueError(
            f"bit count {b.shape[-1]} not divisible by bits_per_symbol "
            f"{c.bits_per_symbol}"
        )
    groups = b.reshape(*b.shape[:-1], -1, c.bits_per_symbol)
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    return c.points[c._label_to_index[groups @ weights]]


def precode(x_t) -> SymbolBlock:
    """Spread symbol blocks (last axis) with the forward transform
    (single-carrier precoding)."""
    x_t = np.asarray(x_t, dtype=complex)
    return SymbolBlock(time_symbols=x_t, precoded=dft(x_t))


def demod_hard(z_t, c: Constellation):
    """Nearest-point decisions by kernels.nearest_index: ties resolve to
    the lower point index, real alphabets slice on the real part.

    Returns (symbols, bits); the bits of each block (last axis of z_t) are
    concatenated in symbol order.
    """
    idx = nearest_index(z_t, c.points, c.is_real)
    return c.points[idx], index_bits(idx, c)


def index_bits(indices, c: Constellation) -> np.ndarray:
    """The bits of the points at `indices`, concatenated over the last axis."""
    idx = np.asarray(indices)
    return c.bit_labels[idx].reshape(*idx.shape[:-1], -1)


def count_bit_errors(tx_bits, rx_bits):
    """Bit errors over the last axis: an int for one block, one count per
    block for a batch."""
    a = np.asarray(tx_bits)
    b = np.asarray(rx_bits)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    errors = np.count_nonzero(a != b, axis=-1)
    return int(errors) if a.ndim == 1 else errors
