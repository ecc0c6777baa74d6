"""Constellations, Gray labeling, precoding, hard decisions."""

import numpy as np
import pytest

from scfde.kernels import nearest_index
from scfde.modem import (
    CONSTELLATION_NAMES,
    constellation,
    count_bit_errors,
    map_bits,
    precode,
)

RNG = np.random.default_rng(99)


def test_bpsk_sign_convention():
    c = constellation("bpsk")
    np.testing.assert_allclose(map_bits([0], c)[1], [1.0 + 0j])
    np.testing.assert_allclose(map_bits([1], c)[1], [-1.0 + 0j])


def test_16qam_all_zero_bits_hit_corner():
    c = constellation("16qam")
    (s,) = map_bits([0, 0, 0, 0], c)[1]
    corner = 3 / np.sqrt(10)
    assert abs(abs(s.real) - corner) < 1e-12
    assert abs(abs(s.imag) - corner) < 1e-12


@pytest.mark.parametrize("name,bps", [("bpsk", 1), ("8psk", 3), ("16qam", 4)])
def test_unit_energy_and_label_bijection(name, bps):
    c = constellation(name)
    assert c.bits_per_symbol == bps
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)
    # one point for every label, and no two alike
    assert len(c.points) == 2**bps
    assert len(set(c.points.tolist())) == 2**bps


def test_is_real_flag():
    assert constellation("bpsk").is_real
    assert not constellation("8psk").is_real
    assert not constellation("16qam").is_real


@pytest.mark.parametrize("name", ["bpsk", "8psk", "16qam"])
def test_map_demod_round_trip(name):
    c = constellation(name)
    bits = RNG.integers(0, 2, 3 * 4 * c.bits_per_symbol)
    labels, symbols = map_bits(bits, c)
    assert labels.dtype == np.uint8
    # a label is its symbol's bits read MSB first
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    np.testing.assert_array_equal(labels, bits.reshape(-1, c.bits_per_symbol)
                                  @ weights)
    idx = nearest_index(symbols, c.points, c.is_real)
    np.testing.assert_allclose(c.points[idx], symbols, atol=1e-12)
    # a decided index is the decided label
    np.testing.assert_array_equal(idx, labels)


@pytest.mark.parametrize("name", CONSTELLATION_NAMES)
def test_a_point_index_is_its_label(name):
    # map_bits of each label's bits, MSB first, is points[label]
    c = constellation(name)
    labels = np.arange(len(c.points))
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    bits = (labels[:, None] >> shifts & 1).ravel()
    got_labels, symbols = map_bits(bits, c)
    np.testing.assert_array_equal(got_labels, labels)
    assert symbols.tobytes() == c.points.tobytes()


def test_batch_maps_row_by_row():
    c = constellation("16qam")
    bits = RNG.integers(0, 2, (3, 8 * c.bits_per_symbol))
    labels, symbols = map_bits(bits, c)
    assert labels.shape == symbols.shape == (3, 8)
    for row in range(3):
        want_labels, want_symbols = map_bits(bits[row], c)
        np.testing.assert_array_equal(labels[row], want_labels)
        np.testing.assert_array_equal(symbols[row], want_symbols)


def test_symbol_variance_statistical():
    c = constellation("16qam")
    bits = RNG.integers(0, 2, 4 * 10**6)
    _, s = map_bits(bits, c)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=3e-3)
    assert abs(s.mean()) < 3e-3


def test_gray_adjacency_8psk():
    # ring neighbors differ in exactly one bit
    c = constellation("8psk")
    order = np.argsort(np.angle(c.points) % (2 * np.pi))
    for a, b in zip(order, np.roll(order, -1)):
        assert count_bit_errors(np.array([a]), np.array([b])) == 1


def test_gray_adjacency_16qam():
    # grid neighbors (distance 2/sqrt(10) along one axis) differ in one bit
    c = constellation("16qam")
    step = 2 / np.sqrt(10)
    for i, p in enumerate(c.points):
        for j, q in enumerate(c.points):
            if i < j and abs(abs(p - q) - step) < 1e-9:
                assert count_bit_errors(np.array([i]), np.array([j])) == 1


def test_gray_adjacency_bpsk():
    assert count_bit_errors(np.array([0]), np.array([1])) == 1


def test_bpsk_ignores_imaginary_part():
    c = constellation("bpsk")
    idx = nearest_index(np.array([-0.1 + 5j, 0.3 - 2j]), c.points, c.is_real)
    np.testing.assert_allclose(c.points[idx], [-1, 1])
    np.testing.assert_array_equal(idx, [1, 0])


def test_tie_break_takes_lower_index():
    c = constellation("16qam")
    # midpoint of the first two points in table order
    z = (c.points[0] + c.points[1]) / 2
    syms = c.points[nearest_index(np.array([z]), c.points, c.is_real)]
    assert syms[0] == c.points[0]


def test_map_bits_rejects_indivisible():
    with pytest.raises(ValueError):
        map_bits([0, 1, 0], constellation("16qam"))


def test_count_bit_errors():
    # labels of 4-bit symbols: 0110 against 0011 differ in two bits
    assert count_bit_errors(np.array([0b0110, 0b1111], np.uint8),
                            np.array([0b0011, 0b1111], np.uint8)) == 2
    assert count_bit_errors(np.full(2, 0b1111, np.uint8),
                            np.zeros(2, np.uint8)) == 8
    assert count_bit_errors(np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])) == 2
    assert count_bit_errors(np.zeros(0, np.uint8), np.zeros(0, np.uint8)) == 0
    # every byte against zero, one byte per row: its popcount
    every_byte = np.arange(256, dtype=np.uint8)[:, None]
    np.testing.assert_array_equal(
        count_bit_errors(every_byte, np.zeros_like(every_byte)),
        [bin(label).count("1") for label in range(256)])
    with pytest.raises(ValueError):
        count_bit_errors(np.zeros(2, np.uint8), np.zeros(1, np.uint8))


@pytest.mark.parametrize("name", CONSTELLATION_NAMES)
def test_label_errors_count_differing_bits(name):
    # the popcount of tx XOR rx labels is the number of bits in which the
    # two points' bits differ, one count per row of a batch
    c = constellation(name)
    tx = RNG.integers(0, c.points.size, (4, 50))
    rx = RNG.integers(0, c.points.size, (4, 50))
    errors = count_bit_errors(tx, rx)
    shifts = np.arange(c.bits_per_symbol)
    np.testing.assert_array_equal(
        errors, np.count_nonzero((tx[..., None] >> shifts & 1)
                                 != (rx[..., None] >> shifts & 1), axis=(-2, -1)))
    assert count_bit_errors(tx[0], rx[0]) == errors[0]


def test_precode_matches_transform():
    x_t = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
    np.testing.assert_allclose(precode(x_t), np.fft.fft(x_t), rtol=1e-12)
    # impulse block has flat spectrum
    np.testing.assert_allclose(precode([1, 0, 0, 0]), np.ones(4), atol=1e-14)


def test_precode_parseval():
    x_t = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
    x = precode(x_t)
    assert np.sum(np.abs(x) ** 2) / 64 == pytest.approx(np.sum(np.abs(x_t) ** 2))
