"""Numerics layer: transforms, RNG streams, complex Gaussian draws.

Transforms are checked against an independent oracle, direct O(M^2)
summation. The Levinson solver is tested with the other kernels in
test_kernels. The number rule (integer, real) is checked on its own and
through every public entry point that reads a count or a ratio.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simulator import JSON_VALUES

from scfde import analytics as an
from scfde import numerics
from scfde import simulator as sim
from scfde.equalizer import ReceiverSpec
from scfde.numerics import (
    RngStream,
    dft,
    draw_streams,
    gaussian_complex,
    idft,
    integer,
    real,
    stream_states,
)

RNG = np.random.default_rng(20260815)


def _normals(master_seed, index, count):
    return RngStream(master_seed, index).generator().standard_normal(count)


def dft_direct(x):
    """O(M^2) reference transform, independent of the FFT path."""
    x = np.asarray(x, dtype=complex)
    m = len(x)
    k = np.arange(m)
    w = np.exp(-2j * np.pi * np.outer(k, k) / m)
    return w @ x


class TestDft:
    def test_impulse(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-14)

    def test_constant(self):
        np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-13)

    def test_two_point_by_hand(self):
        # X(0) = 1 + j, X(1) = 1 + j*e^{-j*pi} = 1 - j
        np.testing.assert_allclose(dft([1, 1j]), [1 + 1j, 1 - 1j], atol=1e-14)

    def test_matches_direct_summation(self):
        for m in (3, 16, 257):
            x = RNG.standard_normal(m) + 1j * RNG.standard_normal(m)
            np.testing.assert_allclose(dft(x), dft_direct(x), rtol=1e-10, atol=1e-10)

    def test_idft_examples(self):
        np.testing.assert_allclose(idft([4, 0, 0, 0]), np.ones(4), atol=1e-13)
        np.testing.assert_allclose(idft([1, 1]), [1, 0], atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 511, 512, 4096])
    def test_round_trip(self, m):
        x = RNG.standard_normal(m) + 1j * RNG.standard_normal(m)
        back = idft(dft(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))

    def test_parseval(self):
        x = RNG.standard_normal(512) + 1j * RNG.standard_normal(512)
        lhs = np.sum(np.abs(dft(x)) ** 2) / 512
        rhs = np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft([])
        with pytest.raises(ValueError):
            idft(np.array([]))


class TestRngAndGaussian:
    def test_stream_reproducibility(self):
        a = gaussian_complex(_normals(42, 7, 128), 64, 1.0)
        b = gaussian_complex(_normals(42, 7, 128), 64, 1.0)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1)])
    def test_negative_seed_or_index_rejected(self, seed, index):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(seed, index)

    def test_distinct_streams_differ(self):
        a = gaussian_complex(_normals(42, 7, 128), 64, 1.0)
        b = gaussian_complex(_normals(42, 8, 128), 64, 1.0)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_moments(self):
        z = gaussian_complex(_normals(3, 0, 2 * 10**6), 10**6, 1.0)
        assert abs(z.mean()) < 0.005
        assert 0.995 < np.mean(np.abs(z) ** 2) < 1.005

    def test_half_variance_per_dimension(self):
        z = gaussian_complex(_normals(4, 0, 2 * 10**6), 10**6, 0.5)
        assert np.var(z.real) == pytest.approx(0.25, rel=0.02)
        assert np.var(z.imag) == pytest.approx(0.25, rel=0.02)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            gaussian_complex(_normals(1, 0, 8), 4, 0.0)

    def test_one_call_equals_successive_calls(self):
        # a trial draws taps and noise in one standard_normal call; the
        # stream is the same as drawing the four parts one after another
        for seed, sizes in ((0, (8, 8, 64, 64)), (1, (40, 40, 1024, 1024)),
                            (2, (1, 1, 4, 4)), (3, (3, 5, 7, 11))):
            parts = RngStream(9, seed).generator()
            split = np.concatenate([parts.standard_normal(n) for n in sizes])
            whole = RngStream(9, seed).generator().standard_normal(sum(sizes))
            np.testing.assert_array_equal(split, whole)

    def test_rows_with_their_own_variance(self):
        normals = np.stack([_normals(5, k, 32) for k in range(3)])
        variance = np.array([0.5, 1.0, 2.0])
        rows = gaussian_complex(normals, 16, variance)
        assert rows.shape == (3, 16)
        for k in range(3):
            np.testing.assert_array_equal(
                rows[k], gaussian_complex(normals[k], 16, variance[k]))

    def test_bad_draws(self):
        with pytest.raises(ValueError, match="need 8 standard normals"):
            gaussian_complex(np.zeros(6), 4, 1.0)
        with pytest.raises(ValueError, match="positive"):
            gaussian_complex(np.zeros((2, 8)), 4, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -1.0,
                                          np.array([1.0, math.nan])])
    def test_variance_that_is_no_positive_finite_number(self, variance):
        # NaN passed a "<= 0" test and gave NaN samples
        with pytest.raises(ValueError, match="positive and finite"):
            gaussian_complex(np.ones((2, 8)), 4, variance)


class TestStreamDraws:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**80), indices=st.lists(st.integers(0, 2**80),
                                                       max_size=5),
           n_bits=st.integers(1, 70), n_normals=st.integers(1, 40))
    def test_rows_equal_the_numpy_generator(self, seed, indices, n_bits,
                                            n_normals):
        # row i is RngStream(seed, t_i)'s integers(0, 2, n_bits) then its
        # standard_normal(n_normals); index 0 (one entropy word) and an
        # index of three words share the call, so that with a seed of two
        # words or more one row takes numpy's extra mixing rounds. An odd
        # n_bits leaves a half word buffered that the normals skip
        indices = [0, *indices, 2**72 - 1]
        bits, normals = draw_streams(stream_states(seed, indices), n_bits,
                                     n_normals)
        assert bits.dtype == np.uint8 and bits.shape == (len(indices), n_bits)
        assert normals.shape == (len(indices), n_normals)
        for row, t in enumerate(indices):
            gen = RngStream(seed, t).generator()
            assert bits[row].tolist() == gen.integers(0, 2, n_bits).tolist()
            assert normals[row].tolist() == gen.standard_normal(n_normals).tolist()

    @pytest.mark.parametrize("seed, t", [(0, 0), (2**32, 2**64), (2**79, 2**95)])
    def test_states_are_those_of_seeded_pcg64(self, seed, t):
        # 2, 5 and 6 entropy words: the last two run past the pool of four
        ((state, inc),) = stream_states(seed, [t])
        bit_gen = np.random.PCG64(np.random.SeedSequence((seed, t)))
        assert bit_gen.state["state"] == {"state": state, "inc": inc}

    def test_negative_seed_or_index_rejected(self):
        for seed, indices in ((-1, [0]), (0, [1, -1])):
            with pytest.raises(ValueError, match="non-negative"):
                stream_states(seed, indices)

    def test_hashmix_constants_are_worked_out_once_read_only(self):
        # every stream_states call of one entropy length shares the same
        # constant arrays, so none of them may be written
        first = numerics._hashmix_constants(numerics._INIT_A, numerics._MULT_A, 8)
        again = numerics._hashmix_constants(numerics._INIT_A, numerics._MULT_A, 8)
        assert all(a is b for a, b in zip(first, again))
        for consts in first:
            with pytest.raises(ValueError, match="read-only"):
                consts[0] = 0


class TestNumberRule:
    def test_integer_takes_integral_values(self):
        assert [integer("n", v) for v in (3, 3.0, "3", " 3", np.int64(3),
                                          np.float64(3.0), 1e3)] \
            == [3, 3, 3, 3, 3, 3, 1000]
        assert type(integer("n", np.int64(3))) is int
        for bad in (True, False, 2.5, "2.5", "1e3", "x", None, [3], math.nan,
                    math.inf, np.bool_(True), 3j):
            with pytest.raises(ValueError, match="n must be an integer, got"):
                integer("n", bad)

    def test_integer_bounds(self):
        assert integer("n", 1, 1, 2) == 1 and integer("n", "2", 1, 2) == 2
        with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
            integer("n", 0, 1)
        with pytest.raises(ValueError, match="n must be an integer >= 1, got 2.5"):
            integer("n", 2.5, 1, 2)
        with pytest.raises(ValueError, match="n must be at most 2, got '3'"):
            integer("n", "3", most=2)

    def test_real_takes_numbers_and_numeric_strings(self):
        assert [real("r", v) for v in (2, 2.5, "2.5", "inf", np.float32(0.5))] \
            == [2.0, 2.5, 2.5, math.inf, 0.5]
        assert type(real("r", np.float64(2.5))) is float
        for bad in (True, "x", None, [1.0], 1j, 10**400):
            with pytest.raises(ValueError, match="r must be a number, got"):
                real("r", bad)


_CURVE = [(0.0, 1.0), (10.0, 0.0)]  # brackets every target in (0, 1)

# every public entry point's counts and ratios, each as a call of one value
ENTRY_POINTS = {
    "harmonic(n)": an.harmonic,
    "expected_log_chisq(n_r)": an.expected_log_chisq,
    "inverse_chisq_mean(n_r)": an.inverse_chisq_mean,
    "inverse_chisq_mean_var(n_r)": an.inverse_chisq_mean_var,
    "limit_snr(n_r)": lambda v: an.limit_snr("wl-zf-dfe", v),
    "limit_snr(r)": lambda v: an.limit_snr("zf-dfe", 2, v),
    "limit_snr(mmse n_r)": lambda v: an.limit_snr("wl-mmse-le", v, 10.0),
    "limit_snr(mmse r)": lambda v: an.limit_snr("mmse-dfe", 2, v),
    "gap_to_mfb_db(n_r)": lambda v: an.gap_to_mfb_db("zf-dfe", v),
    "gap_table(n_r)": lambda v: an.gap_table((v,)),
    "mfb_ber(n_r)": lambda v: an.mfb_ber("bpsk", v, 10.0),
    "mfb_ber(taps)": lambda v: an.mfb_ber("bpsk", 1, 10.0, v),
    "mfb_ber(r)": lambda v: an.mfb_ber("bpsk", 1, v),
    "gap_at_ber(target_ber)": lambda v: sim.gap_at_ber(_CURVE, _CURVE, v),
    "ReceiverSpec(fbf_length)": lambda v: ReceiverSpec("mmse-dfe", v),
    "from_name(fbf_length)":
        lambda v: ReceiverSpec.from_name("wl-zf-dfe", fbf_length=v),
    "SweepConfig(antennas)": lambda v: sim.SweepConfig(antennas=v),
    "SweepConfig(snr_db)": lambda v: sim.SweepConfig(snr_db=v),
    "measure_post_snr(realizations)":
        lambda v: sim.measure_post_snr(sim.SweepConfig(), 10.0, v),
    "measure_post_snr(snr_db)":
        lambda v: sim.measure_post_snr(sim.SweepConfig(), v, 10),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestEntryPointsFollowTheRule:
    # a count or a ratio of any JSON type either gives a value or is a
    # ValueError (exit 2 at the command line): never a TypeError, a
    # warning or a truncated count, and never a bool read as 0 or 1
    @settings(max_examples=60)
    @given(value=JSON_VALUES)
    def test_any_json_value_gives_a_value_or_a_value_error(self, entry, value):
        with mock.patch.object(sim, "_run_cells", return_value=[]):
            try:
                ENTRY_POINTS[entry](value)
            except ValueError:
                return
        assert not isinstance(value, bool)

    @pytest.mark.parametrize("value", [sys.float_info.max, 5e-324, 10**400,
                                       "1e400", 2**53 + 1])
    def test_extremes_give_a_value_or_a_value_error(self, entry, value):
        # the largest double as a ratio once overflowed the closed forms
        # with a RuntimeWarning
        with mock.patch.object(sim, "_run_cells", return_value=[]):
            try:
                ENTRY_POINTS[entry](value)
            except ValueError:
                pass

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_refused(self, entry, value):
        with pytest.raises(ValueError, match="must be a"):
            ENTRY_POINTS[entry](value)
