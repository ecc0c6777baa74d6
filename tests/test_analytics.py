"""Closed-form limiting SNRs, MFB gaps, chi-square statistics oracles.

The frozen constants below were computed independently (math + SciPy
quadrature + Monte Carlo) before the module was written:
  e^{-beta}        = 0.5614594835668851   (beta = Euler-Mascheroni)
  e^{-beta + 1}    = 1.526205111595864
  e^{-beta + 11/6} = 3.5117611663394754
"""

import decimal
import math
import sys

import numpy as np
import pytest

from scfde import analytics as an
from scfde import simulator as sim
from scfde.kernels import nearest_index
from scfde.modem import constellation, count_bit_errors, map_bits

DB = lambda x: 10 * np.log10(x)


class TestHarmonic:
    def test_small_values(self):
        assert an.harmonic(0) == 0.0
        assert an.harmonic(1) == 1.0
        assert an.harmonic(3) == pytest.approx(11 / 6, rel=1e-15)

    def test_h10(self):
        assert an.harmonic(10) == pytest.approx(sum(1 / k for k in range(1, 11)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            an.harmonic(-1)

    def test_non_integral_rejected(self):
        # not H_2 from arange(1, 2.5); an integral float still counts
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            an.harmonic(1.5)
        assert an.harmonic(3.0) == an.harmonic(3)

    def test_too_many_terms_refused_before_any_array(self, monkeypatch):
        # more than twice the most antennas is refused before arange builds
        # the terms: 10**9 of them would be a 7.45 GiB array
        def no_terms(*args, **kwargs):
            raise AssertionError("an array of terms was built")

        monkeypatch.setattr(an.np, "arange", no_terms)
        with pytest.raises(ValueError, match="n must be at most 2097152"):
            an.harmonic(10**9)
        with pytest.raises(ValueError, match="n_r must be at most 2097152"):
            an.expected_log_chisq(10**9)


class TestLogChisq:
    def test_values(self):
        assert an.expected_log_chisq(1) == pytest.approx(-0.5772156649, abs=1e-9)
        assert an.expected_log_chisq(2) == pytest.approx(0.4227843351, abs=1e-9)

    def test_monte_carlo(self):
        rng = np.random.default_rng(101)
        for n_r in (1, 2, 4):
            draws = rng.gamma(n_r, 1.0, 10**6)
            assert an.expected_log_chisq(n_r) == pytest.approx(
                np.mean(np.log(draws)), abs=0.005
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            an.expected_log_chisq(0)

    @pytest.mark.parametrize("n_r", [1.5, 2.5, math.nan, math.inf])
    def test_non_integral_rejected(self, n_r):
        # 2.5 answered for n_r = 3 (0.92278) through harmonic(1.5)
        with pytest.raises(ValueError, match="n_r must be an integer >= 1"):
            an.expected_log_chisq(n_r)


class TestInverseChisq:
    def test_means(self):
        assert an.inverse_chisq_mean(1) == 1.0
        assert an.inverse_chisq_mean(2) == pytest.approx(1 / 3)

    def test_mean_var_nr2(self):
        mean, var = an.inverse_chisq_mean_var(2)
        assert mean == pytest.approx(1 / 3)
        assert var == pytest.approx(1 / 18)

    def test_variance_undefined_at_nr1(self):
        with pytest.raises(ValueError):
            an.inverse_chisq_mean_var(1)

    @pytest.mark.parametrize("n_r", [1.5, 2.5])
    def test_non_integral_rejected(self, n_r):
        # 1.5 answered 0.5, the n_r = 1.5 value of 1/(2 n_r - 1)
        for f in (an.inverse_chisq_mean, an.inverse_chisq_mean_var):
            with pytest.raises(ValueError, match="n_r must be an integer >= 1"):
                f(n_r)
        assert an.inverse_chisq_mean_var(2.0) == an.inverse_chisq_mean_var(2)

    def test_monte_carlo(self):
        # 1/S with S the sum of 2 n_r unit-mean exponentials
        rng = np.random.default_rng(102)
        inv = 1.0 / rng.gamma(4, 1.0, 10**6)
        mean, var = an.inverse_chisq_mean_var(2)
        assert mean == pytest.approx(np.mean(inv), abs=0.002)
        assert var == pytest.approx(np.var(inv), rel=0.02)


class TestLimitSnr:
    def test_frozen_reference_constants(self):
        assert an.limit_snr("zf-dfe", 1) == pytest.approx(0.5614594835668851)
        assert an.limit_snr("zf-dfe", 1) == pytest.approx(0.5616, rel=3e-4)
        assert an.limit_snr("wl-zf-dfe", 1) == pytest.approx(1.526205111595864)
        assert an.limit_snr("wl-zf-dfe", 1) == pytest.approx(1.5265, rel=3e-4)
        assert an.limit_snr("wl-zf-dfe", 2) == pytest.approx(3.5117611663394754)
        assert an.limit_snr("wl-zf-le", 2) == 3.0
        assert an.limit_snr("zf-le", 2) == 1.0

    def test_real_modulation_doubling(self):
        for name in ("zf-le", "zf-dfe"):
            n_r = 2
            assert an.limit_snr(name, n_r, real_modulation=True) == pytest.approx(
                2 * an.limit_snr(name, n_r)
            )
        # WL formulas are already real-alphabet quantities
        assert an.limit_snr("wl-zf-dfe", 1, real_modulation=True) == an.limit_snr(
            "wl-zf-dfe", 1
        )

    def test_linear_in_r(self):
        for name in an.LIMIT_RECEIVERS:
            one = an.limit_snr(name, 2)
            assert an.limit_snr(name, 2, r=5.0) == pytest.approx(5.0 * one)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_r_must_be_positive_and_finite(self, r):
        # a NaN or infinite r used to come back as a NaN or infinite limit
        with pytest.raises(ValueError, match="r must be positive and finite"):
            an.limit_snr("zf-dfe", 2, r)

    def test_conv_zf_le_single_antenna_undefined(self):
        with pytest.raises(ValueError, match="no finite limit for N_r=1"):
            an.limit_snr("zf-le", 1)
        with pytest.raises(ValueError, match="no finite limit"):
            an.limit_snr("conv-zf-le", 1)

    def test_wl_zf_le_single_antenna_mean_formula(self):
        assert an.limit_snr("wl-zf-le", 1) == 1.0

    def test_conventional_mmse_has_no_real_alphabet_form(self):
        # the real part of a conventional MMSE error is not circular, so
        # doubling would not be exact; the WL limits are real-alphabet ones
        for name in ("mmse-le", "mmse-dfe"):
            with pytest.raises(ValueError, match="no real-alphabet limit"):
                an.limit_snr(name, 2, real_modulation=True)
        for name in ("wl-mmse-le", "wl-mmse-dfe"):
            assert an.limit_snr(name, 2, real_modulation=True) \
                == an.limit_snr(name, 2)

    def test_names_are_read_as_receiver_specs(self):
        # one grammar: conv- aliases and case as ReceiverSpec.from_name reads
        # them; "mfb" is no receiver
        assert an.limit_snr("CONV-ZF-DFE", 2) == an.limit_snr("zf-dfe", 2)
        assert an.limit_snr("CONV-MMSE-LE", 2) == an.limit_snr("mmse-le", 2)
        with pytest.raises(ValueError, match="'conv-mmse-le' has no real-alphabet"):
            an.limit_snr("conv-mmse-le", 2, real_modulation=True)
        with pytest.raises(ValueError, match="unknown receiver 'mfb'"):
            an.limit_snr("mfb", 2)

    @pytest.mark.parametrize("n_r", [0, -1, 2.5, 0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", [*an.LIMIT_RECEIVERS, "mfb"])
    def test_antenna_count_must_be_a_positive_integer(self, name, n_r):
        # a non-integral n_r must not reach harmonic(), e.g. harmonic(1.5);
        # "mfb", no receiver, shows that the count is checked before the name
        with pytest.raises(ValueError, match="n_r must be an integer >= 1"):
            an.limit_snr(name, n_r)

    def test_integral_float_antenna_count(self):
        for name in an.LIMIT_RECEIVERS:
            assert an.limit_snr(name, 2.0) == an.limit_snr(name, 2)

    @pytest.mark.parametrize("name", an.LIMIT_RECEIVERS)
    def test_antenna_count_is_capped_at_max_antennas(self, name):
        # the most antennas a sweep admits has a limit; one more is refused
        # before harmonic builds an array of its terms
        assert an.MAX_ANTENNAS == sim.MAX_BLOCK_SAMPLES
        assert an.limit_snr(name, an.MAX_ANTENNAS) > 0
        with pytest.raises(ValueError, match="n_r must be at most 1048576"):
            an.limit_snr(name, an.MAX_ANTENNAS + 1)

    def test_dfe_limits_take_the_log_moment(self, monkeypatch):
        # the DFE limits are r exp(E[ln X]) with E[ln X] from
        # expected_log_chisq, the function TestLogChisq checks
        monkeypatch.setattr(an, "expected_log_chisq", lambda n: float(n))
        assert an.limit_snr("zf-dfe", 3) == pytest.approx(math.exp(3))
        assert an.limit_snr("wl-zf-dfe", 3) == pytest.approx(math.exp(6))

    def test_ordering(self):
        for n_r in (2, 3, 4):
            le = an.limit_snr("zf-le", n_r, real_modulation=True)
            dfe = an.limit_snr("zf-dfe", n_r, real_modulation=True)
            wle = an.limit_snr("wl-zf-le", n_r)
            wdfe = an.limit_snr("wl-zf-dfe", n_r)
            mfb = 2 * n_r  # the real-alphabet MFB 2 n_r r at r = 1
            assert le <= dfe <= mfb
            assert wle <= wdfe <= mfb
            assert wle >= le and wdfe >= dfe


class TestGapToMfb:
    # Table rows at full beta precision; the printed 2-decimal values
    # (3.0 / 2.5 / 1.19 / 3.0 / 1.25 / 1.17 / 0.5644) sit within 0.05 dB
    FROZEN = {
        ("conv-zf-le", 2): 3.0103,
        ("conv-zf-dfe", 1): 2.5068,
        ("conv-zf-dfe", 2): 1.1742,
        ("wl-zf-le", 1): 3.0103,
        ("wl-zf-le", 2): 1.2494,
        ("wl-zf-dfe", 1): 1.1742,
        ("wl-zf-dfe", 2): 0.56535,
    }
    PRINTED = {
        ("conv-zf-le", 2): 3.0,
        ("conv-zf-dfe", 1): 2.5,
        ("conv-zf-dfe", 2): 1.19,
        ("wl-zf-le", 1): 3.0,
        ("wl-zf-le", 2): 1.25,
        ("wl-zf-dfe", 1): 1.17,
        ("wl-zf-dfe", 2): 0.5644,
    }

    def test_frozen_values(self):
        for (name, n_r), gap in self.FROZEN.items():
            assert an.gap_to_mfb_db(name, n_r) == pytest.approx(gap, abs=5e-4)

    def test_within_005db_of_printed(self):
        for key, printed in self.PRINTED.items():
            assert abs(an.gap_to_mfb_db(*key) - printed) < 0.05

    def test_nonnegative(self):
        for n_r in (1, 2, 5):
            for name in ("conv-zf-dfe", "wl-zf-le", "wl-zf-dfe"):
                assert an.gap_to_mfb_db(name, n_r) >= 0


class TestGapTable:
    def test_eight_rows_with_na(self):
        table = an.gap_table()
        assert isinstance(table, tuple) and len(table) == 8
        by_key = {(r.receiver, r.n_r): r.gap_db for r in table}
        assert by_key[("conv-zf-le", 1)] is None
        assert by_key[("wl-zf-dfe", 2)] == pytest.approx(0.5644, abs=0.05)
        defined = [g for g in by_key.values() if g is not None]
        assert len(defined) == 7 and all(g >= 0 for g in defined)

    def test_custom_antennas(self):
        table = an.gap_table(n_r_values=(3,))
        assert len(table) == 4
        assert all(r.n_r == 3 for r in table)

    def test_receiver_subset(self):
        (row,) = an.gap_table((2,), ("wl-zf-le",))
        assert row == an.GapRow("wl-zf-le", 2, an.gap_to_mfb_db("wl-zf-le", 2))

    @pytest.mark.parametrize("n_r_values", [(0,), (2.5,), (2, -1)])
    def test_bad_antenna_counts_raise(self, n_r_values):
        # neither NA rows for n_r=0 nor a row labelled 2 computed at 2.5
        with pytest.raises(ValueError, match="n_r must be an integer >= 1"):
            an.gap_table(n_r_values)

    @pytest.mark.parametrize("receiver, match", [
        ("mmse-dfe", "depends on the SNR; see post-snr"),
        ("bogus", "unknown receiver")])
    def test_only_an_infinite_limit_is_na(self, receiver, match):
        with pytest.raises(ValueError, match=match):
            an.gap_table((2,), (receiver,))


MMSE_RECEIVERS = ("mmse-le", "mmse-dfe", "wl-mmse-le", "wl-mmse-dfe")

# the Euler-Mascheroni constant to 60 digits
_GAMMA_60 = decimal.Decimal(
    "0.577215664901532860606512090082402431042159335939923598805767")


def _exp_e1_series(z: float) -> float:
    """e^z E_1(z) by A&S 5.1.11, E_1(z) = -gamma - ln z - sum_k (-z)^k /
    (k k!), in 60 digits, of which the terms cancel 17 at z = 20."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        z = decimal.Decimal(z)
        series, term, k = decimal.Decimal(0), decimal.Decimal(1), 0
        while k < 2 or abs(term) > decimal.Decimal(10) ** -60:
            k += 1
            term *= -z / k
            series += term / k
        return float(z.exp() * (-_GAMMA_60 - z.ln() - series))


def _exp_e1_fraction(z: float) -> float:
    """e^z E_1(z) by A&S 5.1.22's continued fraction, 1/(z + 1/(1 + 1/(z +
    2/(1 + 2/(z + ...))))), which converges fast for z > 1."""
    tail = z
    for k in range(200, 0, -1):
        tail = z + k / (1 + k / tail)
    return 1 / tail


def _exp_e1(z: float) -> float:
    """e^z E_1(z) = E[ln(1 + S/z)] = z E[1/(z + S)] for S ~ Exp(1), with no
    scipy: the series up to z = 20, the continued fraction past it."""
    return _exp_e1_series(z) if z <= 20 else _exp_e1_fraction(z)


class TestMmseLimits:
    # S is the channel energy: Gamma(n_r, 1) conventional, Gamma(2 n_r, 1)
    # widely linear; the limits are exp(E[ln(1 + r S)]) - 1 for a DFE and
    # 1/E[1/(1 + r S)] - 1 for an LE

    def test_small_r_tends_to_the_mean_energy(self):
        # both tend to r E[S] = n r, less O(r^2)
        for name in MMSE_RECEIVERS:
            for n_r in (1, 2, 5):
                n = 2 * n_r if name.startswith("wl-") else n_r
                assert an.limit_snr(name, n_r, 1e-9) == pytest.approx(
                    n * 1e-9, rel=1e-8)

    def test_large_r_tends_to_the_zf_forms(self):
        # MMSE-DFE to the ZF-DFE form, MMSE-LE to (n - 1) r for n >= 2
        r = 1e12
        for n_r in (1, 2, 5):
            for mmse, zf in (("mmse-dfe", "zf-dfe"), ("wl-mmse-dfe", "wl-zf-dfe"),
                             ("wl-mmse-le", "wl-zf-le")):
                assert an.limit_snr(mmse, n_r, r) == pytest.approx(
                    an.limit_snr(zf, n_r, r), rel=1e-9)
            if n_r >= 2:
                assert an.limit_snr("mmse-le", n_r, r) == pytest.approx(
                    (n_r - 1) * r, rel=1e-9)

    def test_exponential_integral_references_agree(self):
        assert _exp_e1_series(1.0) == pytest.approx(0.59634736232319407434,
                                                    rel=1e-15)
        for z in (2.0, 5.0, 10.0, 20.0):
            assert _exp_e1_series(z) == pytest.approx(_exp_e1_fraction(z),
                                                      rel=1e-14)

    @pytest.mark.parametrize("r", np.logspace(-3, 6, 19))
    def test_one_antenna_matches_the_exponential_integral(self, r):
        # at n = 1, E[ln(1 + r S)] = r E[1/(1 + r S)] = e^{1/r} E_1(1/r)
        f = _exp_e1(1 / r)
        log_mean, signal, noise = an._energy_moments(1.0, 0.0, 1, r)
        assert log_mean == pytest.approx(f, rel=1e-12)
        assert r * noise == pytest.approx(f, rel=1e-12)
        assert signal == pytest.approx(1 - f / r, rel=1e-12, abs=1e-15)
        assert an.limit_snr("mmse-dfe", 1, r) == pytest.approx(math.expm1(f),
                                                               rel=1e-12)
        if r >= 1:  # below, r / f - 1 cancels in the reference
            assert an.limit_snr("mmse-le", 1, r) == pytest.approx(r / f - 1,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("n_r", range(1, 9))
    @pytest.mark.parametrize("b", [0.0, 1.0])  # conventional, widely linear
    def test_integral_reproduces_the_zf_moments(self, n_r, b):
        # at a large r, E[ln(1 + r S)] - ln r -> E[ln S] and r E[1/(1 + r S)]
        # -> E[1/S], the harmonic forms of the ZF limits
        n, r = round(n_r * (1 + b)), 1e20
        log_mean, _, noise = an._energy_moments(1.0, b, n_r, r)
        assert log_mean - math.log(r) == pytest.approx(
            an.expected_log_chisq(n), abs=1e-12)
        if n > 1:
            assert r * noise == pytest.approx(1 / (n - 1), rel=1e-12)

    @pytest.mark.parametrize("name", MMSE_RECEIVERS)
    @pytest.mark.parametrize("n_r", [1, 2, an.MAX_ANTENNAS])
    def test_finite_and_monotone_up_to_the_largest_double(self, name, n_r):
        # a RuntimeWarning is an error here (pyproject); a limit past the
        # largest double is inf
        rs = [5e-324, 1e-300, 1e-9, 1.0, 1e9, 1e300, sys.float_info.max]
        values = [an.limit_snr(name, n_r, r) for r in rs]
        assert all(0 <= a <= b for a, b in zip(values, values[1:])), values
        assert all(math.isfinite(v) for v in values[:-1]), values


_SYMBOLS = 100_000


def _slicing_ber(name, snr, gen):
    """Monte Carlo BER of nearest-point slicing over _SYMBOLS symbols at
    per-symbol SNR `snr` (a scalar or one value per symbol)."""
    c = constellation(name)
    bits = gen.integers(0, 2, _SYMBOLS * c.bits_per_symbol)
    noise = np.sqrt(0.5 / snr) * (gen.standard_normal(_SYMBOLS)
                                  + 1j * gen.standard_normal(_SYMBOLS))
    labels, symbols = map_bits(bits, c)
    rx = nearest_index(symbols + noise, c.points, c.is_real)  # decided labels
    return count_bit_errors(labels, rx) / bits.size


def _within_binomial_bound(p, ber):
    # 4 sigma of a binomial over symbols, not bits: the bits of one symbol
    # may err together, which at most makes each symbol one Bernoulli(p) trial
    return abs(ber - p) <= 4 * math.sqrt(p * (1 - p) / _SYMBOLS)


def _bpsk_fading_exact(n_r, v, r):
    """L-branch MRC: ((1-mu)/2)^L sum_k C(L-1+k, k) ((1+mu)/2)^k."""
    big_l, gbar = n_r * v, r / v
    mu = np.sqrt(gbar / (1 + gbar))
    low = 0.5 / ((1 + gbar) * (1 + mu))  # (1 - mu)/2 without cancellation
    return low ** big_l * sum(math.comb(big_l - 1 + k, k) * ((1 + mu) / 2) ** k
                              for k in range(big_l))


class TestMfbBer:
    ALPHABETS = ("bpsk", "8psk", "16qam")

    @pytest.mark.parametrize("name", ALPHABETS)
    def test_awgn_matches_slicing(self, name):
        gen = np.random.default_rng(20261018)
        for snr_db in (-4.0, 3.0, 10.0):
            r = 10 ** (snr_db / 10)
            ber = _slicing_ber(name, r, gen)
            assert _within_binomial_bound(an.mfb_ber(name, 1, r), ber), (snr_db, ber)

    @pytest.mark.parametrize("name", ("8psk", "16qam"))
    def test_fading_matches_gamma_energy(self, name):
        gen = np.random.default_rng(7)
        n_r, v = 2, 3
        for snr_db in (4.0, 12.0):
            r = 10 ** (snr_db / 10)
            energy = gen.gamma(n_r * v, 1.0 / v, 100_000)
            ber = _slicing_ber(name, r * energy, gen)
            assert _within_binomial_bound(an.mfb_ber(name, n_r, r, v), ber), \
                (snr_db, ber)

    def test_bpsk_fading_is_the_mrc_sum(self):
        for n_r, v in ((1, 1), (1, 20), (2, 20), (3, 8)):
            for snr_db in np.arange(-5.0, 26.0, 2.5):
                r = 10 ** (snr_db / 10)
                exact = _bpsk_fading_exact(n_r, v, r)
                assert an.mfb_ber("bpsk", n_r, r, v) == pytest.approx(exact, rel=1e-12)

    def test_awgn_bpsk_is_q_function(self):
        r = 10 ** (np.arange(-5.0, 13.0) / 10)
        ref = [0.5 * math.erfc(math.sqrt(2 * x)) for x in r]  # Q(sqrt(2 n_r r))
        np.testing.assert_allclose(an.mfb_ber("bpsk", 2, r), ref, rtol=1e-13)

    @pytest.mark.parametrize("name", ALPHABETS)
    def test_finite_v_falls_monotonically_to_limit(self, name):
        r = 10 ** (np.arange(0.0, 21.0, 2.0) / 10)
        limit = an.mfb_ber(name, 2, r)
        curves = [an.mfb_ber(name, 2, r, v) for v in (1, 2, 4, 8, 20, 64, 256)]
        for wider, narrower in zip(curves, curves[1:]):
            assert np.all(narrower < wider)
        assert np.all(curves[-1] > limit)
        # (1 + x/v)^(-n_r v) = e^(-n_r x) (1 + O(n_r x^2 / v))
        np.testing.assert_allclose(an.mfb_ber(name, 2, r, 2**30), limit, rtol=1e-4)

    # Gray-labelled 8-PSK, frozen from the closed form:
    # (n_r, taps, snr_db) -> BER
    PSK8_FROZEN = {
        (1, None, 4.0): 0.14063797458040805,
        (1, None, 12.0): 0.010399335155910234,
        (2, None, 4.0): 0.07604766438158199,
        (2, None, 12.0): 0.0007705093505066045,
        (1, 20, 4.0): 0.1438357397640347,
        (1, 20, 12.0): 0.012426850820680117,
        (2, 20, 4.0): 0.07751992835856004,
        (2, 20, 12.0): 0.0010436689208454665,
    }

    def test_8psk_closed_form_is_frozen(self):
        for (n_r, taps, snr_db), ber in self.PSK8_FROZEN.items():
            assert an.mfb_ber("8psk", n_r, 10 ** (snr_db / 10), taps) \
                == pytest.approx(ber, rel=1e-12), (n_r, taps, snr_db)

    def test_8psk_ring_distances(self):
        # the mean Hamming distance between the labels of points k steps
        # apart around the ring, k = 0..4: Gray neighbours differ in one
        # bit; the closed form weighs sector boundary k by its increment
        c = constellation("8psk")
        ring = nearest_index(np.exp(2j * np.pi * np.arange(8) / 8), c.points,
                             False).tolist()
        distances = [sum(bin(a ^ ring[(m + k) % 8]).count("1")
                         for m, a in enumerate(ring)) / 8 for k in range(5)]
        assert distances == [0, 1, 2, 2, 2]
        weights = an._craig_terms("8psk")[0]
        np.testing.assert_array_equal(weights, np.diff(distances) / 3)

    def test_shape_and_validation(self):
        assert an.mfb_ber("16qam", 1, np.ones((2, 3)), 4).shape == (2, 3)
        assert an.mfb_ber("8psk", 1, 1.0).shape == ()
        for n_r, taps in ((0, None), (1, 0)):
            with pytest.raises(ValueError):
                an.mfb_ber("bpsk", n_r, 1.0, taps)
        with pytest.raises(ValueError):
            an.mfb_ber("qpsk", 1, 1.0)

    @pytest.mark.parametrize("r", [-1.0, math.nan, True, "x", None,
                                   [1.0, -0.5], [2.0, math.nan], [True, False]])
    def test_snr_must_be_numbers_at_least_zero(self, r):
        with pytest.raises(ValueError, match="r must be a number or an array"):
            an.mfb_ber("bpsk", 1, r)

    @pytest.mark.parametrize("taps", [None, 4])
    def test_snr_past_the_doubles_has_ber_zero(self, taps):
        # r E overflows a double without a RuntimeWarning, which pytest
        # would raise; r = 0 is the alphabet's coin-toss BER
        ber = an.mfb_ber("16qam", 2, [1e308, math.inf, "10", 0.0], taps)
        assert ber[0] == ber[1] == 0.0
        assert ber[2] == an.mfb_ber("16qam", 2, 10.0, taps)
        assert ber[3] == pytest.approx(0.5, rel=1e-13)

    def test_quadrature_rule_is_exact_to_degree_511(self):
        # 256 Gauss-Legendre nodes integrate every polynomial of degree
        # below 512 exactly
        nodes, weights = an._gauss_legendre()
        assert nodes.shape == weights.shape == (256,)
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        for k in range(512):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(np.sum(weights * nodes**k) - exact) < 1e-14, k
