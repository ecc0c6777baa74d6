"""Filter synthesis and application for all eight receiver variants.

Oracles: dense Toeplitz solves for the feedback taps, the two-look
widely linear construction on y(k) and conj(y(M-k)), a Monte Carlo
log-average for the MMSE-DFE output SNR, and the closed-form limiting
constants 0.5616 / 1.5265 / 3.512 that the synthesized filters must
approach over a channel ensemble.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scfde import equalizer as eq
from scfde import kernels
from scfde import simulator as sim
from scfde.channel import apply_channel_freq, draw_channel
from scfde.modem import constellation, map_bits, precode
from scfde.numerics import RngStream, dft, idft

EGAMMA = 0.5772156649015329
BPSK = constellation("bpsk")


def flat_channel(m, n_r=1, gain=1.0 + 0j):
    """Frequency response of a one-tap channel of the given gain."""
    return np.full((n_r, m), gain, complex)


def dense_fbf(q, L):
    """Direct solve of sum_m q(l-m) b(m) = -q(l), l = 1..L."""
    q = np.asarray(q)
    A = np.empty((L, L), complex)
    for l in range(1, L + 1):
        for m in range(1, L + 1):
            d = l - m
            A[l - 1, m - 1] = q[d] if d >= 0 else np.conj(q[-d])
    return np.linalg.solve(A, -q[1 : L + 1])


def synth(name, h, sigma_n_sq=0.0, fbf_length=20):
    """eq.synthesize for the receiver called `name`."""
    spec = eq.ReceiverSpec.from_name(name, fbf_length=fbf_length)
    return eq.synthesize(spec, h, sigma_n_sq)


def rayleigh(gen, n_r, v, m):
    """draw_channel on 2 n_r v standard normals from gen: (n_r, m)."""
    return draw_channel(gen.standard_normal(2 * n_r * v), n_r, v, m)


def noise_normals(stream, h):
    """The 2 n_r m standard normals of one block's noise on h."""
    return stream.generator().standard_normal(2 * h.size)


def equalize(name, f, y, x_f, c=BPSK, feedback="genie"):
    """eq.equalize for the receiver called `name`: (z, indices), with a
    decision-directed DFE's feedback pass run on its own."""
    spec = eq.ReceiverSpec.from_name(name, feedback_mode=feedback)
    z, decided = eq.equalize(spec, f, y, c, x_f)
    if isinstance(decided, eq.FeedbackPass):
        decided = kernels.dd_feedback(*decided, c.points, c.is_real)
    return z, decided


def bpsk_block(m, seed):
    """A random BPSK block and its spectrum: (x_t, x_f)."""
    rng = np.random.default_rng(seed)
    _, x_t = map_bits(rng.integers(0, 2, m), constellation("bpsk"))
    return x_t, precode(x_t)


def db(ratio):
    return 10 * np.log10(ratio)


class TestReceiverSpec:
    def test_all_eight_names(self):
        for name in eq.RECEIVER_NAMES:
            spec = eq.ReceiverSpec.from_name(name)
            assert spec.name == name
            assert spec.family == (
                "widely-linear" if name.startswith("wl-") else "conventional"
            )
            assert spec.criterion == ("zf" if "zf" in name else "mmse")
            assert spec.structure == name.rsplit("-", 1)[1]

    def test_conv_alias(self):
        assert eq.ReceiverSpec.from_name("conv-zf-dfe").name == "zf-dfe"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="zf-le"):
            eq.ReceiverSpec.from_name("dfe-zf")

    def test_feedback_aliases(self):
        assert (
            eq.ReceiverSpec.from_name("zf-dfe", feedback_mode="genie").feedback_mode
            == "ideal_genie"
        )
        assert (
            eq.ReceiverSpec.from_name("zf-dfe", feedback_mode="decision").feedback_mode
            == "decision_directed"
        )
        with pytest.raises(ValueError):
            eq.ReceiverSpec.from_name("zf-dfe", feedback_mode="oracle")

    def test_dfe_needs_positive_length(self):
        with pytest.raises(ValueError):
            eq.ReceiverSpec.from_name("mmse-dfe", fbf_length=0)

    def test_spec_is_its_name(self):
        # three fields; family, criterion and structure are read from the name
        assert [f.name for f in dataclasses.fields(eq.ReceiverSpec)] == [
            "name", "fbf_length", "feedback_mode"]
        spec = eq.ReceiverSpec("wl-mmse-dfe", 3, "decision")
        assert spec.feedback_mode == "decision_directed"
        assert spec == eq.ReceiverSpec.from_name(" WL-MMSE-DFE", 3, "Decision")
        assert (spec.family, spec.criterion, spec.structure) == (
            "widely-linear", "mmse", "dfe")
        for field in ("family", "criterion", "structure"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field, "zf")
        for name in ("conv-zf-le", "mfb", "", None):
            with pytest.raises(ValueError, match="unknown receiver"):
                eq.ReceiverSpec(name)
        for mode in ("oracle", "Genie", None, ["genie"]):
            with pytest.raises(ValueError, match="unknown feedback mode"):
                eq.ReceiverSpec("zf-dfe", 3, mode)

    def test_fbf_length_follows_the_number_rule(self):
        # an integral float or a digit string is a length; a fraction or a
        # bool is refused when the spec is built, not inside synthesize
        for length in (3, 3.0, "3"):
            spec = eq.ReceiverSpec.from_name("mmse-dfe", fbf_length=length)
            assert spec.fbf_length == 3 and type(spec.fbf_length) is int
        for length in (2.5, True, None, "x"):
            with pytest.raises(ValueError, match="fbf_length must be an integer"):
                eq.ReceiverSpec.from_name("mmse-dfe", fbf_length=length)
        # a linear equalizer has no feedback filter: any integer length
        assert eq.ReceiverSpec("zf-le", 0).fbf_length == 0


class TestConventionalLe:
    def test_flat_wiener(self):
        # h=1, sigma_n^2/sigma_x^2 = 1: scalar Wiener filter w = 1/2
        h = flat_channel(32)
        f = synth("mmse-le", h, 1.0)
        np.testing.assert_allclose(f.fff, 0.5)
        assert f.predicted_mse == pytest.approx(0.5)

    def test_mmse_bias_removal(self):
        # sigma_n^2 = 1e9: the receiver outputs ~0, so mse -> sigma_x^2 and
        # the unbiased post-SNR sigma_x^2 / mse - 1 -> 0
        f = synth("mmse-le", flat_channel(16), 1e9)
        assert f.predicted_mse == pytest.approx(1.0, abs=1e-6)

    def test_zf_plain_ratio(self):
        # |h|^2 = 2 at sigma_n^2 = 1: mse 1/2, post-SNR sigma_x^2 / mse = 2
        h = flat_channel(16, gain=np.sqrt(2) + 0j)
        f = synth("zf-le", h, sigma_n_sq=1.0)
        assert f.predicted_mse == pytest.approx(0.5)

    def test_zf_flat_inversion(self):
        h = flat_channel(32, gain=2.0 + 0j)
        f = synth("zf-le", h)
        np.testing.assert_allclose(f.fff, 0.5)
        x, x_f = bpsk_block(32, 0)
        z, _ = equalize("zf-le", f, apply_channel_freq(x_f, h, 0.0, None), x_f)
        np.testing.assert_allclose(z, x, atol=1e-12)

    def test_zf_random_channel_exact(self):
        h = rayleigh(RngStream(21, 0).generator(), 2, 20, 128)
        x, x_f = bpsk_block(128, 1)
        y = apply_channel_freq(x_f, h, 0.0, None)
        f = synth("zf-le", h)
        z, _ = equalize("zf-le", f, y, x_f)
        err = np.linalg.norm(z - x) / np.linalg.norm(
            x
        )
        assert err < 1e-9

    def test_mmse_combined_response_in_unit_interval(self):
        h = rayleigh(RngStream(22, 0).generator(), 2, 20, 128)
        f = synth("mmse-le", h, 0.3)
        combined = np.einsum("kr,rk->k", f.fff, h)
        assert np.all(np.abs(combined.imag) < 1e-12)
        assert np.all(combined.real > 0) and np.all(combined.real < 1)

    def test_mmse_approaches_zf(self):
        h = rayleigh(RngStream(23, 0).generator(), 1, 20, 64)
        fm = synth("mmse-le", h, 1e-10)
        fz = synth("zf-le", h)
        assert np.max(np.abs(fm.fff - fz.fff) / np.abs(fz.fff)) < 1e-4

    def test_mmse_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            synth("mmse-le", flat_channel(16), 0.0)

    @pytest.mark.parametrize("name", ["mmse-le", "zf-le", "mmse-dfe", "wl-zf-dfe"])
    @pytest.mark.parametrize("sigma_n_sq", [np.nan, np.inf, -0.1])
    def test_a_variance_that_is_no_finite_number_is_refused(self, name,
                                                           sigma_n_sq):
        # NaN passed the MMSE test "<= 0" and gave NaN filters; ZF
        # synthesis still takes 0
        with pytest.raises(ValueError, match="finite and >= 0"):
            synth(name, flat_channel(16), sigma_n_sq, 4)
        with pytest.raises(ValueError, match="finite and >= 0"):
            synth(name, np.stack([flat_channel(16)] * 2),
                  np.array([0.1, sigma_n_sq]), 4)
        if name.split("-")[-2] == "zf":
            assert synth(name, flat_channel(16), 0.0, 4).predicted_mse == 0.0

    def test_singular_channel(self):
        # two-tap [1, -1] has an exact null at k=0; the fixed ZF floor keeps
        # every ZF receiver finite on it, alone or inside a batch
        h = np.fft.fft([[1.0 + 0j, -1.0 + 0j]], n=16, axis=1)
        assert h[0, 0] == 0
        other = rayleigh(RngStream(24, 0).generator(), 1, 2, 16)
        batch = np.stack([other, h, other])
        x, x_f = bpsk_block(16, 2)
        y = apply_channel_freq(x_f, h, 0.0, None)
        for name in ("zf-le", "zf-dfe", "wl-zf-le", "wl-zf-dfe"):
            alone = synth(name, h, 0.1, fbf_length=4)
            batched = synth(name, batch, np.full(3, 0.1), fbf_length=4)
            for f in (alone, batched):
                assert np.all(np.isfinite(f.fff))
                assert np.all(np.isfinite(f.fbf_taps))
                assert np.all(np.isfinite(f.predicted_mse))
            z, _ = equalize(name, alone, y, x_f)
            zb, _ = equalize(name, batched, np.stack([y, y, y]), np.stack([x_f] * 3))
            assert np.all(np.isfinite(z)) and np.all(np.isfinite(zb))


class TestConventionalDfe:
    def test_flat_reduces_to_le(self):
        h = flat_channel(64)
        fd = synth("mmse-dfe", h, 0.5, 8)
        fl = synth("mmse-le", h, 0.5)
        np.testing.assert_allclose(fd.fbf_taps, 0, atol=1e-12)
        np.testing.assert_allclose(fd.fff, fl.fff, atol=1e-12)
        assert fd.predicted_mse == pytest.approx(fl.predicted_mse)

    def test_mse_monotone_in_length(self):
        h = rayleigh(RngStream(24, 0).generator(), 1, 20, 256)
        fl = synth("mmse-le", h, 0.5)
        mses = [
            synth("mmse-dfe", h, 0.5, L).predicted_mse
            for L in (1, 2, 4, 8, 16, 19)
        ]
        assert mses[0] <= fl.predicted_mse + 1e-15
        assert all(b <= a + 1e-15 for a, b in zip(mses, mses[1:]))

    def test_dfe_not_worse_than_le(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            h = rayleigh(rng, 2, 20, 128)
            le = synth("mmse-le", h, 0.25)
            dfe = synth("mmse-dfe", h, 0.25, 19)
            assert dfe.predicted_mse <= le.predicted_mse + 1e-12

    def test_whitening(self):
        # FBF is the prediction-error filter: residual lags 1..L vanish
        h = rayleigh(RngStream(26, 0).generator(), 1, 20, 512)
        f = synth("mmse-dfe", h, 0.1, 20)
        denom = np.sum(np.abs(h) ** 2, axis=0) + 0.1
        poly = np.zeros(512, complex)
        poly[0] = 1.0
        poly[1:21] = f.fbf_taps
        residual = np.abs(dft(poly)) ** 2 * 0.1 / denom
        lags = idft(residual)
        assert np.max(np.abs(lags[1:21])) <= 1e-6 * lags[0].real

    def test_levinson_matches_dense(self):
        rng = np.random.default_rng(27)
        for n_r, L in ((1, 4), (2, 8), (1, 19)):
            h = rayleigh(rng, n_r, 20, 256)
            f = synth("mmse-dfe", h, 0.5, L)
            denom = np.sum(np.abs(h) ** 2, axis=0) + 0.5
            q = idft(1.0 / denom)
            np.testing.assert_allclose(
                f.fbf_taps, dense_fbf(q, L), rtol=1e-8, atol=1e-10
            )

    def test_predicted_mse_identity(self):
        # posted formula == quadratic-form prediction error, independently
        h = rayleigh(RngStream(28, 0).generator(), 2, 20, 256)
        sn = 0.4
        f = synth("mmse-dfe", h, sn, 10)
        denom = np.sum(np.abs(h) ** 2, axis=0) + sn
        q = sn * idft(1.0 / denom)
        err = q[0].real + np.sum(f.fbf_taps * np.conj(q[1:11])).real
        assert f.predicted_mse == pytest.approx(err, rel=1e-10)
        poly = np.zeros(256, complex)
        poly[0] = 1.0
        poly[1:11] = f.fbf_taps
        formula = np.mean(np.abs(dft(poly)) ** 2 * sn / denom)
        assert f.predicted_mse == pytest.approx(formula, rel=1e-12)

    def test_zf_dfe_noiseless_genie_exact(self):
        h = rayleigh(RngStream(29, 0).generator(), 1, 20, 128)
        x, x_f = bpsk_block(128, 2)
        y = apply_channel_freq(x_f, h, 0.0, None)
        f = synth("zf-dfe", h, fbf_length=19)
        z, idx = equalize("zf-dfe", f, y, x_f)
        err = np.linalg.norm(z - x) / np.linalg.norm(
            x
        )
        assert err < 1e-9
        # ideal feedback slices its own output
        np.testing.assert_array_equal(idx, kernels.nearest_index(z, BPSK.points,
                                                                 True))
        np.testing.assert_array_equal(BPSK.points[idx], x)

    def test_decision_mode_matches_genie_at_high_snr(self):
        h = rayleigh(RngStream(30, 0).generator(), 2, 20, 256)
        x, x_f = bpsk_block(256, 3)
        y = apply_channel_freq(x_f, h, 1e-6,
                               noise_normals(RngStream(30, 1), h))
        f = synth("mmse-dfe", h, 1e-6, 20)
        zg, ig = equalize("mmse-dfe", f, y, x_f)
        zd, dd = equalize("mmse-dfe", f, y, x_f, feedback="decision")
        # both modes return the ideal-feedback output; only the slicer differs
        np.testing.assert_array_equal(zd, zg)
        np.testing.assert_array_equal(dd, ig)
        np.testing.assert_array_equal(BPSK.points[dd], x)

    @pytest.mark.parametrize("name", eq.RECEIVER_NAMES)
    def test_only_decision_dfes_defer_their_feedback_pass(self, name):
        # a decision-directed DFE returns the inputs of its sequential pass,
        # idft(z_f) (real for the widely linear family), its taps and the
        # tail, for the caller to stack; every other receiver slices z
        h = rayleigh(RngStream(31, 0).generator(), 1, 8, 64)
        x, x_f = bpsk_block(64, 4)
        y = apply_channel_freq(x_f, h, 0.1, noise_normals(RngStream(31, 1), h))
        f = synth(name, h, 0.1, 6)
        spec = eq.ReceiverSpec.from_name(name, feedback_mode="decision")
        z, decided = eq.equalize(spec, f, y, BPSK, x_f)
        if spec.structure == "le":
            np.testing.assert_array_equal(
                decided, kernels.nearest_index(z, BPSK.points, True))
            return
        assert isinstance(decided, eq.FeedbackPass)
        assert np.iscomplexobj(decided.z_t) == (spec.family == "conventional")
        assert decided.z_t.shape == (64,) and decided.tail.shape == (6,)
        np.testing.assert_array_equal(decided.taps, f.fbf_taps)

    def test_length_bounds(self):
        h = flat_channel(16)
        with pytest.raises(ValueError):
            synth("mmse-dfe", h, 0.5, 16)
        with pytest.raises(ValueError):
            synth("mmse-dfe", h, 0.5, 0)


class TestWidelyLinear:
    def test_flat_combined_response(self):
        # S(k) = 2 on a flat unit channel: output scaled by 2/(2 + c)
        h = flat_channel(64)
        f = synth("wl-mmse-le", h, 0.5)
        x, x_f = bpsk_block(64, 4)
        z, _ = equalize("wl-mmse-le", f,
                        apply_channel_freq(x_f, h, 0.0, None), x_f)
        np.testing.assert_allclose(z, x * 2 / 2.5, atol=1e-12)

    @given(data=st.data(), n_r=st.integers(1, 3), m=st.integers(4, 96),
           seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-5.0, 30.0),
           criterion=st.sampled_from(["zf", "mmse"]))
    def test_matches_two_look_oracle(self, data, n_r, m, seed, snr_db, criterion):
        # the paper's construction: filter [w(k), conj(w(M-k))] applied to
        # [y(k), conj(y(M-k))], with w built from the channel and the taps
        v = data.draw(st.integers(1, m), label="v")
        fbf_length = data.draw(st.integers(1, m // 2), label="L")
        sigma_n_sq = 10.0 ** (-snr_db / 10.0)
        c = constellation("bpsk")
        h = rayleigh(RngStream(seed, 0).generator(), n_r, v, m)
        x, x_f = bpsk_block(m, seed)
        y = apply_channel_freq(x_f, h, sigma_n_sq,
                               noise_normals(RngStream(seed, 1), h))
        rev = (m - np.arange(m)) % m
        g = np.sum(np.abs(h) ** 2, axis=0)
        denom = g + g[rev] + (sigma_n_sq if criterion == "mmse" else 1e-12)
        looks = np.vstack([y, np.conj(y[:, rev])])

        def two_look(f):
            assert f.fff.shape == (m, n_r)
            b = np.concatenate([f.fbf_taps, np.zeros(m - 1 - len(f.fbf_taps))])
            one_plus_b = dft(np.concatenate([[1.0], b]))
            w = one_plus_b[:, None] * np.conj(h.T) / denom[:, None]
            np.testing.assert_allclose(f.fff, w, rtol=1e-12)
            stacked = np.hstack([w, np.conj(w[rev])])
            return np.einsum("kr,rk->k", stacked, looks), one_plus_b

        def assert_matches(z, ref):
            assert np.all(np.imag(z) == 0)
            assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))

        le = synth(f"wl-{criterion}-le", h, sigma_n_sq)
        z_f, _ = two_look(le)
        assert_matches(equalize(f"wl-{criterion}-le", le, y, x_f)[0], idft(z_f))

        dfe = synth(f"wl-{criterion}-dfe", h, sigma_n_sq, fbf_length)
        z_f, one_plus_b = two_look(dfe)
        genie = idft(z_f) - idft((one_plus_b - 1.0) * dft(x))
        init = c.points[kernels.nearest_index(idft(z_f / one_plus_b), c.points,
                                              True)]
        ref_idx = kernels.dd_feedback(
            idft(z_f).real, dfe.fbf_taps.astype(complex), init[m - fbf_length:],
            c.points, True)
        assert_matches(equalize(f"wl-{criterion}-dfe", dfe, y, x_f)[0], genie)
        z, idx = equalize(f"wl-{criterion}-dfe", dfe, y, x_f, c, "decision")
        assert_matches(z, genie)
        np.testing.assert_array_equal(idx, ref_idx)

    def test_fbf_taps_real(self):
        h = rayleigh(RngStream(32, 0).generator(), 1, 20, 256)
        f = synth("wl-mmse-dfe", h, 0.5, 12)
        assert not np.iscomplexobj(f.fbf_taps)

    def test_output_real(self):
        h = rayleigh(RngStream(33, 0).generator(), 2, 20, 256)
        x, x_f = bpsk_block(256, 5)
        y = apply_channel_freq(x_f, h, 0.3,
                               noise_normals(RngStream(33, 1), h))
        for name, f in (("wl-mmse-le", synth("wl-mmse-le", h, 0.3)),
                        ("wl-zf-le", synth("wl-zf-le", h))):
            z, _ = equalize(name, f, y, x_f)
            assert np.max(np.abs(z.imag)) < 1e-9 * np.linalg.norm(z)
        fd = synth("wl-mmse-dfe", h, 0.3, 20)
        z, _ = equalize("wl-mmse-dfe", fd, y, x_f)
        assert np.max(np.abs(z.imag)) < 1e-9 * np.linalg.norm(z)

    def test_zf_noiseless_exact(self):
        h = rayleigh(RngStream(34, 0).generator(), 1, 20, 128)
        x, x_f = bpsk_block(128, 6)
        y = apply_channel_freq(x_f, h, 0.0, None)
        fle = synth("wl-zf-le", h)
        z, _ = equalize("wl-zf-le", fle, y, x_f)
        assert np.linalg.norm(z - x) < 1e-9 * np.linalg.norm(z)
        fdfe = synth("wl-zf-dfe", h, fbf_length=19)
        zd, _ = equalize("wl-zf-dfe", fdfe, y, x_f)
        assert np.linalg.norm(zd - x) < 1e-9 * np.linalg.norm(zd)

    def test_mmse_approaches_zf(self):
        h = rayleigh(RngStream(35, 0).generator(), 2, 20, 64)
        fm = synth("wl-mmse-le", h, 1e-10)
        fz = synth("wl-zf-le", h)
        assert np.max(np.abs(fm.fff - fz.fff) / np.max(np.abs(fz.fff))) < 1e-4
        fmd = synth("wl-mmse-dfe", h, 1e-10, 8)
        fzd = synth("wl-zf-dfe", h, fbf_length=8)
        assert np.max(np.abs(fmd.fbf_taps - fzd.fbf_taps)) < 1e-4

    def test_flat_dfe_collapses(self):
        h = flat_channel(64)
        f = synth("wl-zf-dfe", h, fbf_length=6,
                  sigma_n_sq=1.0)
        np.testing.assert_allclose(f.fbf_taps, 0, atol=1e-12)

    def test_levinson_matches_dense(self):
        h = rayleigh(RngStream(36, 0).generator(), 1, 20, 256)
        f = synth("wl-mmse-dfe", h, 0.5, 10)
        g = np.sum(np.abs(h) ** 2, axis=0)
        rev = (256 - np.arange(256)) % 256
        p = g + g[rev] + 0.5
        q = idft(1.0 / p)
        np.testing.assert_allclose(f.fbf_taps, dense_fbf(q, 10).real,
                                   rtol=1e-8, atol=1e-10)

    def test_mse_monotone_in_length(self):
        h = rayleigh(RngStream(37, 0).generator(), 1, 20, 256)
        mses = [
            synth("wl-mmse-dfe", h, 0.5, L).predicted_mse
            for L in (1, 4, 8, 16, 19)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(mses, mses[1:]))

    def test_complex_constellation_rejected(self):
        h = flat_channel(32)
        f = synth("wl-mmse-dfe", h, 0.5, 4)
        _, x_f = bpsk_block(32, 7)
        with pytest.raises(ValueError, match="real"):
            equalize("wl-mmse-dfe", f, np.ones((1, 32), complex), x_f,
                     constellation("8psk"), "decision")

    def test_mmse_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            synth("wl-mmse-dfe", flat_channel(16), 0.0, 4)


class TestDispatcher:
    def test_routes_all_eight(self):
        h = rayleigh(RngStream(38, 0).generator(), 2, 8, 64)
        for name in eq.RECEIVER_NAMES:
            spec = eq.ReceiverSpec.from_name(name, fbf_length=7)
            f = eq.synthesize(spec, h, 0.5)
            n_taps = 7 if spec.structure == "dfe" else 0
            assert f.fbf_taps.shape == (n_taps,)
            assert np.iscomplexobj(f.fbf_taps) == (spec.family == "conventional")
            assert f.fff.shape == (64, 2)
            assert f.predicted_mse > 0

    def test_received_block_of_the_wrong_shape(self):
        h = rayleigh(RngStream(39, 0).generator(), 2, 8, 64)
        spec = eq.ReceiverSpec.from_name("mmse-le")
        f = eq.synthesize(spec, h, 0.5)
        x_f = precode(np.ones(64))
        for y in (np.ones((1, 64)), np.ones((2, 32)), np.ones((3, 2, 64))):
            with pytest.raises(ValueError, match=r"received block must have "
                                                 r"shape \(2, 64\)"):
                eq.equalize(spec, f, y, BPSK, x_f)

    def test_noise_variance_per_row(self):
        # row i of a batch synthesized with one noise variance per row is the
        # unbatched synthesis of channel i at variance i
        rows = [rayleigh(RngStream(40, k).generator(), 2, 8, 64) for k in range(3)]
        batch = np.stack(rows)
        sigma = np.array([0.05, 0.5, 5.0])
        for name in eq.RECEIVER_NAMES:
            spec = eq.ReceiverSpec.from_name(name, fbf_length=7)
            f = eq.synthesize(spec, batch, sigma)
            for k, h in enumerate(rows):
                one = eq.synthesize(spec, h, sigma[k])
                for got, want in ((f.fff[k], one.fff), (f.fbf_taps[k], one.fbf_taps),
                                  (f.one_plus_b[k], one.one_plus_b),
                                  (f.predicted_mse[k], one.predicted_mse)):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_r", [1, 2])
    @pytest.mark.parametrize("name", eq.RECEIVER_NAMES)
    def test_feed_forward_filter_bytes(self, name, n_r):
        # fff is (1 + b) conj(h) divided by the regularized energy byte for
        # byte, written into a pass workspace or not: numpy divides a complex
        # number by a real one as it multiplies by the rounded reciprocal
        m, v, rows = 512, 8, 5
        cfg = sim.SweepConfig(receivers=name, antennas=n_r, taps=v, block_size=m,
                              fbf_len=8)
        h = np.stack([rayleigh(RngStream(41, k).generator(), n_r, v, m)
                      for k in range(rows)])
        sigma = np.geomspace(0.01, 2.0, rows)
        spec = eq.ReceiverSpec(name, 8)
        energy = np.sum(np.abs(h) ** 2, axis=-2)
        if spec.family == "widely-linear":
            energy = energy + energy[..., -np.arange(m) % m]
        denom = energy + (sigma[:, None] if spec.criterion == "mmse" else eq.ZF_FLOOR)
        work = sim._Workspace()(cfg, 1, rows)
        for response, space in ((h.copy(), None), (work["h"], work)):
            response[...] = h
            f = eq.synthesize(spec, response, sigma, space)
            want = (f.one_plus_b[..., None] * np.conj(np.swapaxes(h, -1, -2))
                    / denom[..., None])
            assert f.fff.tobytes() == want.tobytes()

    def test_matches_direct_call(self):
        # ZF-DFE built by hand: taps from a dense solve on the guarded
        # inverse spectrum, w(k) = (1 + b(k)) h*(k) / (|h(k)|^2 + eps)
        h = rayleigh(RngStream(39, 0).generator(), 1, 8, 64)
        spec = eq.ReceiverSpec.from_name("zf-dfe", fbf_length=7)
        f = eq.synthesize(spec, h, 0.25)
        denom = np.abs(h[0]) ** 2 + eq.ZF_FLOOR
        taps = dense_fbf(idft(1.0 / denom), 7)
        one_plus_b = dft(np.concatenate([[1.0], taps, np.zeros(64 - 8)]))
        np.testing.assert_allclose(f.fbf_taps, taps, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(
            f.fff[:, 0], one_plus_b * np.conj(h[0]) / denom,
            rtol=1e-8, atol=1e-10)
        assert f.predicted_mse == pytest.approx(
            0.25 * np.mean(np.abs(one_plus_b) ** 2 / denom), rel=1e-10)


def _ensemble(build, n_real, n_r, seed, **kwargs):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_real):
        h = rayleigh(rng, n_r, 20, 512)
        out.append(build(h, **kwargs))
    return out


class TestLimitingAnchors:
    """Geometric ensemble means of the synthesized post-SNRs against the
    closed-form limits (v=20, M=512; the limits are exact only as both
    grow, hence the 0.2 dB budgets)."""

    def geometric_post(self, filters, unbias=False):
        posts = [1.0 / f.predicted_mse for f in filters]
        g = np.exp(np.mean(np.log(posts)))
        return g - 1.0 if unbias else g

    def test_conv_zf_dfe_nr1(self):
        fs = _ensemble(
            lambda h: synth("zf-dfe", h, fbf_length=19,
                             sigma_n_sq=1.0),
            500, 1, 41,
        )
        assert abs(db(self.geometric_post(fs) / 0.5616)) < 0.2

    def test_wl_zf_dfe_nr1(self):
        fs = _ensemble(
            lambda h: synth("wl-zf-dfe", h, fbf_length=20,
                             sigma_n_sq=1.0),
            500, 1, 42,
        )
        assert abs(db(self.geometric_post(fs) / 1.5265)) < 0.2

    def test_wl_zf_dfe_nr2(self):
        fs = _ensemble(
            lambda h: synth("wl-zf-dfe", h, fbf_length=20,
                             sigma_n_sq=1.0),
            400, 2, 43,
        )
        assert abs(db(self.geometric_post(fs) / 3.512)) < 0.2

    def test_conv_zf_le_nr2(self):
        # E[1/chi2] argument is exact at any v: mean mse = sigma_n^2
        fs = _ensemble(
            lambda h: synth("zf-le", h, sigma_n_sq=1.0),
            400, 2, 44,
        )
        mean_mse = np.mean([f.predicted_mse for f in fs])
        assert 1.0 / mean_mse == pytest.approx(1.0, rel=0.05)

    def test_wl_zf_le_nr1_finite_channel_gap(self):
        # 20-tap channels leave h(k), h(M-k) correlated near k=0 and M/2,
        # costing the single-antenna WL-LE about 0.2-1 dB beyond its 3.01 dB
        # asymptotic gap to the real matched filter bound of 2r
        fs = _ensemble(
            lambda h: synth("wl-zf-le", h, sigma_n_sq=1.0),
            500, 1, 46,
        )
        post = 1.0 / np.mean([f.predicted_mse for f in fs])
        assert 3.0 <= db(2.0 / post) <= 4.0

    def test_conv_mmse_dfe_nr1_vs_mc_oracle(self):
        r = 1.0
        x = np.random.default_rng(77).exponential(size=10**6)
        reference = np.expm1(np.mean(np.log1p(r * x)))
        fs = _ensemble(
            lambda h: synth("mmse-dfe", h, 1.0 / r, 19), 400, 1, 45
        )
        got = self.geometric_post(fs, unbias=False)
        # compare biased ratios: geometric mean of sx^2/mse vs e^{E ln(1+rX)}
        assert abs(db(got / (reference + 1.0))) < 0.2
