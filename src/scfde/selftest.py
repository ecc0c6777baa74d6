"""Fast invariant suite runnable at install time or from the CLI.

Each suite exercises one load-bearing numerical contract with small
problem sizes and a fixed seed, so the whole battery finishes in
seconds. Suites re-derive their references independently (dense solves,
Monte Carlo, frozen decimals) rather than trusting the code under test,
which is what lets a corrupted constant or a broken kernel surface here
as a named failure.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import analytics, channel, equalizer, numerics
from .modem import constellation, map_bits, precode

__all__ = ["SuiteResult", "SUITE_NAMES", "run_selftest"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _rng(tag: int):
    return numerics.RngStream(2026, tag).generator()


def _random_channel(gen, n_r=1, v=8, m=256):
    return channel.draw_channel(gen, n_r, v, m)


def _synth(name, ch, sigma_n_sq, fbf_length=20):
    spec = equalizer.ReceiverSpec.from_name(name, fbf_length=fbf_length)
    return equalizer.synthesize(spec, ch, 1.0, sigma_n_sq)


def _equalized(name, ch, sigma_n_sq, y, c, block, fbf_length=20,
               feedback="genie"):
    """The output z of equalize for the receiver called name."""
    spec = equalizer.ReceiverSpec.from_name(name, fbf_length=fbf_length,
                                            feedback_mode=feedback)
    filt = equalizer.synthesize(spec, ch, 1.0, sigma_n_sq)
    return equalizer.equalize(spec, filt, y, c, block.precoded)[0]


def _suite_dft_roundtrip():
    gen = _rng(1)
    for m in (64, 257, 512):
        x = numerics.gaussian_complex(gen, m, 1.0)
        big_x = numerics.dft(x)
        back = numerics.idft(big_x)
        err = np.max(np.abs(back - x)) / np.max(np.abs(x))
        assert err < 1e-12, f"round-trip residual {err:.3e} at m={m}"
        lhs = np.mean(np.abs(big_x) ** 2)
        rhs = m * np.mean(np.abs(x) ** 2)
        assert abs(lhs - rhs) < 1e-10 * rhs, f"Parseval off by {lhs - rhs:.3e}"
    return "round-trip 1e-12, Parseval 1e-10 at m=64/257/512"


def _dense_prediction(q, order):
    # normal equations sum_m q(l-m) b(m) = -q(l), l=1..order
    col = q[1:order + 1]
    lag = np.subtract.outer(np.arange(order), np.arange(order))
    mat = np.where(lag >= 0, q[np.abs(lag)], np.conj(q[np.abs(lag)]))
    taps = np.linalg.solve(mat, -col)
    mse = float(np.real(q[0] + np.sum(taps * np.conj(col))))
    return taps, mse


def _suite_levinson_vs_dense():
    gen = _rng(2)
    worst = 0.0
    for n_r, order in ((1, 4), (2, 8), (1, 16)):
        ch = _random_channel(gen, n_r=n_r)
        gains = np.sum(np.abs(ch.freq_response) ** 2, axis=0)
        q = numerics.idft(1.0 / (gains + 0.1))
        # the widely linear autocovariance: real, from the even spectrum
        qr = numerics.idft(1.0 / (gains + gains[-np.arange(ch.m)] + 0.1)).real
        for seq in (q, qr):
            taps, mse = numerics.levinson_complex(seq, order)
            ref_taps, ref_mse = _dense_prediction(seq.astype(complex), order)
            worst = max(worst, float(np.max(np.abs(taps - ref_taps))),
                        abs(mse - ref_mse))
        # taps now holds the solution for qr
        assert not np.any(taps.imag), "real autocovariance gave complex taps"
    assert worst < 1e-8, f"Levinson vs dense solve differ by {worst:.3e}"
    return f"complex+real orders 4/8/16, worst residual {worst:.1e}"


def _suite_fbf_whitening():
    gen = _rng(3)
    ch = _random_channel(gen, n_r=1, v=8, m=256)
    filt = _synth("mmse-dfe", ch, 0.05, fbf_length=20)
    denom = np.abs(ch.freq_response[0]) ** 2 + 0.05
    spectrum = np.abs(equalizer._one_plus_b(filt.fbf_taps, ch.m)) ** 2 / denom
    lags = numerics.idft(spectrum)
    rel = np.max(np.abs(lags[1:21])) / abs(lags[0])
    assert rel < 1e-6, f"residual lag energy {rel:.3e} of lag 0"
    return f"prediction residual lags 1..20 at {rel:.1e} of lag 0"


def _suite_predicted_mse_monotone():
    gen = _rng(4)
    ch = _random_channel(gen, n_r=1, v=8, m=128)
    last = None
    for length in (1, 2, 4, 8, 16, 32):
        filt = _synth("mmse-dfe", ch, 0.1, fbf_length=length)
        if last is not None:
            assert filt.predicted_mse <= last + 1e-12, (
                f"mse rose from {last:.6e} to {filt.predicted_mse:.6e} "
                f"at L={length}"
            )
        last = filt.predicted_mse
    return "predicted mse non-increasing over L=1..32"


def _suite_wl_reality():
    gen = _rng(5)
    c = constellation("bpsk")
    ch = _random_channel(gen, n_r=2, v=6, m=128)
    bits = gen.integers(0, 2, 128)
    block = precode(map_bits(bits, c))
    y = channel.apply_channel_freq(block.precoded, ch, 0.05, gen)
    outputs = [_equalized(name, ch, 0.05, y, c, block, 12, feedback)
               for name in ("wl-mmse-le", "wl-mmse-dfe")
               for feedback in ("genie", "decision")]
    worst = max(float(np.max(np.abs(np.imag(z)))) for z in outputs)
    assert worst == 0.0, f"widely linear output has imag part {worst:.3e}"
    return "LE and DFE outputs exactly real in both feedback modes"


def _suite_zf_exactness():
    gen = _rng(6)
    c = constellation("bpsk")
    ch = _random_channel(gen, n_r=1, v=8, m=128)
    bits = gen.integers(0, 2, 128)
    block = precode(map_bits(bits, c))
    y = channel.apply_channel_freq(block.precoded, ch, 0.0, gen)
    worst = 0.0
    for name in ("zf-le", "wl-zf-le"):
        z = _equalized(name, ch, 0.0, y, c, block)
        worst = max(worst, float(np.max(np.abs(z - block.time_symbols))))
    assert worst < 1e-9, f"noiseless ZF residual {worst:.3e}"
    return f"noiseless recovery residual {worst:.1e}"


def _suite_mmse_zf_limit():
    gen = _rng(7)
    ch = _random_channel(gen, n_r=2, v=6, m=128)
    zf = _synth("zf-le", ch, 0.0)
    mmse = _synth("mmse-le", ch, 1e-10)
    err = float(np.max(np.abs(zf.fff - mmse.fff)))
    assert err < 1e-4, f"MMSE at sigma_n^2=1e-10 differs from ZF by {err:.3e}"
    return f"filters agree to {err:.1e} at sigma_n^2=1e-10"


def _suite_time_freq_equivalence():
    gen = _rng(8)
    ch = _random_channel(gen, n_r=2, v=8, m=128)
    x_t = numerics.gaussian_complex(gen, 128, 1.0)
    y_t = channel.apply_channel_time(x_t, ch, 0.0, gen)
    y_f = channel.apply_channel_freq(numerics.dft(x_t), ch, 0.0, gen)
    err = np.max(np.abs(np.stack([numerics.dft(r) for r in y_t]) - y_f))
    scale = np.max(np.abs(y_f))
    assert err < 1e-10 * scale, f"time/freq paths differ by {err:.3e}"
    return f"circular convolution matches per-bin product to {err:.1e}"


def _suite_stats_oracles():
    gen = _rng(9)
    n = 200_000
    for n_r in (1, 2):
        draws = gen.gamma(n_r, 1.0, n)  # ||h||^2 with unit-variance entries
        logs = np.log(draws)
        pred = analytics.expected_log_chisq(n_r)
        err = abs(np.mean(logs) - pred)
        bound = 5.0 * np.std(logs) / np.sqrt(n)
        assert err < bound, (
            f"E[ln chi2] n_r={n_r}: MC {np.mean(logs):.5f} vs {pred:.5f}"
        )
    n_r = 2
    draws = gen.gamma(2 * n_r, 1.0, n)  # WL combined gain, 2 n_r exponentials
    inv = 1.0 / draws
    mean, var = analytics.inverse_chisq_mean_var(n_r)
    err = abs(np.mean(inv) - mean)
    bound = 5.0 * np.std(inv) / np.sqrt(n)
    assert err < bound, f"E[1/chi2]: MC {np.mean(inv):.5f} vs {mean:.5f}"
    assert abs(np.var(inv) - var) < 0.05 * var, (
        f"Var[1/chi2]: MC {np.var(inv):.5f} vs {var:.5f}"
    )
    return "log and inverse chi-square moments inside Monte Carlo bounds"


_FROZEN_GAPS = {
    ("conv-zf-le", 2): 3.0103,
    ("conv-zf-dfe", 1): 2.5068,
    ("conv-zf-dfe", 2): 1.1742,
    ("wl-zf-le", 1): 3.0103,
    ("wl-zf-le", 2): 1.2494,
    ("wl-zf-dfe", 1): 1.1742,
    ("wl-zf-dfe", 2): 0.56535,
}


def _suite_limit_table():
    for (name, n_r), frozen in _FROZEN_GAPS.items():
        got = analytics.gap_to_mfb_db(name, n_r)
        assert abs(got - frozen) < 5e-4, (
            f"{name} n_r={n_r}: gap {got:.5f} dB vs frozen {frozen}"
        )
    rows = analytics.gap_table()
    assert len(rows.rows) == 8, f"expected 8 table rows, got {len(rows.rows)}"
    return f"{len(_FROZEN_GAPS)} frozen gap cells match to 5e-4 dB"


_SUITES = (
    ("dft-roundtrip", _suite_dft_roundtrip),
    ("levinson-vs-dense", _suite_levinson_vs_dense),
    ("fbf-whitening", _suite_fbf_whitening),
    ("predicted-mse-monotone", _suite_predicted_mse_monotone),
    ("wl-reality", _suite_wl_reality),
    ("zf-exactness", _suite_zf_exactness),
    ("mmse-zf-limit", _suite_mmse_zf_limit),
    ("time-freq-equivalence", _suite_time_freq_equivalence),
    ("stats-oracles", _suite_stats_oracles),
    ("limit-table", _suite_limit_table),
)

SUITE_NAMES = tuple(name for name, _ in _SUITES)


def run_selftest():
    """Run every suite; never raises, failures come back as results."""
    results = []
    for name, fn in _SUITES:
        start = time.monotonic()
        try:
            detail = fn()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        except Exception as exc:  # a crashing suite is a failed suite
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(SuiteResult(name, passed, detail,
                                   time.monotonic() - start))
    return results
