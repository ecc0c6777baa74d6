"""End-to-end acceptance battery.

One test per criterion; each prints a single live PASS/FAIL line with
the measured quantity so a tee'd run shows the verdicts even under
pytest capture. Monte Carlo checks run at desk scale with frozen seeds
and grids sized during calibration; every BER point carries at least
200 bit errors.

Gap measurements for the BER-domain reference cells use ideal (genie)
feedback and the finite-channel matched-filter reference curve: both
curves then carry the same 20-tap energy spread, which is the
convention the two-decimal reference gaps were read under.
"""

import numpy as np
import pytest

from scfde import analytics
from scfde import simulator as sim
from scfde.cli import main as cli_main
from scfde.selftest import run_selftest


def _report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)
    assert ok, f"{tag}: {detail}"


# two-decimal reference card for the closed-form table (criterion 1)
PRINTED_GAPS_DB = {
    ("conv-zf-le", 1): None,
    ("conv-zf-le", 2): 3.0,
    ("conv-zf-dfe", 1): 2.5,
    ("conv-zf-dfe", 2): 1.19,
    ("wl-zf-le", 1): 3.0,
    ("wl-zf-le", 2): 1.25,
    ("wl-zf-dfe", 1): 1.17,
    ("wl-zf-dfe", 2): 0.5644,
}

_POST_SNR_DB = 10.0  # input SNR for the limit measurements; they scale with r


def _measure_post(receivers, nr, realizations=5000):
    cfg = sim.SweepConfig.from_dict(dict(
        receivers=receivers, nr=nr, v=20, m=512, snr=[_POST_SNR_DB],
        feedback="genie", fbf_len=20, master_seed=1))
    rows = sim.measure_post_snr(cfg, _POST_SNR_DB, realizations)
    return rows[0]


def _gap_vs_mfb(receivers, nr, grid, target, feedback="genie",
                min_bit_errors=3000):
    cfg = sim.SweepConfig.from_dict(dict(
        receivers=receivers, nr=nr, v=20, m=512, snr=grid,
        feedback=feedback, fbf_len=20, min_bit_errors=min_bit_errors,
        max_blocks=20000, master_seed=1))
    res = sim.run_sweep(cfg)
    assert all(r.errors >= 200 for r in res.rows), "a point ran out of errors"
    points = [(r.snr_db, r.ber) for r in res.rows]
    reference = sim.mfb_reference_curve(cfg, per_realization=True)
    return sim.gap_at_ber(points, reference, target).gap_db


def test_criterion_1_closed_form_gap_table(capsys):
    assert cli_main(["limits"]) == 0
    out = capsys.readouterr().out
    cells = {}
    for line in out.strip().splitlines()[1:]:
        name, n_r, value = line.split(",")
        cells[(name, int(n_r))] = None if value == "NA" else float(value)
    worst = 0.0
    for key, printed in PRINTED_GAPS_DB.items():
        got = cells[key]
        if printed is None:
            assert got is None, f"{key} should be NA, got {got}"
            continue
        assert got is not None, f"{key} unexpectedly NA"
        worst = max(worst, abs(got - printed))
    ok = worst < 0.05 and len(cells) == 8
    _report(capsys, "1 closed-form gap table", ok,
            f"8 cells, worst deviation from the 2-decimal card "
            f"{worst:.4f} dB (tol 0.05)")


def test_criterion_2_conv_zf_dfe_limit(capsys):
    row = _measure_post("zf-dfe", nr=1)
    ok = abs(row.delta_db) <= 0.3
    _report(capsys, "2 conv ZF-DFE limit", ok,
            f"genie post-SNR {row.post_snr_db:.3f} dB vs closed form "
            f"{row.analytic_db:.3f} dB over {row.realizations} realizations "
            f"(delta {row.delta_db:+.3f}, tol 0.3)")


def test_criterion_3_wl_zf_dfe_limit(capsys):
    row = _measure_post("wl-zf-dfe", nr=1)
    ok = abs(row.delta_db) <= 0.3
    _report(capsys, "3 WL ZF-DFE limit", ok,
            f"genie post-SNR {row.post_snr_db:.3f} dB vs closed form "
            f"{row.analytic_db:.3f} dB over {row.realizations} realizations "
            f"(delta {row.delta_db:+.3f}, tol 0.3)")


def test_mmse_limits_at_criterion_2_settings(capsys):
    # the four MMSE receivers against exp(E[ln(1 + r S)]) - 1 and
    # 1/E[1/(1 + r S)] - 1, measured together over 1000 realizations
    cfg = sim.SweepConfig.from_dict(dict(
        receivers="mmse-le,mmse-dfe,wl-mmse-le,wl-mmse-dfe", nr=1, v=20,
        m=512, snr=[_POST_SNR_DB], feedback="genie", fbf_len=20,
        master_seed=1))
    rows = sim.measure_post_snr(cfg, _POST_SNR_DB, 1000)
    ok = all(abs(r.delta_db) <= 0.3 for r in rows)
    _report(capsys, "MMSE limits", ok,
            ", ".join(f"{r.receiver} {r.delta_db:+.3f}" for r in rows)
            + " dB from the closed forms (tol 0.3)")


def test_criterion_4_zf_le_limits(capsys):
    conv = _measure_post("zf-le", nr=2)
    wl = _measure_post("wl-zf-le", nr=2)
    ratios = tuple(10 ** ((r.post_snr_db - r.analytic_db) / 10)
                   for r in (conv, wl))
    ok = all(abs(r - 1.0) <= 0.05 for r in ratios)
    _report(capsys, "4 ZF-LE limits", ok,
            f"linear ratio to closed form: conv {ratios[0]:.4f}, "
            f"wl {ratios[1]:.4f} (tol 5%)")


def test_criterion_5_bpsk_gap_spot_checks(capsys):
    checks = (
        ("mmse-dfe", 1, [4.0, 5.0, 6.0, 7.0, 8.0], 1.4),
        ("wl-mmse-dfe", 1, [3.0, 4.0, 5.0, 6.0, 7.0], 1.0),
        ("zf-le", 2, [1.0, 2.0, 3.0, 4.0, 5.0], 3.0),
    )
    details = []
    ok = True
    for receiver, nr, grid, expected in checks:
        gap = _gap_vs_mfb(receiver, nr, grid, target=0.01)
        details.append(f"{receiver} nr={nr}: {gap:+.3f} dB (ref {expected})")
        ok = ok and abs(gap - expected) <= 0.3
    _report(capsys, "5 BPSK gaps at BER 1e-2", ok,
            "; ".join(details) + " (tol 0.3)")


def test_criterion_6_wl_mmse_dfe_dual_antenna(capsys):
    gap = _gap_vs_mfb("wl-mmse-dfe", 2, [2.5, 3.5, 4.5, 5.5], target=1e-3)
    ok = abs(gap - 0.5) <= 0.3
    _report(capsys, "6 WL MMSE-DFE gap at BER 1e-3", ok,
            f"nr=2 gap {gap:+.3f} dB (ref 0.5, tol 0.3)")


def _qam_sweep(receivers, feedback, grid, min_bit_errors, max_blocks):
    cfg = sim.SweepConfig.from_dict(dict(
        constellation="16qam", receivers=receivers, nr=1, v=20, m=512,
        snr=grid, feedback=feedback, fbf_len=20,
        min_bit_errors=min_bit_errors, max_blocks=max_blocks,
        master_seed=1))
    res = sim.run_sweep(cfg)
    return res.rows


def test_criterion_7_16qam_error_propagation(capsys):
    # fixed-size paired runs: the genie curve is error-free at the top,
    # so bound its BER from below by one error over the bits actually run
    grid = [20.0, 24.0, 28.0]
    genie = _qam_sweep("zf-dfe", "genie", grid, 10 ** 9, 150)
    decided = _qam_sweep("zf-dfe", "decision", grid, 10 ** 9, 150)
    genie_floor = max(genie[-1].ber, 1.0 / genie[-1].bits)
    floor_ratio = decided[-1].ber / genie_floor
    ok_floor = floor_ratio >= 10.0

    curve_grid = [16.5, 19.0, 21.5, 23.5]
    genie_pts = [(r.snr_db, r.ber)
                 for r in _qam_sweep("mmse-dfe", "genie", curve_grid, 800, 2500)]
    dec_pts = [(r.snr_db, r.ber)
               for r in _qam_sweep("mmse-dfe", "decision", curve_grid, 800, 2500)]
    gap = sim.gap_at_ber(dec_pts, genie_pts, 1e-3).gap_db
    ok_gap = 0.0 <= gap <= 2.5
    _report(capsys, "7 16-QAM error propagation", ok_floor and ok_gap,
            f"ZF-DFE decision floor {decided[-1].ber:.2e} >= "
            f"{floor_ratio:.0f}x genie bound at 28 dB (need 10x); "
            f"MMSE-DFE decision-vs-genie gap {gap:+.3f} dB at BER 1e-3 "
            f"(tol 2.5)")


def test_criterion_8_selftest_battery(capsys):
    results = run_selftest()
    failed = [r.name for r in results if not r.passed]
    elapsed = sum(r.elapsed_s for r in results)
    ok = not failed and len(results) >= 6 and elapsed < 60.0
    _report(capsys, "8 selftest battery", ok,
            f"{len(results)} suites in {elapsed:.2f} s"
            + (f", FAILED: {failed}" if failed else ", all green"))


def test_criterion_9_parallel_determinism(capsys, monkeypatch):
    # the rows of a pass run in parallel as one batch: the output must not
    # depend on how many rows a pass holds, nor change on a rerun
    cfg = sim.SweepConfig.from_dict(dict(
        receivers="zf-le,mmse-dfe", feedback="decision", nr=1, v=8, m=256,
        snr=[6.0, 10.0], min_bit_errors=200, max_blocks=300, master_seed=9))
    samples = cfg.antennas * cfg.block_size
    outputs = []
    # 1 << 14, the former default pass, gives the default's bytes too
    budgets = (samples, 3 * samples, 1 << 14, sim.BATCH_SAMPLES, sim.BATCH_SAMPLES)
    for budget in budgets:
        with monkeypatch.context() as patch:
            patch.setattr(sim, "BATCH_SAMPLES", budget)
            result = sim.run_sweep(cfg)
        outputs.append((sim.result_to_csv(result), sim.result_to_json(result)))
    ok = all(out == outputs[0] for out in outputs[1:])
    _report(capsys, "9 parallel determinism", ok,
            f"CSV and JSON bytes identical at "
            f"{'/'.join(str(b // samples) for b in budgets[:-1])} "
            f"blocks per pass and rerun ({len(outputs[0][0])} CSV bytes)")
