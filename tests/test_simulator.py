"""Monte Carlo engine: config parsing, block pipeline, sweeps, MFB, gaps.

The MFB bit-error values below were frozen from an independent
quadrature of the Gaussian tail before the module was written:
  Q(sqrt(2 * 10^0.96))      = 9.7362e-6   (BPSK, N_r=1, 9.6 dB)
  Q(sqrt(2 * 10^0.679))     = 9.9943e-4   (BPSK, N_r=1, 6.79 dB)
  Q(sqrt(4 * 10^0.4))       = 7.6276e-4   (BPSK, N_r=2, 4.0 dB)
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfde import equalizer as eq
from scfde import simulator as sim
from scfde.analytics import mfb_ber
from scfde.equalizer import RECEIVER_NAMES, ReceiverSpec, SingularChannelError

# the suite is deterministic: every run tries the same examples
PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)


def small_config(**overrides):
    base = dict(
        constellation="bpsk",
        receivers=["mmse-le"],
        antennas=1,
        taps=4,
        block_size=64,
        snr_db=[4.0, 8.0],
        min_bit_errors=100,
        max_blocks=40,
        master_seed=7,
    )
    base.update(overrides)
    return sim.SweepConfig.from_dict(base)


class TestSweepConfig:
    def test_defaults_and_aliases(self):
        cfg = sim.SweepConfig.from_dict(
            {"nr": 2, "v": 8, "m": 128, "snr": "0:2:6", "receivers": "zf-le,mmse-le"}
        )
        assert cfg.antennas == 2 and cfg.taps == 8 and cfg.block_size == 128
        assert cfg.snr_db == (0.0, 2.0, 4.0, 6.0)
        assert cfg.receivers == ("zf-le", "mmse-le")
        assert cfg.min_bit_errors == 200 and cfg.max_blocks == 20000

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ValueError, match="min_bit_errors"):
            sim.SweepConfig.from_dict({"snr_dbs": [1.0]})

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            small_config(snr_db=[4.0, 4.0])
        with pytest.raises(ValueError, match="increasing|empty"):
            small_config(snr_db=[])

    def test_taps_bounded_by_block(self):
        with pytest.raises(ValueError):
            small_config(taps=65)

    def test_error_floor_floor(self):
        with pytest.raises(ValueError, match="min_bit_errors"):
            small_config(min_bit_errors=99)

    def test_wl_requires_real_alphabet(self):
        with pytest.raises(ValueError, match="real"):
            small_config(constellation="16qam", receivers=["wl-mmse-le"])

    def test_duplicate_receivers(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_config(receivers=["zf-le", "zf-le"])

    def test_fbf_len_bounded_by_block(self):
        # L <= M-1 for conventional DFEs and L <= M/2 for widely linear ones,
        # rejected before any cell runs
        small_config(receivers=["mmse-dfe"], fbf_len=63)
        small_config(receivers=["wl-mmse-dfe"], fbf_len=32)
        small_config(receivers=["mmse-le"], fbf_len=600)  # LE has no FBF
        for rx, length in (("mmse-dfe", 64), ("zf-dfe", 600), ("wl-zf-dfe", 33)):
            with pytest.raises(ValueError, match="fbf_length"):
                small_config(receivers=["zf-le", rx], fbf_len=length)

    def test_max_blocks_fits_the_ordinal_field(self):
        assert small_config(max_blocks=2**32).max_blocks == 2**32
        for bad in (0, 2**32 + 1, 2**40):
            with pytest.raises(ValueError, match="max_blocks"):
                small_config(max_blocks=bad)

    def test_receiver_specs_carry_knobs(self):
        cfg = small_config(receivers=["mmse-dfe"], feedback="decision", fbf_len=3)
        (spec,) = cfg.receiver_specs()
        assert spec.feedback_mode == "decision_directed"
        assert spec.fbf_length == 3

    def test_round_trip_dict(self):
        cfg = small_config()
        assert sim.SweepConfig.from_dict(cfg.to_dict()) == cfg


class TestRunBlock:
    def test_deterministic(self):
        cfg = small_config()
        spec = ReceiverSpec.from_name("mmse-le")
        a = sim.run_block(12345, cfg, spec, 8.0)
        b = sim.run_block(12345, cfg, spec, 8.0)
        assert a == b

    def test_distinct_trials_differ(self):
        cfg = small_config()
        spec = ReceiverSpec.from_name("mmse-le")
        assert sim.run_block(1, cfg, spec, 8.0) != sim.run_block(2, cfg, spec, 8.0)

    def test_high_snr_error_free(self):
        cfg = small_config(receivers=["zf-le"])
        spec = ReceiverSpec.from_name("zf-le")
        for trial in range(5):
            errors, bits, mse = sim.run_block(trial, cfg, spec, 60.0)
            assert errors == 0 and bits == 64
            assert mse < 1e-4

    def test_bits_scale_with_constellation(self):
        cfg = small_config(constellation="16qam")
        spec = ReceiverSpec.from_name("mmse-le")
        _, bits, _ = sim.run_block(0, cfg, spec, 20.0)
        assert bits == 64 * 4

    def test_genie_not_worse_than_decision(self):
        cfg = small_config(block_size=128, taps=8, max_blocks=400)
        genie = ReceiverSpec.from_name("mmse-dfe", fbf_length=8)
        dd = ReceiverSpec.from_name("mmse-dfe", fbf_length=8,
                                    feedback_mode="decision")
        eg = ed = 0
        for trial in range(300):
            g, _, _ = sim.run_block(trial << 8, cfg, genie, 6.0)
            d, _, _ = sim.run_block(trial << 8, cfg, dd, 6.0)
            eg += g
            ed += d
        assert eg <= ed

    def test_mse_identical_between_feedback_modes(self):
        # post-SNR statistic always comes from the genie path
        cfg = small_config(block_size=128, taps=8)
        genie = ReceiverSpec.from_name("zf-dfe", fbf_length=8)
        dd = ReceiverSpec.from_name("zf-dfe", fbf_length=8,
                                    feedback_mode="decision")
        _, _, mg = sim.run_block(99 << 8, cfg, genie, 2.0)
        _, _, md = sim.run_block(99 << 8, cfg, dd, 2.0)
        assert mg == md

    def test_singular_channel_redrawn(self, monkeypatch):
        cfg = small_config(receivers=["zf-le"])
        spec = ReceiverSpec.from_name("zf-le", zf_epsilon=0.0)
        calls = []
        real = sim.run_block

        def flaky(trial_index, *args):
            if not calls:
                calls.append(trial_index)
                raise SingularChannelError("synthetic null", np.array([0]))
            return real(trial_index, *args)

        monkeypatch.setattr(sim, "run_block", flaky)
        errors, bits, mse, redraws = sim.run_block_with_retry(512, cfg, spec, 8.0)
        assert redraws == 1
        assert calls == [512]  # first attempt used the base index
        assert (errors, bits, mse) == real(513, cfg, spec, 8.0)


class TestRunSweep:
    def test_shape_and_order(self):
        cfg = small_config(receivers=["zf-le", "mmse-le"])
        res = sim.run_sweep(cfg)
        keys = [(row.receiver, row.snr_db) for row in res.rows]
        assert keys == [
            ("zf-le", 4.0), ("zf-le", 8.0), ("mmse-le", 4.0), ("mmse-le", 8.0)
        ]
        for row in res.rows:
            assert 0 <= row.ber <= 1
            assert row.bits == row.blocks * 64
            assert row.errors >= 100 or row.hit_max_blocks

    def test_stops_at_error_target(self):
        cfg = small_config(snr_db=[0.0], max_blocks=5000)
        (row,) = sim.run_sweep(cfg).rows
        assert row.errors >= 100
        assert not row.hit_max_blocks
        assert row.blocks < 5000

    def test_parallel_width_invariance(self):
        # max_blocks=400 takes the mmse-dfe cells across several batches
        cfg1 = small_config(receivers=["zf-le", "mmse-dfe"], fbf_len=4,
                            max_blocks=400)
        cfg4 = sim.SweepConfig.from_dict({**cfg1.to_dict(), "parallel_width": 4})
        r1 = sim.run_sweep(cfg1)
        r4 = sim.run_sweep(cfg4)
        assert sim.result_to_csv(r1) == sim.result_to_csv(r4)

    def test_rerun_byte_identical(self):
        cfg = small_config()
        assert sim.result_to_csv(sim.run_sweep(cfg)) == sim.result_to_csv(
            sim.run_sweep(cfg)
        )

    def test_csv_columns(self):
        cfg = small_config(receivers=["zf-dfe"], fbf_len=4)
        csv_text = sim.result_to_csv(sim.run_sweep(cfg))
        lines = csv_text.strip().split("\n")
        assert lines[0] == "receiver,snr_db,bits,errors,ber,post_snr_db,analytic_db"
        first = lines[1].split(",")
        assert first[0] == "zf-dfe"
        assert float(first[2]) == int(first[2])  # bits numeric
        float(first[5])  # post_snr_db parses
        float(first[6])  # zf rows carry the analytic limit

    def test_analytic_column_blank_for_mmse(self):
        cfg = small_config()
        csv_text = sim.result_to_csv(sim.run_sweep(cfg))
        assert csv_text.strip().split("\n")[1].endswith(",")

    def test_json_embeds_config(self):
        cfg = small_config()
        doc = json.loads(sim.result_to_json(sim.run_sweep(cfg)))
        assert doc["config"]["block_size"] == 64
        assert len(doc["rows"]) == 2
        assert sim.SweepConfig.from_dict(doc["config"]) == cfg

    def test_empirical_post_snr_tracks_zf_le_limit(self):
        # conv ZF-LE, N_r=2: mean residual mse equals sigma_n^2 exactly
        cfg = sim.SweepConfig.from_dict(
            dict(receivers=["zf-le"], nr=2, v=20, m=512, snr=[10.0],
                 min_bit_errors=100, max_blocks=400, master_seed=3)
        )
        (row,) = sim.run_sweep(cfg).rows
        assert row.analytic_db == pytest.approx(10.0, abs=1e-9)
        assert row.post_snr_db == pytest.approx(10.0, abs=0.5)


class TestBatching:
    @PROPERTY
    @given(data=st.data(), alphabet=st.sampled_from(["bpsk", "8psk", "16qam"]),
           feedback=st.sampled_from(["genie", "decision"]),
           antennas=st.integers(1, 2), m=st.integers(4, 48),
           snr_db=st.floats(-5.0, 30.0), seed=st.integers(0, 2**16))
    def test_batch_rows_equal_single_blocks(self, data, alphabet, feedback,
                                            antennas, m, snr_db, seed):
        # any split of trial indices into batches gives, row for row, the
        # bits of the block-by-block run; indices reach past 2**64 like a
        # cell's packed indices do
        names = [n for n in RECEIVER_NAMES
                 if alphabet == "bpsk" or not n.startswith("wl-")]
        name = data.draw(st.sampled_from(names), label="receiver")
        taps = data.draw(st.integers(1, m), label="v")
        fbf_len = data.draw(st.integers(1, m // 2), label="L")
        cfg = sim.SweepConfig.from_dict(dict(
            constellation=alphabet, receivers=name, feedback=feedback,
            nr=antennas, v=taps, m=m, fbf_len=fbf_len, master_seed=seed))
        (spec,) = cfg.receiver_specs()
        trials = data.draw(st.lists(st.integers(0, 2**72 - 1), min_size=1,
                                    max_size=6), label="trials")
        starts = data.draw(st.lists(st.booleans(), min_size=len(trials) - 1,
                                    max_size=len(trials) - 1), label="splits")
        cuts = [i for i, start in enumerate(starts, start=1) if start]
        single = [sim.run_block(t, cfg, spec, snr_db) for t in trials]
        rows = []
        for lo, hi in zip([0, *cuts], [*cuts, len(trials)]):
            errors, bits, mse = sim.run_block(trials[lo:hi], cfg, spec, snr_db)
            rows += zip(errors.tolist(), bits.tolist(), mse.tolist())
        assert rows == single

    def test_decision_batch_filters_once(self, monkeypatch):
        # the ideal-feedback MSE and the decision pass share one filtered
        # spectrum per batch
        cfg = small_config(receivers=["mmse-dfe"], feedback="decision",
                           fbf_len=4)
        (spec,) = cfg.receiver_specs()
        real = eq._filtered_spectrum
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(eq, "_filtered_spectrum", spy)
        sim.run_block([1 << 8, 2 << 8, 3 << 8], cfg, spec, 8.0)
        assert len(calls) == 1

    def test_singular_row_redrawn_alone(self, monkeypatch):
        # row 2 is singular at its index and the next one, row 4 at its
        # index only; every other row keeps its first index and result
        cfg = small_config(receivers=["zf-le"])
        spec = cfg.receiver_specs()[0]
        real = sim.run_block
        trials = [k << 8 for k in range(6)]
        singular = {trials[2], trials[2] + 1, trials[4]}

        def flaky(index, *args):
            rows = [i for i, t in enumerate(index) if t in singular]
            if rows:
                raise SingularChannelError("synthetic null", np.array(rows))
            return real(index, *args)

        monkeypatch.setattr(sim, "run_block", flaky)
        *outs, redraws = sim.run_block_with_retry(trials, cfg, spec, 8.0)
        assert redraws.tolist() == [0, 0, 2, 0, 1, 0]
        for row, (t, r) in enumerate(zip(trials, redraws.tolist())):
            assert tuple(o[row] for o in outs) == real(t + r, cfg, spec, 8.0)
        with pytest.raises(SingularChannelError, match="1 singular channels"):
            sim.run_block_with_retry(trials, cfg, spec, 8.0, max_redraws=1)

    @pytest.mark.parametrize("overrides", [
        dict(receivers=["zf-le", "mmse-dfe"], feedback="decision", fbf_len=4,
             snr_db=[0.0, 4.0, 8.0, 14.0], max_blocks=300),
        dict(receivers=["zf-le", "wl-mmse-le"], antennas=2, block_size=512,
             snr_db=[2.0, 6.0], min_bit_errors=300, max_blocks=200),
    ])
    def test_batch_sizes_follow_committed_counts(self, monkeypatch, overrides):
        cfg = small_config(**overrides)
        budget = sim.BATCH_SAMPLES // (cfg.antennas * cfg.block_size)
        real = sim.run_block
        calls = {}

        def spy(index, *args):
            assert not isinstance(index, int), "a cell ran an unbatched block"
            calls.setdefault(index[0] >> 40, []).append(index)
            return real(index, *args)

        monkeypatch.setattr(sim, "run_block", spy)
        rows = sim.run_sweep(cfg).rows
        assert len(calls) == len(rows)
        for row in rows:
            batches = calls[sim._cell_base(row.receiver, row.snr_db) >> 40]
            ordinals = [(t >> 8) & 0xFFFFFFFF for batch in batches for t in batch]
            assert ordinals == list(range(len(ordinals)))  # no redraws here
            committed = 0
            for batch in batches:
                assert len(batch) <= min(budget, cfg.max_blocks - committed)
                committed += len(batch)
            assert len(batches[0]) == 1
            assert row.blocks <= len(ordinals) <= row.blocks + len(batches[-1]) - 1
            # the cell stops where a block-by-block loop stops
            spec = ReceiverSpec.from_name(row.receiver, fbf_length=cfg.fbf_len,
                                          feedback_mode=cfg.feedback)
            errors = blocks = 0
            while errors < cfg.min_bit_errors and blocks < cfg.max_blocks:
                errors += real(batches[0][0] | blocks << 8, cfg, spec,
                               row.snr_db)[0]
                blocks += 1
            assert (row.errors, row.blocks) == (errors, blocks)
        # some cell's batches grow until the budget caps them
        assert any(len(b) == budget for cell in calls.values() for b in cell)


class TestTrialIndexPacking:
    def test_redraws_fit_the_low_byte(self):
        cfg = small_config()
        spec = ReceiverSpec.from_name("mmse-le")
        assert sim.run_block_with_retry(0, cfg, spec, 8.0, max_redraws=255)[3] == 0
        with pytest.raises(ValueError, match="max_redraws"):
            sim.run_block_with_retry(0, cfg, spec, 8.0, max_redraws=256)

    def test_realizations_fit_the_ordinal_field(self):
        cfg = small_config()
        for bad in (0, 2**32 + 1):
            with pytest.raises(ValueError, match="realizations"):
                sim.measure_post_snr(cfg, 8.0, bad)

    def test_cell_reproduces_from_its_trial_indices(self):
        # a cell's blocks are run_block_with_retry at cell_hash | ordinal << 8
        cfg = small_config(snr_db=[4.0], max_blocks=5)
        (row,) = sim.run_sweep(cfg).rows
        spec = cfg.receiver_specs()[0]
        base = sim._cell_base(spec.name, 4.0)
        outs = [sim.run_block_with_retry(base | k << 8, cfg, spec, 4.0)
                for k in range(row.blocks)]
        assert row.errors == sum(o[0] for o in outs)
        assert row.bits == sum(o[1] for o in outs)


class TestMeasurePostSnr:
    def test_zf_dfe_anchor(self):
        cfg = sim.SweepConfig.from_dict(
            dict(receivers=["zf-dfe"], nr=1, v=20, m=512, snr=[10.0],
                 fbf_len=20, master_seed=11)
        )
        (row,) = sim.measure_post_snr(cfg, snr_db=10.0, realizations=400)
        assert row.analytic_db == pytest.approx(10 * np.log10(0.5614594835668851 * 10))
        assert row.post_snr_db == pytest.approx(row.analytic_db, abs=0.3)

    def test_deterministic(self):
        cfg = small_config(receivers=["zf-le"], antennas=2)
        a = sim.measure_post_snr(cfg, snr_db=8.0, realizations=50)
        b = sim.measure_post_snr(cfg, snr_db=8.0, realizations=50)
        assert a == b


class TestMfbCurve:
    def test_bpsk_closed_form(self):
        cfg = small_config()
        curve = sim.mfb_reference_curve(cfg, [6.79, 9.6])
        assert curve[0][1] == pytest.approx(9.9943e-4, rel=1e-3)
        assert curve[1][1] == pytest.approx(9.7362e-6, rel=1e-3)

    def test_two_antennas_is_shifted_curve(self):
        cfg1 = small_config()
        cfg2 = small_config(antennas=2)
        shifted = sim.mfb_reference_curve(cfg2, [4.0])
        assert shifted[0][1] == pytest.approx(7.6276e-4, rel=1e-3)
        ref = sim.mfb_reference_curve(cfg1, [4.0 + 10 * np.log10(2)])
        assert shifted[0][1] == pytest.approx(ref[0][1], rel=1e-9)

    def test_per_realization_curve_near_limit_curve(self):
        # the finite-v bound sits above the v -> inf limit and falls to it
        grid = [0.0, 6.0, 12.0]
        limit = sim.mfb_reference_curve(small_config(), grid)
        previous = None
        for taps in (1, 4, 20, 512):
            cfg = small_config(taps=taps, block_size=512)
            finite = sim.mfb_reference_curve(cfg, grid, per_realization=True)
            assert [s for s, _ in finite] == grid
            assert all(b > ref for (_, b), (_, ref) in zip(finite, limit))
            if previous is not None:
                assert all(b < p for (_, b), (_, p) in zip(finite, previous))
            previous = finite

    @pytest.mark.parametrize("name", ["bpsk", "8psk", "16qam"])
    def test_curve_is_the_closed_form(self, name):
        cfg = small_config(constellation=name, antennas=2, taps=6)
        r = 10 ** (np.array(cfg.snr_db) / 10)
        for per_realization, taps in ((False, None), (True, 6)):
            curve = sim.mfb_reference_curve(cfg, per_realization=per_realization)
            assert [s for s, _ in curve] == list(cfg.snr_db)
            assert [b for _, b in curve] == list(mfb_ber(name, 2, r, taps))

    @pytest.mark.parametrize("name", ["bpsk", "8psk", "16qam"])
    def test_curve_ignores_seed_and_block_budget(self, name):
        base = small_config(constellation=name)
        others = [small_config(constellation=name, **kw) for kw in (
            dict(master_seed=99), dict(max_blocks=1), dict(min_bit_errors=10**6),
            dict(block_size=4096))]
        for per_realization in (False, True):
            curve = sim.mfb_reference_curve(base, per_realization=per_realization)
            for cfg in others:
                assert sim.mfb_reference_curve(
                    cfg, per_realization=per_realization) == curve


class TestGapAtBer:
    MFB = [(0.0, 0.1), (2.0, 0.03), (4.0, 0.006), (6.0, 0.0006)]

    def test_identical_curves(self):
        g = sim.gap_at_ber(self.MFB, self.MFB, 0.01, receiver="x")
        assert g.gap_db == pytest.approx(0.0, abs=1e-12)
        assert g.target_ber == 0.01

    def test_exact_shift_recovered(self):
        shifted = [(s + 2.0, b) for s, b in self.MFB]
        g = sim.gap_at_ber(shifted, self.MFB, 0.01)
        assert g.gap_db == pytest.approx(2.0, abs=1e-9)
        assert g.snr_at_target_db == pytest.approx(g.mfb_snr_at_target_db + 2.0)

    def test_log_linear_interpolation(self):
        g = sim.gap_at_ber(self.MFB, self.MFB, 0.01)
        # between 2 and 4 dB: snr = 2 + 2*(log .03 - log .01)/(log .03 - log .006)
        expect = 2.0 + 2.0 * np.log(3.0) / np.log(5.0)
        assert g.snr_at_target_db == pytest.approx(expect, rel=1e-9)

    def test_insufficient_range(self):
        with pytest.raises(sim.InsufficientRangeError, match="0.0006"):
            sim.gap_at_ber(self.MFB, self.MFB, 1e-5)

    def test_non_bracketing_above(self):
        with pytest.raises(sim.InsufficientRangeError):
            sim.gap_at_ber(self.MFB, self.MFB, 0.5)
