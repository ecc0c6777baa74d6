"""Monte Carlo engine: config parsing, block pipeline, sweeps, MFB, gaps.

The MFB bit-error values below were frozen from an independent
quadrature of the Gaussian tail before the module was written:
  Q(sqrt(2 * 10^0.96))      = 9.7362e-6   (BPSK, N_r=1, 9.6 dB)
  Q(sqrt(2 * 10^0.679))     = 9.9943e-4   (BPSK, N_r=1, 6.79 dB)
  Q(sqrt(4 * 10^0.4))       = 7.6276e-4   (BPSK, N_r=2, 4.0 dB)
"""

import dataclasses
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfde import analytics, channel, kernels, modem, numerics
from scfde import equalizer as eq
from scfde import simulator as sim
from scfde.analytics import mfb_ber
from scfde.equalizer import RECEIVER_NAMES, ReceiverSpec

# tests/conftest.py makes every property test deterministic
PROPERTY = settings(max_examples=60)

# any value a JSON config can hold
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)
CONFIG_KEYS = sorted({f.name for f in dataclasses.fields(sim.SweepConfig)}
                     | set(sim._ALIASES) | {"parallel_width", "zf_epsilon"})


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


def _row(out, row=0):
    """One row of a run_block result, as Python numbers."""
    return tuple(column[row].item() for column in out)


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

    @pytest.mark.parametrize("width", [2, 0, "x"])
    def test_retired_parallel_width_key_is_dropped(self, width):
        # sweep JSON written before the key was retired carries it; it is
        # ignored whatever its value, and no longer part of the config
        cfg = small_config()
        assert sim.SweepConfig.from_dict(
            {**cfg.to_dict(), "parallel_width": width}) == cfg
        assert "parallel_width" not in cfg.to_dict()

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            small_config(snr_db=[4.0, 4.0])
        with pytest.raises(ValueError, match="increasing|empty"):
            small_config(snr_db=[])

    def test_integer_keys_take_integral_values_only(self):
        # integral floats (JSON 1e3) and digit strings (CLI overrides) are
        # integers; a non-integral value or a bool is an error, not truncated
        cfg = sim.SweepConfig.from_dict(
            {"nr": 2.0, "max_blocks": 1e3, "v": "4", "m": 64})
        assert (cfg.antennas, cfg.max_blocks, cfg.taps) == (2, 1000, 4)
        assert all(type(n) is int for n in (cfg.antennas, cfg.max_blocks))
        for key, value in (("antennas", 2.5), ("max_blocks", 3.9), ("taps", "4.0"),
                           ("master_seed", True), ("fbf_len", None),
                           ("block_size", float("nan"))):
            with pytest.raises(ValueError, match=f"{key!r} must be an integer"):
                sim.SweepConfig.from_dict({key: value})
            with pytest.raises(ValueError, match=f"{key!r} must be an integer"):
                sim.SweepConfig(**{key: value})

    def test_block_samples_are_capped(self):
        # validation only: a config at the cap is valid, one sample more is
        # not, and neither allocates a block
        cap = sim.MAX_BLOCK_SAMPLES
        assert small_config(antennas=2, block_size=cap // 2).block_size == cap // 2
        for antennas, block_size in ((1, cap + 1), (2, cap // 2 + 1), (1, 2**26)):
            with pytest.raises(ValueError, match="antennas x block_size"):
                small_config(antennas=antennas, block_size=block_size)

    def test_grid_points_need_distinct_cell_keys(self):
        # the cell hash reads the SNR to 6 decimals: two points closer than
        # that would draw the same trial indices and streams
        small_config(snr_db=[1.0, 1.000001])
        with pytest.raises(ValueError, match="cell key 1.000000"):
            small_config(snr_db=[0.5, 1.0, 1.0000001])

    @pytest.mark.parametrize("grid", ["0:0:4", "4:-1:0", "0:nan:4"])
    def test_snr_range_needs_a_positive_step(self, grid):
        with pytest.raises(ValueError, match="positive step"):
            small_config(snr_db=grid)

    @pytest.mark.parametrize("receivers", ["", " , ", []])
    def test_at_least_one_receiver(self, receivers):
        with pytest.raises(ValueError, match="at least one receiver"):
            small_config(receivers=receivers)

    def test_master_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="'master_seed' must be an integer >= 0"):
            small_config(master_seed=-1)

    def test_alias_and_key_given_together_clash(self):
        with pytest.raises(ValueError, match="'antennas' given twice"):
            sim.SweepConfig.from_dict({"nr": 2, "antennas": 2})

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

    @settings(max_examples=300)
    @given(key=st.sampled_from(CONFIG_KEYS), value=JSON_VALUES)
    def test_any_json_value_builds_or_raises_value_error(self, key, value):
        # a value of the wrong type is a ValueError (exit 2 at the command
        # line), never an AttributeError or TypeError, nor silently taken
        try:
            cfg = sim.SweepConfig.from_dict({key: value})
        except ValueError:
            return
        assert all(type(s) is float for s in cfg.snr_db)
        if sim._ALIASES.get(key, key) in ("snr_db", "zf_epsilon"):
            assert not any(isinstance(v, bool)
                           for v in (value if isinstance(value, list) else [value]))
        if key == "zf_epsilon":  # retired: loads at the fixed floor only
            assert float(value) == eq.ZF_FLOOR


class TestRunBlock:
    def test_layers_the_benchmark_traces_by_name_resolve(self):
        # perfbench/layers.py patches these attributes by name and reports
        # 0 calls, not an error, for one that has gone or been renamed;
        # (owner patched, name, module or class that defines it)
        traced = [
            *[(sim, name, channel) for name in ("draw_channel", "apply_channel_freq")],
            *[(sim, name, modem) for name in ("map_bits", "precode",
                                              "count_bit_errors")],
            (sim, "synthesize", eq),
            *[(sim, name, sim) for name in ("run_block", "mfb_reference_curve",
                                            "gap_at_ber")],
            *[(kernels, name, kernels) for name in ("levinson_recursion",
                                                    "dd_feedback")],
            # perfbench patches the method on the class in numerics
            (numerics.RngStream, "generator", numerics.RngStream),
        ]
        for owner, name, home in traced:
            assert name in owner.__dict__, name
            assert owner.__dict__[name] is home.__dict__[name], name

    def test_deterministic(self):
        cfg = small_config()
        spec = ReceiverSpec.from_name("mmse-le")
        a = _row(sim.run_block(12345, cfg, spec, 8.0))
        b = _row(sim.run_block(12345, cfg, spec, 8.0))
        assert a == b

    def test_distinct_trials_differ(self):
        cfg = small_config()
        spec = ReceiverSpec.from_name("mmse-le")
        assert (_row(sim.run_block(1, cfg, spec, 8.0))
                != _row(sim.run_block(2, cfg, spec, 8.0)))

    def test_high_snr_error_free(self):
        cfg = small_config(receivers=["zf-le"])
        spec = ReceiverSpec.from_name("zf-le")
        for trial in range(5):
            errors, mse = _row(sim.run_block(trial, cfg, spec, 60.0))
            assert errors == 0
            assert mse < 1e-4

    def test_bits_scale_with_constellation(self):
        # a cell's bits are its blocks of block_size symbols of 4 bits each
        cfg = small_config(constellation="16qam", max_blocks=3)
        for row in sim.run_sweep(cfg).rows:
            assert row.bits == row.blocks * 64 * 4

    def test_genie_not_worse_than_decision(self):
        cfg = small_config(block_size=128, taps=8, max_blocks=400)
        genie = ReceiverSpec.from_name("mmse-dfe", fbf_length=8)
        dd = ReceiverSpec.from_name("mmse-dfe", fbf_length=8,
                                    feedback_mode="decision")
        trials = [trial << 8 for trial in range(300)]
        eg = sim.run_block(trials, cfg, genie, 6.0)[0].sum()
        ed = sim.run_block(trials, cfg, dd, 6.0)[0].sum()
        assert eg <= ed

    def test_mse_identical_between_feedback_modes(self):
        # post-SNR statistic always comes from the genie path
        cfg = small_config(block_size=128, taps=8)
        genie = ReceiverSpec.from_name("zf-dfe", fbf_length=8)
        dd = ReceiverSpec.from_name("zf-dfe", fbf_length=8,
                                    feedback_mode="decision")
        _, mg = sim.run_block(99 << 8, cfg, genie, 2.0)
        _, md = sim.run_block(99 << 8, cfg, dd, 2.0)
        assert mg[0] == md[0]

    def test_int_index_is_a_batch_of_one(self):
        # the int form runs the same chain and returns the same arrays
        cfg = small_config()
        spec = ReceiverSpec.from_name("mmse-le")
        for one, listed in zip(sim.run_block(7 << 8, cfg, spec, 8.0),
                               sim.run_block([7 << 8], cfg, spec, 8.0)):
            assert one.shape == (1,) and one.tolist() == listed.tolist()


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

    def test_analytic_column_holds_the_mmse_limit(self):
        cfg = small_config()
        csv_text = sim.result_to_csv(sim.run_sweep(cfg))
        first = csv_text.strip().split("\n")[1].split(",")
        assert first[:2] == ["mmse-le", "4.0"]
        assert float(first[6]) == 10 * np.log10(
            analytics.limit_snr("mmse-le", 1, 1 / sim._noise_variance(4.0)))

    def test_analytic_value_of_an_mmse_cell_is_kept(self, monkeypatch):
        # an MMSE cell's limit is one integral, evaluated once per (receiver,
        # n_r, SNR): a second call evaluates none; zf-le at n_r = 1 and an
        # input SNR past the doubles have no finite limit, and any other
        # refusal of limit_snr is not swallowed
        calls, moments = [], analytics._energy_moments
        monkeypatch.setattr(analytics, "_energy_moments",
                            lambda *args: calls.append(args) or moments(*args))
        analytics._mmse_limit.cache_clear()
        cfg = small_config()  # n_r = 1
        for name in ("mmse-le", "mmse-dfe", "wl-mmse-le", "wl-mmse-dfe"):
            spec = ReceiverSpec.from_name(name)
            first = sim._analytic_db(spec, cfg, 10.0)
            assert sim._analytic_db(spec, cfg, 10.0) == first == 10 * np.log10(
                analytics.limit_snr(name, 1, 10.0))
        assert len(calls) == 4
        monkeypatch.undo()
        assert sim._analytic_db(ReceiverSpec("zf-le"), cfg, 10.0) is None
        assert sim._analytic_db(ReceiverSpec("zf-dfe"), cfg, 3230.0) is None
        assert sim._analytic_db(ReceiverSpec("wl-zf-le"), cfg, 10.0) \
            == pytest.approx(10.0, abs=1e-12)
        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(sim, "limit_snr", refuse)
        with pytest.raises(ValueError, match="refused"):
            sim._analytic_db(ReceiverSpec("zf-dfe"), cfg, 10.0)

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
           snr_db=st.floats(-5.0, 30.0), seed=st.integers(0, 2**48))
    def test_batch_rows_equal_single_blocks(self, data, alphabet, feedback,
                                            antennas, m, snr_db, seed):
        # any split of trial indices into batches gives, row for row, the
        # bits of the block-by-block run; indices reach past 2**64 like a
        # cell's packed indices do, and seeds past 2**32, so that some rows
        # seed their streams from more than four entropy words
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
        single = [_row(sim.run_block([t], cfg, spec, snr_db)) for t in trials]
        rows = []
        for lo, hi in zip([0, *cuts], [*cuts, len(trials)]):
            errors, mse = sim.run_block(trials[lo:hi], cfg, spec, snr_db)
            rows += zip(errors.tolist(), mse.tolist())
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

    @pytest.mark.parametrize("overrides, samples", [
        # 128 rows a pass: the widest pass the first sweep's rounds fill
        pytest.param(dict(receivers=["zf-le", "mmse-dfe"], feedback="decision",
                          fbf_len=4, snr_db=[0.0, 4.0, 8.0, 14.0],
                          max_blocks=300), 128 * 64, id="overrides0"),
        pytest.param(dict(receivers=["zf-le", "wl-mmse-le"], antennas=2,
                          block_size=512, snr_db=[2.0, 6.0], min_bit_errors=300,
                          max_blocks=200), sim.BATCH_SAMPLES, id="overrides1"),
    ])
    def test_batch_sizes_follow_committed_counts(self, monkeypatch, overrides,
                                                 samples):
        # all cells of the sweep share rounds; within a round's run_block
        # call each cell's rows are one run of consecutive ordinals, and a
        # front-end pass holds the rows of one receiver, at most the budget
        monkeypatch.setattr(sim, "BATCH_SAMPLES", samples)
        cfg = small_config(**overrides)
        budget = sim.BATCH_SAMPLES // (cfg.antennas * cfg.block_size)
        block_bits = cfg.block_size  # BPSK
        real, real_synthesize = sim.run_block, sim.synthesize
        calls, passes = [], []

        def spy(index, *args):
            assert not isinstance(index, int), "a cell ran an unbatched block"
            calls.append(index)
            return real(index, *args)

        def synthesize_spy(spec, freq_response, sigma_n_sq, **kwargs):
            passes.append(len(freq_response))
            return real_synthesize(spec, freq_response, sigma_n_sq, **kwargs)

        monkeypatch.setattr(sim, "run_block", spy)
        monkeypatch.setattr(sim, "synthesize", synthesize_spy)
        rows = sim.run_sweep(cfg).rows
        monkeypatch.undo()
        assert all(1 <= size <= budget for size in passes)
        runs = {}  # cell hash -> the ordinals of each of its runs, in order
        for index in calls:
            for cell, group in itertools.groupby(index, key=lambda t: t >> 40):
                runs.setdefault(cell, []).append(
                    [(t >> 8) & 0xFFFFFFFF for t in group])
        assert len(runs) == len(rows)
        for row in rows:
            base = sim._cell_base(row.receiver, row.snr_db)
            cell_runs = runs[base >> 40]
            ordinals = [k for run in cell_runs for k in run]
            assert ordinals == list(range(len(ordinals)))
            # the cell stops where a block-by-block loop stops
            spec = ReceiverSpec.from_name(row.receiver, fbf_length=cfg.fbf_len,
                                          feedback_mode=cfg.feedback)
            errors = [0]  # committed errors before each block
            while (errors[-1] < cfg.min_bit_errors
                   and len(errors) <= cfg.max_blocks):
                errors.append(errors[-1] + real(
                    [base | (len(errors) - 1) << 8], cfg, spec, row.snr_db)[0][0])
            assert (row.errors, row.blocks) == (errors[-1], len(errors) - 1)
            # the first run holds the blocks the cell is certain to commit
            certain = -(-cfg.min_bit_errors // block_bits)
            assert len(cell_runs[0]) == min(budget, cfg.max_blocks, max(1, certain))
            # each run is exactly one request, one per call while the cell
            # runs; a run above the committed blocks (its first ordinal)
            # stays below the error target even if every bit errs, so it is
            # committed whole
            assert len(cell_runs) == sum(
                any(t >> 40 == base >> 40 for t in index) for index in calls)
            for run in cell_runs:
                assert 1 <= len(run) <= min(cfg.max_blocks - run[0], budget)
                if len(run) > max(1, run[0]):
                    assert (errors[run[0]] + (len(run) - 1) * block_bits
                            < cfg.min_bit_errors)
                    assert run[-1] < row.blocks
            assert row.blocks <= len(ordinals) < 2 * row.blocks
        # the first call holds the first run of each cell of the sweep, and
        # some front-end pass is filled to the budget
        assert sorted(set(t >> 40 for t in calls[0])) == sorted(
            sim._cell_base(rx, snr) >> 40
            for rx in cfg.receivers for snr in cfg.snr_db)
        assert budget in passes

    @settings(max_examples=300)
    @given(data=st.data(), blocks=st.integers(0, 64) | st.integers(0, 10**4),
           block_bits=st.integers(1, 4096), budget=st.integers(1, 512),
           min_errors=st.just(math.inf) | st.integers(100, 10**5))
    def test_next_batch_asks_for_the_rows_certain_to_commit(
            self, data, blocks, block_bits, budget, min_errors):
        # a batch is at least the rows the cell commits even if every bit
        # errs, at most a pass and the blocks left; it exceeds the geometric
        # max(1, blocks) only with rows that are all committed
        errors = data.draw(st.integers(0, min(blocks * block_bits,
                                              min_errors - 1)), label="errors")
        max_blocks = data.draw(st.integers(blocks + 1, blocks + 10**6),
                               label="max_blocks")
        tally = sim._Tally(ReceiverSpec.from_name("zf-le"), 0.0, 0, block_bits,
                           errors=errors, mses=[1.0] * blocks)
        size = sim._next_batch(tally, budget, max_blocks, min_errors)
        left = max_blocks - blocks
        assert 1 <= size <= min(budget, left)
        certain = (left if math.isinf(min_errors)
                   else -(-(min_errors - errors) // block_bits))
        assert size >= min(budget, left, certain)
        if size > max(1, blocks):
            assert errors + (size - 1) * block_bits < min_errors

    @pytest.mark.parametrize("samples, feedback_rows, pass_rows", [
        # default budget: no cell can stop early, so each asks for all its
        # 24 blocks in the first round, and a receiver's 96 rows run in
        # passes of sim._pass_rows rows (None)
        pytest.param(sim.BATCH_SAMPLES, [192], None, id="default"),
        # 4 rows a pass: rounds of 32 rows, each cell asking for at most
        # one pass
        (4 * 512, [32] * 6, [4] * 24),
    ])
    def test_decision_rows_share_one_feedback_pass_per_round(
            self, monkeypatch, samples, feedback_rows, pass_rows):
        # the criterion-7 shape: every cell runs max_blocks = 24 blocks. A
        # round's decision rows of both receivers share one feedback pass;
        # the front end runs each receiver's rows in passes of at most the
        # budget, as many as when receivers ran one by one
        monkeypatch.setattr(sim, "BATCH_SAMPLES", samples)
        cfg = sim.SweepConfig.from_dict(dict(
            constellation="16qam", receivers="zf-dfe,mmse-dfe",
            feedback="decision", nr=1, v=20, m=512, fbf_len=20,
            snr=[16.5, 19.0, 21.5, 23.5], min_bit_errors=10**9, max_blocks=24))
        if pass_rows is None:
            step = sim._pass_rows(cfg)
            pass_rows = [min(step, 96 - lo) for lo in range(0, 96, step)]
        real_feedback, real_synthesize = kernels.dd_feedback, sim.synthesize
        feedback, passes = [], []

        def feedback_spy(z_t, *args):
            feedback.append(len(z_t))
            return real_feedback(z_t, *args)

        def synthesize_spy(spec, freq_response, sigma_n_sq, **kwargs):
            passes.append((spec.name, len(freq_response)))
            return real_synthesize(spec, freq_response, sigma_n_sq, **kwargs)

        monkeypatch.setattr(kernels, "dd_feedback", feedback_spy)
        monkeypatch.setattr(sim, "synthesize", synthesize_spy)
        rows = sim.run_sweep(cfg).rows
        assert [row.blocks for row in rows] == [24] * 8
        assert feedback == feedback_rows
        for name in cfg.receivers:
            assert [size for rx, size in passes if rx == name] == pass_rows

    def test_a_round_is_one_run_block_call(self, monkeypatch):
        # each round makes one run_block call: a receiver's rows of all its
        # cells make ceil(rows / budget) front-end passes, and the decision-
        # directed DFE rows of the round make one feedback call per feedback
        # length, which no linear or genie row reaches
        monkeypatch.setattr(sim, "BATCH_SAMPLES", 3 * 64)
        cfg = small_config(fbf_len=4, snr_db=[0.0, 4.0, 8.0])
        dfe = ReceiverSpec.from_name("mmse-dfe", fbf_length=4,
                                     feedback_mode="decision")
        specs = [ReceiverSpec.from_name("zf-le", feedback_mode="decision"), dfe,
                 dataclasses.replace(dfe, fbf_length=2),
                 ReceiverSpec.from_name("wl-zf-dfe", fbf_length=2,
                                        feedback_mode="decision"),
                 ReceiverSpec.from_name("zf-dfe", fbf_length=4)]
        cells = [(spec, snr) for spec in specs for snr in cfg.snr_db]
        real_next, real_block = sim._next_batch, sim.run_block
        real_synthesize, real_feedback = sim.synthesize, kernels.dd_feedback
        events = []  # (kind, key, rows) of requests, calls, passes, feedback

        def next_spy(tally, *args):
            size = real_next(tally, *args)
            events.append(("ask", tally.spec, size))
            return size

        def block_spy(index, *args):
            events.append(("block", None, len(index)))
            return real_block(index, *args)

        def synthesize_spy(spec, freq_response, sigma_n_sq, **kwargs):
            events.append(("pass", spec, len(freq_response)))
            return real_synthesize(spec, freq_response, sigma_n_sq, **kwargs)

        def feedback_spy(z_t, taps, *args):
            events.append(("feedback", taps.shape[-1], len(z_t)))
            return real_feedback(z_t, taps, *args)

        monkeypatch.setattr(sim, "_next_batch", next_spy)
        monkeypatch.setattr(sim, "run_block", block_spy)
        monkeypatch.setattr(sim, "synthesize", synthesize_spy)
        monkeypatch.setattr(kernels, "dd_feedback", feedback_spy)
        sim._run_cells(cfg, cells, 60, cfg.min_bit_errors)
        rounds = []  # the events of each round, by kind
        for kind, key, size in events:
            if kind == "ask" and (not rounds or rounds[-1]["block"]):
                rounds.append({"ask": [], "block": [], "pass": [], "feedback": []})
            rounds[-1][kind].append((key, size))
        assert len(rounds) > 3
        uneven = 0
        for r in rounds:
            assert r["block"] == [(None, sum(size for _, size in r["ask"]))]
            for spec in specs:
                rows = sum(size for key, size in r["ask"] if key == spec)
                sizes = [size for key, size in r["pass"] if key == spec]
                assert sum(sizes) == rows
                assert len(sizes) == -(-rows // 3), (spec, rows, sizes)
                uneven += rows % 3 != 0
            decision = {}  # feedback length -> decision-directed DFE rows
            for spec, size in r["ask"]:
                if (spec.structure, spec.feedback_mode) == ("dfe",
                                                            "decision_directed"):
                    decision[spec.fbf_length] = decision.get(
                        spec.fbf_length, 0) + size
            assert sorted(r["feedback"]) == sorted(decision.items())
        assert uneven  # some round's rows do not fill whole passes

    def test_interleaved_receivers_equal_single_blocks(self):
        # the decision-directed DFE rows of two receivers that alternate
        # with each other and with a linear one share one feedback pass,
        # and each row's decisions return to that row
        cfg = small_config(receivers=["zf-dfe", "wl-mmse-dfe", "mmse-le"],
                           feedback="decision", fbf_len=4)
        specs = cfg.receiver_specs()
        trials = [k << 8 for k in range(9)]
        row_specs = [specs[k % 3] for k in range(9)]
        snrs = [2.0 + k for k in range(9)]
        single = [_row(sim.run_block(t, cfg, spec, snr))
                  for t, spec, snr in zip(trials, row_specs, snrs)]
        errors, mse = sim.run_block(trials, cfg, row_specs, snrs)
        assert list(zip(errors.tolist(), mse.tolist())) == single

    def test_info_records_are_receiver_major_and_snr_ascending(self, caplog):
        # cells of all receivers run together, but their records and rows
        # keep the order of the config's receivers, then of the SNR grid
        cfg = small_config(receivers=["mmse-dfe", "zf-le", "wl-mmse-le"],
                           feedback="decision", fbf_len=4,
                           snr_db=[0.0, 5.0, 10.0], max_blocks=30)
        with caplog.at_level(logging.INFO, logger="scfde.simulator"):
            rows = sim.run_sweep(cfg).rows
        cells = [(rx, snr) for rx in cfg.receivers for snr in cfg.snr_db]
        assert [(row.receiver, row.snr_db) for row in rows] == cells
        records = [r.getMessage() for r in caplog.records
                   if r.name == "scfde.simulator"]
        assert [m.split(":")[0] for m in records] == [
            f"{rx} @ {snr:g} dB" for rx, snr in cells]

    @PROPERTY
    @given(data=st.data(), antennas=st.integers(1, 2), m=st.integers(4, 32),
           seed=st.integers(0, 2**16))
    def test_mixed_snr_rows_equal_single_blocks(self, data, antennas, m, seed):
        # a batch whose rows have different receivers, feedback modes,
        # feedback lengths and SNRs gives, row for row, the bits of the
        # batch of one at that row's trial index, receiver and SNR, at any
        # front-end pass size and any cap on the rows of a feedback call
        cfg = sim.SweepConfig.from_dict(dict(
            constellation="bpsk", receivers=",".join(RECEIVER_NAMES),
            nr=antennas, v=data.draw(st.integers(1, m), label="v"), m=m,
            fbf_len=data.draw(st.integers(1, m // 2), label="L"),
            master_seed=seed))
        other_length = data.draw(st.integers(1, m // 2), label="second L")
        specs = [dataclasses.replace(spec, feedback_mode=mode, fbf_length=length)
                 for spec in cfg.receiver_specs()
                 for mode in ("ideal_genie", "decision_directed")
                 for length in (cfg.fbf_len, other_length)]
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, 2**72 - 1), st.sampled_from(specs),
                      st.floats(-5.0, 30.0)), min_size=1, max_size=10),
            label="rows")
        single = [_row(sim.run_block(t, cfg, spec, snr)) for t, spec, snr in rows]
        trials, row_specs, snrs = (list(column) for column in zip(*rows))
        pass_rows = data.draw(st.integers(1, len(rows)), label="pass rows")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "BATCH_SAMPLES", pass_rows * antennas * m)
            # held decision rows are decided once they would pass the cap
            patch.setattr(sim, "FLUSH_PASSES",
                          data.draw(st.integers(1, 3), label="flush passes"))
            errors, mse = sim.run_block(trials, cfg, row_specs, snrs)
        assert list(zip(errors.tolist(), mse.tolist())) == single

    @pytest.mark.parametrize("antennas", [1, 2])
    @pytest.mark.parametrize("pass_rows", [3, None])
    def test_a_family_gives_the_bytes_of_separate_calls(self, monkeypatch,
                                                        antennas, pass_rows):
        # receivers whose rows name the same trials at the same SNRs, in
        # the same order, are one family: each pass draws its rows once
        # and runs every receiver on them. All eight receivers, in genie
        # and decision feedback, and one more with other feedback taps,
        # give row for row the bytes of their own calls, also where
        # passes of three rows split the family and every receiver's
        # rows are spread over the call. A receiver whose SNRs or trial
        # order differ runs alone
        cfg = small_config(receivers=",".join(RECEIVER_NAMES), fbf_len=4,
                           antennas=antennas, block_size=32)
        if pass_rows:
            monkeypatch.setattr(sim, "BATCH_SAMPLES",
                                pass_rows * antennas * cfg.block_size)
        trials = [(7 * k + 3) << 8 for k in range(7)]
        snrs = [2.0 + k for k in range(7)]
        family = [dataclasses.replace(spec, feedback_mode=mode)
                  for spec in cfg.receiver_specs()
                  for mode in ("ideal_genie", "decision_directed")]
        zf, dfe = ReceiverSpec.from_name("zf-le"), ReceiverSpec.from_name(
            "mmse-dfe", fbf_length=2, feedback_mode="decision")
        wl = ReceiverSpec.from_name("wl-zf-dfe", fbf_length=3)
        rows = [(spec, trials, snrs) for spec in family]
        rows += [(zf, trials, snrs[::-1]), (dfe, trials[::-1], snrs),
                 (wl, trials, snrs)]
        flat = [(spec, spec_trials[k], spec_snrs[k]) for k in range(7)
                for spec, spec_trials, spec_snrs in rows]
        single = {}
        for spec, spec_trials, spec_snrs in rows:
            errors, mse = sim.run_block(spec_trials, cfg, spec, spec_snrs)
            single[spec] = list(zip(errors.tolist(), mse.tolist()))
        real, families, drawn = sim._front_end, [], []

        def spy(config, c, members, states, sigma_n_sq):
            families.append(list(members))
            drawn.append(len(states))
            return real(config, c, members, states, sigma_n_sq)

        monkeypatch.setattr(sim, "_front_end", spy)
        specs, row_trials, row_snrs = (list(column) for column in zip(*flat))
        errors, mse = sim.run_block(row_trials, cfg, specs, row_snrs)
        got = {}
        for spec, e, m in zip(specs, errors.tolist(), mse.tolist()):
            got.setdefault(spec, []).append((e, m))
        assert got == single
        step = pass_rows or sim._pass_rows(cfg)
        passes = -(-7 // step)
        assert sorted(map(len, families)) == [1] * 2 * passes + [
            len(family) + 1] * passes
        assert sum(drawn) == 3 * 7
        assert all(members == family + [wl] for members in families
                   if len(members) > 1)

    def test_one_snr_per_trial_index(self):
        cfg = small_config()
        (spec,) = cfg.receiver_specs()
        with pytest.raises(ValueError, match="one snr_db per trial index"):
            sim.run_block([1, 2, 3], cfg, spec, [4.0, 8.0])

    def test_one_receiver_per_trial_index(self):
        cfg = small_config()
        (spec,) = cfg.receiver_specs()
        with pytest.raises(ValueError, match="one receiver per trial index"):
            sim.run_block([1, 2, 3], cfg, [spec, spec], 4.0)

    def test_sweep_bytes_independent_of_the_budget(self, monkeypatch):
        cfg = small_config(receivers=["zf-le", "mmse-dfe", "wl-mmse-dfe"],
                           feedback="decision", fbf_len=4,
                           snr_db=[0.0, 3.0, 6.0, 9.0], max_blocks=120)
        samples, default = cfg.antennas * cfg.block_size, sim.BATCH_SAMPLES
        outputs = []
        for budget in (samples, 3 * samples, default):
            monkeypatch.setattr(sim, "BATCH_SAMPLES", budget)
            result = sim.run_sweep(cfg)
            outputs.append((sim.result_to_csv(result), sim.result_to_json(result)))
        assert outputs[1:] == outputs[:1] * 2


def _run_front_end(*args):
    """Every receiver's results of one sim._front_end pass, taken as
    run_block takes them, each before the next receiver runs."""
    for _ in sim._front_end(*args):
        pass


def _traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while fn runs; numpy reports its array
    buffers to it, so for a given numpy the peak is the same on every run."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("alphabet, feedback, kib", [
        ("bpsk", "genie", 6), ("16qam", "decision", 13)])
    def test_front_end_pass_peak_per_row(self, alphabet, feedback, kib):
        # one full front-end pass of M = 512 rows, once the workspace is
        # made: its arrays are written into the workspace and a decision
        # row into its feedback call's arrays, so what a pass allocates is
        # the slicer's, the feedback pass's and the counts' (5.0 and 12.0
        # KiB a row); a pass-sized temporary, 4 or 8 KiB a row, fails
        cfg = sim.SweepConfig.from_dict(dict(
            constellation=alphabet, receivers="mmse-dfe", feedback=feedback,
            nr=1, v=20, m=512, fbf_len=20, snr=[10.0]))
        (spec,) = cfg.receiver_specs()
        rows = sim._pass_rows(cfg)
        trials = [k << 8 for k in range(rows)]
        sim.run_block(trials, cfg, spec, 10.0)  # fills the slicer's cache
        peak = _traced_peak(lambda: sim.run_block(trials, cfg, spec, 10.0))
        assert peak / rows < kib * 1024

    def test_decision_front_end_pass_peak_per_row(self):
        # a decision pass peaks in dd_feedback's history (12.0 KiB a row),
        # under which a front-end temporary would hide, so the front end
        # is bounded on its own: its slicers' 4.7 KiB a row pass, a
        # pass-sized complex temporary, 8 KiB a row, fails (the float
        # reciprocal spectrum handed to idft to cast, for one)
        cfg = sim.SweepConfig.from_dict(dict(
            constellation="16qam", receivers="mmse-dfe", feedback="decision",
            nr=1, v=20, m=512, fbf_len=20, snr=[10.0]))
        (spec,) = cfg.receiver_specs()
        rows = sim._pass_rows(cfg)
        trials = [k << 8 for k in range(rows)]
        states = numerics.stream_states(cfg.master_seed, trials)
        c = modem.constellation(cfg.constellation)
        sim.run_block(trials, cfg, spec, 10.0)  # makes the workspace
        peak = _traced_peak(lambda: _run_front_end(
            cfg, c, [spec], states, np.full(rows, sim._noise_variance(10.0))))
        assert peak / rows < 6 * 1024

    @pytest.mark.parametrize("receivers, antennas", [
        ("zf-dfe,wl-zf-dfe", 1), ("zf-le,wl-zf-le", 2)])
    def test_family_front_end_pass_peak_per_row(self, receivers, antennas):
        # one full pass of the two receivers of a post-SNR run of the
        # benchmark: their shared channels and received blocks stay in the
        # workspace's kept buffers, so what the pass allocates is each
        # receiver's slicer's and MSE's (5.4 and 5.1 KiB a row); a copy of
        # the symbols, channels or received blocks for the second
        # receiver, 8 KiB a row or more, fails
        cfg = sim.SweepConfig.from_dict(dict(
            receivers=receivers, nr=antennas, v=20, m=512, fbf_len=20))
        specs = list(cfg.receiver_specs())
        rows = sim._pass_rows(cfg)
        trials = [k << 8 for k in range(rows)]
        states = numerics.stream_states(cfg.master_seed, trials)
        c = modem.constellation(cfg.constellation)
        # makes the workspace, kept buffers included
        sim.run_block(trials * 2, cfg, [s for s in specs for _ in trials], 10.0)
        peak = _traced_peak(lambda: _run_front_end(
            cfg, c, specs, states, np.full(rows, sim._noise_variance(10.0))))
        assert peak / rows < 6 * 1024

    def test_pass_workspace_bytes(self):
        # a full pass of 64 M = 512 rows at one antenna writes into four
        # complex buffers, the normals, the labels and the channel taps:
        # about 2.6 MiB, made once per thread. A pass of a family of
        # receivers keeps its channels and received blocks in two more
        # complex buffers, made at its first such pass: 3.6 MiB in all
        cfg = sim.SweepConfig.from_dict(dict(receivers="mmse-dfe,wl-mmse-dfe",
                                             nr=1, v=20, m=512, fbf_len=20))
        rows = sim._pass_rows(cfg)
        assert rows == 64
        specs = [s for s in cfg.receiver_specs() for _ in range(rows)]

        def workspace_bytes():
            sizes = []
            for trials in (range(2 * rows), list(range(rows)) * 2):
                sim.run_block(trials, cfg, specs, 6.0)
                sizes.append(sum(b.nbytes for b in sim._workspace.buffers.values()))
            return sizes

        alone, family = _in_thread(workspace_bytes)
        assert alone <= 2.7 * 2**20
        assert family - alone == 2 * rows * cfg.block_size * 16

    def test_held_decision_rows_are_bounded(self, monkeypatch):
        # the rows held for one feedback call stop at FLUSH_PASSES passes,
        # whatever the number of cells: fixed-count 16-QAM sweeps of 50 and
        # of 200 cells at M = 512, two rows a pass, peak under one bound,
        # where holding a round's 400 rows whole would take 7.5 MiB
        monkeypatch.setattr(sim, "BATCH_SAMPLES", 2 * 512)
        real, calls = kernels.dd_feedback, []

        def spy(z_t, *args):
            calls.append(len(z_t))
            return real(z_t, *args)

        monkeypatch.setattr(kernels, "dd_feedback", spy)
        for cells in (50, 200):
            cfg = sim.SweepConfig.from_dict(dict(
                constellation="16qam", receivers="mmse-dfe", feedback="decision",
                nr=1, v=20, m=512, fbf_len=20, snr=f"0:0.125:{(cells - 1) / 8}",
                min_bit_errors=10**9, max_blocks=2))
            assert len(cfg.snr_db) == cells
            sim.run_block(0, cfg, cfg.receiver_specs()[0], 0.0)
            peak = _traced_peak(lambda: sim.run_sweep(cfg))
            assert peak < 1 << 20, (cells, peak)
        assert max(calls) == sim.FLUSH_PASSES * 2


def _workspace_cases():
    """(config, receiver per row, trial indices) of one run_block call
    for each pass-workspace shape: M 64 and 512, n_r 1 and 2, BPSK, 16-QAM
    and 8-PSK, each with three rows of every receiver the alphabet
    allows, in genie and in decision feedback."""
    cases = []
    for alphabet, m, n_r in itertools.product(("bpsk", "16qam", "8psk"),
                                              (64, 512), (1, 2)):
        names = [n for n in RECEIVER_NAMES
                 if alphabet == "bpsk" or not n.startswith("wl-")]
        cfg = sim.SweepConfig.from_dict(dict(
            constellation=alphabet, receivers=",".join(names), nr=n_r, v=8,
            m=m, fbf_len=8, master_seed=3))
        specs = [dataclasses.replace(spec, feedback_mode=mode)
                 for spec in cfg.receiver_specs()
                 for mode in ("ideal_genie", "decision_directed")
                 for _ in range(3)]
        cases.append((cfg, specs, [k << 8 for k in range(len(specs))]))
    return cases


def _block_bytes(cfg, specs, trials):
    return tuple(a.tobytes() for a in sim.run_block(trials, cfg, specs, 10.0))


def _in_thread(fn, *args):
    """fn(*args) run in a new thread, whose pass workspace is new."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join()
    return out[0]


class TestWorkspace:
    def test_results_do_not_depend_on_earlier_shapes(self):
        # every front-end pass writes into one workspace per thread, kept
        # across passes and calls: a call's bytes are those of a new
        # thread's first call, before and after calls of every other shape
        cases = _workspace_cases()
        fresh = [_in_thread(_block_bytes, *case) for case in cases]
        for order in (range(len(cases)), reversed(range(len(cases)))):
            for k in order:
                assert _block_bytes(*cases[k]) == fresh[k], k

    @pytest.mark.parametrize("case", range(12))
    def test_a_pass_writes_the_bytes_of_the_allocating_chain(self, case):
        # every writer gives the same bytes into the workspace's shared
        # buffers as into arrays of its own (work=None), pass after pass,
        # for each receiver alone and as a member of a family of all of
        # them, whose pass keeps the blocks every member reads
        cfg, specs, trials = _workspace_cases()[case]
        c = modem.constellation(cfg.constellation)
        m, n_r, v = cfg.block_size, cfg.antennas, cfg.taps
        rows = numerics.stream_states(cfg.master_seed, trials)[
            : sim._pass_rows(cfg)]
        sigma_n_sq = np.array([sim._noise_variance(10.0 - k)
                               for k in range(len(rows))])
        bits, normals = numerics.draw_streams(
            rows, m * c.bits_per_symbol, 2 * n_r * (v + m))
        labels, x_t = modem.map_bits(bits, c)
        x_f = modem.precode(x_t)
        h = channel.draw_channel(normals[:, : 2 * n_r * v], n_r, v, m)
        y = channel.apply_channel_freq(x_f, h, sigma_n_sq,
                                       normals[:, 2 * n_r * v :])
        family = list(dict.fromkeys(specs))
        for members in [[spec] for spec in family] + [family]:
            passes = sim._front_end(cfg, c, members, rows, sigma_n_sq)
            for spec, (got_labels, got_mse, got_decided) in zip(members, passes):
                z, decided = eq.equalize(spec, eq.synthesize(spec, h, sigma_n_sq),
                                         y, c, x_f)
                mse = np.mean(np.abs(z - c.points[labels]) ** 2, axis=-1)
                pairs = [(got_labels, labels), (got_mse, mse)]
                if isinstance(decided, eq.FeedbackPass):
                    pairs += zip(got_decided, decided)
                else:
                    pairs.append((got_decided, decided))
                for a, b in pairs:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                        spec, len(members))

    def test_returned_results_keep_their_values(self, monkeypatch):
        # two rows a pass, so that the decision rows of each pass are held
        # while later passes of both receivers write over the workspace;
        # returned errors and MSEs stay as they were after later calls
        monkeypatch.setattr(sim, "BATCH_SAMPLES", 2 * 64)
        cfg = small_config(receivers=["mmse-dfe", "wl-zf-dfe", "zf-le"],
                           feedback="decision", fbf_len=4)
        specs = [cfg.receiver_specs()[k % 3] for k in range(12)]
        trials = [k << 8 for k in range(12)]
        errors, mse = sim.run_block(trials, cfg, specs, 2.0)
        kept = errors.copy(), mse.copy()
        single = [_row(sim.run_block(t, cfg, spec, 2.0))
                  for t, spec in zip(trials, specs)]
        assert list(zip(errors.tolist(), mse.tolist())) == single
        for cfg_, specs_, trials_ in _workspace_cases()[:4]:
            sim.run_block(trials_, cfg_, specs_, 10.0)
        sim.run_block(trials[::-1], cfg, specs, 2.0)
        assert errors.tobytes() == kept[0].tobytes()
        assert mse.tobytes() == kept[1].tobytes()

    def test_threads_give_the_sequential_bytes(self):
        # each thread writes into its own workspace, so threads running
        # different shapes at once, more threads than this machine's two
        # CPUs and switching often, give the bytes of sequential runs
        cases = [_workspace_cases()[k] for k in (2, 5, 8, 11)]
        expected = [_block_bytes(*case) for case in cases]
        got = [[] for _ in cases]
        start = threading.Barrier(len(cases))

        def run(k):
            start.wait(timeout=60)
            for _ in range(3):
                got[k].append(_block_bytes(*cases[k]))

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[e] * 3 for e in expected]

    def test_passes_fault_no_pages_in(self):
        # the workspace outlives its passes, so after a warm-up call the
        # passes of a call fault almost no page in: 10 calls of 128 M = 512
        # BPSK genie rows of each receiver of a pair (at least two passes
        # each) took about 18k minor faults a pair at 64 rows when every
        # pass allocated its own arrays
        resource = pytest.importorskip("resource")
        if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
            pytest.skip("getrusage reports no minor faults here")
        code = (
            "import resource\n"
            "from scfde import simulator as sim\n"
            "for pair in ('mmse-dfe,zf-le', 'wl-mmse-dfe,wl-zf-le'):\n"
            "    cfg = sim.SweepConfig.from_dict(dict(receivers=pair, nr=1, v=20,\n"
            "                                         m=512, fbf_len=20))\n"
            "    specs = [s for s in cfg.receiver_specs() for _ in range(128)]\n"
            "    assert 128 >= 2 * sim._pass_rows(cfg)\n"
            "    sim.run_block(range(256), cfg, specs, 6.0)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    for k in range(1, 11):\n"
            "        sim.run_block(range(256 * k, 256 * k + 256), cfg, specs, 6.0)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = os.path.dirname(os.path.dirname(sim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        faults = [int(line) for line in done.stdout.split()]
        assert len(faults) == 2 and max(faults) < 1000, faults


def _q(x):
    """The Gaussian tail probability Q(x), elementwise."""
    return 0.5 * np.vectorize(math.erfc)(np.asarray(x) / math.sqrt(2.0))


def _expected_bit_errors(cfg, spec, snr_db, trials):
    """Each genie block's expected bit errors, given its channel and
    symbols, drawn as run_block draws them.

    With ideal feedback the slicer input is z0, equalize's output on the
    noise-free block, plus Gaussian noise of variance s^2 = sigma_n^2
    mean_k ||fff(k)||^2: complex circular for a conventional receiver,
    real of variance 2 s^2 after a widely linear one's 2 Re(.). So a
    symbol's errors are Q terms: one per BPSK symbol, and for Gray
    16-QAM a sign bit and an inner/outer bit at 2/sqrt(10) per axis.
    """
    c = modem.constellation(cfg.constellation)
    m, n_r, v = cfg.block_size, cfg.antennas, cfg.taps
    states = numerics.stream_states(cfg.master_seed, trials)
    bits, normals = numerics.draw_streams(states, m * c.bits_per_symbol,
                                          2 * n_r * (v + m))
    _, x_t = modem.map_bits(bits, c)
    x_f = modem.precode(x_t)
    h = channel.draw_channel(normals[:, : 2 * n_r * v], n_r, v, m)
    sigma_n_sq = 10.0 ** (-snr_db / 10.0)
    filters = eq.synthesize(spec, h, sigma_n_sq)
    z0, _ = eq.equalize(spec, filters, channel.apply_channel_freq(
        x_f, h, 0.0, None), c, x_f)
    s_sq = sigma_n_sq * np.mean(np.sum(np.abs(filters.fff) ** 2, axis=-1),
                                axis=-1)
    sd = np.sqrt(2.0 * s_sq if spec.family == "widely-linear"
                 else s_sq / 2.0)[:, None]
    if c.name == "bpsk":
        return _q(x_t.real * z0.real / sd).sum(axis=-1)
    inner = 2.0 / math.sqrt(10.0)
    expected = 0.0
    for a, u in ((x_t.real, z0.real), (x_t.imag, z0.imag)):
        outside = _q((inner - u) / sd) + _q((inner + u) / sd)
        expected = expected + _q(np.sign(a) * u / sd) + np.where(
            np.abs(a) < inner, outside, 1.0 - outside)
    return expected.sum(axis=-1)


class TestGenieBerOracle:
    @pytest.mark.parametrize("name, alphabet, snr_db", [
        *[(name, "bpsk", 6.0) for name in RECEIVER_NAMES],
        *[(name, "16qam", 16.0) for name in RECEIVER_NAMES
          if not name.startswith("wl-")]])
    def test_counted_errors_match_the_exact_expectation(self, name, alphabet,
                                                        snr_db):
        # per-block differences d = counted - expected: their mean is within
        # 4 standard errors of 0 (errors within a block are correlated, so
        # a Poisson bound over bits would be too tight)
        cfg = sim.SweepConfig.from_dict(dict(
            constellation=alphabet, receivers=name, nr=1, v=8, m=64,
            fbf_len=8, master_seed=21))
        (spec,) = cfg.receiver_specs()
        trials = [k << 8 for k in range(300)]
        counted, _ = sim.run_block(trials, cfg, spec, snr_db)
        d = counted - _expected_bit_errors(cfg, spec, snr_db, trials)
        assert counted.sum() > 100
        assert abs(d.mean()) <= 4 * d.std(ddof=1) / math.sqrt(len(d))


class TestTrialIndexPacking:
    def test_realizations_fit_the_ordinal_field(self):
        cfg = small_config()
        for bad in (0, 2**32 + 1):
            with pytest.raises(ValueError, match="realizations"):
                sim.measure_post_snr(cfg, 8.0, bad)

    def test_cell_reproduces_from_its_trial_indices(self):
        # a cell's blocks are run_block at cell_hash | ordinal << 8, with
        # bits 0-7 zero
        cfg = small_config(snr_db=[4.0], max_blocks=5)
        (row,) = sim.run_sweep(cfg).rows
        spec = cfg.receiver_specs()[0]
        base = sim._cell_base(spec.name, 4.0)
        errors, _ = sim.run_block(
            [base | k << 8 for k in range(row.blocks)], cfg, spec, 4.0)
        assert row.errors == errors.sum()
        assert row.bits == row.blocks * cfg.block_size  # BPSK


class TestMeasurePostSnr:
    @pytest.mark.parametrize("argument, value", [
        ("realizations", True), ("realizations", 2.5), ("realizations", "ten"),
        ("realizations", None), ("snr_db", True), ("snr_db", "high"),
        ("snr_db", None),
    ])
    def test_argument_of_the_wrong_type_is_a_value_error(
            self, monkeypatch, argument, value):
        # read as SweepConfig reads its keys: a bool is not one realization,
        # and a non-integral count is refused rather than truncated
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the argument was rejected")

        monkeypatch.setattr(sim, "run_block", no_blocks)
        args = {"snr_db": 8.0, "realizations": 10, argument: value}
        with pytest.raises(ValueError, match=f"'{argument}' must be a"):
            sim.measure_post_snr(small_config(), **args)

    def test_zf_dfe_anchor(self):
        cfg = sim.SweepConfig.from_dict(
            dict(receivers=["zf-dfe"], nr=1, v=20, m=512, snr=[10.0],
                 fbf_len=20, master_seed=11)
        )
        (row,) = sim.measure_post_snr(cfg, snr_db=10.0, realizations=400)
        assert row.analytic_db == pytest.approx(10 * np.log10(0.5614594835668851 * 10))
        assert row.post_snr_db == pytest.approx(row.analytic_db, abs=0.3)

    @pytest.mark.parametrize("samples, realizations", [
        pytest.param(sim.BATCH_SAMPLES, 300, id="default-300"),
        (8 * 64, 48), (8 * 64, 50)])
    def test_rounds_fill_passes(self, monkeypatch, samples, realizations):
        # a post-SNR cell has no error target, so every row it asks for is
        # committed and it asks for a full pass each round
        monkeypatch.setattr(sim, "BATCH_SAMPLES", samples)
        cfg = small_config(receivers=["zf-le", "mmse-dfe"])
        real, calls = sim.run_block, []

        def spy(index, *args):
            calls.append(len(index))
            return real(index, *args)

        monkeypatch.setattr(sim, "run_block", spy)
        rows = sim.measure_post_snr(cfg, snr_db=8.0, realizations=realizations)
        pass_rows = samples // cfg.block_size
        assert len(calls) == -(-realizations // pass_rows)
        assert sum(calls) == len(rows) * realizations
        assert [row.realizations for row in rows] == [realizations] * 2

    def test_receivers_measure_the_same_realizations(self, monkeypatch):
        # post-SNR cells are keyed by the SNR and the ordinal alone: in
        # every run_block call each receiver's rows name the same trial
        # indices, so each realization is drawn once for all receivers,
        # a receiver's row is the same whichever receivers run with it,
        # and its realizations are run_block's at those indices
        monkeypatch.setattr(sim, "BATCH_SAMPLES", 8 * 64)
        cfg = small_config(receivers=["zf-le", "mmse-dfe", "wl-zf-dfe"],
                           fbf_len=4)
        real_block, real_draw = sim.run_block, sim.draw_streams
        calls, drawn = [], []

        def block_spy(index, config, receiver, snr_db):
            calls.append((list(index), list(receiver)))
            return real_block(index, config, receiver, snr_db)

        def draw_spy(states, *args, **kwargs):
            drawn.append(len(states))
            return real_draw(states, *args, **kwargs)

        monkeypatch.setattr(sim, "run_block", block_spy)
        monkeypatch.setattr(sim, "draw_streams", draw_spy)
        rows = sim.measure_post_snr(cfg, 8.0, 20)
        monkeypatch.undo()
        assert len(calls) == 3
        for index, receivers in calls:
            named = {}
            for t, spec in zip(index, receivers):
                named.setdefault(spec.name, []).append(t)
            assert list(named) == list(cfg.receivers)
            assert all(t == named["zf-le"] for t in named.values())
        assert sum(drawn) == 20
        base = sim._cell_base(sim._POST_CELLS, 8.0)
        for name, row in zip(cfg.receivers, rows):
            assert sim.measure_post_snr(
                small_config(receivers=[name], fbf_len=4), 8.0, 20) == (row,)
            spec = ReceiverSpec.from_name(name, fbf_length=4)
            _, mse = sim.run_block([base | k << 8 for k in range(20)], cfg,
                                   spec, 8.0)
            assert row.post_snr_db == sim._post_snr_db(mse.tolist(),
                                                       spec.criterion)

    def test_deterministic(self):
        cfg = small_config(receivers=["zf-le"], antennas=2)
        a = sim.measure_post_snr(cfg, snr_db=8.0, realizations=50)
        b = sim.measure_post_snr(cfg, snr_db=8.0, realizations=50)
        assert a == b


class TestMfbCurve:
    def test_bpsk_closed_form(self):
        cfg = small_config(snr_db=[6.79, 9.6])
        curve = sim.mfb_reference_curve(cfg)
        assert curve[0][1] == pytest.approx(9.9943e-4, rel=1e-3)
        assert curve[1][1] == pytest.approx(9.7362e-6, rel=1e-3)

    def test_two_antennas_is_shifted_curve(self):
        cfg1 = small_config(snr_db=[4.0 + 10 * np.log10(2)])
        cfg2 = small_config(antennas=2, snr_db=[4.0])
        shifted = sim.mfb_reference_curve(cfg2)
        assert shifted[0][1] == pytest.approx(7.6276e-4, rel=1e-3)
        ref = sim.mfb_reference_curve(cfg1)
        assert shifted[0][1] == pytest.approx(ref[0][1], rel=1e-9)

    def test_per_realization_curve_near_limit_curve(self):
        # the finite-v bound sits above the v -> inf limit and falls to it
        grid = [0.0, 6.0, 12.0]
        limit = sim.mfb_reference_curve(small_config(snr_db=grid))
        previous = None
        for taps in (1, 4, 20, 512):
            cfg = small_config(taps=taps, block_size=512, snr_db=grid)
            finite = sim.mfb_reference_curve(cfg, per_realization=True)
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

    @pytest.mark.parametrize("target", [0, 1, 1.5, -0.1, math.nan, "2"])
    def test_target_outside_the_unit_interval(self, target):
        with pytest.raises(ValueError, match=r"target_ber must be in \(0, 1\)"):
            sim.gap_at_ber(self.MFB, self.MFB, target)
