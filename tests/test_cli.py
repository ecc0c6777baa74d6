"""Command-line front end: subcommands, exit codes, outputs."""

import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simulator import CONFIG_KEYS, JSON_VALUES

import scfde.analytics
from scfde import kernels
from scfde import simulator as sim
from scfde.cli import main
from scfde.equalizer import RECEIVER_NAMES


def _lines(text):
    return [ln for ln in text.strip().splitlines() if ln.strip()]


class TestLimits:
    def test_default_prints_eight_rows(self, capsys):
        assert main(["limits"]) == 0
        out = capsys.readouterr().out
        data = [ln for ln in _lines(out) if not ln.startswith("receiver")]
        assert len(data) == 8
        assert "0.565" in out  # full precision, not the rounded 0.56 class
        assert "NA" in out and "conv-zf-le" in out

    def test_single_cell(self, capsys):
        assert main(["limits", "--nr", "2", "--receiver", "wl-zf-le"]) == 0
        out = capsys.readouterr().out
        data = [ln for ln in _lines(out) if not ln.startswith("receiver")]
        assert len(data) == 1
        assert "1.249" in out

    def test_undefined_cell_is_an_error(self, capsys):
        assert main(["limits", "--nr", "1", "--receiver", "conv-zf-le"]) == 2
        err = capsys.readouterr().err
        assert "no finite limit for N_r=1" in err

    def test_bad_nr_exits_2(self, capsys):
        assert main(["limits", "--nr", "0"]) == 2
        assert "n_r must be an integer >= 1" in capsys.readouterr().err

    def test_nr_above_max_antennas_exits_2_before_any_array(
            self, capsys, monkeypatch):
        # harmonic's arange(1, n + 1) at --nr 1000000000 was 7.45 GiB, and
        # numpy's memory error reached the user as a traceback
        arange = np.arange

        def small_arange(*args, **kwargs):
            assert all(abs(a) <= 2 * scfde.analytics.MAX_ANTENNAS
                       for a in args if isinstance(a, int)), args
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", small_arange)
        assert main(["limits", "--nr", "1000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_r must be at most 1048576, got 1000000000\n"

    @pytest.mark.parametrize("nr", ["x", "1,,2", "2.5"])
    def test_nr_that_is_not_integers_names_the_option(self, capsys, nr):
        # int()'s own message named neither --nr nor the form it takes
        assert main(["limits", "--nr", nr]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: --nr must be comma-separated integers such as "
                       f"1,2, got {nr!r}\n")

    @pytest.mark.parametrize("receiver, message", [
        ("mmse-dfe", "depends on the SNR; see post-snr"),
        ("bogus", "unknown receiver"),
        # no receiver; it printed two rows of 0.0, the MFB's gap to itself
        ("mfb", "unknown receiver 'mfb'")])
    def test_receiver_without_closed_form_exits_2(self, capsys, receiver,
                                                  message):
        # only an infinite limit prints NA; any other error is the user's
        assert main(["limits", "--receiver", receiver]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_table_text(self, capsys):
        assert main(["limits", "--nr", "1,3"]) == 0
        assert capsys.readouterr().out == (
            "receiver,n_r,gap_to_mfb_db\n"
            "conv-zf-le,1,NA\n"
            "conv-zf-le,3,1.7609125905568124\n"
            "conv-zf-dfe,1,2.5068157813485223\n"
            "conv-zf-dfe,3,0.7636110999963694\n"
            "wl-zf-le,1,3.010299956639812\n"
            "wl-zf-le,3,0.7918124604762482\n"
            "wl-zf-dfe,1,1.174170918955816\n"
            "wl-zf-dfe,3,0.37193761506070816\n")


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "constellation": "bpsk",
        "receivers": ["mmse-le"],
        "nr": 1,
        "v": 4,
        "m": 64,
        "snr": [4.0, 8.0],
        "min_bit_errors": 100,
        "max_blocks": 30,
        "master_seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestBerSweep:
    @pytest.mark.parametrize("override", ["max_blocks", "nr:2", ""])
    def test_override_without_equals_exits_2(self, small_config, capsys,
                                             override):
        assert main(["ber-sweep", "--config", str(small_config), override]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: override {override!r} is not of the "
                                "form key=value\n")

    def test_writes_csv_and_overrides_win(self, small_config, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        code = main(["ber-sweep", "--config", str(small_config),
                     "--output", str(out_path), "max_blocks=20"])
        assert code == 0
        lines = _lines(out_path.read_text())
        assert lines[0] == "receiver,snr_db,bits,errors,ber,post_snr_db,analytic_db"
        assert len(lines) == 3
        for ln in lines[1:]:
            bits = int(ln.split(",")[2])
            assert bits <= 20 * 64  # the override, not the file's 30 blocks

    def test_stdout_deterministic(self, small_config, capsys):
        assert main(["ber-sweep", "--config", str(small_config)]) == 0
        first = capsys.readouterr().out
        assert main(["ber-sweep", "--config", str(small_config)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("receiver,snr_db,")

    def test_unknown_key_exits_2(self, small_config, capsys):
        code = main(["ber-sweep", "--config", str(small_config), "frobnicate=3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "min_bit_errors" in err  # full list of valid keys

    def test_invalid_dimensions_exit_2(self, small_config, capsys):
        code = main(["ber-sweep", "--config", str(small_config), "v=128"])
        assert code == 2
        assert "block_size" in capsys.readouterr().err

    def test_json_format(self, small_config, tmp_path):
        out_path = tmp_path / "out.json"
        code = main(["ber-sweep", "--config", str(small_config),
                     "--format", "json", "--output", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["config"]["block_size"] == 64
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["receiver"] == "mmse-le"

    def test_json_is_strict_for_a_non_finite_post_snr(self, capsys):
        # an MMSE cell whose mean MSE is at least 1 has no post-SNR in dB;
        # strict parsers reject the NaN literal, so it is written as null
        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        code = main(["ber-sweep", "receivers=mmse-le", "snr=-40,-30", "m=64",
                     "v=8", "max_blocks=2", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        post = [row["post_snr_db"] for row in doc["rows"]]
        assert post[0] is None and isinstance(post[1], float)

    @pytest.mark.parametrize("override, key", [
        (["receivers=zf-le,mmse-dfe", "fbf_len=600"], "fbf_length"),
        (["max_blocks=1099511627776"], "max_blocks"),
        (["receivers=mmse-le", "snr=0,inf"], "finite"),
        (["snr=nan"], "finite"),
        (["snr=-inf,0"], "finite"),
        # the retired regularizer loads only at the fixed ZF floor
        (["receivers=zf-le", "zf_epsilon=0"], "zf_epsilon"),
        # 10^(-snr/10) underflows to a zero noise variance or overflows
        (["receivers=zf-le,mmse-le", "snr=0,4000"], "snr_db=4000.0"),
        (["receivers=zf-dfe", "snr=0,4000"], "snr_db=4000.0"),
        (["snr=-4000"], "snr_db=-4000.0"),
        # both points hash to one cell key, so both cells would replay
        # the same random streams
        (["snr=1,1.0000001"], "cell key"),
        # config file values of the wrong JSON type (a dict is merged into
        # the file): they raised AttributeError or TypeError, or the bool
        # ran as 1 dB
        ({"receivers": [5]}, "'receivers' must be names"),
        ({"feedback": 5}, "'feedback' must be a string"),
        ({"constellation": 5}, "'constellation' must be a string"),
        ({"zf_epsilon": [1]}, "'zf_epsilon' must be a number"),
        ({"snr": {"a": 1}}, "'snr_db' must be a number"),
        ({"snr": [True, 2]}, "'snr_db' must be a number, got True"),
        ({"receivers": 5}, "'receivers' must be names"),
        ({"snr": None}, "'snr_db' must be a number"),
        # malformed grid strings: they surfaced Python's unpacking or
        # float() message, which names neither the key nor the forms
        *[([f"snr={grid}"], "snr_db must be a range 'start:step:stop' or a list 'a,b,c'")
          for grid in ("1:2", "", "1,x", "1:2:3:4")],
        # the point count is checked before the grid is built
        (["snr=0:1e-5:1"], "snr_db range '0:1e-5:1' has 100001 points"),
        # a count of about 300 digits is printed in 6 significant digits
        (["snr=0:1e-300:1"], "snr_db range '0:1e-300:1' has 1e+300 points, "
                             "more than 10000\n"),
        # a block too large for memory: numpy's allocation error, a
        # traceback, ended the sweep after it had begun
        (["nr=1", "m=67108864", "v=1", "max_blocks=1", "snr=10",
          "receivers=zf-le"], "antennas x block_size = 1 x 67108864"),
    ])
    def test_bad_config_exits_2_before_any_block(self, small_config, override,
                                                  key, monkeypatch, capsys):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the config was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        if isinstance(override, dict):
            cfg = json.loads(small_config.read_text())
            small_config.write_text(json.dumps({**cfg, **override}))
            override = []
        code = main(["ber-sweep", "--config", str(small_config), *override])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        # a JSON list raised TypeError from dict.update
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["ber-sweep", "--config", str(path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["post-snr", "gap"])
    def test_config_of_the_wrong_type_exits_2_in_every_command(
            self, small_config, tmp_path, command, monkeypatch, capsys):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the config was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        cfg = {**json.loads(small_config.read_text()), "receivers": [5]}
        if command == "gap":
            sweep = tmp_path / "sweep.json"
            sweep.write_text(json.dumps({"config": cfg, "rows": []}))
            argv = ["gap", "--input", str(sweep), "--target-ber", "0.01"]
        else:
            small_config.write_text(json.dumps(cfg))
            argv = ["post-snr", "--snr", "4", "--config", str(small_config)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'receivers' must be names" in err

    @pytest.mark.parametrize("key, value, name", [
        ("nr", 2.5, "antennas"), ("max_blocks", 3.9, "max_blocks"),
        ("master_seed", True, "master_seed")])
    def test_non_integral_key_exits_2_before_any_block(self, small_config, key,
                                                       value, name, monkeypatch,
                                                       capsys):
        # a JSON number is not truncated to an integer key: 2.5 antennas
        # are an error, not 2
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the config was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        cfg = json.loads(small_config.read_text())
        small_config.write_text(json.dumps({**cfg, key: value}))
        assert main(["ber-sweep", "--config", str(small_config)]) == 2
        assert f"{name!r} must be an integer" in capsys.readouterr().err

    def test_conditioning_error_exits_2(self, small_config, monkeypatch, capsys):
        # the real recursion, handed an autocovariance that is not positive
        # definite (|q(1)| > q(0)), loses positive definiteness at order 1
        real = kernels.levinson_recursion

        def not_positive_definite(autocov, order):
            q = np.zeros(np.shape(autocov))
            q[..., :2] = 1.0, 1.5
            return real(q, order)

        monkeypatch.setattr(kernels, "levinson_recursion", not_positive_definite)
        code = main(["ber-sweep", "--config", str(small_config),
                     "receivers=mmse-dfe", "fbf_len=4"])
        assert code == 2
        err = _lines(capsys.readouterr().err)
        assert len(err) == 1 and err[0].startswith("error: prediction error")
        assert "not positive definite" in err[0]

    def test_gnuplot_script_needs_output(self, small_config, tmp_path, capsys):
        script = tmp_path / "plot.gp"
        code = main(["ber-sweep", "--config", str(small_config),
                     "--gnuplot-script", str(script)])
        assert code == 2
        assert "--output" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--output", "--gnuplot-script"])
    def test_unwritable_path_exits_2_before_any_block(
            self, small_config, tmp_path, flag, monkeypatch, capsys):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the path was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        paths = {"--output": tmp_path / "out.csv",
                 "--gnuplot-script": tmp_path / "plot.gp"}
        paths["--output"].write_bytes(b"earlier results\n")
        paths[flag] = tmp_path / "missing" / paths[flag].name
        code = main(["ber-sweep", "--config", str(small_config),
                     *(a for f, p in paths.items() for a in (f, str(p)))])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(paths[flag]) in err
        # the check leaves no file behind where none was, and an existing
        # one as it was
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                               "out.csv"]
        assert (tmp_path / "out.csv").read_bytes() == b"earlier results\n"

    def test_existing_output_keeps_its_bytes_when_the_sweep_fails(
            self, small_config, tmp_path, monkeypatch, capsys):
        def failing_block(*args, **kwargs):
            raise ArithmeticError("the sweep failed")

        monkeypatch.setattr("scfde.simulator.run_block", failing_block)
        out_path = tmp_path / "out.csv"
        out_path.write_bytes(b"earlier results\n")
        code = main(["ber-sweep", "--config", str(small_config),
                     "--output", str(out_path)])
        assert code == 2
        assert _lines(capsys.readouterr().err) == ["error: the sweep failed"]
        assert out_path.read_bytes() == b"earlier results\n"

    def test_gnuplot_script_contents(self, small_config, tmp_path):
        out_path = tmp_path / "out.csv"
        script = tmp_path / "plot.gp"
        code = main(["ber-sweep", "--config", str(small_config),
                     "--output", str(out_path), "--gnuplot-script", str(script)])
        assert code == 0
        text = script.read_text()
        assert "set logscale y" in text
        assert out_path.name in text
        assert "mmse-le" in text


class TestGap:
    def _sweep_json(self, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = main(["ber-sweep", "--format", "json", "--output", str(out_path),
                     "receivers=zf-le", "nr=2", "v=4", "m=64",
                     "snr=0:4:12", "min_bit_errors=100", "max_blocks=400",
                     "master_seed=5"])
        assert code == 0
        return out_path

    def test_gap_against_mfb(self, tmp_path, capsys):
        sweep = self._sweep_json(tmp_path)
        assert main(["gap", "--input", str(sweep), "--target-ber", "0.02"]) == 0
        out = capsys.readouterr().out
        data = [ln for ln in _lines(out) if not ln.startswith("receiver")]
        assert len(data) == 1
        fields = data[0].split(",")
        assert fields[0] == "zf-le"
        gap = float(fields[4])
        assert 0.0 < gap < 15.0

    def test_retired_parallel_width_key_is_ignored(self, tmp_path, capsys):
        # sweep JSON written while the config had parallel_width and
        # zf_epsilon, and the rows a redraws count, carries them
        sweep = self._sweep_json(tmp_path)
        doc = json.loads(sweep.read_text())
        assert not {"parallel_width", "zf_epsilon"} & set(doc["config"])
        assert not any("redraws" in row for row in doc["rows"])
        old = tmp_path / "old.json"
        doc["config"].update(parallel_width=2, zf_epsilon=1e-12)
        for row in doc["rows"]:
            row["redraws"] = 0
        old.write_text(json.dumps(doc))
        outputs = []
        for path in (sweep, old):
            assert main(["gap", "--input", str(path), "--target-ber", "0.02"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2
        # any other regularizer describes a receiver that no longer runs
        doc["config"]["zf_epsilon"] = 0
        old.write_text(json.dumps(doc))
        assert main(["gap", "--input", str(old), "--target-ber", "0.02"]) == 2
        err = capsys.readouterr().err
        assert "'zf_epsilon'" in err and "1e-12" in err

    def test_nonbracketing_exit_3(self, tmp_path, capsys):
        sweep = self._sweep_json(tmp_path)
        assert main(["gap", "--input", str(sweep), "--target-ber", "1e-9"]) == 3
        assert "span" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, target, where", [
        # zf-le brackets 0.02, and mmse-le has no rows in the sweep
        ([("zf-le", 0.0, 0.3), ("zf-le", 8.0, 0.01)], "0.02",
         "mmse-le sweep curve: need two curve points, got 0"),
        # the sweep brackets 0.2, the AWGN MFB (0.079 at 0 dB) does not
        ([(rx, snr, ber) for rx in ("zf-le", "mmse-le")
          for snr, ber in ((0.0, 0.3), (8.0, 0.01))], "0.2",
         "zf-le MFB curve: target ber 0.2 not bracketed"),
    ])
    def test_range_error_names_receiver_and_curve(self, tmp_path, capsys, rows,
                                                  target, where):
        doc = {"config": {"receivers": "zf-le,mmse-le", "v": 4, "m": 64,
                          "snr": [0.0, 8.0]},
               "rows": [{"receiver": rx, "snr_db": snr, "ber": ber}
                        for rx, snr, ber in rows]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["gap", "--input", str(path), "--target-ber", target]) == 3
        err = _lines(capsys.readouterr().err)
        assert len(err) == 1 and err[0].startswith(f"error: {where}")

    @pytest.mark.parametrize("row", [
        *[pytest.param({"receiver": "zf-le", "snr_db": snr, "ber": ber},
                       id=f"{snr}-{ber}")
          for snr, ber in ((float("nan"), 0.01), (float("inf"), 0.01),
                           (None, 0.01), (4.0, float("nan")), (4.0, 1.5),
                           (4.0, -0.1), (4.0, "x"), ("1e999", 0.01),
                           # bools are not numbers, as in SweepConfig
                           (4.0, True), (True, 0.01))],
        pytest.param({"snr_db": 4.0, "ber": 0.01}, id="no-receiver"),
        pytest.param({"receiver": 5, "snr_db": 4.0, "ber": 0.01},
                     id="receiver-5"),
        pytest.param({"receiver": "zf-le", "ber": 0.01}, id="no-snr_db"),
        pytest.param(["zf-le", 4.0, 0.01], id="row-a-list"),
    ])
    def test_bad_row_exits_2_before_interpolation(self, tmp_path, monkeypatch,
                                                  capsys, row):
        def no_curves(*args, **kwargs):
            raise AssertionError("a curve was used before the rows were checked")

        monkeypatch.setattr("scfde.simulator.mfb_reference_curve", no_curves)
        monkeypatch.setattr("scfde.simulator.gap_at_ber", no_curves)
        doc = {"config": {"receivers": "zf-le", "nr": 2, "v": 4, "m": 64},
               "rows": [{"receiver": "zf-le", "snr_db": 0.0, "ber": 0.2}, row,
                        {"receiver": "zf-le", "snr_db": 8.0, "ber": 0.001}]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["gap", "--input", str(path), "--target-ber", "0.02"]) == 2
        assert ("a string receiver, a finite snr_db and a ber in [0, 1]"
                in capsys.readouterr().err)


    def test_row_numbers_follow_the_config_rule(self, tmp_path, monkeypatch,
                                                capsys):
        # a row's snr_db and ber are read as a config's numbers are, so the
        # numeric string "0.01" is 0.01 and gives the same gap
        seen = []
        gap_at_ber = scfde.simulator.gap_at_ber

        def spy(points, *args, **kwargs):
            seen.append(points)
            return gap_at_ber(points, *args, **kwargs)

        monkeypatch.setattr("scfde.simulator.gap_at_ber", spy)
        outputs = []
        for ber in (0.01, "0.01"):
            doc = {"config": {"receivers": "zf-le", "nr": 2, "v": 4, "m": 64},
                   "rows": [{"receiver": "zf-le", "snr_db": 0.0, "ber": 0.2},
                            {"receiver": "zf-le", "snr_db": "4", "ber": ber},
                            {"receiver": "zf-le", "snr_db": 8.0, "ber": 0.001}]}
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps(doc))
            assert main(["gap", "--input", str(path), "--target-ber", "0.02"]) == 0
            outputs.append(capsys.readouterr().out)
        assert seen[0] == seen[1] == [(0.0, 0.2), (4.0, 0.01), (8.0, 0.001)]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("doc", [
        [], 5, "sweep", None,
        {"rows": []},
        {"config": [], "rows": []},
        {"config": {"receivers": "zf-le"}, "rows": 3},
    ])
    def test_input_not_a_sweep_object_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["gap", "--input", str(path), "--target-ber", "0.02"]) == 2
        err = _lines(capsys.readouterr().err)
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "JSON object" in err[0]


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert len([ln for ln in _lines(out) if ln.startswith("ok")]) >= 6
        assert "limit-table" in out

    def test_tampered_constant_fails_named(self, monkeypatch, capsys):
        monkeypatch.setattr(scfde.analytics, "EULER_GAMMA", 0.3)
        code = main(["selftest"])
        assert code != 0
        out = capsys.readouterr().out
        assert any(ln.startswith("FAIL") and "limit-table" in ln
                   for ln in _lines(out))


class TestPostSnr:
    def test_reports_measured_and_analytic(self, capsys):
        code = main(["post-snr", "--snr", "10", "--realizations", "50",
                     "receivers=zf-le", "nr=2", "v=4", "m=64"])
        assert code == 0
        out = capsys.readouterr().out
        data = [ln for ln in _lines(out) if not ln.startswith("receiver")]
        assert len(data) == 1
        fields = data[0].split(",")
        assert fields[0] == "zf-le"
        assert float(fields[4]) == pytest.approx(10.0)  # (N_r-1) r at 10 dB
        assert abs(float(fields[3]) - 10.0) < 1.5

    def test_mmse_rows_report_their_limit(self, capsys):
        assert main(["post-snr", "--snr", "10", "--realizations", "20",
                     "receivers=mmse-le,mmse-dfe,wl-mmse-le,wl-mmse-dfe",
                     "nr=2", "v=4", "m=64"]) == 0
        header, *data = _lines(capsys.readouterr().out)
        assert header.split(",")[4:] == ["analytic_db", "delta_db"]
        assert [row.split(",")[0] for row in data] == [
            "mmse-le", "mmse-dfe", "wl-mmse-le", "wl-mmse-dfe"]
        for row in data:
            name, _, _, post, analytic, delta = row.split(",")
            assert float(analytic) == 10 * np.log10(
                scfde.analytics.limit_snr(name, 2, 10.0))
            assert float(delta) == float(post) - float(analytic)

    def test_rejects_bad_override(self, capsys):
        assert main(["post-snr", "--snr", "10", "bogus=1"]) == 2

    def test_non_finite_snr_exits_2_before_any_block(self, monkeypatch, capsys):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the snr was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        # -4000 dB is finite, but its noise variance 10^400 overflows
        for snr in ("nan", "-4000"):
            assert main(["post-snr", "--snr", snr, "receivers=zf-le",
                         "m=64"]) == 2
            assert "snr_db must be finite" in capsys.readouterr().err


def test_log_handler_does_not_outlive_main(monkeypatch, capsys):
    # main() must not leave a handler bound to a stream that is closed
    # after the call; a later record would print "--- Logging error ---"
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stream)
    assert main(["limits", "--nr", "2", "--receiver", "wl-zf-le"]) == 0
    monkeypatch.undo()
    stream.close()
    logging.getLogger("scfde.simulator").warning("record after main")
    assert "Logging error" not in capsys.readouterr().err


def _run_python(code):
    """Run code in a fresh interpreter that imports this checkout's scfde."""
    src = os.path.dirname(os.path.dirname(scfde.analytics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_run_path_imports_no_scipy():
    # numpy is the only runtime dependency: importing the CLI and running a
    # block and an MFB curve must not pull scipy back in
    _run_python(
        "import sys, scfde.cli\n"
        "from scfde import simulator\n"
        "cfg = simulator.SweepConfig(receivers='mmse-dfe', block_size=64, taps=4)\n"
        "simulator.run_block(0, cfg, cfg.receiver_specs()[0], 6.0)\n"
        "simulator.mfb_reference_curve(cfg, per_realization=True)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )


def test_block_path_loads_no_quadrature_rule():
    # numpy.polynomial (0.16 s of import) is loaded by no path of a run:
    # not by simulating blocks, nor by the MFB (next test)
    _run_python(
        "import sys, scfde.cli\n"
        "from scfde import simulator\n"
        "cfg = simulator.SweepConfig(receivers='mmse-dfe', block_size=64, taps=4)\n"
        "simulator.run_block(0, cfg, cfg.receiver_specs()[0], 6.0)\n"
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'\n"
    )


def test_limits_of_all_receivers_are_quick_and_numpy_only():
    # the MMSE limits are one numpy integral each: no scipy, no
    # numpy.polynomial, and all eight limits in a fresh process take
    # milliseconds, not a Monte Carlo run
    _run_python(
        "import sys, time\n"
        "from scfde import analytics\n"
        "from scfde.equalizer import RECEIVER_NAMES\n"
        "start = time.perf_counter()\n"
        "for name in RECEIVER_NAMES:\n"
        "    analytics.limit_snr(name, 2, 100.0)\n"
        "took = time.perf_counter() - start\n"
        "assert took < 0.01, f'eight limits took {took:.4f} s'\n"
        "for module in ('scipy', 'numpy.polynomial'):\n"
        "    assert module not in sys.modules, f'{module} was imported'\n"
    )


def test_mfb_builds_its_rule_without_numpy_polynomial():
    # the Gauss-Legendre rule is built with numpy alone, so the first MFB
    # curve of a process makes no LAPACK call either
    _run_python(
        "import sys\n"
        "from scfde import analytics\n"
        "analytics.mfb_ber('16qam', 2, [1.0, 10.0], 4)\n"
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'\n"
    )


# the CLI fuzz: argv tokens and config JSON values drawn at random, on a
# config kept small (at most 16 antennas, samples a block and blocks a
# cell, and a few cells) so that every run is quick. Each key
# draws one of a few valid values or any JSON value, half the time each,
# so that runs also get past the config checks
SIZE_KEYS = {"block_size", "antennas", "taps", "fbf_len", "max_blocks"}
SMALL = (st.integers(-1, 16) | st.floats(-1, 16) | st.booleans() | st.none()
         | st.text(max_size=2))
FUZZ_BASE = {"block_size": 16, "taps": 2, "fbf_len": 2, "max_blocks": 2,
             "snr_db": [0.0, 10.0], "receivers": ["mmse-dfe"]}
VALID = {
    "receivers": st.lists(st.sampled_from(RECEIVER_NAMES), min_size=1,
                          max_size=3, unique=True),
    "constellation": st.sampled_from(["bpsk", "16qam", "8psk"]),
    "feedback": st.sampled_from(["genie", "decision"]),
    "snr_db": st.sampled_from(["0:5:10", "-5,5", [2.0], [0, 20]]),
    "min_bit_errors": st.sampled_from([100, 10**9]),
    "master_seed": st.integers(0, 3),
    "zf_epsilon": st.just(1e-12),
    "parallel_width": st.just(2),
    **{key: st.integers(1, 8) for key in SIZE_KEYS},
}


def _either(valid, junk):
    return st.booleans().flatmap(lambda ok: valid if ok else junk)


def _config_value(key):
    key = sim._ALIASES.get(key, key)
    return _either(VALID[key], SMALL if key in SIZE_KEYS else JSON_VALUES)


def _override(key):
    valid = VALID[sim._ALIASES.get(key, key)].map(
        lambda v: ",".join(map(str, v)) if isinstance(v, list) else str(v))
    return _either(valid, st.text(max_size=6))


CONFIGS = st.lists(st.sampled_from(CONFIG_KEYS).flatmap(
    lambda k: st.tuples(st.just(k), _config_value(k))), max_size=3)
OVERRIDES = st.lists(_either(st.sampled_from(CONFIG_KEYS).flatmap(
    lambda k: _override(k).map(lambda v: f"{k}={v}")), st.text(max_size=6)),
    max_size=2)


def _number_token(*valid):
    return _either(st.sampled_from(valid), st.text(max_size=6)
                   | st.integers(-3, 3).map(str)
                   | st.floats(allow_nan=True).map(repr))


ROWS = st.lists(st.fixed_dictionaries({
    "receiver": st.sampled_from(RECEIVER_NAMES) | JSON_VALUES,
    "snr_db": st.floats(-10, 30) | JSON_VALUES,
    "ber": st.floats(0, 1) | JSON_VALUES}), max_size=4)


@st.composite
def _argv(draw, folder):
    """One command line, with the config or sweep file it reads written
    into folder."""
    command = draw(st.sampled_from(["limits", "post-snr", "ber-sweep", "gap",
                                    "selftest"]))
    if command == "selftest":
        return [command]
    if command == "limits":
        argv = [command, "--nr", draw(_number_token("1,2", "3"))]
        receiver = draw(st.none() | st.sampled_from(RECEIVER_NAMES)
                        | st.text(max_size=6))
        return argv + ([] if receiver is None else ["--receiver", receiver])
    config = dict(FUZZ_BASE)
    for key, value in draw(CONFIGS):  # an alias replaces its key
        config.pop(sim._ALIASES.get(key, key), None)
        config[key] = value
    path = os.path.join(folder, "in.json")
    if command == "gap":
        # a falling curve that brackets 1e-2 for each receiver, or any rows
        names = config["receivers"]
        curve = [{"receiver": rx, "snr_db": snr, "ber": ber}
                 for rx in (names if isinstance(names, list) else [])
                 for snr, ber in ((0.0, 0.2), (10.0, 1e-4))]
        doc = {"config": config, "rows": draw(_either(st.just(curve), ROWS))}
        with open(path, "w") as fh:
            json.dump(draw(_either(st.just(doc), JSON_VALUES)), fh)
        argv = [command, "--input", path, "--target-ber",
                draw(_number_token("0.01", "0.5"))]
        return argv + draw(st.sampled_from([[], ["--per-realization"]]))
    with open(path, "w") as fh:
        json.dump(config, fh)
    argv = [command, "--config", path, *draw(OVERRIDES)]
    if command == "post-snr":
        return argv + ["--snr", draw(_number_token("10", "-3.5")),
                       "--realizations", draw(st.integers(-1, 3).map(str)
                                              | st.text(max_size=3))]
    output = ["--output", os.path.join(folder, "o.csv")]
    return argv + draw(st.sampled_from(
        [[], ["--format", "json"], output, ["--gnuplot-script", "p.gp"],
         [*output, "--gnuplot-script", os.path.join(folder, "p.gp")]]))


@settings(max_examples=150)
@given(data=st.data())
def test_cli_fuzz_ends_in_an_exit_code_never_a_traceback(data):
    # a bad input of any kind is exit 2 (3 for a gap target out of range,
    # 1 for a failed selftest), with its message and no traceback
    with tempfile.TemporaryDirectory() as folder:
        argv = data.draw(_argv(folder), label="argv")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        elapsed = time.perf_counter() - start
    assert code in ((0, 1, 2, 3) if argv == ["selftest"] else (0, 2, 3)), (
        code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue(), "a failure must say why"
    assert elapsed < 1.0, (argv, elapsed)
