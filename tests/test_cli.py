"""Command-line front end: subcommands, exit codes, outputs."""

import io
import json
import logging
import sys

import pytest

import scfde.analytics
from scfde.cli import main


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

    @pytest.mark.parametrize("override, key", [
        (["receivers=zf-le,mmse-dfe", "fbf_len=600"], "fbf_length"),
        (["max_blocks=1099511627776"], "max_blocks"),
        (["receivers=mmse-le", "snr=0,inf"], "finite"),
        (["snr=nan"], "finite"),
        (["snr=-inf,0"], "finite"),
        (["receivers=zf-le", "zf_epsilon=nan"], "zf_epsilon"),
    ])
    def test_bad_config_exits_2_before_any_block(self, small_config, override,
                                                  key, monkeypatch, capsys):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the config was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        code = main(["ber-sweep", "--config", str(small_config), *override])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_gnuplot_script_needs_output(self, small_config, tmp_path, capsys):
        script = tmp_path / "plot.gp"
        code = main(["ber-sweep", "--config", str(small_config),
                     "--gnuplot-script", str(script)])
        assert code == 2
        assert "--output" in capsys.readouterr().err

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

    def test_nonbracketing_exit_3(self, tmp_path, capsys):
        sweep = self._sweep_json(tmp_path)
        assert main(["gap", "--input", str(sweep), "--target-ber", "1e-9"]) == 3
        assert "span" in capsys.readouterr().err


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

    def test_rejects_bad_override(self, capsys):
        assert main(["post-snr", "--snr", "10", "bogus=1"]) == 2

    def test_non_finite_snr_exits_2_before_any_block(self, monkeypatch, capsys):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the snr was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        assert main(["post-snr", "--snr", "nan", "receivers=zf-le", "m=64"]) == 2
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
