"""Command-line front end: subcommands, exit codes, outputs."""

import io
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import scfde.analytics
from scfde import kernels, simulator
from scfde.cli import main
from scfde.equalizer import SingularChannelError


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
        # 10^(-snr/10) underflows to a zero noise variance or overflows
        (["receivers=zf-le,mmse-le", "snr=0,4000"], "snr_db=4000.0"),
        (["receivers=zf-dfe", "snr=0,4000", "zf_epsilon=0"], "snr_db=4000.0"),
        (["snr=-4000"], "snr_db=-4000.0"),
    ])
    def test_bad_config_exits_2_before_any_block(self, small_config, override,
                                                  key, monkeypatch, capsys):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block ran before the config was rejected")

        monkeypatch.setattr("scfde.simulator.run_block", no_blocks)
        code = main(["ber-sweep", "--config", str(small_config), *override])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_singular_channels_exit_2(self, small_config, monkeypatch, capsys):
        # a channel still singular after every redraw is a bad run, not a
        # crash: one error line and exit code 2
        def singular(trial_index, *args):
            raise SingularChannelError("synthetic null", np.array([0]))

        monkeypatch.setattr(simulator, "run_block", singular)
        code = main(["ber-sweep", "--config", str(small_config)])
        assert code == 2
        err = _lines(capsys.readouterr().err)
        assert len(err) == 1 and err[0].startswith("error: 64 singular channels")

    def test_conditioning_error_exits_2(self, small_config, monkeypatch, capsys):
        # a Levinson recursion that loses positive definiteness at order 1
        real = kernels.levinson_recursion

        def failing(autocov, order):
            taps, errs, fail = real(autocov, order)
            return taps, errs, np.ones_like(fail)

        monkeypatch.setattr(kernels, "levinson_recursion", failing)
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

    @pytest.mark.parametrize("snr, ber", [
        (float("nan"), 0.01), (float("inf"), 0.01), (None, 0.01),
        (4.0, float("nan")), (4.0, 1.5), (4.0, -0.1), (4.0, "0.01"),
    ])
    def test_bad_row_exits_2_before_interpolation(self, tmp_path, monkeypatch,
                                                  capsys, snr, ber):
        def no_curves(*args, **kwargs):
            raise AssertionError("a curve was used before the rows were checked")

        monkeypatch.setattr("scfde.simulator.mfb_reference_curve", no_curves)
        monkeypatch.setattr("scfde.simulator.gap_at_ber", no_curves)
        doc = {"config": {"receivers": "zf-le", "nr": 2, "v": 4, "m": 64},
               "rows": [{"receiver": "zf-le", "snr_db": s, "ber": b}
                        for s, b in ((0.0, 0.2), (snr, ber), (8.0, 0.001))]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["gap", "--input", str(path), "--target-ber", "0.02"]) == 2
        assert "finite snr_db and a ber in [0, 1]" in capsys.readouterr().err


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


def test_run_path_imports_no_scipy():
    # numpy is the only runtime dependency: importing the CLI and running a
    # block and an MFB curve must not pull scipy back in
    code = (
        "import sys, scfde.cli\n"
        "from scfde import simulator\n"
        "cfg = simulator.SweepConfig(receivers='mmse-dfe', block_size=64, taps=4)\n"
        "simulator.run_block(0, cfg, cfg.receiver_specs()[0], 6.0)\n"
        "simulator.mfb_reference_curve(cfg, per_realization=True)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(scfde.analytics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
