"""Fast invariant suite: coverage, speed, and tamper detection."""

import time

import scfde.analytics
import scfde.kernels
import scfde.numerics
import scfde.selftest
from scfde.cli import main
from scfde.selftest import SUITE_NAMES, run_selftest


def test_all_suites_pass():
    results = run_selftest()
    assert len(results) >= 6
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.name, r.detail) for r in failed]


def test_suite_names_are_stable():
    results = run_selftest()
    assert tuple(r.name for r in results) == SUITE_NAMES
    for expected in ("dft-roundtrip", "rng-streams", "slicer",
                     "levinson-vs-dense", "fbf-whitening", "wl-reality",
                     "zf-exactness", "limit-table"):
        assert expected in SUITE_NAMES


def test_runs_fast():
    start = time.monotonic()
    results = run_selftest()
    wall = time.monotonic() - start
    assert wall < 60.0
    assert sum(r.elapsed_s for r in results) < 60.0
    assert {r.name: r for r in results}["slicer"].elapsed_s < 0.1


def test_corrupted_constant_fails_named_suite(monkeypatch):
    monkeypatch.setattr(scfde.analytics, "EULER_GAMMA", 0.25)
    results = run_selftest()
    failed = {r.name for r in results if not r.passed}
    assert "limit-table" in failed


def test_failure_detail_mentions_what_broke(monkeypatch):
    monkeypatch.setattr(scfde.analytics, "EULER_GAMMA", 0.25)
    results = {r.name: r for r in run_selftest()}
    row = results["limit-table"]
    assert not row.passed
    assert row.detail  # carries the mismatch description


def test_wrong_seeding_constant_fails_rng_streams(monkeypatch):
    # a numpy whose SeedSequence hash differs from the one stream_states
    # restates fails by name, before any output drifts
    monkeypatch.setattr(scfde.numerics, "_INIT_B", 0x8B51F9DC)
    results = {r.name: r for r in run_selftest()}
    assert not results["rng-streams"].passed
    assert "SeedSequence" in results["rng-streams"].detail
    assert results["dft-roundtrip"].passed


def test_midpoint_cuts_fail_slicer(monkeypatch):
    # cuts at the midpoint of two levels, without the float comparison of
    # distances and its lower-index tie rule, send a midpoint between two
    # points to the upper one of its tie
    monkeypatch.setattr(scfde.kernels, "_cut",
                        lambda lo, hi, hi_wins_ties: (lo + hi) / 2)
    scfde.kernels._slicer.cache_clear()
    try:
        results = {r.name: r for r in run_selftest()}
    finally:  # no slicer built from the tampered cuts outlives the test
        scfde.kernels._slicer.cache_clear()
    assert not results["slicer"].passed
    assert "sliced to point" in results["slicer"].detail
    assert results["rng-streams"].passed


def test_points_taken_out_of_label_order_fail_slicer(monkeypatch):
    # a map_bits that reads each label's point through a second Gray code
    # sends symbols whose decided index is not their label
    real = scfde.selftest.map_bits

    def gray_map_bits(bits, c):
        labels, _ = real(bits, c)
        return labels, c.points.take(labels ^ (labels >> 1))

    monkeypatch.setattr(scfde.selftest, "map_bits", gray_map_bits)
    results = {r.name: r for r in run_selftest()}
    assert not results["slicer"].passed
    assert results["slicer"].detail == (
        "8psk: label 2 mapped to a point that slices to index 3")


def test_crashing_kernel_fails_named_suites(monkeypatch, capsys):
    # a suite that raises something other than AssertionError is reported
    # as a failed result, and the CLI prints it and exits 1
    def broken(autocov, order):
        raise IndexError("tap index out of range")

    monkeypatch.setattr(scfde.kernels, "levinson_recursion", broken)
    results = {r.name: r for r in run_selftest()}
    for name in ("levinson-vs-dense", "fbf-whitening", "predicted-mse-monotone"):
        assert not results[name].passed
        assert results[name].detail == "IndexError: tap index out of range"
    assert results["dft-roundtrip"].passed
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL levinson-vs-dense" in out
