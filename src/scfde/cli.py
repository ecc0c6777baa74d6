"""Command-line front end.

Subcommands:
  limits     closed-form gap-to-MFB table for the ZF receivers
  post-snr   empirical genie post-SNR vs the closed-form limit
  ber-sweep  Monte Carlo BER sweep, CSV or JSON output
  gap        SNR gap of sweep curves to the matched filter bound
  selftest   fast invariant battery

Configuration is a flat JSON file mirroring the sweep config keys;
positional key=value arguments override the file. Exit codes: 0 success,
2 bad arguments, config or input, or an arithmetic failure of the run
(a prediction problem that loses positive definiteness), 3 gap target
outside the measured range of a receiver's sweep curve or of the MFB.
"""

import argparse
import contextlib
import json
import logging
import math
import os
import sys

from . import analytics, simulator
from .numerics import real
from .selftest import run_selftest

log = logging.getLogger("scfde.cli")


@contextlib.contextmanager
def _logging_to_stderr():
    """Show scfde INFO records on the current sys.stderr for one call.

    The handler leaves with the call, so it never writes to a stream that
    was closed afterwards; a program that configured the "scfde" logger
    itself keeps its handlers.
    """
    root = logging.getLogger("scfde")
    if root.handlers:
        yield
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


def _parse_overrides(pairs):
    data = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        data[key.strip()] = value.strip()
    return data


def _load_config(args) -> simulator.SweepConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{args.config} must hold a JSON object of config keys")
    data.update(_parse_overrides(args.overrides))
    return simulator.SweepConfig.from_dict(data)


def cmd_limits(args) -> int:
    try:
        n_r_values = tuple(int(p) for p in args.nr.split(","))
    except ValueError:
        raise ValueError(f"--nr must be comma-separated integers such as 1,2, "
                         f"got {args.nr!r}") from None
    receivers = (args.receiver,) if args.receiver else analytics.LIMIT_RECEIVERS
    rows = analytics.gap_table(n_r_values, receivers)
    if all(row.gap_db is None for row in rows):
        raise ValueError(
            "no finite limit for N_r=1: the conventional ZF-LE post-SNR "
            "has no finite single-antenna limit"
        )
    print("receiver,n_r,gap_to_mfb_db")
    for row in rows:
        cell = "NA" if row.gap_db is None else repr(row.gap_db)
        print(f"{row.receiver},{row.n_r},{cell}")
    return 0


def _gnuplot_script(config: simulator.SweepConfig, data_path: str) -> str:
    series = ", \\\n  ".join(
        f"'{data_path}' using (strcol(1) eq '{rx}' ? $2 : 1/0):5 "
        f"with linespoints title '{rx}'"
        for rx in config.receivers
    )
    return (
        "set datafile separator ','\n"
        "set logscale y\n"
        "set grid\n"
        "set xlabel 'SNR (dB)'\n"
        "set ylabel 'BER'\n"
        "set key top right\n"
        f"plot \\\n  {series}\n"
    )


def _check_writable(path):
    """OSError now, before any compute, if path does not open for writing.
    An existing file keeps its bytes; a file the check made is removed."""
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def cmd_ber_sweep(args) -> int:
    config = _load_config(args)
    if args.gnuplot_script and not args.output:
        raise ValueError("--gnuplot-script needs --output so the script "
                         "can reference the data file")
    for path in (args.output, args.gnuplot_script):
        if path:
            _check_writable(path)
    result = simulator.run_sweep(config)
    text = (simulator.result_to_json(result) if args.format == "json"
            else simulator.result_to_csv(result))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        log.info("wrote %s", args.output)
    else:
        sys.stdout.write(text)
    if args.gnuplot_script:
        with open(args.gnuplot_script, "w") as fh:
            fh.write(_gnuplot_script(config, args.output))
        log.info("wrote %s", args.gnuplot_script)
    return 0


def cmd_post_snr(args) -> int:
    config = _load_config(args)
    rows = simulator.measure_post_snr(config, args.snr, args.realizations)
    sys.stdout.write(simulator.rows_to_csv(simulator.PostSnrRow, rows))
    return 0


def _sweep_row(row):
    """(receiver, snr_db, ber) of a sweep JSON row: receiver a string,
    snr_db finite and ber in [0, 1], each number read by numerics.real as
    a config's numbers are (a numeric string too, a bool never)."""
    if isinstance(row, dict) and isinstance(row.get("receiver"), str):
        with contextlib.suppress(ValueError):
            snr, ber = (real(key, row.get(key)) for key in ("snr_db", "ber"))
            if math.isfinite(snr) and 0 <= ber <= 1:
                return row["receiver"], snr, ber
    raise ValueError(f"row needs a string receiver, a finite snr_db and a ber "
                     f"in [0, 1]: {row}")


def cmd_gap(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and isinstance(doc.get("config"), dict)
            and isinstance(doc.get("rows"), list)):
        raise ValueError(f"{args.input} must hold a JSON object with a "
                         "'config' object and a 'rows' list, as ber-sweep "
                         "--format json writes")
    config = simulator.SweepConfig.from_dict(doc["config"])
    rows = [_sweep_row(row) for row in doc["rows"]]
    reference = simulator.mfb_reference_curve(
        config, per_realization=args.per_realization)
    gaps = []
    for rx in config.receivers:
        points = [(snr, ber) for receiver, snr, ber in rows if receiver == rx]
        gaps.append(simulator.gap_at_ber(points, reference, args.target_ber,
                                         receiver=rx))
    sys.stdout.write(simulator.rows_to_csv(simulator.GapAtBer, gaps))
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest()
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name} ({1000 * r.elapsed_s:.0f} ms): {r.detail}")
    failed = [r.name for r in results if not r.passed]
    total = f"{len(results)} suites"
    if failed:
        print(f"{total}, {len(failed)} FAILED: {', '.join(failed)}")
        return 1
    print(f"{total}, all passed")
    return 0


def _add_config_arguments(parser):
    parser.add_argument("--config", help="JSON file with flat config keys")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="config overrides, e.g. nr=2 snr=0:2:14")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scfde",
        description="DFT-precoded OFDM equalizer analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    limits = sub.add_parser(
        "limits", help="closed-form gap-to-MFB table (ZF receivers)")
    limits.add_argument("--nr", default="1,2",
                        help="comma-separated antenna counts (default 1,2)")
    limits.add_argument("--receiver", default=None,
                        help="restrict to one receiver, e.g. wl-zf-dfe")
    limits.set_defaults(func=cmd_limits)

    post = sub.add_parser(
        "post-snr", help="empirical genie post-SNR vs closed form")
    post.add_argument("--snr", type=float, required=True,
                      help="input SNR in dB")
    post.add_argument("--realizations", type=int, default=500,
                      help="channel realizations to average (default 500)")
    _add_config_arguments(post)
    post.set_defaults(func=cmd_post_snr)

    sweep = sub.add_parser("ber-sweep", help="Monte Carlo BER sweep")
    sweep.add_argument("--output", help="output file (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--gnuplot-script",
                       help="also write a gnuplot script plotting the CSV")
    _add_config_arguments(sweep)
    sweep.set_defaults(func=cmd_ber_sweep)

    gap = sub.add_parser(
        "gap", help="gap to the matched filter bound at a target BER")
    gap.add_argument("--input", required=True,
                     help="JSON sweep output from ber-sweep --format json")
    gap.add_argument("--target-ber", type=float, required=True)
    gap.add_argument("--per-realization", action="store_true",
                     help="closed-form MFB averaged over the config's n_r x v "
                          "channel energy (default: its v -> inf limit, AWGN "
                          "at n_r r, for every alphabet)")
    gap.set_defaults(func=cmd_gap)

    selftest = sub.add_parser("selftest", help="fast invariant battery")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _logging_to_stderr():
            return args.func(args)
    except simulator.InsufficientRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
