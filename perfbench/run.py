"""scfde benchmark: one workload, timed or traced, with its outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload short-cells --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --smoke

With --trace 0 the workload repeats, untraced, until --seconds have
passed (at least twice) and the end-to-end metrics of BENCHMARK.json are
reported: medians over repetitions, and set-up as the median of
SETUP_RUNS fresh processes. With --trace 1 the untraced repetitions give
the baseline wall time, then one repetition runs under the layer tracer
of layers.py and the per-layer metrics are reported.

Timed and traced runs use one CPU (see pin_to_one_cpu). Every
repetition's outputs are checked (checks.py), and repetitions must
agree byte for byte. Machine facts and one line per metric are printed
first; the last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload at tiny sizes, timed and traced, and fails
unless exactly the metrics named in BENCHMARK.json are emitted, each with
its unit, no check failed and every traced name is restored.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5


def pin_to_one_cpu():
    """Run this process, its pool threads and its children on one CPU.

    On a shared virtual machine the host takes a virtual CPU away for
    milliseconds at a time. A width-2 sweep hands blocks between its
    threads thousands of times a second, and each hand-off to a thread on
    a taken CPU waits for it. On a 2-vCPU Xeon guest one short-cells
    repetition took 7-10 s spread over both CPUs against 2.7-4 s on one,
    in the same minutes. On one CPU the threads still switch, so pool
    costs still show; a speed-up from running on more cores does not.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu

_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.warm_up(sys.argv[3], int(sys.argv[4]))")


def setup_seconds(name, seed):
    """Wall time of a fresh process that imports scfde, validates and warms up."""
    cmd = [sys.executable, "-c", _PROBE, str(SRC), str(HERE), name, str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def repeat(plan, seconds, min_reps):
    from workloads import run_rep

    reps, t0 = [], time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        reps.append(run_rep(plan))
    print(f"{len(reps)} repetitions, wall s:",
          " ".join(f"{rep.wall_s:.3f}" for rep in reps))
    return reps


def check(reps, reference):
    from checks import check_rep

    results = check_rep(reps[0], reference)
    results += [(f"repetition {i} bytes", rep.text == reps[0].text)
                for i, rep in enumerate(reps[1:], 1)]
    return results


def timed_metrics(name, seed, seconds, smoke, reference):
    from workloads import WORKLOADS

    setup = [setup_seconds(name, seed) for _ in range(1 if smoke else SETUP_RUNS)]
    reps = repeat(WORKLOADS[name](seed, smoke), seconds, min_reps=2)
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "blocks_per_s": (statistics.median(r.committed_blocks / r.wall_s
                                           for r in reps), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
    }
    return metrics, check(reps, reference)


def traced_metrics(name, seed, seconds, smoke, reference):
    from layers import Tracer, patched_names
    from workloads import WORKLOADS, run_rep

    plan = WORKLOADS[name](seed, smoke)
    reps = repeat(plan, seconds, min_reps=1)
    with Tracer() as tracer:
        traced = run_rep(plan)
    results = check(reps + [traced], reference)
    results.append(("traced names restored", not patched_names()))
    cell_ms = [1e3 * s for rep in reps for s in rep.cell_s]
    metrics = {
        "simulator.cell_ms_p50": (statistics.median(cell_ms), "ms"),
        "simulator.cell_ms_p90": (statistics.quantiles(cell_ms, n=10)[8], "ms"),
    }
    for layer, stats in tracer.stats.items():
        metrics[f"{layer}.calls"] = (stats["calls"], "count")
        metrics[f"{layer}.self_s"] = (stats["self_s"], "s")
        metrics[f"{layer}.wait_s"] = (stats["wait_s"], "s")
    blocks = tracer.stats["simulator.run_block"]
    computed = blocks["calls"] - blocks["raised"]
    metrics.update({
        "simulator.blocks_computed": (computed, "count"),
        "simulator.blocks_committed": (traced.committed_blocks, "count"),
        "simulator.commit_ratio": (traced.committed_blocks / computed, "ratio"),
        "simulator.redraws": (blocks["raised"], "count"),
        "kernels.levinson_recursion.cmacs":
            (tracer.stats["kernels.levinson_recursion"]["ops"], "count"),
        "kernels.dd_feedback.ops": (tracer.stats["kernels.dd_feedback"]["ops"],
                                    "count"),
        "trace.overhead_s":
            (traced.wall_s - statistics.median(r.wall_s for r in reps), "s"),
    })
    return metrics, results


def measure(name, seed, seconds, trace, smoke=False):
    """The result object for one run; check failures and exceptions count as failed."""
    from checks import load_reference

    try:
        reference = load_reference()["workloads"][name]
        fn = traced_metrics if trace else timed_metrics
        metrics, results = fn(name, seed, seconds, smoke, reference)
    except Exception:  # a run that raises is reported as a failed check
        traceback.print_exc()
        metrics, results = {}, [("run raised", False)]
    failed = [label for label, ok in results if not ok]
    for label in failed:
        print(f"check failed: {label}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(f"ops_failed_frac = {len(failed) / len(results)!r} ({len(failed)} of "
          f"{len(results)} checks)")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def machine_facts():
    import numpy
    import scipy
    from scfde import kernels

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, size = ((index / f).read_text().strip() for f in ("level", "size"))
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": kernels.backend(),
        "commit": commit or "unknown (not a git checkout)",
    }


def smoke():
    from layers import patched_names
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(name, seed=0, seconds=0, trace=trace, smoke=True)
            if result["failed"]:
                problems.append(f"{name} trace={trace}: "
                                f"{result['failed']} failed checks")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={trace}: {metric['name']} "
                                    f"missing or not in {metric['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[group]}
            problems += [f"{name} trace={trace}: {m} not in BENCHMARK.json"
                         for m in sorted(extra)]
    problems += [f"{n} still patched" for n in patched_names()]
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "scfde" / "__init__.py").is_file():
        print(f"perfbench: no scfde sources in {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    facts = machine_facts()
    facts["pinned_cpu"] = pin_to_one_cpu()
    print("machine", json.dumps(facts, sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
