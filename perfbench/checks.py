"""Output checks against references pinned at the seed commit.

Results are Monte Carlo estimates, so they are compared with statistical
tolerances, never byte for byte: a change of random streams or of the
summation order must pass, a broken receiver must not. References come
from ``calibrate.py``, run over seeds the benchmark does not default to.

* Each cell's BER must fall inside a binomial interval of Z standard
  errors around the pinned BER. Bit errors cluster within a fading
  block, so the binomial variance is inflated by the cell's pinned
  design effect, a ratio of observed to binomial variance seen in
  calibration (see calibrate.py).
* The standard scores of the normal cells, summed and divided by the
  square root of their number, must stay within Z calibrated standard
  deviations of their calibrated mean: cells are independent, so a
  shift that moves every cell a little (a receiver off by half a dB)
  adds up where no single cell would leave its interval. Cells whose
  errors come in a few rare bursts are left out of the sum, since one
  burst would dominate it; their own interval is widened upward by one
  block's bits, the most one burst can put in error.
* Each gap and post-SNR delta must lie within the acceptance tolerance
  of its pinned mean, or within Z calibrated standard deviations when
  that is wider at the run's size.
* Repetitions in one invocation must give identical output bytes
  (checked by the caller).
"""

import json
import math
from pathlib import Path

from workloads import cell_key

# standard scores allowed; sized for no false alarm over many runs, with
# the calibrated deviations themselves uncertain by about 7% (the 96
# seeds of calibrate.SEEDS)
Z = 6.0
REFERENCE = Path(__file__).with_name("reference.json")

# acceptance criteria 2-5: gaps and ZF-DFE deltas 0.3 dB, ZF-LE 5% linear
_ZF_LE_TOL_DB = 10.0 * math.log10(1.05)
ACCEPTANCE_TOL_DB = {"gap": 0.3, "zf-dfe": 0.3, "wl-zf-dfe": 0.3,
                     "zf-le": _ZF_LE_TOL_DB, "wl-zf-le": _ZF_LE_TOL_DB}


def load_reference():
    return json.loads(REFERENCE.read_text())


def cell_z(cell, pinned):
    """Standard score of a cell's BER against its pinned cell."""
    # rule of three when the pinned cell saw no error
    p = (pinned["errors"] or 3.0) / pinned["bits"]
    excess = cell.errors / cell.bits - p
    if not pinned["normal"] and excess > 0:
        # one decision-feedback burst can put at most a whole block in error
        excess = max(0.0, excess - 1.0 / cell.blocks)
    return excess / math.sqrt(pinned["deff"] * p * (1.0 - p) / cell.bits)


def pooled_z(scores):
    return math.fsum(scores) / math.sqrt(len(scores))


def _scaled_tol(what, pinned, size):
    # the standard deviation scales as 1/sqrt(size) from the calibrated size
    sd = pinned["sd_db"] * math.sqrt(pinned["size"] / size)
    return max(ACCEPTANCE_TOL_DB[what], Z * sd)


def check_rep(rep, reference):
    """(label, passed) for every reference check of one repetition."""
    results, scores = [], []
    for cfg, cell in rep.cells:
        key = cell_key(cfg, cell.receiver, cell.snr_db)
        pinned = reference["cells"].get(key)
        z = math.inf if pinned is None else cell_z(cell, pinned)
        results.append((f"ber {key}", abs(z) <= Z))
        if pinned is None or pinned["normal"]:
            scores.append(z)
    if scores:
        pooled = reference["pooled"]
        results.append(("ber all cells", abs(pooled_z(scores) - pooled["mean"])
                        <= Z * pooled["sd"]))
    for cfg, gap in rep.gaps:
        pinned = reference["gaps"][gap.receiver]
        tol = _scaled_tol("gap", pinned, cfg.min_bit_errors)
        results.append((f"gap {gap.receiver}",
                        abs(gap.gap_db - pinned["mean_db"]) <= tol))
    for _, row in rep.post:
        pinned = reference["post"][row.receiver]
        tol = _scaled_tol(row.receiver, pinned, row.realizations)
        results.append((f"post-snr {row.receiver}",
                        abs(row.delta_db - pinned["mean_db"]) <= tol))
    return results
