"""Monte Carlo engine: BER sweeps, post-SNR measurement, gap extraction.

One trial = one block: draw bits, map, precode, draw an independent
channel realization, apply it in the frequency domain, synthesize the
receiver for that realization, equalize, slice, count bit errors. Every
trial is a pure function of (master_seed, trial_index); a trial index
packs a hash of the (receiver, SNR) cell into bits 40 and up, the block
ordinal into bits 8-39 and a redraw counter into bits 0-7, so that any
cell can be reproduced in isolation and a singular channel can be
redrawn with the literally next stream index.

Blocks of a cell run in batches: run_block takes a list of trial
indices and carries every array of the chain with a leading batch axis,
so the sequential loops (Levinson orders, decision-feedback positions)
run once per batch. A row's results are the same bits whatever batch it
runs in. Rows are committed in ordinal order and the stopping rule is
evaluated after every row, so the cell stops at the same block as a
block-by-block loop and the rows past that block are discarded. Batch
sizes come from committed counts and constants only (see _cell_blocks),
so a rerun of the same config reproduces every output byte.

Post-SNR is always measured on the ideal-feedback path (decision errors
would corrupt the error statistic); decision-directed runs report their
BER from the decision path but share the genie MSE measurement.
"""

import hashlib
import json
import logging
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .analytics import limit_snr, mfb_ber
from .channel import apply_channel_freq, draw_channel
from .equalizer import (
    ReceiverSpec,
    SingularChannelError,
    equalize,
    synthesize,
)
from .modem import (
    constellation,
    count_bit_errors,
    index_bits,
    map_bits,
    precode,
)
from .numerics import RngStream

__all__ = [
    "SweepConfig",
    "SweepCell",
    "SweepResult",
    "PostSnrRow",
    "GapAtBer",
    "InsufficientRangeError",
    "run_block",
    "run_block_with_retry",
    "run_sweep",
    "measure_post_snr",
    "mfb_reference_curve",
    "gap_at_ber",
    "result_to_csv",
    "result_to_json",
]

log = logging.getLogger("scfde.simulator")

_ALIASES = {"nr": "antennas", "v": "taps", "m": "block_size", "snr": "snr_db"}


class InsufficientRangeError(ValueError):
    """A BER curve does not bracket the requested target."""


def _parse_snr_grid(value):
    if isinstance(value, str):
        if ":" in value:
            start, step, stop = (float(p) for p in value.split(":"))
            if step <= 0:
                raise ValueError("snr range step must be positive")
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            return tuple(start + step * k for k in range(max(n, 0)))
        return tuple(float(p) for p in value.split(","))
    return tuple(float(p) for p in np.atleast_1d(value))


def _noise_variance(snr_db) -> float:
    """sigma_n^2 = 10^(-snr_db/10), the noise variance of a unit-energy
    alphabet at snr_db; ValueError unless it is a positive finite float."""
    try:
        sigma_n_sq = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma_n_sq = math.inf
    if not 0.0 < sigma_n_sq < math.inf:
        raise ValueError(f"snr_db must be finite and give a positive finite noise "
                         f"variance 10^(-snr_db/10); snr_db={snr_db!r} gives "
                         f"{sigma_n_sq!r}")
    return sigma_n_sq


# trial index fields, see the module docstring
_MAX_ORDINALS = 1 << 32
_MAX_REDRAWS = 255
# samples (antennas x block size) per batch: 16 blocks of 512 at one
# antenna, 128 of 64; bounds the batch's arrays, and so the memory
BATCH_SAMPLES = 1 << 13


@dataclass(frozen=True)
class SweepConfig:
    """One BER sweep: the alphabet, receivers, channel and SNR grid.

    Each (receiver, SNR) cell stops at min_bit_errors bit errors or
    max_blocks blocks. parallel_width is validated (>= 1) and recorded,
    but does not affect the run: batch sizes follow from the cell's
    committed counts and BATCH_SAMPLES only.
    """

    constellation: str = "bpsk"
    receivers: tuple = ("mmse-dfe",)
    feedback: str = "genie"
    fbf_len: int = 20
    antennas: int = 1
    taps: int = 20
    block_size: int = 512
    snr_db: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
    min_bit_errors: int = 200
    max_blocks: int = 20000
    master_seed: int = 0
    parallel_width: int = 1
    zf_epsilon: float = 1e-12

    def __post_init__(self):
        rx = self.receivers
        if isinstance(rx, str):
            rx = tuple(p.strip() for p in rx.split(",") if p.strip())
        names = tuple(
            ReceiverSpec.from_name(name, feedback_mode=self.feedback).name
            for name in rx
        )
        if not names:
            raise ValueError("need at least one receiver")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate receivers in {names}")
        object.__setattr__(self, "receivers", names)
        object.__setattr__(self, "snr_db", _parse_snr_grid(self.snr_db))
        c = constellation(self.constellation)
        if any(n.startswith("wl-") for n in names) and not c.is_real:
            raise ValueError(
                "widely linear receivers require a real constellation (bpsk)"
            )
        if not self.snr_db:
            raise ValueError("snr grid is empty")
        for snr_db in self.snr_db:
            _noise_variance(snr_db)
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ValueError(f"snr grid must be strictly increasing: {self.snr_db}")
        if self.antennas < 1:
            raise ValueError("antennas must be >= 1")
        if not 1 <= self.taps <= self.block_size:
            raise ValueError(
                f"taps must satisfy 1 <= v <= block_size, got v={self.taps} "
                f"m={self.block_size}"
            )
        if self.min_bit_errors < 100:
            raise ValueError("min_bit_errors below 100 gives meaningless BER points")
        if not 1 <= self.max_blocks <= _MAX_ORDINALS:
            raise ValueError(f"max_blocks must satisfy 1 <= max_blocks <= 2**32, "
                             f"got {self.max_blocks}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.parallel_width < 1:
            raise ValueError("parallel_width must be >= 1")
        for spec in self.receiver_specs():  # validates fbf_len and zf_epsilon
            spec.check_fbf_length(self.block_size)

    def receiver_specs(self):
        return tuple(
            ReceiverSpec.from_name(
                name,
                fbf_length=self.fbf_len,
                feedback_mode=self.feedback,
                zf_epsilon=self.zf_epsilon,
            )
            for name in self.receivers
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["receivers"] = list(self.receivers)
        d["snr_db"] = list(self.snr_db)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        valid = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            name = _ALIASES.get(key, key)
            if name not in valid:
                options = ", ".join(sorted(valid | set(_ALIASES)))
                raise ValueError(f"unknown config key {key!r}; valid keys: {options}")
            if name in kwargs:
                raise ValueError(f"config key {name!r} given twice (alias clash)")
            kwargs[name] = value
        for field in ("fbf_len", "antennas", "taps", "block_size", "min_bit_errors",
                      "max_blocks", "master_seed", "parallel_width"):
            if field in kwargs:
                kwargs[field] = int(kwargs[field])
        if "zf_epsilon" in kwargs:
            kwargs["zf_epsilon"] = float(kwargs["zf_epsilon"])
        return cls(**kwargs)


# result rows are slotted: a sweep or a benchmark may keep many of them
@dataclass(frozen=True, slots=True)
class SweepCell:
    receiver: str
    snr_db: float
    bits: int
    errors: int
    ber: float
    post_snr_db: float
    analytic_db: Optional[float]
    blocks: int
    redraws: int
    hit_max_blocks: bool


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple


@dataclass(frozen=True, slots=True)
class PostSnrRow:
    receiver: str
    snr_db: float
    realizations: int
    post_snr_db: float
    analytic_db: Optional[float]
    delta_db: Optional[float]


@dataclass(frozen=True, slots=True)
class GapAtBer:
    receiver: str
    target_ber: float
    snr_at_target_db: float
    mfb_snr_at_target_db: float
    gap_db: float


def _cell_base(receiver_name: str, snr_db: float) -> int:
    digest = hashlib.sha256(f"{receiver_name}|{snr_db:.6f}".encode()).digest()
    return int.from_bytes(digest[:4], "big") << 40


def _trial_list(trial_index):
    """(indices, batched): a 1-d sequence of trial indices, or one int."""
    if isinstance(trial_index, numbers.Integral):
        return [int(trial_index)], False
    return [int(t) for t in trial_index], True


def run_block(trial_index, config: SweepConfig, receiver: ReceiverSpec,
              snr_db: float):
    """Blocks through the full chain, one per trial index.

    An int trial index returns (bit_errors, bits, mse) for its block. A
    1-d sequence of indices runs them as one batch and returns three
    arrays whose row i is the block of trial_index[i], bit for bit what
    the int call gives.
    """
    trials, batched = _trial_list(trial_index)
    c = constellation(config.constellation)
    m = config.block_size
    sigma_n_sq = _noise_variance(snr_db)
    # one stream per row, each drawing bits, then taps, then noise
    gens = [RngStream(config.master_seed, t).generator() for t in trials]
    tx_bits = np.stack([g.integers(0, 2, m * c.bits_per_symbol).astype(np.uint8)
                        for g in gens])
    block = precode(map_bits(tx_bits, c))
    ch = draw_channel(gens, config.antennas, config.taps, m)
    filters = synthesize(receiver, ch, 1.0, sigma_n_sq)
    y = apply_channel_freq(block.precoded, ch, sigma_n_sq, gens)
    # a batch's arrays are large: each is dropped once nothing reads it, which
    # keeps the peak memory of a batch near that of the step it is in
    del gens, ch
    z, indices = equalize(receiver, filters, y, c, block.precoded)
    mse = np.mean(np.abs(z - block.time_symbols) ** 2, axis=-1)
    errors = count_bit_errors(tx_bits, index_bits(indices, c))
    bits = np.full(len(trials), tx_bits.shape[-1])
    if batched:
        return errors, bits, mse
    return int(errors[0]), int(bits[0]), float(mse[0])


def run_block_with_retry(trial_index, config: SweepConfig,
                         receiver: ReceiverSpec, snr_db: float, max_redraws=64):
    """run_block, redrawing singular channels with the next stream index.

    Returns (bit_errors, bits, mse, redraws), arrays for a sequence of
    indices. A singular row is redrawn alone: the batch runs again with
    that row's index advanced by one and every other index unchanged, and
    since a row depends on its own index only, its neighbours keep their
    results. Raises SingularChannelError once a row has been singular
    max_redraws + 1 times in a row.
    """
    if not 0 <= max_redraws <= _MAX_REDRAWS:
        raise ValueError(f"max_redraws must be in [0, {_MAX_REDRAWS}]: redraws "
                         "share the low 8 bits of the trial index")
    trials, batched = _trial_list(trial_index)
    redraws = np.zeros(len(trials), np.int64)
    while True:
        index = [t + int(r) for t, r in zip(trials, redraws)]
        try:
            out = run_block(index if batched else index[0], config, receiver,
                            snr_db)
        except SingularChannelError as exc:
            for row in exc.rows:
                log.debug("trial %d redrawn (%s)", index[row], exc)
            redraws[exc.rows] += 1
            if redraws.max() > max_redraws:
                row = int(np.argmax(redraws))
                raise SingularChannelError(
                    f"{max_redraws} singular channels in a row at trial "
                    f"{trials[row]}; increase zf_epsilon", [row]) from exc
            continue
        if batched:
            return (*out, redraws)
        return (*out, int(redraws[0]))


def _analytic_db(spec: ReceiverSpec, config: SweepConfig, snr_db: float):
    # conventional outputs are measured with complex error, so their
    # closed forms are used without the real-alphabet doubling; the WL
    # formulas are real-alphabet quantities already
    if spec.criterion != "zf":
        return None
    try:
        value = limit_snr(spec.name, config.antennas, 1.0,
                          _noise_variance(snr_db), real_modulation=False)
    except ValueError:
        return None
    return float(10.0 * np.log10(value))


def _cell_blocks(config: SweepConfig, cell: str, snr_db: float, run,
                 max_blocks: int, min_errors=math.inf):
    """Yield the per-block results of one cell, in ordinal order.

    run(trial_indices) returns per-row result sequences, bit error counts
    first; each yielded block is a tuple of Python numbers. The cell stops
    at min_errors bit errors or max_blocks blocks, whichever comes first,
    and discards the rest of the batch it stopped in.

    Batch sizes depend on committed counts and constants only. The first
    batch is one block. After it, a batch holds the blocks the committed
    error rate says are still needed, ceil((min_errors - errors) *
    committed / errors), or twice the previous batch while no error has
    been seen, and never more than BATCH_SAMPLES / (antennas * block
    size) rows or the blocks left before max_blocks. Without an error
    target (min_errors = inf) only those two bounds apply once an error
    has been seen.
    """
    assert max_blocks <= _MAX_ORDINALS, "ordinal would overwrite the cell hash"
    base = _cell_base(cell, snr_db)
    budget = max(1, BATCH_SAMPLES // (config.antennas * config.block_size))
    errors = blocks = batch = 0
    while errors < min_errors and blocks < max_blocks:
        if blocks == 0:
            wanted = 1
        elif errors == 0:
            wanted = 2 * batch
        elif math.isinf(min_errors):
            wanted = budget
        else:
            wanted = -((errors - min_errors) * blocks // errors)
        batch = min(budget, max_blocks - blocks, wanted)
        outs = run([base | k << 8 for k in range(blocks, blocks + batch)])
        for out in zip(*(o.tolist() for o in outs)):
            errors += out[0]
            blocks += 1
            yield out
            if errors >= min_errors:
                break


def _post_snr_db(mses, criterion: str) -> float:
    """sigma_x^2 / mean(mse) in dB, minus one for MMSE receivers (their
    bias term); nan when that is not positive."""
    post = 1.0 / (math.fsum(mses) / len(mses))
    post -= 1.0 if criterion == "mmse" else 0.0
    return float(10.0 * np.log10(post)) if post > 0 else float("nan")


def _run_cell(config: SweepConfig, spec: ReceiverSpec, snr_db: float) -> SweepCell:
    errors = bits = blocks = redraws = 0
    mses = []

    def run(trial_index):
        return run_block_with_retry(trial_index, config, spec, snr_db)

    for e, b, mse, rd in _cell_blocks(config, spec.name, snr_db, run,
                                      config.max_blocks, config.min_bit_errors):
        errors += e
        bits += b
        blocks += 1
        redraws += rd
        mses.append(mse)
    return SweepCell(
        receiver=spec.name,
        snr_db=float(snr_db),
        bits=bits,
        errors=errors,
        ber=errors / bits,
        post_snr_db=_post_snr_db(mses, spec.criterion),
        analytic_db=_analytic_db(spec, config, snr_db),
        blocks=blocks,
        redraws=redraws,
        hit_max_blocks=errors < config.min_bit_errors,
    )


def run_sweep(config: SweepConfig) -> SweepResult:
    """BER/post-SNR over the full (receiver, snr) grid of the config."""
    rows = []
    for spec in config.receiver_specs():
        for snr_db in config.snr_db:
            cell = _run_cell(config, spec, snr_db)
            log.info(
                "%s @ %g dB: ber=%.4g errors=%d blocks=%d%s",
                cell.receiver, snr_db, cell.ber, cell.errors, cell.blocks,
                " (max_blocks hit)" if cell.hit_max_blocks else "",
            )
            rows.append(cell)
    return SweepResult(config=config, rows=tuple(rows))


def measure_post_snr(config: SweepConfig, snr_db: float,
                     realizations: int) -> tuple:
    """Genie-path empirical post-SNR over a fixed number of realizations.

    Aggregation is sigma_x^2 / mean(mse), minus one for MMSE receivers,
    compared against the closed-form limit where one exists.
    """
    if not 1 <= realizations <= _MAX_ORDINALS:
        raise ValueError("realizations must satisfy 1 <= realizations <= 2**32")
    _noise_variance(snr_db)
    rows = []
    for spec in config.receiver_specs():
        genie = replace(spec, feedback_mode="ideal_genie")

        def run(trial_index):
            return run_block_with_retry(trial_index, config, genie, snr_db)

        mses = [out[2] for out in _cell_blocks(config, genie.name, snr_db, run,
                                               realizations)]
        post_db = _post_snr_db(mses, spec.criterion)
        analytic = _analytic_db(spec, config, snr_db)
        rows.append(
            PostSnrRow(
                receiver=spec.name,
                snr_db=float(snr_db),
                realizations=len(mses),
                post_snr_db=post_db,
                analytic_db=analytic,
                delta_db=None if analytic is None else post_db - analytic,
            )
        )
    return tuple(rows)


def mfb_reference_curve(config: SweepConfig, snr_grid_db=None,
                        per_realization: bool = False) -> tuple:
    """Matched filter bound BER curve on the grid, in closed form.

    per_realization averages the alphabet's AWGN BER over the channel
    energy of the config's n_r antennas and v taps (the finite-v bound);
    otherwise the curve is the v -> inf limit, AWGN at n_r r, for every
    alphabet. Neither depends on the seed or the block budget; see
    analytics.mfb_ber.
    """
    grid = config.snr_db if snr_grid_db is None else _parse_snr_grid(snr_grid_db)
    ber = mfb_ber(config.constellation, config.antennas,
                  10.0 ** (np.asarray(grid) / 10.0),
                  config.taps if per_realization else None)
    return tuple((float(s), float(b)) for s, b in zip(grid, ber))


def _snr_at_target(curve, target_ber: float) -> float:
    pts = sorted((float(s), max(float(b), 1e-300)) for s, b in curve)
    if len(pts) < 2:
        raise InsufficientRangeError("need at least two curve points")
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        if b0 >= target_ber >= b1 and b0 > b1:
            frac = (math.log(b0) - math.log(target_ber)) / (
                math.log(b0) - math.log(b1)
            )
            return s0 + frac * (s1 - s0)
    span = (min(b for _, b in pts), max(b for _, b in pts))
    raise InsufficientRangeError(
        f"target ber {target_ber:g} not bracketed; achieved span "
        f"[{span[0]:g}, {span[1]:g}]"
    )


def gap_at_ber(points, reference, target_ber: float,
               receiver: str = "") -> GapAtBer:
    """SNR distance between two BER curves at a target, log-linear in BER.

    points/reference are (snr_db, ber) sequences; both must bracket the
    target or InsufficientRangeError reports the achieved span.
    """
    if not 0 < target_ber < 1:
        raise ValueError("target_ber must be in (0, 1)")
    snr = _snr_at_target(points, target_ber)
    ref = _snr_at_target(reference, target_ber)
    return GapAtBer(
        receiver=receiver,
        target_ber=float(target_ber),
        snr_at_target_db=snr,
        mfb_snr_at_target_db=ref,
        gap_db=snr - ref,
    )


def result_to_csv(result: SweepResult) -> str:
    """Stable-ordered CSV with the pinned seven columns."""
    lines = ["receiver,snr_db,bits,errors,ber,post_snr_db,analytic_db"]
    for r in result.rows:
        analytic = "" if r.analytic_db is None else repr(r.analytic_db)
        lines.append(
            f"{r.receiver},{r.snr_db!r},{r.bits},{r.errors},{r.ber!r},"
            f"{r.post_snr_db!r},{analytic}"
        )
    return "\n".join(lines) + "\n"


def result_to_json(result: SweepResult) -> str:
    doc = {
        "config": result.config.to_dict(),
        "rows": [asdict(r) for r in result.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
