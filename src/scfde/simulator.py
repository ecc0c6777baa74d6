"""Monte Carlo engine: BER sweeps, post-SNR measurement, gap extraction.

One trial = one block: draw bits, map, precode, draw an independent
channel realization, apply it in the frequency domain, synthesize the
receiver for that realization, equalize, slice, count bit errors. Every
trial is a pure function of (master_seed, trial_index); a trial index
packs a hash of the (receiver, SNR) cell into bits 40 and up and the
block ordinal into bits 8-39, so that any cell can be reproduced in
isolation. Bits 0-7 are always zero; they are kept so that every cell
draws the same random streams as sweeps written before.

Blocks run in batches: run_block takes a list of trial indices, with
one receiver and one SNR for all or one per index, and carries every
array of the chain with a leading batch axis, so the sequential loops
run once per batch: Levinson orders once per front-end pass of one
receiver's rows (BATCH_SAMPLES samples, 64 rows at M = 512), decision-
feedback positions once per call for the decision-directed rows of all
receivers, up to FLUSH_PASSES passes of them. Each row draws from the
stream of RngStream(master_seed, trial_index), seeded for all rows of
the call by one numerics.stream_states hash and drawn per pass by
numerics.draw_streams, with no Generator per row. A row's results are
the same bits whatever batch it runs in. All (receiver, SNR) cells of
a sweep share their batches (see _run_cells): each round, every cell
still running asks for rows from its committed counts only, and the
rows of all cells make one run_block call, each receiver's in the
fewest passes. A cell commits its rows in ordinal order and evaluates
the stopping rule after every row, so it stops at the same block as a
block-by-block loop and the rows past that block are discarded. Since
batch sizes come from committed counts and constants only, a rerun of
the same config reproduces every output byte.

A front-end pass allocates no array of its size. Every writer of the
chain fills the pass workspace of its thread: a few pass-sized buffers
(BATCH_SAMPLES samples of the config, about 2.6 MiB at 64 x 512
rows) made with np.empty once and kept across passes, receivers and
run_block calls, with their named views built once per pass shape; a
short pass uses the leading rows, an intermediate shares a buffer
with those that nothing reads any more, and a transform runs in place
where nothing reads its input again. The decision rows held for
feedback take their arrays from it too. So a pass faults no fresh page
in, where glibc returned a freed pass's memory to the system each
time. Each thread has its own workspace, and the bytes written are
those of the allocating writers (work=None), so no output changes.

Post-SNR is always measured on the ideal-feedback path (decision errors
would corrupt the error statistic); decision-directed runs report their
BER from the decision path but share the genie MSE measurement.
"""

import hashlib
import json
import logging
import math
import numbers
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import kernels
from .analytics import MAX_ANTENNAS, NoFiniteLimit, limit_snr, mfb_ber
from .channel import apply_channel_freq, draw_channel
from .equalizer import ZF_FLOOR, FeedbackPass, ReceiverSpec, equalize, synthesize
from .modem import constellation, count_bit_errors, map_bits, precode
from .numerics import draw_streams, integer, real, stream_states

__all__ = [
    "SweepConfig",
    "SweepCell",
    "SweepResult",
    "PostSnrRow",
    "GapAtBer",
    "InsufficientRangeError",
    "run_block",
    "run_sweep",
    "measure_post_snr",
    "mfb_reference_curve",
    "gap_at_ber",
    "rows_to_csv",
    "result_to_csv",
    "result_to_json",
]

log = logging.getLogger("scfde.simulator")

_ALIASES = {"nr": "antennas", "v": "taps", "m": "block_size", "snr": "snr_db"}


class InsufficientRangeError(ValueError):
    """A BER curve does not bracket the requested target."""


# most points of a 'start:step:stop' grid: grids in use have tens, so more is
# a mistyped step, refused before a grid that could fill the memory is built
MAX_SNR_POINTS = 10_000


def _parse_snr_grid(value):
    if isinstance(value, str):
        try:
            if ":" not in value:
                return tuple(float(p) for p in value.split(","))
            start, step, stop = (float(p) for p in value.split(":"))
        except ValueError:
            raise ValueError(f"snr_db must be a range 'start:step:stop' or a list "
                             f"'a,b,c' of numbers, got {value!r}") from None
        if not (step > 0 and math.isfinite(stop - start)):
            raise ValueError("snr range needs a positive step and finite ends")
        ratio = (stop - start) / step  # inf where the step underflows the span
        n = math.floor(ratio + 1e-9) + 1 if math.isfinite(ratio) else ratio
        if n > MAX_SNR_POINTS:
            raise ValueError(f"snr_db range {value!r} has {n} points, more than "
                             f"{MAX_SNR_POINTS}")
        return tuple(start + step * k for k in range(max(n, 0)))
    # object dtype hands bools and nested values to real unconverted
    return tuple(real("config key 'snr_db'", p)
                 for p in np.atleast_1d(np.asarray(value, dtype=object)))


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
# the integer keys and their (least, most) bounds: fewer than 100 errors
# make a meaningless BER point, and a block's ordinal field has 32 bits
_INTEGER_KEYS = {"fbf_len": (None, None), "antennas": (1, None),
                 "taps": (None, None), "block_size": (None, None),
                 "min_bit_errors": (100, None), "max_blocks": (1, _MAX_ORDINALS),
                 "master_seed": (0, None)}
# samples (antennas x block size) per front-end pass: 64 blocks of 512 at
# one antenna, 32 at two, 512 of 64; bounds the pass's arrays, and so the
# memory
BATCH_SAMPLES = 1 << 15
# most front-end passes of decision rows of one feedback length held for
# one feedback call: a call's cost grows far slower than its rows, and
# this bounds the rows held whatever the number of cells (2^18 samples)
FLUSH_PASSES = 8
# most samples (antennas x block size) of one block: a pass holds at least
# one block, and its arrays, some hundreds of bytes a sample, must fit in
# memory; the paper's configs (M = 512, n_r <= 2) are far below it
MAX_BLOCK_SAMPLES = MAX_ANTENNAS  # the most antennas, at M = 1


@dataclass(frozen=True)
class SweepConfig:
    """One BER sweep: the alphabet, receivers, channel and SNR grid.

    Each (receiver, SNR) cell stops at min_bit_errors bit errors or
    max_blocks blocks. A block holds at most MAX_BLOCK_SAMPLES samples,
    antennas x block_size. Integer fields pass numerics.integer and the
    SNRs numerics.real, so any other type is a ValueError. from_dict drops
    the retired keys parallel_width and, at the fixed ZF floor only,
    zf_epsilon.
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

    def __post_init__(self):
        for key, (least, most) in _INTEGER_KEYS.items():
            object.__setattr__(self, key, integer(
                f"config key {key!r}", getattr(self, key), least, most))
        for key in ("constellation", "feedback"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"config key {key!r} must be a string, "
                                 f"got {getattr(self, key)!r}")
        rx = self.receivers
        if isinstance(rx, str):
            rx = tuple(p.strip() for p in rx.split(",") if p.strip())
        if not (isinstance(rx, (list, tuple)) and all(isinstance(n, str) for n in rx)):
            raise ValueError(f"config key 'receivers' must be names, got {rx!r}")
        specs = tuple(ReceiverSpec.from_name(name, self.fbf_len, self.feedback)
                      for name in rx)
        names = tuple(spec.name for spec in specs)
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
        for a, b in zip(self.snr_db, self.snr_db[1:]):
            if b <= a:
                raise ValueError(f"snr grid must be strictly increasing: {self.snr_db}")
            # keys are monotone in the SNR, so equal keys are neighbours
            if _snr_key(a) == _snr_key(b):
                raise ValueError(
                    f"snr points {a!r} and {b!r} share the cell key "
                    f"{_snr_key(a)}, which seeds a cell's random streams; "
                    "grid points must differ within 6 decimals")
        if not 1 <= self.taps <= self.block_size:
            raise ValueError(
                f"taps must satisfy 1 <= v <= block_size, got v={self.taps} "
                f"m={self.block_size}"
            )
        if self.antennas * self.block_size > MAX_BLOCK_SAMPLES:
            raise ValueError(
                f"antennas x block_size = {self.antennas} x {self.block_size} "
                f"samples is more than the {MAX_BLOCK_SAMPLES} a block may hold")
        for spec in specs:
            spec.check_fbf_length(self.block_size)

    def receiver_specs(self):
        return tuple(ReceiverSpec.from_name(name, fbf_length=self.fbf_len,
                                            feedback_mode=self.feedback)
                     for name in self.receivers)

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
            # retired keys that older sweep JSON carries: parallel_width sized
            # a deleted thread pool; zf_epsilon loads at its old default, the
            # fixed ZF floor, only, as another value names another receiver
            if key == "zf_epsilon" and real(f"config key {key!r}", value) != ZF_FLOOR:
                raise ValueError(f"config key 'zf_epsilon' is retired: ZF receivers "
                                 f"use the fixed floor {ZF_FLOOR!r}, got {value!r}")
            if key in ("parallel_width", "zf_epsilon"):
                continue
            name = _ALIASES.get(key, key)
            if name not in valid:
                options = ", ".join(sorted(valid | set(_ALIASES)))
                raise ValueError(f"unknown config key {key!r}; valid keys: {options}")
            if name in kwargs:
                raise ValueError(f"config key {name!r} given twice (alias clash)")
            kwargs[name] = value
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


def _snr_key(snr_db: float) -> str:
    """The SNR as the cell hash reads it: two SNRs with one key share
    their cells' trial indices."""
    return f"{snr_db:.6f}"


def _cell_base(receiver_name: str, snr_db: float) -> int:
    digest = hashlib.sha256(f"{receiver_name}|{_snr_key(snr_db)}".encode()).digest()
    return int.from_bytes(digest[:4], "big") << 40


def _pass_rows(config: SweepConfig) -> int:
    """Rows of one front-end pass: BATCH_SAMPLES over antennas x block size."""
    return max(1, BATCH_SAMPLES // (config.antennas * config.block_size))


def _row_sizes(m, r, v, bits) -> dict:
    """The buffers of a pass workspace, with the elements a row takes in
    each and their dtype, for block size m, r antennas, v taps and `bits`
    bits per symbol: the labels, the normals, the channel taps and four
    complex buffers."""
    return {"labels": (m, np.uint8), "normals": (2 * r * (v + m), np.float64),
            "taps": (r * v, np.complex128),
            **{f"c{k}": (r * m, np.complex128) for k in range(4)}}


# the (rows, M) blocks the writers of a pass read from the workspace, per
# complex buffer, in the order a pass writes them: each is written once
# nothing reads those before it (see _front_end). Transforms run in place
# where their input is not read again, so "x_f" is "x_t", "fff" is "h",
# "product" is "y", "one_plus_b" is "autocov", "linear" is "quotient"
# and "z_t" is "z_f". The drawn words ("raw") and bits come first, in the
# buffers of "autocov" and "y", and the noise, added to "y" as soon as it
# is drawn, in that of "autocov"
_BLOCK_NAMES = (
    ("x_t", "z"),
    ("z_f", "z_t"),
    ("isi", "expected"),
    ("autocov", "one_plus_b", "quotient", "linear"),
)
# the most pass shapes whose views a workspace keeps
_MAX_SHAPES = 64


def _carve(buffers, rows, m, r, v, bits) -> dict:
    """The named views of a pass of `rows` rows, each from the leading
    elements of its buffer."""
    def view(buffer, shape, dtype=None, offset=0):
        flat = buffers[buffer] if dtype is None else buffers[buffer].view(dtype)
        return flat[offset : offset + math.prod(shape)].reshape(shape)

    block, antennas = (rows, m), (rows, r, m)
    sizes = _row_sizes(m, r, v, bits)
    views = {name: view(name, (rows, sizes[name][0]))
             for name in ("labels", "normals", "taps")}
    for k, names in enumerate(_BLOCK_NAMES):
        views.update(dict.fromkeys(names, view(f"c{k}", block)))
    views.update(
        raw=view("c3", (rows, -(-m * bits // 2)), np.uint64),
        bits=view("c2", (rows, m * bits), np.uint8),
        h=view("c1", antennas),
        y=view("c2", antennas),
        noise=view("c3", (rows, r * m)),
        # synthesize's real arrays, once the normals are drawn from:
        # "gains" and "denom" past the energies, "mirror" and "inverse"
        # over them; then equalize's real blocks, two to the buffer:
        # "error" over "z_real" once that is read, "z_t_real" over
        # "linear_real" once its tail is copied
        energy=view("normals", antennas),
        gains=view("normals", block, offset=rows * r * m),
        mirror=view("normals", block),
        z_real=view("normals", block),
        linear_real=view("normals", block, offset=rows * m))
    views.update(denom=views["gains"], inverse=views["mirror"],
                 error=views["z_real"], z_t_real=views["linear_real"],
                 fff=views["h"].swapaxes(-1, -2),
                 product=views["y"].swapaxes(-1, -2))
    return views


class _Workspace(threading.local):
    """The pass workspace of a thread: the buffers every front-end pass
    writes its arrays into, their named views for each pass shape, and
    the buffers of the decision rows run_block holds for feedback."""

    def __init__(self):
        self.buffers = {}
        self.views = {}  # (rows, m, antennas, taps, bits) -> names -> views

    def _fit(self, name, need, dtype) -> bool:
        """Make buffer `name` hold need elements: anew where it holds
        fewer or more than four times as many. True where it is new."""
        held = self.buffers.get(name)
        if held is not None and need <= len(held) <= 4 * need:
            return False
        self.buffers[name] = np.empty(need, dtype)
        return True

    def __call__(self, config: SweepConfig, bits: int, rows: int) -> dict:
        """The named views of a front-end pass of `rows` rows."""
        key = (rows, config.block_size, config.antennas, config.taps, bits)
        views = self.views.get(key)
        if views is None:
            # each buffer holds a full pass of the config
            full = _pass_rows(config)
            made = [self._fit(name, full * per_row, dtype)
                    for name, (per_row, dtype) in _row_sizes(*key[1:]).items()]
            if any(made) or len(self.views) >= _MAX_SHAPES:
                self.views.clear()
            views = self.views[key] = _carve(self.buffers, *key)
        return views

    def held(self, group: int, config: SweepConfig, rows: int, n_taps: int):
        """(z_t, taps, tail, labels) for `rows` held decision rows of
        feedback group `group` of a run_block call, from buffers that
        hold FLUSH_PASSES full passes."""
        full = FLUSH_PASSES * _pass_rows(config)
        arrays = []
        for name, width, dtype in (("z_t", config.block_size, complex),
                                   ("taps", n_taps, complex),
                                   ("tail", n_taps, complex),
                                   ("labels", config.block_size, np.uint8)):
            name = f"held{group}.{name}"
            self._fit(name, full * width, dtype)
            arrays.append(self.buffers[name][: rows * width].reshape(rows, width))
        return arrays


_workspace = _Workspace()


def _front_end(config: SweepConfig, c, spec: ReceiverSpec, states, snrs):
    """One pass of rows of one receiver, from their draws through
    equalize: (tx_labels, mse, decided), decided as equalize returns it.
    states holds each row's stream state, from numerics.stream_states.

    Every array of the pass is written into the thread's pass workspace,
    so tx_labels and a FeedbackPass's z_t hold until the next pass."""
    m, n_r, v = config.block_size, config.antennas, config.taps
    work = _workspace(config, c.bits_per_symbol, len(states))
    sigma_n_sq = np.array([_noise_variance(s) for s in snrs])
    # one stream per row: its bits, then one call for the standard normals
    # of the taps (real, imaginary) and of the noise (real, imaginary)
    tx_bits, normals = draw_streams(states, m * c.bits_per_symbol,
                                    2 * n_r * (v + m), work=work)
    tx_labels, x_t = map_bits(tx_bits, c, work=work)
    x_f = precode(x_t, out=x_t)
    h = draw_channel(normals[:, : 2 * n_r * v], n_r, v, m, work=work)
    y = apply_channel_freq(x_f, h, sigma_n_sq, normals[:, 2 * n_r * v :],
                           work=work)
    filters = synthesize(spec, h, sigma_n_sq, work=work)
    z, decided = equalize(spec, filters, y, c, x_f, work=work)
    # "clip" writes straight into out, which "raise" would buffer
    expected = c.points.take(tx_labels, out=work["expected"], mode="clip")
    error = np.abs(np.subtract(z, expected, out=expected), out=work["error"])
    return tx_labels, np.mean(np.square(error, out=error), axis=-1), decided


class _HeldRows:
    """The decision-directed DFE rows of one feedback length, held from
    their front-end passes until a kernels.dd_feedback call decides
    them: at most as many rows as `arrays` (z_t, taps, tail, labels,
    from the thread's workspace) hold, each written into them as its
    pass ends, before the next pass writes over the workspace. Real
    widely linear rows are held as complex ones, which leaves their
    decisions unchanged (see FeedbackPass). Decided rows' bit errors go
    to their rows of `errors`."""

    def __init__(self, arrays, c, errors):
        self.c, self.errors = c, errors
        self.rows = []  # the run_block row of each held row, in order
        self.z_t, self.taps, self.tail, self.labels = arrays

    def add(self, part, tx_labels, decided: FeedbackPass):
        """Hold a pass's rows, deciding the held ones first if they would
        not fit."""
        if len(self.rows) + len(part) > len(self.z_t):
            self.decide()
        at = slice(len(self.rows), len(self.rows) + len(part))
        self.z_t[at], self.taps[at], self.tail[at] = decided
        self.labels[at] = tx_labels
        self.rows += part

    def decide(self):
        """Run the feedback pass on the held rows and count their errors."""
        n, c = len(self.rows), self.c
        if n:
            indices = kernels.dd_feedback(self.z_t[:n], self.taps[:n],
                                          self.tail[:n], c.points, c.is_real)
            self.errors[self.rows] = count_bit_errors(self.labels[:n], indices)
            self.rows = []


def run_block(trial_index, config: SweepConfig, receiver, snr_db):
    """Blocks through the full chain, one per trial index, as one batch.

    trial_index is a 1-d sequence of indices, or one int for a batch of
    one. receiver is one ReceiverSpec for every row or one per index, and
    snr_db one SNR for every row or one per index. Returns (bit_errors,
    mse), two arrays whose row i is the block of trial index i; a row's
    values are the same bits whatever batch it runs in. Every row has
    block_size x bits_per_symbol bits, each of which may be in error.

    The rows of each receiver run from their draws through equalize in
    passes of at most BATCH_SAMPLES / (antennas * block size) rows. The
    decision-directed DFE rows of all receivers share a sequential
    feedback pass (kernels.dd_feedback) per feedback length, whose cost
    grows far slower than its rows: each pass writes its rows into the
    arrays of that call as it ends, and a call runs once its rows would
    pass FLUSH_PASSES passes, so the rows held are bounded by that cap,
    not by the cells of a round.
    """
    trials = ([int(trial_index)] if isinstance(trial_index, numbers.Integral)
              else [int(t) for t in trial_index])
    n = len(trials)
    snrs = [snr_db] * n if np.ndim(snr_db) == 0 else list(snr_db)
    specs = [receiver] * n if isinstance(receiver, ReceiverSpec) else list(receiver)
    if len(snrs) != n:
        raise ValueError(f"need one snr_db per trial index: {len(snrs)} values "
                         f"for {n} indices")
    if len(specs) != n:
        raise ValueError(f"need one receiver per trial index: {len(specs)} "
                         f"receivers for {n} indices")
    c = constellation(config.constellation)
    groups = {}  # receiver -> its rows, in order
    for row, spec in enumerate(specs):
        groups.setdefault(spec, []).append(row)
    errors, mse = np.empty(n, np.intp), np.empty(n)
    states = stream_states(config.master_seed, trials)
    step = _pass_rows(config)
    # decision rows are counted per feedback length up front, so that each
    # length's rows are held in arrays of the size they need, at most
    # FLUSH_PASSES passes
    counts = {}
    for spec, rows in groups.items():
        if (spec.structure, spec.feedback_mode) == ("dfe", "decision_directed"):
            counts[spec.fbf_length] = counts.get(spec.fbf_length, 0) + len(rows)
    held = {length: _HeldRows(_workspace.held(
                group, config, min(count, FLUSH_PASSES * step), length), c, errors)
            for group, (length, count) in enumerate(counts.items())}
    for spec, rows in groups.items():
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step]
            tx_labels, mse[part], decided = _front_end(
                config, c, spec, [states[i] for i in part], [snrs[i] for i in part])
            if isinstance(decided, FeedbackPass):
                held[spec.fbf_length].add(part, tx_labels, decided)
            else:
                errors[part] = count_bit_errors(tx_labels, decided)
    for held_rows in held.values():
        held_rows.decide()
    return errors, mse


def _analytic_db(spec: ReceiverSpec, config: SweepConfig, snr_db: float):
    # None where the limit is not finite: zf-le at n_r = 1, or an input
    # SNR past the doubles. Outputs are measured with complex error, so no
    # limit takes the real-alphabet doubling (WL ones never do)
    r = 1.0 / _noise_variance(snr_db)
    if r == math.inf:
        return None
    try:
        value = limit_snr(spec.name, config.antennas, r, real_modulation=False)
    except NoFiniteLimit:
        return None
    return float(10.0 * np.log10(value))


@dataclass(slots=True)
class _Tally:
    """The committed blocks of one (receiver, SNR) cell."""

    spec: ReceiverSpec
    snr_db: float
    base: int
    block_bits: int  # bits of one block, each of which may be in error
    errors: int = 0
    mses: list = field(default_factory=list)

    @property
    def blocks(self) -> int:
        return len(self.mses)


def _next_batch(tally: _Tally, budget: int, max_blocks: int, min_errors) -> int:
    """Rows a cell asks for next, from its committed counts only.

    A batch holds at least the blocks the cell is certain to commit: all
    blocks left where there is no error target, else the next
    ceil((min_errors - errors) / block_bits) blocks, which stay below the
    target even if every bit of them errs. Past those, it holds the
    blocks the committed error rate says are still needed,
    ceil((min_errors - errors) * blocks / errors), or as many as are
    committed while no error has been seen, so that batches grow
    geometrically but never by more than the committed blocks. It never
    holds more than the budget or the blocks left before max_blocks.
    """
    blocks, errors = tally.blocks, tally.errors
    left = max_blocks - blocks
    if math.isinf(min_errors):
        return min(budget, left)
    if errors == 0:
        wanted = max(1, blocks)
    else:
        wanted = min(blocks, -((errors - min_errors) * blocks // errors))
    certain = -((errors - min_errors) // tally.block_bits)
    return min(budget, left, max(wanted, certain))


def _run_cells(config: SweepConfig, cells, max_blocks: int,
               min_errors=math.inf) -> list:
    """Run the (receiver spec, SNR) cells together; a _Tally each, in order.

    Each round, every active cell asks for its next batch (_next_batch,
    at most one front-end pass of rows, and at least the rows it is
    certain to commit, so that a cell that cannot stop early fills a pass
    from its first round), and the rows of all cells, each cell's as one
    run of ordinals, make one run_block call. A cell then commits its
    rows in ordinal order and stops at min_errors bit errors or
    max_blocks blocks, whichever comes first, discarding the rest of its
    rows. A cell's trial indices are
    _cell_base(spec.name, snr) | ordinal << 8.
    """
    assert max_blocks <= _MAX_ORDINALS, "ordinal would overwrite the cell hash"
    budget = _pass_rows(config)
    block_bits = (config.block_size
                  * constellation(config.constellation).bits_per_symbol)
    tallies = [_Tally(spec, snr, _cell_base(spec.name, snr), block_bits)
               for spec, snr in cells]
    active = tallies
    while active:
        sizes = [_next_batch(t, budget, max_blocks, min_errors) for t in active]
        trials, specs, snrs = [], [], []
        for t, size in zip(active, sizes):
            trials += [t.base | k << 8 for k in range(t.blocks, t.blocks + size)]
            specs += [t.spec] * size
            snrs += [t.snr_db] * size
        out = list(zip(*(column.tolist()
                         for column in run_block(trials, config, specs, snrs))))
        lo = 0
        for t, size in zip(active, sizes):
            for errors, mse in out[lo : lo + size]:
                if t.errors < min_errors:
                    t.errors += errors
                    t.mses.append(mse)
            lo += size
        active = [t for t in active
                  if t.errors < min_errors and t.blocks < max_blocks]
    return tallies


def _post_snr_db(mses, criterion: str) -> float:
    """sigma_x^2 / mean(mse) in dB, minus one for MMSE receivers (their
    bias term); nan when that is not positive."""
    post = 1.0 / (math.fsum(mses) / len(mses))
    post -= 1.0 if criterion == "mmse" else 0.0
    return float(10.0 * np.log10(post)) if post > 0 else float("nan")


def run_sweep(config: SweepConfig) -> SweepResult:
    """BER/post-SNR over the full (receiver, snr) grid of the config.

    All cells of the sweep run together (see _run_cells), so their INFO
    records are logged, receiver by receiver in SNR order, when the
    sweep's last cell has stopped.
    """
    cells = [(spec, snr) for spec in config.receiver_specs()
             for snr in config.snr_db]
    rows = []
    for t in _run_cells(config, cells, config.max_blocks, config.min_bit_errors):
        bits = t.blocks * t.block_bits
        cell = SweepCell(
            receiver=t.spec.name,
            snr_db=float(t.snr_db),
            bits=bits,
            errors=t.errors,
            ber=t.errors / bits,
            post_snr_db=_post_snr_db(t.mses, t.spec.criterion),
            analytic_db=_analytic_db(t.spec, config, t.snr_db),
            blocks=t.blocks,
            hit_max_blocks=t.errors < config.min_bit_errors,
        )
        log.info(
            "%s @ %g dB: ber=%.4g errors=%d blocks=%d%s",
            cell.receiver, t.snr_db, cell.ber, cell.errors, cell.blocks,
            " (max_blocks hit)" if cell.hit_max_blocks else "",
        )
        rows.append(cell)
    return SweepResult(config=config, rows=tuple(rows))


def measure_post_snr(config: SweepConfig, snr_db: float,
                     realizations: int) -> tuple:
    """Genie-path empirical post-SNR over a fixed number of realizations.

    The receivers' cells run together (see _run_cells). Aggregation is
    sigma_x^2 / mean(mse), minus one for MMSE receivers, compared
    against the closed-form limit where one exists.
    """
    realizations = integer("argument 'realizations'", realizations, 1,
                           _MAX_ORDINALS)
    snr_db = real("argument 'snr_db'", snr_db)
    _noise_variance(snr_db)
    cells = [(replace(spec, feedback_mode="ideal_genie"), snr_db)
             for spec in config.receiver_specs()]
    rows = []
    for t in _run_cells(config, cells, realizations):
        post_db = _post_snr_db(t.mses, t.spec.criterion)
        analytic = _analytic_db(t.spec, config, snr_db)
        rows.append(
            PostSnrRow(
                receiver=t.spec.name,
                snr_db=float(snr_db),
                realizations=t.blocks,
                post_snr_db=post_db,
                analytic_db=analytic,
                delta_db=None if analytic is None else post_db - analytic,
            )
        )
    return tuple(rows)


def mfb_reference_curve(config: SweepConfig,
                        per_realization: bool = False) -> tuple:
    """Matched filter bound BER curve on the config's SNR grid, in closed form.

    per_realization averages the alphabet's AWGN BER over the channel
    energy of the config's n_r antennas and v taps (the finite-v bound);
    otherwise the curve is the v -> inf limit, AWGN at n_r r, for every
    alphabet. Neither depends on the seed or the block budget; see
    analytics.mfb_ber.
    """
    ber = mfb_ber(config.constellation, config.antennas,
                  10.0 ** (np.asarray(config.snr_db) / 10.0),
                  config.taps if per_realization else None)
    return tuple((float(s), float(b)) for s, b in zip(config.snr_db, ber))


def _snr_at_target(curve, target_ber: float, label: str) -> float:
    pts = sorted((float(s), max(float(b), 1e-300)) for s, b in curve)
    if len(pts) < 2:
        raise InsufficientRangeError(f"{label}: need two curve points, got "
                                     f"{len(pts)}")
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        if b0 >= target_ber >= b1 and b0 > b1:
            frac = (math.log(b0) - math.log(target_ber)) / (
                math.log(b0) - math.log(b1)
            )
            return s0 + frac * (s1 - s0)
    span = (min(b for _, b in pts), max(b for _, b in pts))
    raise InsufficientRangeError(
        f"{label}: target ber {target_ber:g} not bracketed; achieved span "
        f"[{span[0]:g}, {span[1]:g}]"
    )


def gap_at_ber(points, reference, target_ber: float,
               receiver: str = "") -> GapAtBer:
    """SNR distance between two BER curves at a target, log-linear in BER.

    points (the receiver's sweep) and reference (the MFB) are (snr_db,
    ber) sequences; both must bracket the target, or InsufficientRangeError
    names the receiver and the curve and reports the achieved span.
    """
    target_ber = real("target_ber", target_ber)
    if not 0 < target_ber < 1:
        raise ValueError("target_ber must be in (0, 1)")
    prefix = f"{receiver} " if receiver else ""
    snr = _snr_at_target(points, target_ber, f"{prefix}sweep curve")
    ref = _snr_at_target(reference, target_ber, f"{prefix}MFB curve")
    return GapAtBer(
        receiver=receiver,
        target_ber=target_ber,
        snr_at_target_db=snr,
        mfb_snr_at_target_db=ref,
        gap_db=snr - ref,
    )


def _csv_cell(value) -> str:
    return value if isinstance(value, str) else "" if value is None else repr(value)


def rows_to_csv(row_type, rows, width=None) -> str:
    """CSV of rows of the dataclass row_type under its first width field
    names (all by default): a string as is, None as an empty cell, anything
    else as its repr."""
    columns = [f.name for f in fields(row_type)][:width]
    lines = [columns] + [[_csv_cell(getattr(r, c)) for c in columns] for r in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def result_to_csv(result: SweepResult) -> str:
    """Stable-ordered CSV with the pinned seven columns, receiver..analytic_db."""
    return rows_to_csv(SweepCell, result.rows, 7)


def _json_value(value):
    """value, or None for a non-finite float, which strict JSON has no
    literal for (a post_snr_db of an MMSE cell whose mean MSE is >= 1)."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def result_to_json(result: SweepResult) -> str:
    doc = {
        "config": result.config.to_dict(),
        "rows": [{k: _json_value(v) for k, v in asdict(r).items()}
                 for r in result.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
