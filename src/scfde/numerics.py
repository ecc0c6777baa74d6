"""Transforms, seeded RNG streams and complex Gaussian draws.

Conventions used throughout the package: the forward transform is
X(k) = sum_l x(l) exp(-j2πkl/M) and the inverse carries the 1/M, so a
white time-domain sequence of variance s has frequency-domain variance
M s. Transforms act on the last axis, so a leading axis holds a batch of
independent blocks. The transforms and gaussian_complex are pure
functions of arrays; randomness enters only as bits and standard
normals. Every trial draws them from the stream of its own
RngStream(master_seed, trial_index), but a batch of trials does so
without building a Generator each: stream_states seeds all their
streams with one array pass of numpy's SeedSequence hash, and
draw_streams draws each row from the one PCG64 of its thread. The
Levinson solver is kernels.levinson_recursion. integer and real are the
number rule that every public count and ratio passes.

The writers of a front-end pass take one optional out-style argument:
an array for a function of one result, or for a function of several
arrays a workspace, a mapping of buffer name to array (see simulator's
pass workspace). None allocates, and slot(work, name) reads a buffer
as numpy's out= does, so each line is the same with or without one.
"""

import contextlib
import functools
import numbers
import threading
from dataclasses import dataclass

import numpy as np


def integer(name, value, least=None, most=None) -> int:
    """value as an int, if it is an integer, an integral float (JSON 1e3)
    or a digit string (a command-line override) in [least, most], where
    those are given; else ValueError naming it `name`, for a bool too:
    never truncated and never a TypeError."""
    n = None
    if not isinstance(value, bool) and (
            isinstance(value, (str, numbers.Integral))
            or isinstance(value, float) and value.is_integer()):
        with contextlib.suppress(ValueError):  # a string that is no integer
            n = int(value)
    if n is None or least is not None and n < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    if most is not None and n > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return n


def real(name, value) -> float:
    """value as a float, if it is a number or a numeric string but not a
    bool; else ValueError naming it `name`."""
    if isinstance(value, (str, numbers.Real)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable RNG handle.

    Identical (master_seed, stream_index) pairs replay identical
    sequences; distinct stream_index values give independent streams via
    numpy's SeedSequence entropy pooling.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValueError("seed and stream index must be non-negative")

    def generator(self):
        """A fresh numpy Generator seeded from (master_seed, stream_index)."""
        return np.random.default_rng(
            np.random.SeedSequence((self.master_seed, self.stream_index))
        )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the
# constants of its hashmix, mix and generate_state steps, and its pool of
# four 32-bit words; then PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(n):
    """n as SeedSequence reads an int: its 32-bit words, least significant
    first, one zero word for 0."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=32)
def _hashmix_constants(init, mult, calls):
    """The (xor, multiply) constants of successive hashmix calls, as
    read-only uint32 columns, worked out once per count: each call
    multiplies the running constant by mult. They are worked out in
    masked Python ints, as numpy scalars warn on the wrap-around that
    arrays do silently."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, np.uint32)[:, None]
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of value, one row per (xor, mult) pair."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ result >> 16


def stream_states(master_seed, stream_indices):
    """The PCG64 (state, inc) that RngStream(master_seed, t).generator()
    starts from, for each index t, as a list of Python int pairs.

    numpy's SeedSequence hash runs once over all indices, as uint32 array
    operations with one column per index, so no Generator is built. An
    index whose entropy (the seed's 32-bit words, then its own) is longer
    than the pool takes numpy's extra mixing rounds, masked to its column.
    """
    stream_indices = [int(t) for t in stream_indices]
    if master_seed < 0 or any(t < 0 for t in stream_indices):
        raise ValueError("seed and stream index must be non-negative")
    seed = _words(master_seed)
    # entropy: the seed's words, then the index's, one index per column;
    # past its length a column holds zeros, as a missing word of the pool
    # hashes as zero and the extra rounds are masked
    sizes = [max(1, -(-t.bit_length() // 32)) for t in stream_indices]
    index_width = max(sizes, default=1)
    lengths = len(seed) + np.array(sizes, dtype=int)
    entropy = np.zeros((max(_POOL_WORDS, len(seed) + index_width),
                        len(stream_indices)), np.uint32)
    entropy[: len(seed)] = np.array(seed, np.uint32)[:, None]
    entropy[len(seed) : len(seed) + index_width] = np.frombuffer(
        b"".join(t.to_bytes(4 * index_width, "little") for t in stream_indices),
        "<u4").reshape(-1, index_width).T
    # the pool is a (4, n) array; each step of numpy's loops over pool words
    # runs on all the words it updates at once, as none of them is read by
    # that step: 4 hashmix calls fill the pool, 3 per source word mix it,
    # then 4 per extra entropy word: 4 per entropy word in all
    xor, mult = _hashmix_constants(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:_POOL_WORDS], xor[:_POOL_WORDS], mult[:_POOL_WORDS])
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3],
                                             mult[k : k + 3]))
        k += 3
    for src in range(_POOL_WORDS, len(entropy)):
        mixed = _mix(pool, _hashmix(entropy[src], xor[k : k + 4], mult[k : k + 4]))
        pool = np.where(lengths > src, mixed, pool)
        k += 4
    # generate_state(4, uint64): 8 words from the pool, read as 4
    # little-endian uint64 words per index
    state = _hashmix(np.concatenate([pool, pool]),
                     *_hashmix_constants(_INIT_B, _MULT_B, 8))
    state = np.ascontiguousarray(state.T, "<u4").view("<u8")
    states = []
    for v0, v1, v2, v3 in state.tolist():
        # PCG64 seeding: inc = seq << 1 | 1, then two LCG steps from 0, the
        # second after adding the initial state
        inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
        states.append((((inc + (v0 << 64 | v1)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def slot(work, name):
    """work[name], or None where there is no workspace, which an out=
    argument reads as "allocate"."""
    return None if work is None else work[name]


class _Streams(threading.local):
    """A thread's PCG64, its Generator and the state mapping that moves
    the PCG64 to a row's stream, made once and set anew for each row."""

    def __init__(self):
        self.bit_gen = np.random.PCG64(0)
        self.gen = np.random.Generator(self.bit_gen)
        self.mapping = {"bit_generator": "PCG64",
                        "state": {"state": 0, "inc": 0},
                        "has_uint32": 0, "uinteger": 0}


_streams = _Streams()


def draw_streams(states, n_bits, n_normals, work=None):
    """Row i: n_bits bits, then n_normals standard normals, drawn from the
    PCG64 (state, inc) states[i] exactly as Generator.integers(0, 2,
    n_bits) and then standard_normal(n_normals) draw them. Returns
    (bits as uint8, normals), each with one row per state, written into
    work's "raw" (the drawn 64-bit words), "bits" and "normals" where a
    workspace is given.

    The thread's one PCG64 and its Generator serve every row: setting
    the state (with no buffered 32-bit half) is all that moves them from
    one stream to the next.
    """
    bit_gen, gen, mapping = _streams.bit_gen, _streams.gen, _streams.mapping
    seed = mapping["state"]
    shape = (len(states), -(-n_bits // 2))
    raw = np.empty(shape, np.uint64) if work is None else work["raw"]
    normals = (np.empty((len(states), n_normals)) if work is None
               else work["normals"])
    for row, (state, inc) in enumerate(states):
        seed["state"], seed["inc"] = state, inc
        bit_gen.state = mapping
        raw[row] = bit_gen.random_raw(raw.shape[1])
        gen.standard_normal(out=normals[row])
    # integers(0, 2) reads 32-bit halves, low half first, and by Lemire's
    # method keeps the top bit of each; an odd count leaves the last high
    # half unread, as the normals start from a whole 64-bit word
    bits = np.right_shift(raw.astype("<u8", copy=False).view("<u4")[:, :n_bits],
                          31, out=slot(work, "bits"), casting="unsafe")
    return bits.astype(np.uint8, copy=False), normals


def _as_blocks(x, name):
    arr = np.asarray(x)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"{name} must hold non-empty blocks along its last axis")
    return arr.astype(np.complex128, copy=False)


def dft(x, out=None):
    """Forward M-point transform over the last axis,
    X(k) = sum_l x(l) e^{-j2pi kl/M}, into out where given."""
    return np.fft.fft(_as_blocks(x, "x"), out=out)


def idft(x, out=None):
    """Inverse transform over the last axis, with the 1/M normalization,
    into out where given."""
    return np.fft.ifft(_as_blocks(x, "X"), out=out)


def gaussian_complex(normals, n, variance, out=None):
    """n i.i.d. circularly symmetric complex Gaussians, total variance per sample.

    normals is an array (..., 2n) of standard normals, n real parts then n
    imaginary parts, one row per batch row. variance is a positive finite
    scalar or one per row. The samples are written into out where given.
    """
    variance = np.asarray(variance, dtype=float)
    if not ((variance > 0) & (variance < np.inf)).all():  # NaN fails too
        raise ValueError(f"variance must be positive and finite, got {variance}")
    if not isinstance(normals, np.ndarray) or normals.shape[-1:] != (2 * n,):
        got = (normals.shape if isinstance(normals, np.ndarray)
               else type(normals).__name__)
        raise ValueError(f"need {2 * n} standard normals per row in an array, "
                         f"got {got}")
    # scaled straight into the parts of one complex array: a batch's draws
    # are large, and temporaries of that size cost page faults
    scale = np.sqrt(variance / 2.0)[..., None]
    if out is None:
        out = np.empty((*normals.shape[:-1], n), complex)
    np.multiply(normals[..., :n], scale, out=out.real)
    np.multiply(normals[..., n:], scale, out=out.imag)
    return out
