"""SGD execution under three sampling schemes, stepwise and in closed form.

RNG contract: all randomness comes from numpy's PCG64 generator seeded with
the run seed.  Permutations use Fisher-Yates sweeping indices high to low,
with the n-1 bounded draws j_i ~ U{0..i} (i = n-1..1) taken in a single
vectorized `integers` call; the with-replacement scheme draws one uniform
index array of length n per epoch.  The identifier below names that
consumption scheme and is echoed in every trajectory so outputs can be traced
to the generator contract.

`run_sgd_closed_form` takes the draws of c epochs at once, as one
`integers` call over the c epochs' bounds laid end to end (or over n*c
uniform indices) would.  `Generator.integers` fills its output element by
element from the one PCG64 stream, so that call yields exactly the draws of
c per-epoch calls and leaves the generator in the same state; chunks and
Fisher-Yates passes change the number of calls, never the values drawn.

`final_losses` runs a batch of runs through the same chunks, one per
problem and seed; each run makes exactly the draws of its own seed's stream.
The problems share n, so a seed's run of each makes the same draws and the
same permutations: `_chunked_iterates` reads the stream and runs Fisher-Yates
once per pass for them all, then maps the indices through each problem's own
`[1 - eta*A | B]` table and recurrence (or single-shuffling closed form).
Across seeds, the Fisher-Yates pass, the tail products and the map
recurrence are shared.  Each loss is its run's `run_sgd_closed_form` final
loss bit for bit.

Two loops are sequential: Fisher-Yates steps through a row's positions, and
the map recurrence y <- contraction*y + noise through a run's epochs.  Each
picks Python scalars or one numpy call per step by its width, the rows of a
Fisher-Yates pass or the runs x d lanes of a recurrence: narrow (a lone run,
a single-shuffling permutation) runs in Python, wide (a reshuffling chunk,
a Monte Carlo block) in numpy.  The values are the same either way: swaps
move integers, and a Python float rounds the multiply and then the add as
numpy does, with no fused multiply-add in either.

The closed form makes numpy's draws without numpy's `Generator`.  PCG64
and numpy's bounded draw (Lemire, `_lemire`) are fixed integer maps: a draw
takes the stream's next 32-bit word, the low half of a PCG64 output first,
and keeps the high half for the next draw.  A lone run, or a block of fewer
than `_ARRAY_RUNS` runs, reads each run's outputs through its own
`np.random.PCG64(seed).random_raw` (`_Stream`), carrying an unused high half
from one call to the next as the generator's `has_uint32` does.  A block of
at least `_ARRAY_RUNS` runs makes no bit generator either: from each run's
`SeedSequence(seed).generate_state(4, np.uint64)` words, `_pcg64_outputs`
computes the PCG64 outputs of every run at once and `_block_draws` turns
them into draws as uint64 array expressions.  Numpy's `SeedSequence` is a
fixed integer hash of the seed's 32-bit words, so `_seed_states` evaluates
it for all rows in one pass, and `derive_seeds` takes the first uint64 word
for every spawn key of a sweep cell or Monte Carlo estimate through it.
numpy's own generator remains in `run_sgd` and `sample_permutation`, the
explicit-step reference, and in the one fallback, `_Stream.integers`: in
the rare call where numpy's bounded draw rejects a word (chance below
b / 2**32 per draw), the stream hands the call to numpy's generator from
the same state.  The tests and `verify` pin both routes to numpy's
`SeedSequence`, `random_raw` and `integers` word for word.

An epoch map's suffix products depend only on the factors 1 - eta*a_i in
position order.  When every component has the same factors, tested on the
factor values (the single-shuffling construction, where the order moves only
the linear terms), they are the same in every epoch and every order:
`_map_table` computes them and the contraction P once per call, and each
chunk takes only its noise sum Q.  A problem with any varying factor column
takes `tail_products` per chunk.  Both routes sum Q left to right over
positions, with b a strided view of the gathered rows (see `tail_products`),
so they give the same values bit for bit.

The closed form takes its large working arrays from one grow-only scratch
per process (`_scratch`): a stream's words and draws, the vectorized
Fisher-Yates pass's index and work arrays, the gathered `[1 - eta*A | B]`
rows and `tail_products`' suffix products.  It outlives every run, because
a run freeing them hands their pages back to the system and the next run
faults them in again.  No scratch view leaves the engine, and the shared
suffix products of a call are a fresh array.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import ClassVar, List, Tuple

import numpy as np

from . import model
from .model import Problem, is_integer, objective

RNG_ALGORITHM_ID = "numpy-pcg64/fisher-yates-high-to-low/v1"
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep  # as the package's code objects name it


class Scheme(enum.Enum):
    """A sampling scheme; `Scheme(value)`, as every engine entry point calls it,
    takes a member or its tag and raises ValueError listing the tags otherwise."""

    WITH_REPLACEMENT = "wr"
    SINGLE_SHUFFLE = "ss"
    RANDOM_RESHUFFLE = "rr"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown scheme {value!r}; choose from {', '.join(s.value for s in cls)}")

    @classmethod
    def from_tag(cls, tag: str) -> "Scheme":
        return cls(tag)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed for a bit-reproducible run."""

    scheme: Scheme
    eta: float
    epochs: int
    x0: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "x0", np.array(self.x0, dtype=np.float64))
        self.x0.flags.writeable = False
        _check_run(self.eta, self.epochs, (self.seed,))


def check_eta(eta: float) -> None:
    """Reject a step size that is not a number, NaN, infinite, past the float
    range or negative: the one rule for every fixed step size a run or a
    sweep plan accepts."""
    model._check_finite("eta", eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")


def _check_run(eta: float, epochs: int, seeds) -> None:
    check_eta(eta)
    if not is_integer(epochs):
        raise ValueError(f"epochs must be an integer, got {epochs!r}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    for seed in seeds:
        if not is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class Trajectory:
    """End-of-epoch iterates x_1..x_k and their objective values."""

    points: np.ndarray  # (k, d)
    losses: np.ndarray  # (k,)
    config: RunConfig
    rng_algorithm_id: ClassVar[str] = RNG_ALGORITHM_ID

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


def recommended_eta(n: int, k: int, lam: float) -> float:
    """The step-size rule log(nk) / (lam * n * k) (natural log)."""
    if not (is_integer(n) and is_integer(k)):
        raise ValueError(f"n and k must be integers, got {n!r} and {k!r}")
    if model._check_finite("lam", lam) <= 0:
        raise ValueError("lam must be positive")
    nk = n * k
    if nk <= 1:
        raise ValueError(f"n*k must exceed 1 for a positive step size, got {nk}")
    return math.log(nk) / (lam * nk)


def check_seed_base(entropy: int) -> None:
    """Reject a master seed that is not a nonnegative integer: the one rule
    for every seed base that `derive_seeds` accepts."""
    if not is_integer(entropy):
        raise ValueError(f"seed must be an integer, got {entropy!r}")
    if entropy < 0:
        raise ValueError(f"seed must be nonnegative, got {entropy}")


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words filled and cross-mixed by `hashmix`, whose multiplier advances
# from INIT_A by MULT_A at every call, then read out by the same hash with
# INIT_B and MULT_B.  uint32 array arithmetic wraps mod 2**32 as its C does.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> Tuple[np.ndarray, np.ndarray]:
    """The operands of `calls` successive `hashmix` calls as two (calls, 1)
    read-only uint32 arrays: a call xors with the current constant, advances
    it by `mult` and multiplies by the new one."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> _XSHIFT


def _seed_sequence_state(words: np.ndarray, lengths: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence.generate_state(n_words, np.uint64)` for every row, shape
    (n_words, rows), from `words`, the rows' assembled entropy as a
    (words, rows) uint32 array zero-padded past each row's `lengths`.

    numpy's loops run in order, but the calls inside one step are
    independent, so each step is one array expression: filling the pool
    (numpy hashes 0 past the entropy, as the padding does), mixing one
    source word into the three other pool words, mixing one further entropy
    word into all four where the row has it, and reading the state out.
    """
    length, rows = words.shape
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(length, _POOL_SIZE))
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:length] = words[:_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        calls = slice(call, call + len(dst))
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[calls], mult[calls]))
        call += len(dst)
    for i in range(_POOL_SIZE, length):
        calls = slice(call, call + _POOL_SIZE)
        mixed = _mix(pool, _hashmix(words[i], xor[calls], mult[calls]))
        pool = np.where(i < lengths, mixed, pool)
        call += _POOL_SIZE
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    out = _hashmix(pool[np.arange(2 * n_words) % _POOL_SIZE], xor, mult).astype(np.uint64)
    return out[0::2] | out[1::2] << 32  # uint32 pairs read as little-endian uint64


def _int_words(value: int) -> list:
    """A nonnegative integer's 32-bit words, low first (0 is one word), as
    numpy's `_int_to_uint32_array` splits it."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_states(values: np.ndarray, head: list, n_words: int) -> np.ndarray:
    """`SeedSequence(...).generate_state(n_words, np.uint64)` for every row of
    the nonnegative integer array `values`, shape (rows, n_words).

    Row r's entropy words are `head` (the same for every row) followed by the
    words of values[r, 0], values[r, 1], ..., each split like `_int_words`.
    All rows share one hash pass over a zero-padded table of their words.
    """
    pieces, rest = [], values
    counts = np.ones(values.shape, dtype=np.int64)
    while True:
        pieces.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
        more = rest > 0
        if not more.any():
            break
        counts += more
    # Masking the (rows, values, pieces) stack reads every row's own words in
    # order, row-major; masking the table by length writes them the same way.
    lengths = counts.sum(axis=1)
    own = np.arange(lengths.max(initial=0)) < lengths[:, None]
    table = np.zeros(own.shape, dtype=np.uint32)
    table[own] = np.stack(pieces, axis=-1)[np.arange(len(pieces)) < counts[..., None]]
    head = np.broadcast_to(np.array(head, dtype=np.uint32)[:, None], (len(head), len(values)))
    return _seed_sequence_state(np.concatenate((head, table.T)), len(head) + lengths, n_words).T


def derive_seeds(entropy: int, spawn_keys) -> List[int]:
    """The one seed-derivation rule: entry r is the first uint64 word of
    SeedSequence(entropy, spawn_keys[r]), for every key in one vectorized
    pass.  Sweeps and Monte Carlo estimates derive their run seeds through
    it, so each seed stays a pure function of the master seed and the run's
    key.  Keys are equal-length sequences of nonnegative integers, or an
    integer array of shape (keys, key length)."""
    check_seed_base(entropy)
    try:
        keys = np.asarray(spawn_keys)
    except ValueError:  # ragged keys; kept as rows of objects and rejected below
        keys = np.asarray(spawn_keys, dtype=object)
    if keys.dtype.kind == "f":  # ints past int64 beside small ones promote to float
        keys = np.asarray(spawn_keys, dtype=object)
    if keys.size == 0:  # no keys, or keys without elements
        keys = np.zeros((len(keys), 0), dtype=np.int64)
    if keys.ndim != 2 or keys.dtype.kind not in "iuO" or (
            keys.dtype.kind == "O" and not all(map(is_integer, keys.flat))):
        raise ValueError("spawn keys must be equal-length sequences of integers")
    if (keys < 0).any():
        raise ValueError("spawn key elements must be nonnegative")
    head = _int_words(int(entropy))
    if keys.shape[1]:
        # numpy zero-pads a short run entropy to the pool size under a spawn key
        head += [0] * (_POOL_SIZE - len(head))
    return _seed_states(keys, head, 1)[:, 0].tolist()


def derive_seed(entropy: int, spawn_key: tuple) -> int:
    """`derive_seeds` for one key."""
    return derive_seeds(entropy, [spawn_key])[0]


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with the multiplier
# below, each output stepping the state and returning the XSL-RR rotation of
# its two halves.  128-bit values are (hi, lo) pairs of uint64 arrays, whose
# products wrap mod 2**64 as its C does.  Scalar uint64 products would warn
# on overflow, so every product has an array operand.
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a*b of uint64 arrays, from
    their 32-bit halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    carry = (a0 * b0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32)


def _mul128(a_hi, a_lo, b_hi, b_lo) -> Tuple[np.ndarray, np.ndarray]:
    """(a*b) mod 2**128 of (hi, lo) uint64 array pairs."""
    return _mul_hi(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


@functools.cache
def _pcg_jumps(count: int) -> Tuple[np.ndarray, ...]:
    """PCG64's m-step jumps for m = 2..count+1 as read-only uint64 arrays
    (A hi, A lo, C hi, C lo): m steps take state s to A*s + C*inc mod 2**128,
    with A = MULT**m and C = 1 + MULT + ... + MULT**(m-1)."""
    a, c, jumps = _PCG_MULT, 1, []  # m = 1
    for _ in range(count):
        a, c = a * _PCG_MULT & _MASK128, c + a & _MASK128
        jumps.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    columns = tuple(np.array(col, dtype=np.uint64) for col in zip(*jumps))
    for col in columns:
        col.flags.writeable = False
    return columns


def _pcg64_outputs(states: np.ndarray, count: int) -> np.ndarray:
    """The first `count` outputs of numpy's PCG64 seeded with each row of
    `states`, shape (rows, count).  With states = `_seed_states(seeds[:, None],
    [], 4)`, row r is `np.random.default_rng(seeds[r]).bit_generator
    .random_raw(count)`.

    Seeding follows numpy's `pcg64_set_seed`: from the words (w0, w1, w2, w3),
    initstate = w0*2**64 + w1 and inc = 2*(w2*2**64 + w3) + 1; the state starts
    at 0, steps, adds initstate and steps again.  So output j is the state
    x = initstate + inc advanced by j + 2 steps, which `_pcg_jumps` gives for
    every (row, j) at once.
    """
    w0, w1, w2, w3 = (col[:, None] for col in states.T)
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    x_lo = w1 + inc_lo
    x_hi = w0 + inc_hi + (x_lo < w1)
    # a power-of-two table length keeps the cache small
    a_hi, a_lo, c_hi, c_lo = (col[:count] for col in _pcg_jumps(1 << (count - 1).bit_length()))
    hi, lo = _mul128(x_hi, x_lo, a_hi, a_lo)
    step_hi, step_lo = _mul128(inc_hi, inc_lo, c_hi, c_lo)
    lo += step_lo
    hi += step_hi + (lo < step_lo)
    value, rot = hi ^ lo, hi >> 58
    return value >> rot | value << (64 - rot & 63)


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of the uint64 `words` along their last axis, low
    half first, as numpy's PCG64 hands them out: a view on a little-endian
    machine, a byte-swapped copy elsewhere."""
    return words.astype("<u8", copy=False).view("<u4")


def _lemire(words: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """numpy's bounded draw for bounds below 2**32 (Lemire, arXiv 1805.10941),
    in place: each 32-bit word w of the uint64 array `words` becomes
    w*b >> 32 for its bound b (`bounds`, integers, broadcasts against
    `words`).  numpy rejects w where (w*b mod 2**32) < 2**32 mod b and draws
    from the next word instead, which shifts every later draw of the stream;
    returns, for each row of `words` (all axes but the last), whether it
    holds such a word."""
    bounds = bounds.astype(np.uint64)
    thresholds = 2**32 % bounds
    np.multiply(words, bounds, out=words)
    low = _halves(words)[..., 0::2]
    # Thresholds are below their bounds, so the minimum rules most calls out.
    rejected = ((low < thresholds).any(axis=-1) if low.min() < thresholds.max()
                else np.zeros(words.shape[:-1], dtype=bool))
    np.right_shift(words, 32, out=words)
    return rejected


def _block_draws(seeds: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """`np.random.default_rng(seed).integers(0, bounds)` for each uint64 seed
    of a block, shape (runs,) + bounds.shape, with no generator per run.

    numpy's bounded draw takes the run's next 32-bit word, the low half of a
    PCG64 output first (`_lemire`).  All draws are first computed as if no
    word is rejected, and a run where one is (chance below b / 2**32 per
    draw) is drawn again through its own `_Stream`.  A block's streams
    are never drawn from again, so an odd word count's unused high half is
    dropped.  numpy takes no word for a bound of 1; the engine's bounds are
    at least 2 (a `Problem` has n > 1), and bounds that are all 1 give zeros
    either way.
    """
    size = bounds.size
    raw = _pcg64_outputs(_seed_states(seeds[:, None], [], 4), (size + 1) // 2)
    words = _halves(raw)[:, :size].astype(np.uint64)
    rejected = _lemire(words, bounds.reshape(-1))
    draws = words.view(np.int64).reshape((len(seeds),) + bounds.shape)
    for r in np.flatnonzero(rejected).tolist():
        draws[r] = _Stream(int(seeds[r])).integers(bounds.reshape(-1), 1).reshape(bounds.shape)
    return draws


# Width at which the engine's two sequential loops, Fisher-Yates over its
# rows and the map recurrence over its lanes, switch from Python scalars to
# one numpy call per step.  A numpy step costs microseconds whatever its
# width, a Python one tens of nanoseconds per element.  Timed crossovers
# (numpy 2.4, one core): Fisher-Yates at 6-9 rows for n = 10..500, the
# recurrence at ~4 lanes over 5 epochs and 10-12 lanes over 32-163 epochs.
_SCALAR_WIDTH = 8


# name -> buffer, for the life of the process, not of one run: most runs are
# a single chunk, so a workspace per run would churn as a fresh allocation does.
_SCRATCH = {}


def _scratch(name: str, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array of `shape` and `dtype`: a view of
    the engine's per-process buffer `name`.

    The buffer only grows: it is replaced when a request outgrows it (or asks
    for another dtype), and a smaller request takes a prefix of it.
    Invariant: a view is valid only until the next request for its name, so
    no scratch view leaves the engine (trajectories, `final_losses`,
    `sample_permutation` and `tail_products`' (P, Q) are all new arrays) and
    `_chunked_iterates` holds none across a yield.
    """
    size = math.prod(shape)
    buf = _SCRATCH.get(name)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = _SCRATCH[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _fisher_yates_bounds(n: int, epochs: int) -> np.ndarray:
    """Exclusive bounds of `epochs` epochs of Fisher-Yates draws, one row per
    epoch: j_i ~ U{0..i} for i = n-1..1 (no columns at n=1)."""
    return np.tile(np.arange(n, 1, -1), (epochs, 1))


class _Stream:
    """One run's numpy PCG64 stream, read as `Generator.integers` reads it.

    numpy's bounded draw takes one 32-bit word per draw, the low half of a
    PCG64 output first, and keeps the high half for the next draw (the bit
    generator's `has_uint32`).  A stream reads whole outputs through
    `random_raw` and turns them into draws with `_lemire`, carrying an
    unused high half from one call to the next itself, so call after call
    its draws are the generator's.
    """

    def __init__(self, seed: int):
        self.bit_generator = np.random.PCG64(seed)
        self.half = None  # the high half of the last output read, not yet drawn

    def integers(self, bounds: np.ndarray, rows: int) -> np.ndarray:
        """`Generator.integers(0, bounds)` for `rows` rows of the integer
        row `bounds`, shape (rows, len(bounds)), as an int64 view of the
        engine's scratch (see `_scratch`).

        In the rare call where numpy rejects a word (chance below
        b / 2**32 per draw), the stream steps back over the outputs it read
        and numpy's own generator makes the call from the same state.
        """
        size, half = rows * len(bounds), self.half
        carried = int(half is not None)
        count = (size - carried + 1) // 2
        raw = self.bit_generator.random_raw(count)
        flat = _scratch("stream_words", (carried + 2 * count,), np.uint64)
        if carried:
            flat[0] = half
        flat[carried:] = _halves(raw)
        self.half = int(flat[size]) if len(flat) > size else None
        words = flat[:size].reshape(rows, len(bounds))
        draws = words.view(np.int64)
        if _lemire(words, bounds).any():
            self.bit_generator.advance(-count)
            state = self.bit_generator.state
            state["has_uint32"], state["uinteger"] = carried, half or 0
            self.bit_generator.state = state
            draws[:] = np.random.Generator(self.bit_generator).integers(
                0, np.tile(bounds, (rows, 1)))
            state = self.bit_generator.state
            self.half = state["uinteger"] if state["has_uint32"] else None
        return draws


def _fisher_yates(draws: np.ndarray) -> np.ndarray:
    """The permutations of range(n), shape (rows, n), that high-to-low
    Fisher-Yates makes from `draws` of shape (rows, n-1): step i swaps
    positions i and j_i, for i = n-1..1.

    Rows may come from different runs' streams.  Fewer than `_SCALAR_WIDTH`
    rows are swapped row by row on Python lists into a new array.  More
    share one vectorized pass whose result is a view of the engine's scratch
    (see `_scratch`), valid only until the next call.
    """
    rows, n = draws.shape[0], draws.shape[1] + 1
    if rows < _SCALAR_WIDTH:
        perms = []
        for row in draws.tolist():
            perm = list(range(n))
            for i, j in zip(range(n - 1, 0, -1), row):
                perm[i], perm[j] = perm[j], perm[i]
            perms.append(perm)
        return np.array(perms, dtype=np.intp).reshape(rows, n)
    # Entry r*n + i of `work` is position i of row r.  Step i swaps positions
    # i and j_i of every row as one gather and one scatter; where j_i == i
    # both halves write the same value.
    base = np.arange(0, rows * n, n)
    dst = _scratch("fisher_yates_dst", (n - 1, 2 * rows), np.intp)
    src = _scratch("fisher_yates_src", (n - 1, 2 * rows), np.intp)
    np.add(np.arange(n - 1, 0, -1)[:, None], base, out=dst[:, :rows])  # positions i
    np.add(draws.T, base, out=dst[:, rows:])  # positions j_i
    src[:, :rows], src[:, rows:] = dst[:, rows:], dst[:, :rows]
    work = _scratch("fisher_yates_work", (rows * n,), np.intp)
    work.reshape(rows, n)[:] = np.arange(n)
    for d, s in zip(dst, src):
        work[d] = work[s]
    return work.reshape(rows, n)


def sample_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform permutation of range(n) by high-to-low Fisher-Yates: the
    one-row case of the chunked sampler, consuming n-1 draws (none at n=1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _fisher_yates(rng.integers(0, _fisher_yates_bounds(n, 1)))[0]


def warn_caller(message: str) -> None:
    """A RuntimeWarning at the first frame outside the package, as Python
    3.12's `skip_file_prefixes` would place it, or at the package's entry
    frame when that first frame is frozen start-up code (`python -m`)."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    if frame is not None and frame.f_code.co_filename.startswith("<frozen "):
        level -= 1  # `python -m shufflelab`: name the package's entry frame, not runpy's
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _warn_if_large_eta(p: Problem, eta: float):
    """The one report of a divergent step size: its callers compute under
    `np.errstate(over="ignore", invalid="ignore")`, so the inf and nan
    iterates that follow raise no numpy warning of their own."""
    if eta * p.smooth_l > 1.0 + 1e-12:
        warn_caller(f"eta*L = {eta * p.smooth_l:.4g} > 1: contraction factors leave [0, 1]")


def run_sgd(p: Problem, cfg: RunConfig) -> Trajectory:
    """Execute n*k explicit gradient steps, recording end-of-epoch iterates.

    Index selection per epoch: with-replacement draws n independent uniform
    indices, single shuffling reuses one start-of-run permutation, random
    reshuffling draws a fresh permutation.
    """
    model._to_diag_frame(p, cfg.x0)  # shape check only: steps run in the outer frame
    _warn_if_large_eta(p, cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    fixed_perm = sample_permutation(p.n, rng) if cfg.scheme is Scheme.SINGLE_SHUFFLE else None
    x = cfg.x0.copy()
    points = np.empty((cfg.epochs, p.dim))
    losses = np.empty(cfg.epochs)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.epochs):
            if cfg.scheme is Scheme.WITH_REPLACEMENT:
                seq = rng.integers(0, p.n, size=p.n)
            else:
                seq = sample_permutation(p.n, rng) if fixed_perm is None else fixed_perm
            for i in seq:
                x = x - cfg.eta * model.component_gradient(p, int(i), x)
            points[t] = x
            losses[t] = objective(p, x)
    return Trajectory(points=points, losses=losses, config=cfg)


def _suffix_products(factors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., i] = prod_{l>i} factors[..., l], one `cumprod` from the last
    position down; `out` is C-ordered, shaped like `factors`."""
    out[..., -1] = 1.0
    np.cumprod(factors[..., :0:-1], axis=-1, out=out[..., -2::-1])
    return out


def _noise_sum(b: np.ndarray, suffix: np.ndarray) -> np.ndarray:
    """sum_i b[..., i] * suffix[..., i] as a new array, `suffix` broadcasting
    against `b`: the one summation of the epoch maps' noise."""
    return np.einsum("...i,...i->...", b, suffix)


def tail_products(factors: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The epoch's tail product, reduced over the last axis.

    P = prod_i factors[..., i] and Q = sum_j b[..., j] * prod_{i>j} factors[..., i];
    every leading axis is a batch axis.  This is the one suffix-product kernel
    behind the epoch maps and the permutation oracles: a suffix scan
    (`_suffix_products`) and a noise sum (`_noise_sum`), which the closed
    form also runs apart when every component shares its factors.

    Summation contract: P is the product taken from the last position down,
    and Q adds its terms left to right over positions, as Python floats
    would (`acc = acc + b_j * s_j`), for b as the engine passes it, a view
    strided along positions.  A contiguous b lets `einsum` take its SIMD
    loop, which rounds differently, so transposed inputs should be passed as
    views.  The suffix products are C-ordered scratch (see `_scratch`); P and
    Q are new arrays.
    """
    suffix = _suffix_products(factors, _scratch("tail_products_suffix", factors.shape,
                                                 factors.dtype))
    return suffix[..., 0] * factors[..., 0], _noise_sum(b, suffix)


def sequence_map(p: Problem, seq, eta: float) -> Tuple[np.ndarray, np.ndarray]:
    """(contraction, noise): one epoch over an index sequence as an affine map
    of the diagonal-frame iterate, the per-epoch reference for the chunked path.

    contraction_j = prod_i (1 - eta a_{seq(i), j}) and
    noise_j = sum_i b_{seq(i), j} * prod_{l > i} (1 - eta a_{seq(l), j}),
    so applying x -> contraction*x + eta*noise equals the explicit steps.
    """
    seq = np.asarray(seq, dtype=np.int64)
    factors = 1.0 - eta * p.curvature_matrix[seq]  # (n, d)
    return tail_products(factors.T, p.linear_matrix[seq].T)


def _geometric_factor(s: np.ndarray, t) -> np.ndarray:
    """(1 - s^t) / (1 - s) with the exact s == 1 limit replaced by t.

    t is an epoch count or an integer array of them that broadcasts
    against s."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(s.shape, np.shape(t)))
    out[...] = t
    # The exponent is `out`, t as a full array: under a broadcast scalar
    # exponent numpy's power takes shortcuts (x*x for 2) that can round
    # differently from its pow loop.
    np.divide(1.0 - s**out, 1.0 - s, out=out, where=s != 1.0)
    return out


def _apply_maps(contraction: np.ndarray, noise: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """ys[t] = contraction[t] * ys[t-1] + noise[t] for t = 0..c-1, starting
    from ys[-1] = y0; a C-contiguous array shaped like `contraction`.  y0 is
    shaped like contraction[0] or like its last axis alone (one start for
    every run of a block).

    Each of the contraction[0].size lanes is an independent recurrence.
    Fewer than `_SCALAR_WIDTH` lanes run one after another in Python floats,
    epochs innermost; more take one numpy step per epoch.  Both round the
    multiply, then the add, with no fused multiply-add, so the values are
    the same bit for bit, inf and nan included; the engine's entries compute
    under `np.errstate`, so numpy's side warns no more than Python floats.
    """
    lanes = contraction[0].size
    if lanes < _SCALAR_WIDTH:
        c = len(contraction)
        starts = y0.ravel().tolist() * (lanes // y0.size)  # (d,) repeats run by run
        out = []
        for col_a, col_b, y in zip(contraction.reshape(c, lanes).T.tolist(),
                                   noise.reshape(c, lanes).T.tolist(), starts):
            out.append([y := a * y + b for a, b in zip(col_a, col_b)])
        return np.array(out).T.copy().reshape(contraction.shape)
    ys = np.empty(contraction.shape)  # C order, also for a broadcast contraction
    y = y0
    for t in range(len(contraction)):
        y = ys[t] = contraction[t] * y + noise[t]
    return ys


# Index entries (runs * epochs * n) drawn and mapped per chunk; bounds the
# chunk's (epochs, runs, n, d) factor arrays to 2**14 * d floats.
_CHUNK_ENTRIES = 2**14

# Runs in a block from which its draws are computed as array expressions
# (`_block_draws`) instead of one stream per run (`_Stream`).  The array
# route costs ~50 ns per draw plus ~0.2 ms per block, a stream ~20 us per
# run plus ~3 ns per draw.  Timed per run at the most Fisher-Yates draws a
# block of that many runs holds (numpy 2.4, one core), array against
# streams: 8 runs x 1920 draws 49 against 36 us, 16 x 960 36 against 27 us,
# 32 x 480 17 against 24 us, 64 x 240 10 against 27 us, 327 x 45 2 against
# 23 us.
_ARRAY_RUNS = 32

# Epochs a lone run draws per stream call, and a reshuffling run permutes per
# Fisher-Yates pass, when its chunks hold fewer (n > 128), in whole chunks and
# at most `_PASS_CHUNKS` of them, which bounds the pass's index arrays by the
# chunk size.  A pass pays numpy's per-step cost once for all its rows.  Timed
# ns per entry at n = 500 (numpy 2.4, one core): 20-21 at 32 rows (one chunk)
# and 13-16 at 128; a prototype's 256 rows gained little more.  At n = 100 a
# chunk's 163 rows take 11-13.
_PASS_EPOCHS = 128
_PASS_CHUNKS = 4


def _map_table(p: Problem, eta: float):
    """(table, shared): the epoch maps' inputs at step size eta.

    Row i of the (n, 2d) table is [1 - eta a_i | b_i], so one gather fetches
    an epoch's factors and coefficients.  When every component has the same
    factors, tested on the factor values (the single-shuffling construction),
    the suffix products and the contraction P are the same for every epoch
    and every order: `shared` holds them, (d, n) and (d,), computed once as
    fresh arrays, since they outlive the chunks' scratch.  Otherwise it is None.
    """
    table = np.concatenate((1.0 - eta * p.curvature_matrix, p.linear_matrix), axis=1)
    factors = table[:, :p.dim].T
    if not (factors == factors[:, :1]).all():
        return table, None
    suffix = _suffix_products(factors, np.empty(factors.shape))
    return table, (suffix, suffix[:, 0] * factors[:, 0])


def _epoch_maps(table: np.ndarray, shared, seqs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(contraction, noise) of the epochs whose index rows are `seqs`, each
    shaped seqs.shape[:-1] + (d,), from one gather of the `_map_table` rows.

    Without `shared` the gathered halves go to `tail_products` as views.
    With it, an epoch takes only the noise sum against the shared suffix
    products, and the contraction is the shared P broadcast (read-only).
    Both sum over the gather's strided linear half, so they agree bit for bit.
    """
    d = table.shape[1] // 2
    # `gathered` is scratch; `np.take` writes `out` directly only under
    # mode="clip", and every index is in range.
    gathered = _scratch("gathered", seqs.shape + (2 * d,))
    np.take(table, seqs, axis=0, out=gathered, mode="clip")
    b = np.swapaxes(gathered[..., d:], -1, -2)
    if shared is None:
        return tail_products(np.swapaxes(gathered[..., :d], -1, -2), b)
    suffix, contraction = shared
    noise = _noise_sum(b, suffix)
    return np.broadcast_to(contraction, noise.shape), noise


def _chunked_iterates(problems, scheme: Scheme, eta: float, k: int, y0s, seeds):
    """Yield (first, ys) chunk by chunk: ys[i], of shape (epochs, runs, d_i),
    holds problem i's diagonal-frame end-of-epoch iterates from y0s[i] for
    the runs seeded by seeds[first:first + runs], over the chunk's epochs.
    A block of one run has no runs axis: ys[i] is (epochs, d_i).

    The problems share n, and the runs of every problem make the same draws
    and the same permutations: each chunk's indices are drawn and permuted
    once, then mapped through each problem's own table.  A chunk holds whole
    runs when k*n fits in `_CHUNK_ENTRIES`, else about `_CHUNK_ENTRIES // n`
    epochs of one run; a run's chunks come in epoch order.  Each run makes
    its own stream's draws, a block of at least `_ARRAY_RUNS` runs as array
    expressions (see the module docstring).  A pass draws one or more
    chunks' epochs (see `_PASS_EPOCHS`), permuted in one Fisher-Yates pass
    under shuffling; each chunk then takes, per problem, one gather from its
    `[1 - eta*A | B]` table and one `tail_products` call, or only its noise
    sum when every component shares its factors (`_epoch_maps`).  Single
    shuffling draws one permutation per run and takes
    x_t = S^t x0 + eta * (1-S^t)/(1-S) * X for all k epochs at once, so its
    chunks always hold whole runs; zero-curvature directions (S == 1) take
    the t-limit.  The other schemes scale the chunk's noise by eta once,
    then apply their maps in order over the (runs, d) block.
    """
    n = problems[0].n
    single = scheme is Scheme.SINGLE_SHUFFLE
    uniform = scheme is Scheme.WITH_REPLACEMENT
    epochs = k if single else min(k, max(1, _CHUNK_ENTRIES // n))
    runs = max(1, _CHUNK_ENTRIES // (epochs * n))
    # Only a run alone in its block spans several chunks, so only it widens.
    per_pass = epochs * max(1, min(_PASS_EPOCHS // epochs, _PASS_CHUNKS))
    maps = [_map_table(p, eta) for p in problems]
    bounds = np.full(n, n) if uniform else _fisher_yates_bounds(n, 1)[0]  # one epoch's
    seeds = np.asarray(seeds, dtype=np.uint64)
    for first in range(0, len(seeds), runs):
        block = seeds[first:first + runs]
        streams = ([_Stream(seed) for seed in block.tolist()]
                   if len(block) < _ARRAY_RUNS else None)
        starts = list(y0s)  # each problem's iterates before the chunk
        for t0 in range(0, k, per_pass):
            drawn = 1 if single else min(per_pass, k - t0)
            if streams is None:
                draws = _block_draws(block, np.broadcast_to(bounds, (drawn, len(bounds))))
                draws = draws.swapaxes(0, 1)
            elif len(streams) == 1:
                draws = streams[0].integers(bounds, drawn)
            else:
                draws = np.empty((drawn, len(streams), len(bounds)), dtype=np.int64)
                for r, stream in enumerate(streams):
                    draws[:, r] = stream.integers(bounds, drawn)
            # `seqs` may be scratch (the Fisher-Yates pass's work array): no
            # `_epoch_maps` call requests that name, so it stays valid while
            # every problem of every chunk of the pass is gathered from it.
            seqs = draws if uniform else _fisher_yates(
                draws.reshape(-1, len(bounds))).reshape(draws.shape[:-1] + (n,))
            chunks = []
            for c0 in range(0, len(seqs), epochs):
                rows, chunk = seqs[c0:c0 + epochs], []
                for i, (table, shared) in enumerate(maps):
                    contraction, noise = _epoch_maps(table, shared, rows)
                    if single:
                        t = np.arange(1, k + 1).reshape((k,) + (1,) * (contraction.ndim - 1))
                        ys = (contraction**t * starts[i]
                              + eta * _geometric_factor(contraction, t) * noise)
                    else:
                        noise *= eta
                        ys = _apply_maps(contraction, noise, starts[i])
                        starts[i] = ys[-1]
                    chunk.append(ys)
                chunks.append(chunk)
            del draws, seqs  # scratch views are not held across a yield
            for chunk in chunks:
                yield first, chunk


def run_sgd_closed_form(p: Problem, cfg: RunConfig) -> Trajectory:
    """Trajectory via per-epoch affine maps instead of explicit steps.

    Makes the draws `run_sgd`'s generator makes, so the two agree per seed
    (to rounding).  This is the one-run, one-problem case of
    `_chunked_iterates`: the draws of a Fisher-Yates pass, about
    `_CHUNK_ENTRIES // n` epochs or up to `_PASS_EPOCHS`, come from one read
    of the run's stream (the same draws as one generator call per epoch, see
    the module docstring), one pass permutes them and one `_epoch_maps` call
    maps each chunk of them; single shuffling uses the geometric closed
    form.  Losses are evaluated on the diagonal-frame iterates.
    """
    y0 = model._to_diag_frame(p, cfg.x0)
    _warn_if_large_eta(p, cfg.eta)
    with np.errstate(over="ignore", invalid="ignore"):
        chunks = [ys for _, (ys,) in _chunked_iterates([p], cfg.scheme, cfg.eta, cfg.epochs,
                                                       [y0], [cfg.seed])]
        ys = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        points = ys if p.conjugation is None else ys @ p.conjugation.T
        losses = model.diagonal_objective(p, ys)
    return Trajectory(points=points, losses=losses, config=cfg)


def final_losses(problems, scheme: Scheme, eta: float, k: int, x0s, seeds) -> np.ndarray:
    """F(x_k) of one run per problem and seed, batched: shape
    (len(problems), len(seeds)).

    Entry (i, r) equals `run_sgd_closed_form(problems[i], RunConfig(scheme,
    eta, k, x0s[i], seeds[r])).final_loss` bit for bit: each seed's runs make
    its own stream's draws, drawn and permuted once for every problem, and the
    runs of a chunk share the arithmetic of `_chunked_iterates`.  Rejects an
    empty problem list, problems of unequal n, a start count other than the
    problem count, and what `RunConfig` rejects: a scheme it cannot look up, a
    negative or non-finite eta, k < 1 and seeds outside [0, 2**64).
    """
    problems, x0s = list(problems), list(x0s)
    if not problems:
        raise ValueError("final_losses needs at least one problem")
    if len(x0s) != len(problems):
        raise ValueError(f"final_losses needs one x0 per problem, got {len(x0s)} x0s "
                         f"for {len(problems)} problems")
    for p in problems[1:]:
        if p.n != problems[0].n:
            raise ValueError(f"problems must share n, got {problems[0].n} and {p.n}")
    scheme = Scheme(scheme)
    seeds = list(seeds)
    _check_run(eta, k, seeds)
    y0s = [model._to_diag_frame(p, x0) for p, x0 in zip(problems, x0s)]
    for p in problems:
        _warn_if_large_eta(p, eta)
    last = [np.empty((len(seeds), p.dim)) for p in problems]
    with np.errstate(over="ignore", invalid="ignore"):
        for first, ys in _chunked_iterates(problems, scheme, eta, k, y0s, seeds):
            for out, part in zip(last, ys):
                final = part[-1].reshape(-1, out.shape[1])  # a run's final chunk is written last
                out[first:first + len(final)] = final
        return np.array([model.diagonal_objective(p, y) for p, y in zip(problems, last)])
