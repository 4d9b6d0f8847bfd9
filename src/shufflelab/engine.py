"""SGD execution under three sampling schemes, stepwise and in closed form.

RNG contract: all randomness comes from numpy's PCG64 generator seeded with
the run seed.  Permutations use Fisher-Yates sweeping indices high to low,
with the n-1 bounded draws j_i ~ U{0..i} (i = n-1..1) taken in a single
vectorized `integers` call; the with-replacement scheme draws one uniform
index array of length n per epoch.  The identifier below names that
consumption scheme and is echoed in every trajectory so outputs can be traced
to the generator contract.

`run_sgd_closed_form` takes the draws of c epochs at once: one `integers`
call over the c epochs' bounds laid end to end (or over n*c uniform
indices).  `Generator.integers` fills its output element by element from
the one PCG64 stream, so that call yields exactly the draws of c per-epoch
calls and leaves the generator in the same state; chunking changes the
number of calls, never the values drawn.

`final_losses` runs a batch of runs through the same chunks.  A batch keeps
one generator per run, seeded with that run's seed and making exactly that
run's draws, so each run's stream is unchanged; only the Fisher-Yates pass,
the tail products and the map recurrence are shared across the batch.

Two loops are sequential: Fisher-Yates steps through a row's positions, and
the map recurrence y <- contraction*y + noise through a run's epochs.  Each
picks Python scalars or one numpy call per step by its width, the rows of a
Fisher-Yates pass or the runs x d lanes of a recurrence: narrow (a lone run,
a single-shuffling permutation) runs in Python, wide (a reshuffling chunk,
a Monte Carlo block) in numpy.  The values are the same either way: swaps
move integers, and a Python float rounds the multiply and then the add as
numpy does, with no fused multiply-add in either.

Seeding is numpy's, computed in bulk.  Numpy's `SeedSequence` is a fixed
integer hash of the seed's 32-bit words, so `_seed_states` evaluates it for
many rows at once: `derive_seeds` takes the first uint64 word for every spawn
key of a sweep cell or Monte Carlo estimate in one pass, and a batched block
of runs hands each run's `SeedSequence(seed).generate_state(4, np.uint64)` to
numpy's own `PCG64` through a preset seed sequence, so each generator starts
in the state `np.random.default_rng(seed)` gives it.  A lone run, where the
hash's fixed cost would dominate, calls `np.random.default_rng(seed)` itself.
The tests and `verify` pin both routes to numpy's `SeedSequence` word for
word.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import model
from .model import Problem, objective

RNG_ALGORITHM_ID = "numpy-pcg64/fisher-yates-high-to-low/v1"


class Scheme(enum.Enum):
    WITH_REPLACEMENT = "wr"
    SINGLE_SHUFFLE = "ss"
    RANDOM_RESHUFFLE = "rr"

    @classmethod
    def from_tag(cls, tag: str) -> "Scheme":
        for s in cls:
            if s.value == tag:
                return s
        raise ValueError(f"unknown scheme tag {tag!r}; choose from wr, ss, rr")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed for a bit-reproducible run."""

    scheme: Scheme
    eta: float
    epochs: int
    x0: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "x0", np.array(self.x0, dtype=np.float64))
        self.x0.flags.writeable = False
        _check_run(self.eta, self.epochs, (self.seed,))


def check_eta(eta: float) -> None:
    """Reject a step size that is NaN, infinite or negative: the one rule for
    every fixed step size a run or a sweep plan accepts."""
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    if eta < 0:
        raise ValueError("eta must be nonnegative")


def _check_run(eta: float, epochs: int, seeds) -> None:
    check_eta(eta)
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    for seed in seeds:
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class Trajectory:
    """End-of-epoch iterates x_1..x_k and their objective values."""

    points: np.ndarray  # (k, d)
    losses: np.ndarray  # (k,)
    config: RunConfig
    rng_algorithm_id: str = RNG_ALGORITHM_ID

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


def recommended_eta(n: int, k: int, lam: float) -> float:
    """The step-size rule log(nk) / (lam * n * k) (natural log)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    nk = n * k
    if nk <= 1:
        raise ValueError(f"n*k must exceed 1 for a positive step size, got {nk}")
    return math.log(nk) / (lam * nk)


def check_seed_base(entropy: int) -> None:
    """Reject a negative master seed: the one rule for every seed base that
    `derive_seeds` accepts."""
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


def _hash_constants(init: int, mult: int, calls: int) -> Tuple[np.ndarray, np.ndarray]:
    """The operands of `calls` successive `hashmix` calls as two (calls, 1)
    uint32 arrays: a call xors with the current constant, advances it by
    `mult` and multiplies by the new one."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> _XSHIFT


def _seed_sequence_state(words: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence.generate_state(n_words, np.uint64)` for every row, shape
    (n_words, rows), from `words`, the rows' assembled entropy as a
    (word count, rows) uint32 array.

    numpy's loops run in order, but the calls inside one step are
    independent, so each step is one array expression: filling the pool,
    mixing one source word into the three other pool words, mixing one
    further entropy word into all four, and reading the state out.
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
    for word in words[_POOL_SIZE:]:
        calls = slice(call, call + _POOL_SIZE)
        pool = _mix(pool, _hashmix(word, xor[calls], mult[calls]))
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
    Rows whose integers split into the same word counts share one hash pass.
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
    layouts, group = np.unique(counts, axis=0, return_inverse=True)
    group = group.reshape(-1)  # its shape varies across numpy 2.x releases
    states = np.empty((len(values), n_words), dtype=np.uint64)
    for g, layout in enumerate(layouts):
        rows = np.flatnonzero(group == g)
        words = [np.full(len(rows), w, dtype=np.uint32) for w in head]
        words += [pieces[i][rows, j] for j, c in enumerate(layout) for i in range(c)]
        states[rows] = _seed_sequence_state(np.stack(words), n_words).T
    return states


def derive_seeds(entropy: int, spawn_keys) -> List[int]:
    """The one seed-derivation rule: entry r is the first uint64 word of
    SeedSequence(entropy, spawn_keys[r]), for every key in one vectorized
    pass.  Sweeps and Monte Carlo estimates derive their run seeds through
    it, so each seed stays a pure function of the master seed and the run's
    key.  Keys are equal-length sequences of nonnegative integers, or an
    integer array of shape (keys, key length)."""
    check_seed_base(entropy)
    keys = np.asarray(spawn_keys)
    if keys.dtype.kind == "f":  # ints past int64 beside small ones promote to float
        keys = np.asarray(spawn_keys, dtype=object)
    if keys.size == 0:  # no keys, or keys without elements
        keys = np.zeros((len(keys), 0), dtype=np.int64)
    if keys.ndim != 2 or keys.dtype.kind not in "iuO":
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


@functools.cache
def _preset_state_class() -> type:
    """The seed sequence type `_generators` hands to `PCG64`, defined on first
    use: numpy loads `numpy.random` lazily, and importing the engine should
    not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetState(ISeedSequence):
        """A seed sequence whose state is already computed: one row of
        `_seed_states(seeds, [], 4)`, from which numpy still does PCG64's
        own seeding."""

        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a preset state holds exactly 4 uint64 words")
            return self._state

    return PresetState


def _generators(seeds: np.ndarray):
    """`np.random.default_rng(seed)` for each uint64 seed in turn, in the same
    state, with one vectorized `SeedSequence` pass for all of them."""
    preset = _preset_state_class()
    for state in _seed_states(seeds[:, None], [], 4):
        yield np.random.Generator(np.random.PCG64(preset(state)))


# Width at which the engine's two sequential loops, Fisher-Yates over its
# rows and the map recurrence over its lanes, switch from Python scalars to
# one numpy call per step.  A numpy step costs microseconds whatever its
# width, a Python one tens of nanoseconds per element.  Timed crossovers
# (numpy 2.4, one core): Fisher-Yates at 6-9 rows for n = 10..500, the
# recurrence at ~4 lanes over 5 epochs and 10-12 lanes over 32-163 epochs.
_SCALAR_WIDTH = 8


def _fisher_yates_bounds(n: int, epochs: int) -> np.ndarray:
    """Exclusive bounds of `epochs` epochs of Fisher-Yates draws, one row per
    epoch: j_i ~ U{0..i} for i = n-1..1 (no columns at n=1)."""
    return np.tile(np.arange(n, 1, -1), (epochs, 1))


def _draws(scheme: "Scheme", n: int, epochs: int, rng: np.random.Generator,
           bounds: np.ndarray) -> np.ndarray:
    """One run's draws for `epochs` epochs from one generator call, one row
    per epoch: n uniform indices (with replacement) or the Fisher-Yates
    draws below the first `epochs` rows of `bounds`, a
    `_fisher_yates_bounds` array (the shuffling schemes)."""
    if scheme is Scheme.WITH_REPLACEMENT:
        return rng.integers(0, n, size=(epochs, n))
    return rng.integers(0, bounds[:epochs])


def _fisher_yates(draws: np.ndarray) -> np.ndarray:
    """The permutations of range(n), shape (rows, n), that high-to-low
    Fisher-Yates makes from `draws` of shape (rows, n-1): step i swaps
    positions i and j_i, for i = n-1..1.

    Rows may come from different generators.  Fewer than `_SCALAR_WIDTH`
    rows are swapped row by row on Python lists; more share one vectorized
    pass.
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
    pos_i = np.arange(n - 1, 0, -1)[:, None] + base
    pos_j = draws.T + base
    dst = np.concatenate((pos_i, pos_j), axis=1)
    src = np.concatenate((pos_j, pos_i), axis=1)
    work = np.tile(np.arange(n), rows)
    for d, s in zip(dst, src):
        work[d] = work[s]
    return work.reshape(rows, n)


def sample_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform permutation of range(n) by high-to-low Fisher-Yates: the
    one-row case of the chunked sampler, consuming n-1 draws (none at n=1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _fisher_yates(_draws(Scheme.RANDOM_RESHUFFLE, n, 1, rng,
                                _fisher_yates_bounds(n, 1)))[0]


def _warn_if_large_eta(p: Problem, eta: float):
    if eta * p.smooth_l > 1.0 + 1e-12:
        warnings.warn(
            f"eta*L = {eta * p.smooth_l:.4g} > 1: contraction factors leave [0, 1]",
            RuntimeWarning,
            stacklevel=3,
        )


def _epoch_sequence(p: Problem, scheme: Scheme, rng: np.random.Generator,
                    fixed_perm: Optional[np.ndarray]) -> np.ndarray:
    if scheme is Scheme.WITH_REPLACEMENT:
        return rng.integers(0, p.n, size=p.n)
    if scheme is Scheme.SINGLE_SHUFFLE:
        return fixed_perm
    return sample_permutation(p.n, rng)


def run_sgd(p: Problem, cfg: RunConfig, perm_log: Optional[list] = None) -> Trajectory:
    """Execute n*k explicit gradient steps, recording end-of-epoch iterates.

    Index selection per epoch: with-replacement draws n independent uniform
    indices, single shuffling reuses one start-of-run permutation, random
    reshuffling draws a fresh permutation.  `perm_log`, when given, collects
    every sampled index sequence (for scheme-separation checks).
    """
    model._to_diag_frame(p, cfg.x0)  # shape check only: steps run in the outer frame
    _warn_if_large_eta(p, cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    fixed_perm = None
    if cfg.scheme is Scheme.SINGLE_SHUFFLE:
        fixed_perm = sample_permutation(p.n, rng)
        if perm_log is not None:
            perm_log.append(fixed_perm.copy())
    x = cfg.x0.copy()
    points = np.empty((cfg.epochs, p.dim))
    losses = np.empty(cfg.epochs)
    for t in range(cfg.epochs):
        seq = _epoch_sequence(p, cfg.scheme, rng, fixed_perm)
        if perm_log is not None and cfg.scheme is not Scheme.SINGLE_SHUFFLE:
            perm_log.append(np.array(seq))
        for i in seq:
            x = x - cfg.eta * model.component_gradient(p, int(i), x)
        points[t] = x
        losses[t] = objective(p, x)
    return Trajectory(points=points, losses=losses, config=cfg)


def tail_products(factors: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The epoch's tail product, reduced over the last axis.

    P = prod_i factors[..., i] and Q = sum_j b[..., j] * prod_{i>j} factors[..., i];
    every leading axis is a batch axis.  This is the one suffix-product kernel
    behind the epoch maps and the permutation oracles.  Transposed inputs
    should be passed as views: a contiguous copy changes the rounding.
    """
    # suffix[..., i] = prod of factors strictly after position i
    suffix = np.ones_like(factors)
    np.cumprod(factors[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
    return suffix[..., 0] * factors[..., 0], np.einsum("...i,...i->...", b, suffix)


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
    s, t = np.broadcast_arrays(np.asarray(s, dtype=np.float64), np.asarray(t))
    out = t.astype(np.float64)
    ok = s != 1.0
    out[ok] = (1.0 - s[ok] ** t[ok]) / (1.0 - s[ok])
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
    the same bit for bit.  Python floats raise no overflow RuntimeWarning,
    but give the same inf and nan.
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
    ys = np.empty_like(contraction)
    y = y0
    for t in range(len(contraction)):
        y = ys[t] = contraction[t] * y + noise[t]
    return ys


# Index entries (runs * epochs * n) drawn and mapped per chunk; bounds the
# chunk's (epochs, runs, n, d) factor arrays to 2**14 * d floats.
_CHUNK_ENTRIES = 2**14


def _chunked_iterates(p: Problem, scheme: Scheme, eta: float, k: int, y0: np.ndarray,
                      seeds, perm_log: Optional[list] = None):
    """Yield (first, ys) chunk by chunk: ys of shape (epochs, runs, d) holds
    the diagonal-frame end-of-epoch iterates of the runs seeded by
    seeds[first:first + runs], over the chunk's epochs.  A block of one run
    has no runs axis: ys is (epochs, d).

    A chunk holds whole runs when k*n fits in `_CHUNK_ENTRIES`, else about
    `_CHUNK_ENTRIES // n` epochs of one run; a run's chunks come in epoch
    order.  Each run draws from its own generator (see the module
    docstring); the chunk's rows then share one Fisher-Yates pass, one
    gather from the `[1 - eta*A | B]` table and one `tail_products` call.
    Single shuffling draws one permutation per run and takes
    x_t = S^t x0 + eta * (1-S^t)/(1-S) * X for all k epochs at once, so its
    chunks always hold whole runs; zero-curvature directions (S == 1) take
    the t-limit.  The other schemes scale the chunk's noise by eta once,
    then apply their maps in order over the (runs, d) block.  `perm_log`
    collects the index sequences of a single run.
    """
    n, d = p.n, p.dim
    single = scheme is Scheme.SINGLE_SHUFFLE
    width = n if scheme is Scheme.WITH_REPLACEMENT else n - 1  # draws per epoch
    epochs = k if single else min(k, max(1, _CHUNK_ENTRIES // n))
    runs = max(1, _CHUNK_ENTRIES // (epochs * n))
    # Row i is [1 - eta a_i | b_i], so one gather fetches a chunk's factors
    # and coefficients.  The halves go to `tail_products` as views.
    table = np.concatenate((1.0 - eta * p.curvature_matrix, p.linear_matrix), axis=1)
    bounds = _fisher_yates_bounds(n, 1 if single else epochs)
    seeds = np.asarray(seeds, dtype=np.uint64)
    for first in range(0, len(seeds), runs):
        block = seeds[first:first + runs]
        # Only a run alone in its block spans several chunks, so at most one
        # generator outlives the draws it makes.
        lone = np.random.default_rng(int(block[0])) if len(block) == 1 else None
        y = y0
        for t0 in range(0, k, epochs):
            c = min(epochs, k - t0)
            drawn = 1 if single else c
            if lone is not None:
                draws = _draws(scheme, n, drawn, lone, bounds)
            else:
                draws = np.empty((drawn, len(block), width), dtype=np.int64)
                for r, rng in enumerate(_generators(block)):
                    draws[:, r] = _draws(scheme, n, drawn, rng, bounds)
            seqs = draws if width == n else _fisher_yates(
                draws.reshape(-1, width)).reshape(draws.shape[:-1] + (n,))
            if perm_log is not None:
                perm_log.extend(np.array(seq) for seq in seqs)
            # `draws` and `gathered` stay bound until the next chunk replaces
            # them.  Freed earlier, the allocator handed their pages back and
            # faulted them in again every chunk: at n=500, k=2000, ~5x the
            # minor faults and ~20% more time for the gathered rows, and ~4800
            # against ~250 faults per random-reshuffling run for `draws`.
            gathered = np.take(table, seqs, axis=0)  # (drawn, [runs,] n, 2d)
            contraction, noise = tail_products(np.swapaxes(gathered[..., :d], -1, -2),
                                               np.swapaxes(gathered[..., d:], -1, -2))
            if single:
                t = np.arange(1, k + 1).reshape((k,) + (1,) * (contraction.ndim - 1))
                ys = contraction**t * y0 + eta * _geometric_factor(contraction, t) * noise
            else:
                noise *= eta
                ys = _apply_maps(contraction, noise, y)
                y = ys[-1]
            yield first, ys


def run_sgd_closed_form(p: Problem, cfg: RunConfig,
                        perm_log: Optional[list] = None) -> Trajectory:
    """Trajectory via per-epoch affine maps instead of explicit steps.

    Consumes the generator exactly like `run_sgd`, so the two agree per seed
    (to rounding).  This is the one-run case of `_chunked_iterates`: the
    draws of about `_CHUNK_ENTRIES // n` epochs come from one generator call
    (the same stream as one call per epoch, see the module docstring), one
    Fisher-Yates pass permutes them and one `tail_products` call maps them;
    single shuffling uses the geometric closed form.  Losses are evaluated
    on the diagonal-frame iterates.
    """
    y0 = model._to_diag_frame(p, cfg.x0)
    _warn_if_large_eta(p, cfg.eta)
    chunks = [ys for _, ys in _chunked_iterates(p, cfg.scheme, cfg.eta, cfg.epochs, y0,
                                                 [cfg.seed], perm_log)]
    ys = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    points = ys if p.conjugation is None else ys @ p.conjugation.T
    return Trajectory(points=points, losses=model.diagonal_objective(p, ys), config=cfg)


def final_losses(p: Problem, scheme: Scheme, eta: float, k: int, x0, seeds) -> np.ndarray:
    """F(x_k) of one run per seed, batched across runs.

    Entry r equals `run_sgd_closed_form(p, RunConfig(scheme, eta, k, x0,
    seeds[r])).final_loss` bit for bit: each run keeps its own generator
    and draws, and the runs of a chunk share the arithmetic of
    `_chunked_iterates`.  Rejects a negative or non-finite eta, k < 1 and
    seeds outside [0, 2**64) as `RunConfig` does.
    """
    seeds = list(seeds)
    _check_run(eta, k, seeds)
    y0 = model._to_diag_frame(p, x0)
    _warn_if_large_eta(p, eta)
    last = np.empty((len(seeds), p.dim))
    for first, ys in _chunked_iterates(p, scheme, eta, k, y0, seeds):
        final = ys[-1].reshape(-1, p.dim)  # a run's final chunk is written last
        last[first:first + len(final)] = final
    return model.diagonal_objective(p, last)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with `epoch,x_1..x_d,loss` rows under `#` metadata lines."""
    d = traj.points.shape[1]
    cfg = traj.config
    lines = [
        f"# scheme={cfg.scheme.value} eta={cfg.eta!r} epochs={cfg.epochs} seed={cfg.seed}",
        f"# x0={','.join(repr(v) for v in cfg.x0.tolist())}",
        f"# rng_algorithm_id={traj.rng_algorithm_id}",
        "epoch," + ",".join(f"x_{j + 1}" for j in range(d)) + ",loss",
    ]
    for t in range(traj.points.shape[0]):
        coords = ",".join(repr(v) for v in traj.points[t].tolist())
        lines.append(f"{t + 1},{coords},{float(traj.losses[t])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
