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
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

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
    def final_point(self) -> np.ndarray:
        return self.points[-1]

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
    `derive_seed` accepts."""
    if entropy < 0:
        raise ValueError(f"seed must be nonnegative, got {entropy}")


def derive_seed(entropy: int, spawn_key: tuple) -> int:
    """The one seed-derivation rule: the first uint64 word of
    SeedSequence(entropy, spawn_key).  Sweeps and Monte Carlo estimates
    derive every run seed through it, so each seed stays a pure function of
    the master seed and the run's key."""
    check_seed_base(entropy)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def _draws(scheme: "Scheme", n: int, epochs: int, rng: np.random.Generator) -> np.ndarray:
    """One run's draws for `epochs` epochs from one generator call, one row
    per epoch: n uniform indices (with replacement) or the Fisher-Yates
    draws j_i ~ U{0..i}, i = n-1..1 (the shuffling schemes; none at n=1)."""
    if scheme is Scheme.WITH_REPLACEMENT:
        return rng.integers(0, n, size=(epochs, n))
    return rng.integers(0, np.tile(np.arange(n, 1, -1), (epochs, 1)))


def _fisher_yates(draws: np.ndarray) -> np.ndarray:
    """The permutations of range(n), shape (rows, n), that high-to-low
    Fisher-Yates makes from `draws` of shape (rows, n-1): step i swaps
    positions i and j_i, for i = n-1..1.

    Rows may come from different generators; all of them share one
    vectorized pass.
    """
    rows, n = draws.shape[0], draws.shape[1] + 1
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


def _permutation_rows(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """`rows` uniform permutations of range(n), shape (rows, n), from one
    `rng.integers` call over the bounds n, n-1, ..., 2 repeated `rows`
    times: the stream of `rows` one-permutation calls."""
    return _fisher_yates(_draws(Scheme.RANDOM_RESHUFFLE, n, rows, rng))


def sample_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform permutation of range(n) by high-to-low Fisher-Yates: the
    one-row case of the chunked sampler, consuming n-1 draws (none at n=1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _permutation_rows(n, 1, rng)[0]


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
    docstring); the chunk's rows then share one Fisher-Yates pass and one
    `tail_products` call.  Single shuffling draws one permutation per run
    and takes x_t = S^t x0 + eta * (1-S^t)/(1-S) * X for all k epochs at
    once, so its chunks always hold whole runs; zero-curvature directions
    (S == 1) take the t-limit.  The other schemes apply their maps in order
    over the (runs, d) block.  `perm_log` collects the index sequences of a
    single run.
    """
    n = p.n
    single = scheme is Scheme.SINGLE_SHUFFLE
    width = n if scheme is Scheme.WITH_REPLACEMENT else n - 1  # draws per epoch
    epochs = k if single else min(k, max(1, _CHUNK_ENTRIES // n))
    runs = max(1, _CHUNK_ENTRIES // (epochs * n))
    for first in range(0, len(seeds), runs):
        block = seeds[first:first + runs]
        # Only a run alone in its block spans several chunks, so at most one
        # generator outlives the draws it makes.
        lone = np.random.default_rng(block[0]) if len(block) == 1 else None
        y = y0
        for t0 in range(0, k, epochs):
            c = min(epochs, k - t0)
            drawn = 1 if single else c
            if lone is not None:
                draws = _draws(scheme, n, drawn, lone)
            else:
                draws = np.empty((drawn, len(block), width), dtype=np.int64)
                for r, seed in enumerate(block):
                    draws[:, r] = _draws(scheme, n, drawn, np.random.default_rng(seed))
            seqs = draws if width == n else _fisher_yates(
                draws.reshape(-1, width)).reshape(draws.shape[:-1] + (n,))
            if perm_log is not None:
                perm_log.extend(np.array(seq) for seq in seqs)
            # `draws` and `factors` stay bound until the next chunk replaces
            # them.  Freed earlier, the allocator handed their pages back and
            # faulted them in again every chunk: at n=500, k=2000, ~5x the
            # minor faults and ~20% more time for `factors`, and ~4800
            # against ~250 faults per random-reshuffling run for `draws`.
            factors = 1.0 - eta * p.curvature_matrix[seqs]  # (drawn, [runs,] n, d)
            contraction, noise = tail_products(np.swapaxes(factors, -1, -2),
                                               np.swapaxes(p.linear_matrix[seqs], -1, -2))
            if single:
                t = np.arange(1, k + 1).reshape((k,) + (1,) * (contraction.ndim - 1))
                ys = contraction**t * y0 + eta * _geometric_factor(contraction, t) * noise
            else:
                ys = np.empty_like(contraction)
                for t in range(c):
                    y = ys[t] = contraction[t] * y + eta * noise[t]
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
