"""Exact oracles for the permutation expectations, and the Monte Carlo
estimate of E[F(x_k)] they are checked against.

Everything here reduces to uniform arrangements of two interchangeable
component types.  Patterns are stored as {0,1} labels with exactly n/2 ones;
the two sign conventions in use derive from one substrate: +-1 signs are
2*label - 1, alternating-sum coefficients are 1 - 2*label.

Exhaustive enumeration is capped at n = 16 (C(16,8) = 12870 arrangements);
at larger n, `mc_expected_loss` estimates E[F(x_k)] with a standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from . import engine as _engine
from .model import Problem, _to_diag_frame

ENUMERATION_CAP = 16
DEFAULT_DELTA = 0.05


class UnsupportedInstanceError(ValueError):
    """Exact method requested on data the enumeration substrate cannot cover."""


def _check_even(n: int):
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")


def _check_enumerable(n: int):
    _check_even(n)
    if n > ENUMERATION_CAP:
        raise UnsupportedInstanceError(
            f"exhaustive enumeration is capped at n = {ENUMERATION_CAP}, got {n}; "
            "estimate E[F(x_k)] by Monte Carlo with mc_expected_loss "
            "(oracle --method monte-carlo) instead"
        )


@lru_cache(maxsize=None)
def _pattern_matrix(n: int) -> np.ndarray:
    """All C(n, n/2) balanced {0,1} rows, in lexicographic order of 1-positions."""
    _check_enumerable(n)
    combos = np.array(list(itertools.combinations(range(n), n // 2)), dtype=np.int64)
    mat = np.zeros((combos.shape[0], n), dtype=np.int64)
    np.put_along_axis(mat, combos, 1, axis=1)
    mat.flags.writeable = False
    return mat


def enumerate_balanced_patterns(n: int) -> Iterator[Tuple[int, ...]]:
    """Yield each balanced arrangement of n/2 zeros and n/2 ones exactly once.

    Under a uniform permutation of two interchangeable component types the
    arrangements are equiprobable, so consumers weight each by 1/C(n, n/2).
    """
    _check_enumerable(n)
    for row in _pattern_matrix(n):
        yield tuple(int(v) for v in row)


def pattern_count(n: int) -> int:
    return math.comb(n, n // 2)


# ---------------------------------------------------------------------------
# beta and its envelope


def beta_exact(n: int, eta: float, lam_max: float) -> float:
    """E[(sum_i s_i (1 - lam_max*eta)^i)^2] over balanced +-1 sign rows, exact."""
    _check_enumerable(n)
    alpha = eta * lam_max
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"eta*lam_max must lie in [0, 1], got {alpha}")
    signs = 2.0 * _pattern_matrix(n) - 1.0
    weights = (1.0 - alpha) ** np.arange(n)
    vals = signs @ weights
    return float(np.mean(vals * vals))


def beta_lower_envelope(n: int, eta: float, lam_max: float) -> float:
    """Shape of the beta lower bound: min{1 + 1/(lam_max*eta), n^3 (lam_max*eta)^2}.

    The multiplying universal constant is not part of the value; calibrated
    extremes of beta_exact / envelope live in the calibration file.
    """
    _check_enumerable(n)
    alpha = eta * lam_max
    if alpha <= 0.0:
        raise ValueError("eta*lam_max must be positive (1/(eta*lam_max) appears)")
    if alpha > 1.0:
        raise ValueError(f"eta*lam_max must lie in (0, 1], got {alpha}")
    return min(1.0 + 1.0 / alpha, n**3 * alpha**2)


# ---------------------------------------------------------------------------
# the tail-product scalar and its expectations


def keyup_quantity(alphas, betas, perm) -> float:
    """sum_j beta_{perm(j)} * prod_{i>j} (1 - alpha_{perm(i)}), 0-based perm.

    Constraints: alpha_i in [0,1], |beta_i| <= 1, sum beta_i = 0 (to 1e-12).
    Reversing the permutation turns the suffix products into prefix products
    over the forward order (substitute j -> n-1-j).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    n = alphas.shape[0]
    if n == 0:
        raise ValueError("alphas must be nonempty")
    if betas.shape != (n,):
        raise ValueError("alphas and betas must have equal length")
    if np.any(alphas < 0) or np.any(alphas > 1):
        raise ValueError("alphas must lie in [0, 1]")
    if np.any(np.abs(betas) > 1 + 1e-12):
        raise ValueError("betas must lie in [-1, 1]")
    if abs(float(np.sum(betas))) > 1e-12:
        raise ValueError("betas must sum to zero")
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm is not a permutation of range(n)")
    _, q = _engine.tail_products(1.0 - alphas[perm], betas[perm])
    return float(q)


def two_valued_tail_products(a, b, eta: float) -> Tuple[np.ndarray, np.ndarray]:
    """(P, Q) of a uniform permutation of one coordinate's (a_i, b_i) data, as
    one value per equiprobable arrangement, exactly.

    Constant data has one arrangement (closed form).  Two distinct (a, b)
    pairs in equal counts reduce to a uniform balanced pattern, one row per
    `_pattern_matrix(n)` row.  Other data, and n above the enumeration cap,
    raise UnsupportedInstanceError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    pairs, counts = np.unique(np.stack([a, b], axis=1), axis=0, return_counts=True)
    if pairs.shape[0] == 1:
        s = 1.0 - eta * pairs[0, 0]
        return np.array([s**n]), pairs[0, 1] * _engine._geometric_factor([s], n)
    if pairs.shape[0] > 2:
        raise UnsupportedInstanceError(
            "exact moments need <= 2 distinct (curvature, linear) pairs"
        )
    if counts[0] != counts[1]:
        raise UnsupportedInstanceError(
            "exact moments need balanced counts of the two (a, b) pairs"
        )
    _check_enumerable(n)
    labels = _pattern_matrix(n)
    # one gather per 1-D column: ~3x faster than pairs[labels, 0], same values
    a_pair, b_pair = pairs.T
    return _engine.tail_products(1.0 - eta * a_pair[labels], b_pair[labels])


def expected_keyup_square(alphas, betas) -> float:
    """E over uniform permutations of keyup_quantity^2, exact.

    Two-valued balanced (alpha, beta) pairs enumerate over balanced patterns;
    otherwise all n! permutations are enumerated (n <= 8).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    n = alphas.shape[0]
    try:
        _, q = two_valued_tail_products(alphas, betas, 1.0)
    except UnsupportedInstanceError:
        if n > 8:
            raise UnsupportedInstanceError(
                "exact expectation needs two-valued balanced data or n <= 8"
            ) from None
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        _, q = _engine.tail_products(1.0 - alphas[perms], betas[perms])
    return float(np.mean(q * q))


def perm_moment_formula(m: int, n: int) -> float:
    """E[(1 - 2 s_0) * prod_{i=1..m} s_i] = C(n/2-1, m-1) / (2 C(n-1, m))."""
    return float(perm_moment_fraction(m, n))


def perm_moment_fraction(m: int, n: int) -> Fraction:
    _check_even(n)
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must lie in 1..n-1, got m={m}, n={n}")
    return Fraction(math.comb(n // 2 - 1, m - 1), 2 * math.comb(n - 1, m))


def perm_moment_enumeration(m: int, n: int) -> Fraction:
    """The same moment by exhaustive balanced-pattern enumeration, exact."""
    _check_enumerable(n)
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must lie in 1..n-1, got m={m}, n={n}")
    mat = _pattern_matrix(n)
    prod = np.all(mat[:, 1 : m + 1] == 1, axis=1).astype(np.int64)
    total = int(np.sum((1 - 2 * mat[:, 0]) * prod))
    return Fraction(total, mat.shape[0])


def sum_prod_ceiling(n: int, eta: float, lam_max: float) -> float:
    return -eta * lam_max * n / 8.0


def stochastic_terms_ceiling(n: int, eta: float, lam_max: float) -> float:
    return -eta * lam_max * n / 16.0


def _alternating_tail_values(n: int, eta: float, lam_max: float):
    """(P, Q) per balanced pattern for coefficients 1-2s and factors 1-eta*lam_max*s."""
    half = n // 2
    return two_valued_tail_products([0.0] * half + [lam_max] * half,
                                    [1.0] * half + [-1.0] * half, eta)


def sum_prod_expectation_exact(n: int, eta: float, lam_max: float) -> float:
    """E[sum_i (1-2s_i) prod_{j>i} (1 - eta*lam_max*s_j)] by enumeration.

    For eta <= 1/(lam_max n) the value is certified against the proven ceiling
    -eta*lam_max*n/8 (tripwire; enumeration is exact so it cannot fire).
    """
    _check_enumerable(n)
    if eta < 0 or eta * lam_max > 1:
        raise ValueError("need 0 <= eta*lam_max <= 1")
    _, q = _alternating_tail_values(n, eta, lam_max)
    value = float(np.mean(q))
    if lam_max > 0 and eta * lam_max * n <= 1.0 + 1e-12:
        assert value <= sum_prod_ceiling(n, eta, lam_max) + 1e-12
    return value


def stochastic_terms_exact(n: int, eta: float, lam_max: float) -> float:
    """E[prod_i (1 - eta*lam_max*s_i) * sum_i (1-2s_i) prod_{j>i} (...)], exact.

    Only claimed (and only accepted) for eta <= 1/(lam_max n), where it is
    certified against the ceiling -eta*lam_max*n/16.
    """
    _check_enumerable(n)
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    if eta < 0 or eta * lam_max * n > 1.0 + 1e-12:
        raise ValueError(
            f"stochastic_terms_exact requires eta <= 1/(lam_max*n), got eta={eta}"
        )
    p, q = _alternating_tail_values(n, eta, lam_max)
    value = float(np.mean(p * q))
    assert value <= stochastic_terms_ceiling(n, eta, lam_max) + 1e-12
    return value


# ---------------------------------------------------------------------------
# per-epoch moments and analytic expected losses


@dataclass(frozen=True)
class PermutationMoments:
    """Moments of (P, Q) for one coordinate under a uniform permutation."""

    e_p: float
    e_p2: float
    e_q: float
    e_q2: float
    e_pq: float

    def __post_init__(self):
        # rounding slack scales with the squared mean being compared
        if self.e_p2 < self.e_p**2 - 1e-12 * max(1.0, self.e_p**2):
            raise ValueError("E[P^2] below E[P]^2: variance would be negative")
        if self.e_q2 < self.e_q**2 - 1e-12 * max(1.0, self.e_q**2):
            raise ValueError("E[Q^2] below E[Q]^2: variance would be negative")


@dataclass(frozen=True)
class MomentState:
    """Per-coordinate (E[x_t], E[x_t^2]) evolved analytically."""

    mean: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "second", np.asarray(self.second, dtype=np.float64))
        # rounding slack scales with the squared mean being compared
        if np.any(self.second < self.mean**2 - 1e-12 * np.maximum(1.0, self.mean**2)):
            raise ValueError("second moment below squared mean")


def permutation_moments(curvatures, linears, eta: float) -> PermutationMoments:
    """Five exact moments of (P, Q) for one coordinate's (a_i, b_i) data.

    Needs at most two distinct (a, b) pairs with balanced counts and n <= 16
    (see `two_valued_tail_products`).
    """
    a = np.asarray(curvatures, dtype=np.float64)
    b = np.asarray(linears, dtype=np.float64)
    if b.shape != (a.shape[0],):
        raise ValueError("curvatures and linears must have equal length")
    p_vals, q_vals = two_valued_tail_products(a, b, eta)
    return PermutationMoments(
        e_p=float(np.mean(p_vals)),
        e_p2=float(np.mean(p_vals**2)),
        e_q=float(np.mean(q_vals)),
        e_q2=float(np.mean(q_vals**2)),
        e_pq=float(np.mean(p_vals * q_vals)),
    )


def _coordinate_moments(p: Problem, eta: float) -> list:
    return [permutation_moments(p.curvature_matrix[:, j], p.linear_matrix[:, j], eta)
            for j in range(p.dim)]


def evolve_moment_state(state: MomentState, moments: Sequence[PermutationMoments],
                        eta: float) -> MomentState:
    """One epoch of the exact mean/second-moment recursion, per coordinate."""
    mean = np.array([m.e_p * x + eta * m.e_q for m, x in zip(moments, state.mean)])
    second = np.array(
        [
            m.e_p2 * s + 2.0 * eta * m.e_pq * x + eta**2 * m.e_q2
            for m, x, s in zip(moments, state.mean, state.second)
        ]
    )
    return MomentState(mean=mean, second=second)


def _loss_from_moments(p: Problem, state: MomentState) -> float:
    a_bar = p.mean_curvature
    b_bar = p.mean_linear
    return float(np.sum(0.5 * a_bar * state.second - b_bar * state.mean))


def expected_loss_rr_analytic(p: Problem, eta: float, k: int, x0) -> float:
    """Exact E[F(x_k)] under random reshuffling via the moment recursion.

    Fresh permutations make x_t independent of the next epoch's (P, Q), so the
    per-coordinate recursion closes over (E[x], E[x^2]).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    y0 = _to_diag_frame(p, x0)
    moments = _coordinate_moments(p, eta)
    state = MomentState(mean=y0.copy(), second=y0 * y0)
    for _ in range(k):
        state = evolve_moment_state(state, moments, eta)
    return _loss_from_moments(p, state)


def expected_loss_ss_exact(p: Problem, eta: float, k: int, x0) -> float:
    """Exact E[F(x_k)] under single shuffling: average the closed form over
    the shared permutation, coordinate by coordinate."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    y0 = _to_diag_frame(p, x0)
    moments = _coordinate_moments(p, eta)
    a_bar = p.mean_curvature
    b_bar = p.mean_linear
    total = 0.0
    for j in range(p.dim):
        s = float(np.prod(1.0 - eta * p.curvature_matrix[:, j]))
        g = float(_engine._geometric_factor(s, k))
        m = moments[j]
        mean = s**k * y0[j] + eta * g * m.e_q
        second = (
            s ** (2 * k) * y0[j] ** 2
            + 2.0 * s**k * y0[j] * eta * g * m.e_q
            + eta**2 * g**2 * m.e_q2
        )
        total += 0.5 * a_bar[j] * second - b_bar[j] * mean
    return float(total)


def expected_loss_ss_formula(n: int, k: int, eta: float, G: float, lam: float,
                             lam_max: float, x0) -> float:
    """The analytic E[F(x_k)] for the 2-d construction, driven by beta_exact:
    decay of both coordinates plus the beta variance term."""
    x0 = np.asarray(x0, dtype=np.float64)
    s_epoch = (1.0 - eta * lam_max) ** n
    ratio = float(_engine._geometric_factor(s_epoch, k))
    beta = beta_exact(n, eta, lam_max)
    return float(
        0.5 * lam * (1.0 - eta * lam) ** (2 * n * k) * x0[0] ** 2
        + 0.5 * lam_max * (1.0 - eta * lam_max) ** (2 * n * k) * x0[1] ** 2
        + (eta**2 * G**2 * lam_max / 8.0) * ratio**2 * beta
    )


def derive_run_seed(master_seed: int, index: int) -> int:
    """`engine.derive_seed` of master_seed with spawn key (index,)."""
    return _engine.derive_seed(master_seed, (index,))


def mc_expected_loss(p: Problem, scheme: "_engine.Scheme", eta: float, k: int, x0,
                     runs: int, seed: int = 0) -> Tuple[float, float]:
    """Monte Carlo estimate of E[F(x_k)]: (mean, standard error of the mean).

    Run r is seeded with `derive_run_seed(seed, r)`; `engine.final_losses`
    runs all of them batched, each with its own generator, so every loss
    equals that run's `run_sgd_closed_form` final loss bit for bit.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs for a standard error")
    seeds = [derive_run_seed(seed, r) for r in range(runs)]
    losses = _engine.final_losses(p, scheme, eta, k, x0, seeds)
    return float(np.mean(losses)), float(np.std(losses, ddof=1) / math.sqrt(runs))


ORACLE_CSV_HEADER = "quantity,n,eta_lambda_max,exact,mc_mean,mc_se"


@dataclass(frozen=True)
class OracleRow:
    """One exported oracle evaluation; MC fields stay empty for exact runs."""

    quantity: str
    n: int
    eta_lambda_max: float
    exact: Optional[float] = None
    mc_mean: Optional[float] = None
    mc_se: Optional[float] = None

    def as_csv(self) -> str:
        def fmt(v):
            return "" if v is None else repr(float(v))

        return (f"{self.quantity},{self.n},{self.eta_lambda_max!r},"
                f"{fmt(self.exact)},{fmt(self.mc_mean)},{fmt(self.mc_se)}")


def write_oracle_csv(rows: Sequence[OracleRow], path) -> None:
    lines = [ORACLE_CSV_HEADER] + [r.as_csv() for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
