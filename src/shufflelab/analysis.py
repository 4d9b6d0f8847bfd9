"""Exact oracles for the permutation expectations, and the Monte Carlo
estimate of E[F(x_k)] they are checked against.

Everything here reduces to uniform arrangements of two interchangeable
component types.  Patterns are stored as {0,1} labels with exactly n/2 ones;
the two sign conventions in use derive from one substrate: +-1 signs are
2*label - 1, alternating-sum coefficients are 1 - 2*label.

Two routes reach those arrangements.  The moment oracles (`beta_exact`,
`permutation_moments` and the moment table, `expected_keyup_square`, the
sum-prod and stochastic-terms oracles and both expected-loss oracles) scan
them in O(n^2) steps over (position, type count) and take any even n.
`perm_moment_enumeration` and `two_valued_tail_products` (which `calibrate`
also needs for E|Q|, not a moment) enumerate all C(n, n/2) of them, up to
n = 16; they are the independent references the scan is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from . import engine as _engine
from .model import Problem, _to_diag_frame, check_even_n, is_integer

# the largest n the enumerating references take (C(16, 8) = 12870
# arrangements); the scanning moment oracles have no cap
ENUMERATION_CAP = 16


class UnsupportedInstanceError(ValueError):
    """Exact method requested on data the exact routes cannot cover: more than
    two distinct (a, b) pairs, unbalanced counts, or n past the enumeration cap
    on an enumerating reference."""


@lru_cache(maxsize=None, typed=True)
def _pattern_matrix(n: int) -> np.ndarray:
    """All C(n, n/2) balanced {0,1} rows, in lexicographic order of 1-positions.

    The one enumeration, so the one place the n <= ENUMERATION_CAP cap lives.
    The cache is typed: 10.0 is not a hit for 10, so the checks see it.
    """
    check_even_n(n)
    if n > ENUMERATION_CAP:
        raise UnsupportedInstanceError(
            f"exhaustive enumeration is capped at n = {ENUMERATION_CAP}, got {n}; "
            "only the references perm_moment_enumeration and two_valued_tail_products "
            "enumerate; the moment oracles scan any even n, and perm_moment_fraction "
            "is the closed form"
        )
    combos = np.array(list(itertools.combinations(range(n), n // 2)), dtype=np.int64)
    mat = np.zeros((combos.shape[0], n), dtype=np.int64)
    np.put_along_axis(mat, combos, 1, axis=1)
    mat.flags.writeable = False
    return mat


# ---------------------------------------------------------------------------
# beta and its envelope


def _shape_data(shape: str, n: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """The construction family's two balanced (alpha_i, beta_i) layouts.

    "equal": every alpha_i = alpha, balanced +-1 betas (the 2-d construction's
    steep coordinate).  "half-zero": alpha on one type and 0 on the other,
    balanced +-1 betas (the 3-d construction's switching coordinate).
    """
    check_even_n(n)
    half = n // 2
    if shape == "equal":
        alphas = np.full(n, alpha)
    elif shape == "half-zero":
        alphas = np.array([alpha] * half + [0.0] * half)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    betas = np.array([-1.0] * half + [1.0] * half)
    return alphas, betas


def beta_exact(n: int, eta: float, lam_max: float) -> float:
    """E[(sum_i s_i (1 - lam_max*eta)^i)^2] over balanced +-1 sign rows, exact,
    at any even n: E[Q^2] of the "equal" layout, whose alphas are all
    eta*lam_max (Q's weights run the other way, which exchangeability makes
    the same)."""
    alpha = eta * lam_max
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"eta*lam_max must lie in [0, 1], got {alpha}")
    return _moments_of(*_shape_data("equal", n, alpha), 1.0)[3]


def beta_lower_envelope(n: int, eta: float, lam_max: float) -> float:
    """Shape of the beta lower bound: min{1 + 1/(lam_max*eta), n^3 (lam_max*eta)^2}.

    The multiplying universal constant is not part of the value; calibrated
    extremes of beta_exact / envelope live in the calibration file.
    """
    check_even_n(n)
    alpha = eta * lam_max
    if alpha <= 0.0:
        raise ValueError("eta*lam_max must be positive (1/(eta*lam_max) appears)")
    if alpha > 1.0:
        raise ValueError(f"eta*lam_max must lie in (0, 1], got {alpha}")
    return min(1.0 + 1.0 / alpha, n**3 * alpha**2)


# ---------------------------------------------------------------------------
# the tail-product scalar and its expectations


def _coordinate_data(a_name: str, a, b_name: str, b) -> Tuple[np.ndarray, np.ndarray]:
    """One coordinate's (a_i, b_i) data as two float arrays: ValueError,
    naming the argument, unless both are nonempty, 1-D, finite and of equal
    length."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, values in ((a_name, a), (b_name, b)):
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"{name} must be a nonempty 1-D sequence, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    if a.shape != b.shape:
        raise ValueError(f"{a_name} and {b_name} must have equal length, "
                         f"got {a.size} and {b.size}")
    return a, b


def _keyup_data(alphas, betas) -> Tuple[np.ndarray, np.ndarray]:
    """The one domain of `keyup_quantity` and `expected_keyup_square`:
    alpha_i in [0,1], |beta_i| <= 1, sum beta_i = 0 (to 1e-12)."""
    alphas, betas = _coordinate_data("alphas", alphas, "betas", betas)
    if np.any(alphas < 0) or np.any(alphas > 1):
        raise ValueError("alphas must lie in [0, 1]")
    if np.any(np.abs(betas) > 1 + 1e-12):
        raise ValueError("betas must lie in [-1, 1]")
    if abs(float(np.sum(betas))) > 1e-12:
        raise ValueError("betas must sum to zero")
    return alphas, betas


def keyup_quantity(alphas, betas, perm) -> float:
    """sum_j beta_{perm(j)} * prod_{i>j} (1 - alpha_{perm(i)}), 0-based perm,
    on the data `_keyup_data` accepts.

    Reversing the permutation turns the suffix products into prefix products
    over the forward order (substitute j -> n-1-j).
    """
    alphas, betas = _keyup_data(alphas, betas)
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(len(alphas))):
        raise ValueError("perm is not a permutation of range(n)")
    _, q = _engine.tail_products(1.0 - alphas[perm], betas[perm])
    return float(q)


def _balanced_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct (a, b) rows of one coordinate's data, sorted: one row for
    constant data, or two that occur equally often.  Other data raise
    UnsupportedInstanceError."""
    pairs, counts = np.unique(np.stack([a, b], axis=1), axis=0, return_counts=True)
    if pairs.shape[0] > 2:
        raise UnsupportedInstanceError(
            "exact moments need <= 2 distinct (curvature, linear) pairs"
        )
    if counts[0] != counts[-1]:
        raise UnsupportedInstanceError(
            "exact moments need balanced counts of the two (a, b) pairs"
        )
    return pairs


def two_valued_tail_products(a, b, eta: float) -> np.ndarray:
    """Q of a uniform permutation of one coordinate's (a_i, b_i) data, as one
    value per equiprobable arrangement, exactly.

    Constant data has one arrangement (closed form).  Two distinct (a, b)
    pairs in equal counts reduce to a uniform balanced pattern, one row per
    `_pattern_matrix(n)` row, so n is capped at ENUMERATION_CAP.  Other data
    raise UnsupportedInstanceError.  P = prod_i (1 - eta a_i) is the same for
    every arrangement, so it is not returned.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    pairs = _balanced_pairs(a, b)
    if pairs.shape[0] == 1:
        s = 1.0 - eta * pairs[0, 0]
        return pairs[0, 1] * _engine._geometric_factor([s], n)
    labels = _pattern_matrix(n)
    # one gather per 1-D column: ~3x faster than pairs[labels, 0], same values
    a_pair, b_pair = pairs.T
    return _engine.tail_products(1.0 - eta * a_pair[labels], b_pair[labels])[1]


def _arrangement_scan(maps: np.ndarray, steps: np.ndarray, half: int) -> np.ndarray:
    """The expected final state of a linear recurrence driven by a uniform
    arrangement of `half` components of each of two types, by a scan over
    (position t, type-0 count u) instead of the C(2 half, half) arrangements.

    The state starts at (1, 0, ...), its first entry the probability weight.
    Appending a type-c component in state (t, u) applies the map
    sum_p T^p maps[c, p], where T = u*steps[0] + (t-u)*steps[1] sums `steps`
    over the components placed so far, and weights it by the probability
    that the next component is of type c: (half-u)/(n-t) for type 0,
    (half-t+u)/(n-t) for type 1.  Every u's state is one column of an
    (m, half+1) array, so one matmul per position applies every map.
    """
    n = 2 * half
    u = np.arange(half + 1.0)
    offsets = u * (steps[0] - steps[1])
    zeros_left = half - u[:-1]  # type-0 components left in the states that can take one
    # coef[c] is [maps[c, 0] | maps[c, 1] | ...], applied to the stacked T^p * state
    coef = np.concatenate(list(np.moveaxis(maps, 1, 0)), axis=-1)
    state = np.zeros((maps.shape[-1], half + 1))
    state[0, 0] = 1.0
    for t in range(n):
        partial = offsets + t * steps[1]
        powers = [state]
        for _ in range(1, maps.shape[1]):
            powers.append(powers[-1] * partial)
        moved = coef @ np.concatenate(powers)
        state = moved[1]
        state *= (half - t) + u  # type-1 components left
        state[:, 1:] += moved[0, :, :-1] * zeros_left
        state /= n - t
    return state[:, half]


def _centred_q_maps(factors: np.ndarray) -> np.ndarray:
    """The `_arrangement_scan` maps of the centred state (w, E[R 1], E[R^2 1]).

    R = Q - T measures the tail product Q against the partial sum T of the
    linear terms.  Appending a factor f with linear term b gives Q' = fQ + b
    and T' = T + b, so R' = fR + (f-1)T, and
      R'^2 = f^2 R^2 + 2f(f-1) T R + (f-1)^2 T^2,
    a map of degree 2 in T.  R is O(eta) while Q and T grow with n, so the
    second moment keeps its relative precision: against a 60-digit reference
    the centred scan stays within 5.5e-16 for n <= 100 and 5.4e-15 at
    n = 500, where the uncentred (w, E[Q 1], E[Q^2 1]) state loses 3.6e-12
    at n = 16 and 6.5e-13 at n = 100 (eta*lam_max = 0.001).
    """
    g = factors - 1.0
    maps = np.zeros((2, 3, 3, 3))
    maps[:, 0, 0, 0] = 1.0
    maps[:, 0, 1, 1] = factors
    maps[:, 0, 2, 2] = factors * factors
    maps[:, 1, 1, 0] = g
    maps[:, 1, 2, 1] = 2.0 * factors * g
    maps[:, 2, 2, 0] = g * g
    return maps


def _moments_of(a, b, eta: float) -> Tuple[float, ...]:
    """(E[P], E[P^2], E[Q], E[Q^2], E[PQ]) of one coordinate's data, exactly.

    P is one product for every arrangement, so only Q and Q^2 are averaged,
    by `_arrangement_scan` on the centred state of `_centred_q_maps`, with
    the sum of the linear terms added back at the end;
    E[P^2] = P^2 and E[PQ] = P E[Q].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    prod = float(np.prod(1.0 - eta * a))
    pairs = _balanced_pairs(a, b)
    if pairs.shape[0] == 1:  # one arrangement: Q is the closed form
        e_q = float(pairs[0, 1] * _engine._geometric_factor(1.0 - eta * pairs[0, 0], a.shape[0]))
        return prod, prod * prod, e_q, e_q * e_q, prod * e_q
    half = a.shape[0] // 2
    steps = pairs[:, 1]
    w, r1, r2 = _arrangement_scan(_centred_q_maps(1.0 - eta * pairs[:, 0]), steps, half)
    total = half * (steps[0] + steps[1])
    e_q = float(r1 + total * w)
    return prod, prod * prod, e_q, float(r2 + total * (2.0 * r1 + total * w)), prod * e_q


def expected_keyup_square(alphas, betas) -> float:
    """E over uniform permutations of keyup_quantity^2, exact, for data in
    `keyup_quantity`'s domain that is also two-valued and balanced (see
    `_moments_of`), at any n."""
    return _moments_of(*_keyup_data(alphas, betas), 1.0)[3]


def perm_moment_formula(m: int, n: int) -> float:
    """E[(1 - 2 s_0) * prod_{i=1..m} s_i] = C(n/2-1, m-1) / (2 C(n-1, m))."""
    return float(perm_moment_fraction(m, n))


def perm_moment_fraction(m: int, n: int) -> Fraction:
    check_even_n(n)
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must lie in 1..n-1, got m={m}, n={n}")
    return Fraction(math.comb(n // 2 - 1, m - 1), 2 * math.comb(n - 1, m))


def perm_moment_enumeration(m: int, n: int) -> Fraction:
    """The same moment by exhaustive balanced-pattern enumeration, exact."""
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


def sum_prod_expectation_exact(n: int, eta: float, lam_max: float) -> float:
    """E[sum_i (1-2s_i) prod_{j>i} (1 - eta*lam_max*s_j)], exact, at any even n:
    E[Q] of the "half-zero" layout at alpha = eta*lam_max.

    For eta <= 1/(lam_max n) the value is certified against the proven ceiling
    -eta*lam_max*n/8 (tripwire; the value is exact so it cannot fire).
    """
    _engine.check_eta(eta)
    if lam_max < 0:
        raise ValueError("lam_max must be nonnegative")
    if eta * lam_max > 1:
        raise ValueError("need 0 <= eta*lam_max <= 1")
    value = _moments_of(*_shape_data("half-zero", n, eta * lam_max), 1.0)[2]
    if lam_max > 0 and eta * lam_max * n <= 1.0 + 1e-12:
        assert value <= sum_prod_ceiling(n, eta, lam_max) + 1e-12
    return value


def stochastic_terms_exact(n: int, eta: float, lam_max: float) -> float:
    """E[prod_i (1 - eta*lam_max*s_i) * sum_i (1-2s_i) prod_{j>i} (...)], exact:
    E[PQ] of the "half-zero" layout at alpha = eta*lam_max.

    Only claimed (and only accepted) for eta <= 1/(lam_max n), where it is
    certified against the ceiling -eta*lam_max*n/16.
    """
    _engine.check_eta(eta)
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    if eta * lam_max * n > 1.0 + 1e-12:
        raise ValueError(
            f"stochastic_terms_exact requires eta <= 1/(lam_max*n), got eta={eta}"
        )
    value = _moments_of(*_shape_data("half-zero", n, eta * lam_max), 1.0)[4]
    assert value <= stochastic_terms_ceiling(n, eta, lam_max) + 1e-12
    return value


# ---------------------------------------------------------------------------
# per-epoch moments and analytic expected losses


def _variance_negative(second, mean) -> bool:
    """True where E[X^2] < E[X]^2 beyond rounding; the slack scales with the
    squared mean being compared."""
    return bool(np.any(second < mean**2 - 1e-12 * np.maximum(1.0, mean**2)))


@dataclass(frozen=True)
class PermutationMoments:
    """Moments of (P, Q) under a uniform permutation: scalars for one
    coordinate, or (d,) arrays with one entry per coordinate."""

    e_p: float
    e_p2: float
    e_q: float
    e_q2: float
    e_pq: float

    def __post_init__(self):
        if _variance_negative(self.e_p2, self.e_p):
            raise ValueError("E[P^2] below E[P]^2: variance would be negative")
        if _variance_negative(self.e_q2, self.e_q):
            raise ValueError("E[Q^2] below E[Q]^2: variance would be negative")


def permutation_moments(curvatures, linears, eta: float) -> PermutationMoments:
    """Five exact moments of (P, Q) for one coordinate's (a_i, b_i) data.

    Needs nonempty, finite 1-D data of equal length (ValueError naming the
    argument otherwise) with at most two distinct (a, b) pairs in balanced
    counts (see `_moments_of`); any n.
    """
    _engine.check_eta(eta)
    a, b = _coordinate_data("curvatures", curvatures, "linears", linears)
    return PermutationMoments(*_moments_of(a, b, eta))


def _coordinate_moments(p: Problem, eta: float) -> PermutationMoments:
    """The moment table: every coordinate's moments, each field a (d,) array."""
    table = np.array([_moments_of(a, b, eta)
                      for a, b in zip(p.curvature_matrix.T, p.linear_matrix.T)])
    return PermutationMoments(*table.T)


def _expected_moments(p: Problem, eta: float, k: int, x0,
                      single: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Per-coordinate (E[x_k], E[x_k^2]) in the diagonal frame, exactly.

    One epoch maps x -> S x + eta Q with S = prod_i (1 - eta a_i) the same for
    every permutation, so with g(s) = (1 - s^k)/(1 - s):
      E[x_k]   = S^k y0 + eta g(S) E[Q]                     (both schemes)
      E[x_k^2] = E[x_k]^2 + eta^2 Var[Q] * g(S)^2   under single shuffling,
                                         * g(S^2)   under random reshuffling.
    Single shuffling reuses one Q every epoch, so its noise adds coherently;
    random reshuffling draws a fresh Q each epoch, so only the variances add.
    """
    _engine.check_eta(eta)
    if not is_integer(k) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    y0 = _to_diag_frame(p, x0)
    with _engine._divergence_guard([p], eta):
        m = _coordinate_moments(p, eta)
        s = m.e_p
        g = _engine._geometric_factor(s, k)
        mean = s**k * y0 + eta * g * m.e_q
        spread = g**2 if single else _engine._geometric_factor(s**2, k)
        return mean, mean**2 + eta**2 * (m.e_q2 - m.e_q**2) * spread


def _loss_from_moments(p: Problem, mean: np.ndarray, second: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):  # 0 * inf: `_expected_moments` reports divergence
        return float(np.sum(0.5 * p.mean_curvature * second - p.mean_linear * mean))


def expected_loss_rr_analytic(p: Problem, eta: float, k: int, x0) -> float:
    """Exact E[F(x_k)] under random reshuffling: a fresh permutation each
    epoch, so the per-epoch noise variances add (see `_expected_moments`)."""
    return _loss_from_moments(p, *_expected_moments(p, eta, k, x0, single=False))


def expected_loss_ss_exact(p: Problem, eta: float, k: int, x0) -> float:
    """Exact E[F(x_k)] under single shuffling: one permutation for every
    epoch, so the noise adds coherently (see `_expected_moments`)."""
    return _loss_from_moments(p, *_expected_moments(p, eta, k, x0, single=True))


def derive_run_seed(master_seed: int, index: int) -> int:
    """`engine.derive_seed` of master_seed with spawn key (index,)."""
    return _engine.derive_seed(master_seed, (index,))


def mc_expected_loss(p: Problem, scheme: "_engine.Scheme", eta: float, k: int, x0,
                     runs: int, seed: int = 0) -> Tuple[float, float]:
    """Monte Carlo estimate of E[F(x_k)]: (mean, standard error of the mean).

    Run r is seeded with `derive_run_seed(seed, r)`, all runs' seeds in one
    `engine.derive_seeds` call; `engine.final_losses` runs them batched,
    each run on its own stream, so every loss equals that run's
    `run_sgd_closed_form` final loss bit for bit.
    """
    if not is_integer(runs) or runs < 2:
        raise ValueError(f"runs must be an integer >= 2 for a standard error, got {runs!r}")
    seeds = _engine.derive_seeds(seed, np.arange(runs)[:, None])
    losses = _engine.final_losses([p], scheme, eta, k, [x0], seeds)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf losses: final_losses reports them
        return float(np.mean(losses)), float(np.std(losses, ddof=1) / math.sqrt(runs))


@dataclass(frozen=True)
class OracleRow:
    """One `oracle --out` row; MC fields stay empty for exact runs."""

    quantity: str
    n: int
    eta_lambda_max: float
    exact: Optional[float] = None
    mc_mean: Optional[float] = None
    mc_se: Optional[float] = None
