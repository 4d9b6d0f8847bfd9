"""Worst-case rate calculators for the three sampling schemes.

All constants default to 1 and are shape-only: experiment overlays fit them
to data and report the fit, never presenting a fitted value as universal.
Logs are natural; hidden polylog and dimension factors are explicit knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model

# failure probability of the explicit high-probability forms
DEFAULT_DELTA = 0.05


@dataclass(frozen=True)
class BoundSpec:
    """A rate curve at its default constants (shape only), named by its id in `_RATES`."""

    theorem_id: str

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(f"theorem_id must be one of {THEOREM_IDS}")

    def evaluate(self, n: int, k: int, G: float, lam: float, lam_max: float) -> float:
        return _RATES[self.theorem_id](n, k, G, lam, lam_max)


def _check_positive(**kwargs):
    for name, v in kwargs.items():
        if model._check_finite(name, v) <= 0:
            raise ValueError(f"{name} must be positive, got {v}")


def ss_lower(n: int, k: int, G: float, lam: float, lam_max: float,
             c: float = 1.0) -> float:
    """c * G^2/(lam n k) * min{1, (lam_max/lam)/k}."""
    _check_positive(n=n, k=k, G=G, lam=lam, lam_max=lam_max, c=c)
    if n <= 1:
        raise ValueError("n must exceed 1")
    return c * G**2 / (lam * n * k) * min(1.0, (lam_max / lam) / k)


def rr_lower(n: int, k: int, G: float, lam: float, lam_max: float,
             c: float = 1.0) -> float:
    """c * G^2/(lam n k) * min{1, (lam_max/lam)/(nk) + (lam_max/lam)^2/k^2}."""
    _check_positive(n=n, k=k, G=G, lam=lam, lam_max=lam_max, c=c)
    if n <= 1:
        raise ValueError("n must exceed 1")
    kappa = lam_max / lam
    return c * G**2 / (lam * n * k) * min(1.0, kappa / (n * k) + kappa**2 / k**2)


def ss_upper(n: int, k: int, G: float, lam: float, lam_max: float,
             c_log: float = 1.0, d: int = 1) -> float:
    """Same min-structure as ss_lower; c_log carries the hidden polylog
    factors and d the linear dimension factor."""
    _check_positive(d=d)
    return d * ss_lower(n, k, G, lam, lam_max, c_log)


def rr_upper(n: int, k: int, G: float, lam: float, lam_max: float,
             c_log: float = 1.0, d: int = 1) -> float:
    _check_positive(d=d)
    return d * rr_lower(n, k, G, lam, lam_max, c_log)


def ss_upper_high_prob(n: int, k: int, G: float, lam: float, a_bar: float,
                       delta: float = DEFAULT_DELTA, c: float = 1.0) -> float:
    """Explicit high-probability form:
    c * log^2(8n/delta) * log^2(nk) * G^2/(lam n k) * min{1, (a_bar/lam)/k}."""
    _check_positive(n=n, k=k, G=G, lam=lam, a_bar=a_bar, c=c)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n * k <= 1:
        raise ValueError("n*k must exceed 1")
    polylog = math.log(8 * n / delta) ** 2 * math.log(n * k) ** 2
    return c * polylog * G**2 / (lam * n * k) * min(1.0, (a_bar / lam) / k)


def wr_baseline(n: int, k: int, G: float, lam: float, c: float = 1.0) -> float:
    """c * G^2 / (lam n k), the with-replacement reference rate."""
    _check_positive(n=n, k=k, G=G, lam=lam, c=c)
    return c * G**2 / (lam * n * k)


# each theorem's rate curve as a function of (n, k, G, lam, lam_max)
_RATES = {
    "SS-LOWER": ss_lower,
    "RR-LOWER": rr_lower,
    "SS-UPPER": ss_upper,
    "RR-UPPER": rr_upper,
    "WR-BASELINE": lambda n, k, G, lam, lam_max: wr_baseline(n, k, G, lam),
}
THEOREM_IDS = tuple(_RATES)


def crossover_epoch(lam: float, lam_max: float) -> float:
    """Epoch count lam_max/lam below which neither without-replacement scheme
    can improve on the with-replacement rate by more than constants."""
    _check_positive(lam=lam, lam_max=lam_max)
    return lam_max / lam
