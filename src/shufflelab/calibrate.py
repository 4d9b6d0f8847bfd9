"""Envelope shapes with calibrated stand-in constants.

The envelope inequalities used here hold up to unspecified universal
constants.  This module measures stand-in constants empirically by exact
sweeps over a grid of small n (beta by the scan, E|Q| and E[Q^2] over every
arrangement of `analysis._shape_data`'s two layouts) and stores the extremes
in a calibration file; the values are always labeled as measured, never
claimed to be the universal ones.
"""

from __future__ import annotations

import datetime
import json
import math
import pathlib
from importlib import resources
from typing import Dict, Optional

import numpy as np

from . import analysis, bounds, model

CALIBRATION_RESOURCE = "data/calibration.json"

CALIBRATION_GRID_N = tuple(range(4, 17, 2))
CALIBRATION_GRID_ALPHA = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
_GRID_DESCRIPTION = (
    "n in {4,6,...,16}; eta*lam_max in {0.01,0.05,0.1,0.25,0.5,1.0}; "
    "balanced two-valued data shapes (equal-curvature and half-zero-curvature)"
)


def keyup_square_envelope(n: int, alpha_bar: float) -> float:
    """log^2(8n/delta) * min{1/alpha_bar, n^3 alpha_bar^2} at
    delta = `bounds.DEFAULT_DELTA`."""
    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    return math.log(8 * n / bounds.DEFAULT_DELTA) ** 2 * min(1.0 / alpha_bar, n**3 * alpha_bar**2)


def rv_abs_envelope(n: int, alpha_bar: float) -> float:
    """Branchwise ceiling for E|Q|: 2 n a for n*a <= 1/2, else
    log(sqrt(2a) * 8 n^2) / sqrt(a)."""
    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    if n * alpha_bar <= 0.5:
        return 2.0 * n * alpha_bar
    return math.log(math.sqrt(2.0 * alpha_bar) * 8.0 * n**2) / math.sqrt(alpha_bar)


def rv_sq_envelope(n: int, alpha_bar: float) -> float:
    """Branchwise ceiling for E[Q^2]: log^2(8/(n a)) n^3 a^2 for n*a <= 1/2,
    else log^2(8 n^2 a^2) / a."""
    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    if n * alpha_bar <= 0.5:
        return math.log(8.0 / (n * alpha_bar)) ** 2 * n**3 * alpha_bar**2
    return math.log(8.0 * n**2 * alpha_bar**2) ** 2 / alpha_bar


def measure_constants() -> Dict[str, dict]:
    """Sweep the calibration grid and record every envelope ratio extreme."""
    beta_lo, beta_hi = math.inf, -math.inf
    keyup_hi = -math.inf
    c1_hi = c2_hi = c3_hi = -math.inf
    for n in CALIBRATION_GRID_N:
        for alpha in CALIBRATION_GRID_ALPHA:
            ratio = analysis.beta_exact(n, alpha, 1.0) / analysis.beta_lower_envelope(
                n, alpha, 1.0
            )
            beta_lo = min(beta_lo, ratio)
            beta_hi = max(beta_hi, ratio)
            for shape in ("equal", "half-zero"):
                alphas, betas = analysis._shape_data(shape, n, alpha)
                abar = float(np.mean(alphas))
                q = analysis.two_valued_tail_products(alphas, betas, 1.0)
                e_abs, e_sq = float(np.mean(np.abs(q))), float(np.mean(q * q))
                keyup_hi = max(keyup_hi, e_sq / keyup_square_envelope(n, abar))
                c1_hi = max(c1_hi, e_abs / rv_abs_envelope(n, abar))
                if n * abar <= 0.5:
                    c2_hi = max(c2_hi, e_sq / rv_sq_envelope(n, abar))
                else:
                    c3_hi = max(c3_hi, e_sq / rv_sq_envelope(n, abar))
    stamp = datetime.date.today().isoformat()

    def entry(value: float) -> dict:
        return {
            "value": value,
            "grid_description": _GRID_DESCRIPTION,
            "computed_at": stamp,
        }

    return {
        "beta_envelope_c_lo": entry(beta_lo),
        "beta_envelope_c_hi": entry(beta_hi),
        "keyup_sq_c": entry(keyup_hi),
        "rv_abs_c1": entry(c1_hi),
        "rv_sq_c2": entry(c2_hi),
        "rv_sq_c3": entry(c3_hi),
    }


def write_calibration(path) -> Dict[str, dict]:
    doc = measure_constants()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_calibration(path: Optional[str] = None) -> Dict[str, dict]:
    """Load a calibration file, by default the packaged one; ValueError naming
    the file unless it is an object of objects, each with a finite "value"."""
    where = resources.files(__package__) / CALIBRATION_RESOURCE if path is None else pathlib.Path(path)
    doc = json.loads(where.read_text())
    if not (isinstance(doc, dict) and all(isinstance(entry, dict) for entry in doc.values())):
        raise ValueError(f"calibration file {where} must be an object of objects")
    for name, entry in doc.items():
        model._check_finite(f"calibration file {where}: {name} value", entry.get("value"))
    return doc


def _main() -> int:
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else None
    if target is None:
        target = pathlib.Path(__file__).parent / CALIBRATION_RESOURCE
    doc = write_calibration(target)
    for name, rec in sorted(doc.items()):
        print(f"{name} = {rec['value']:.6g}")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
