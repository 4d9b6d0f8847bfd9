"""Quadratic finite-sum problems with commuting (diagonal) curvature.

Every component has the form f_i(x) = 1/2 sum_j a_{ij} x_j^2 - sum_j b_{ij} x_j
in a shared diagonal frame; an optional orthogonal matrix O conjugates the
whole problem (A_i -> O A_i O^T, b_i -> O b_i) without materializing dense
matrices.  Constant offsets are dropped throughout: they do not affect the
iterates, only the attained optimum value.

Sign convention: literal "+ (G/2) x" terms in the two lower-bound
constructions are stored as b = -G/2 (the minus-b parameterization above).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ORTHOGONALITY_TOL = 1e-12
INVARIANT_TOL = 1e-9


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _frozen_rows(curvatures, linear) -> tuple:
    """Frozen copies of curvature and linear data: equal 2-D shapes,
    nonnegative curvatures."""
    curvatures, linear = _frozen_array(curvatures), _frozen_array(linear)
    if curvatures.ndim != 2 or linear.ndim != 2:
        raise ValueError("curvature and linear data must be 2-D")
    if curvatures.shape != linear.shape:
        raise ValueError("curvature and linear data must have equal shapes")
    if np.any(curvatures < 0):
        raise ValueError("component curvatures must be nonnegative")
    return curvatures, linear


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Minimizer:
    point: np.ndarray
    value: float


@dataclass(frozen=True)
class Problem:
    """Immutable finite-sum quadratic F(x) = (1/n) sum_i f_i(x).

    Row i of the (n, dim) curvature_matrix and linear_matrix holds component
    i's a_i and b_i.  Metadata: lam / lam_max bracket the eigenvalues of the
    mean curvature matrix A, smooth_l bounds every per-component curvature,
    grad_bound is the G of the gradient conditions.  `conjugation` (if
    present) is the orthogonal O defining the rotated problem; data stays
    diagonal.
    """

    curvature_matrix: np.ndarray
    linear_matrix: np.ndarray
    lam: float
    lam_max: float
    smooth_l: float
    grad_bound: float
    conjugation: Optional[np.ndarray] = None
    # column means, computed once in __post_init__
    mean_curvature: np.ndarray = field(init=False, repr=False, compare=False)
    mean_linear: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cm, lm = _frozen_rows(self.curvature_matrix, self.linear_matrix)
        object.__setattr__(self, "curvature_matrix", cm)
        object.__setattr__(self, "linear_matrix", lm)
        if self.n <= 1:
            raise ValueError("a finite-sum problem needs n > 1 components")
        for name in ("lam", "lam_max", "smooth_l", "grad_bound"):
            _check_finite(name, getattr(self, name))
        if not (self.lam > 0 and self.lam_max > 0 and self.smooth_l > 0):
            raise ValueError("lam, lam_max and smooth_l must be positive")
        if self.grad_bound < 0:
            raise ValueError("grad_bound must be nonnegative")
        if self.conjugation is not None:
            o = np.array(self.conjugation, dtype=np.float64)
            if o.shape != (self.dim, self.dim):
                raise ValueError("conjugation must be dim x dim")
            if not _is_orthogonal(o):
                raise ValueError("conjugation matrix is not orthogonal")
            o.flags.writeable = False
            object.__setattr__(self, "conjugation", o)
        for name, matrix in (("mean_curvature", cm), ("mean_linear", lm)):
            mean = matrix.mean(axis=0)
            mean.flags.writeable = False
            object.__setattr__(self, name, mean)
        self._check_invariants()

    def _check_invariants(self):
        # strong convexity per coordinate; a completely flat coordinate is
        # tolerated only when its linear terms balance out, otherwise the
        # objective has no minimizer
        mean_curv = self.mean_curvature
        mean_lin = self.mean_linear
        for j in range(self.dim):
            if mean_curv[j] >= self.lam - INVARIANT_TOL:
                continue
            if mean_curv[j] == 0.0 and abs(mean_lin[j]) <= INVARIANT_TOL:
                continue
            raise ValueError(
                f"mean curvature {mean_curv[j]!r} of coordinate {j} is below "
                f"lam={self.lam!r} (and the coordinate is not flat-balanced)"
            )
        if np.max(mean_curv) > self.lam_max + INVARIANT_TOL:
            raise ValueError("mean curvature exceeds lam_max")
        if np.max(self.curvature_matrix) > self.smooth_l + INVARIANT_TOL:
            raise ValueError("a component curvature exceeds smooth_l")

    @property
    def n(self) -> int:
        return self.curvature_matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.curvature_matrix.shape[1]

    def minimizer(self) -> Minimizer:
        """Global minimizer x* = A^{-1} b, mapped out of the diagonal frame."""
        a_bar = self.mean_curvature
        b_bar = self.mean_linear
        point = np.where(a_bar > 0, b_bar / np.where(a_bar > 0, a_bar, 1.0), 0.0)
        if self.conjugation is not None:
            point = self.conjugation @ point
        value = objective(self, point)
        return Minimizer(point=_frozen_array(point), value=value)

    def to_json_dict(self) -> dict:
        doc = {
            "n": self.n,
            "dim": self.dim,
            "lambda": self.lam,
            "lambda_max": self.lam_max,
            "smooth_l": self.smooth_l,
            "grad_bound": self.grad_bound,
            "components": [
                {"curvatures": a.tolist(), "linear": b.tolist()}
                for a, b in zip(self.curvature_matrix, self.linear_matrix)
            ],
        }
        if self.conjugation is not None:
            doc["conjugation"] = self.conjugation.tolist()
        return doc


def _is_orthogonal(o: np.ndarray, tol: float = ORTHOGONALITY_TOL) -> bool:
    return bool(np.max(np.abs(o.T @ o - np.eye(o.shape[0]))) <= tol)


def problem_from_json_dict(doc: dict) -> Problem:
    """The `Problem` a JSON document describes; `Problem` checks the values."""
    rows = doc["components"]
    if len(rows) != doc["n"]:
        raise ValueError("component count does not match n")
    if any(np.shape(r[key]) != (doc["dim"],) for r in rows for key in ("curvatures", "linear")):
        raise ValueError("all components must have dimension dim")
    return Problem(
        curvature_matrix=[r["curvatures"] for r in rows],
        linear_matrix=[r["linear"] for r in rows],
        lam=doc["lambda"],
        lam_max=doc["lambda_max"],
        smooth_l=doc["smooth_l"],
        grad_bound=doc["grad_bound"],
        conjugation=doc.get("conjugation"),
    )


def problem_to_json(p: Problem) -> str:
    return json.dumps(p.to_json_dict())


def problem_from_json(text: str) -> Problem:
    return problem_from_json_dict(json.loads(text))


def _check_construction_args(n: int, G: float, lam: float, lam_max: float):
    if n <= 1 or n % 2 != 0:
        raise ValueError(f"n must be even and > 1, got {n}")
    for name, value in (("G", G), ("lam", lam), ("lam_max", lam_max)):
        _check_finite(name, value)
    if G < 0:
        raise ValueError("G must be nonnegative")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if lam_max < lam:
        raise ValueError(f"lam_max={lam_max} must be >= lam={lam}")


def _two_type_problem(n: int, G: float, lam: float, lam_max: float,
                      first: tuple, rest: tuple) -> Problem:
    """The first n/2 rows take (a, b) = `first`, the rest take (a', b') = `rest`."""
    _check_construction_args(n, G, lam, lam_max)
    rows = (first,) * (n // 2) + (rest,) * (n // 2)
    return Problem(
        curvature_matrix=[a for a, _ in rows],
        linear_matrix=[b for _, b in rows],
        lam=lam,
        lam_max=lam_max,
        smooth_l=lam_max,
        grad_bound=G,
    )


def build_ss_construction(n: int, G: float, lam: float, lam_max: float) -> Problem:
    """Two-dimensional single-shuffling worst case.

    Every component carries curvatures (lam, lam_max); the first n/2
    components add +(G/2) x_2 (stored b_2 = -G/2) and the rest subtract it,
    so the mean linear term vanishes, x* is the origin and F(x*) = 0.
    """
    return _two_type_problem(n, G, lam, lam_max,
                             ((lam, lam_max), (0.0, -G / 2.0)),
                             ((lam, lam_max), (0.0, G / 2.0)))


def build_rr_construction(n: int, G: float, lam: float, lam_max: float) -> Problem:
    """Three-dimensional random-reshuffling worst case.

    Coordinates 1 and 2 repeat the two-dimensional construction; coordinate 3
    has curvature lam_max on the first n/2 components and 0 on the rest, with
    a balanced +-(G/2) split of linear terms, so its mean curvature is
    lam_max/2 and F(x) = (lam/2)x1^2 + (lam_max/2)x2^2 + (lam_max/4)x3^2.
    Requires lam_max >= 2*lam, otherwise the mean curvature of coordinate 3
    drops below lam and F is no longer lam-strongly convex.
    """
    if lam_max < 2.0 * lam:
        raise ValueError(
            "the 3-d construction needs lam_max >= 2*lam for lam-strong convexity "
            f"(got lam={lam}, lam_max={lam_max})"
        )
    return _two_type_problem(n, G, lam, lam_max,
                             ((lam, lam_max, lam_max), (0.0, -G / 2.0, -G / 2.0)),
                             ((lam, lam_max, 0.0), (0.0, G / 2.0, G / 2.0)))


def build_rr_fig1_construction(n: int, G: float, lam: float, lam_max: float) -> Problem:
    """The 3-d construction restricted to its first and third coordinates.

    The dropped middle coordinate duplicates the 2-d construction's steep
    coordinate, so the reduced problem keeps the reshuffling-specific
    dynamics while staying visually distinct from the 2-d experiment.
    """
    return _two_type_problem(n, G, lam, lam_max,
                             ((lam, lam_max), (0.0, -G / 2.0)),
                             ((lam, 0.0), (0.0, G / 2.0)))


def _to_diag_frame(p: Problem, x) -> np.ndarray:
    """x as a float array of shape (dim,), mapped into the diagonal frame (O^T x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.dim,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.dim},)")
    return x if p.conjugation is None else p.conjugation.T @ x


def diagonal_objective(p: Problem, y: np.ndarray) -> np.ndarray:
    """F at diagonal-frame points: y holds one point per row (or is one point).

    `vecdot` takes each row's sums with the kernel of a 1-D `np.dot`, so
    every row rounds as a lone point does."""
    return 0.5 * np.vecdot(y * y, p.mean_curvature) - np.vecdot(y, p.mean_linear)


def objective(p: Problem, x) -> float:
    """F(x), evaluated through the diagonal frame when a conjugation is set."""
    return float(diagonal_objective(p, _to_diag_frame(p, x)))


def component_gradient(p: Problem, i: int, x) -> np.ndarray:
    """grad f_i(x); under conjugation O * grad ftilde_i(O^T x).  0-based i."""
    if not 0 <= i < p.n:
        raise ValueError(f"component index {i} out of range [0, {p.n})")
    y = _to_diag_frame(p, x)
    g = p.curvature_matrix[i] * y - p.linear_matrix[i]
    return g if p.conjugation is None else p.conjugation @ g


def gradient(p: Problem, x) -> np.ndarray:
    """grad F(x) = mean over components of grad f_i(x)."""
    y = _to_diag_frame(p, x)
    g = p.mean_curvature * y - p.mean_linear
    return g if p.conjugation is None else p.conjugation @ g


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    measured: float
    limit: float


@dataclass(frozen=True)
class AssumptionReport:
    clauses: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failed(self) -> list:
        return [c for c in self.clauses if not c.passed]

    def lines(self) -> list:
        out = []
        for c in self.clauses:
            status = "pass" if c.passed else "FAIL"
            out.append(f"{status}  {c.name}: measured={c.measured:.6g} limit={c.limit:.6g}")
        return out


def validate_assumptions(p: Problem, x0, k: int) -> AssumptionReport:
    """Check the problem-class clauses; reports, never raises.

    Clauses: curvatures lie in [lam, lam_max] U {0} and below smooth_l, the
    mean curvature stays in [lam, lam_max], ||grad F(x0)|| <= G, every
    ||grad f_i(x*)|| <= G, and log(nk) * L / (lam n k) <= 1.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    tol = 1e-9
    clauses = []

    cm = p.curvature_matrix
    nonzero = cm[cm > 0]
    range_dev = 0.0
    if nonzero.size:
        above = np.maximum(nonzero - p.lam_max, 0.0)
        below = np.maximum(p.lam - nonzero, 0.0)
        range_dev = float(np.max(above + below))
    clauses.append(
        Clause("component curvatures in [lam, lam_max] or zero", range_dev <= tol, range_dev, 0.0)
    )
    max_curv = float(np.max(cm))
    clauses.append(Clause("component curvature <= L", max_curv <= p.smooth_l + tol, max_curv, p.smooth_l))

    mean_curv = p.mean_curvature
    mn, mx = float(np.min(mean_curv)), float(np.max(mean_curv))
    clauses.append(Clause("mean curvature >= lam (strong convexity)", mn >= p.lam - tol, mn, p.lam))
    clauses.append(Clause("mean curvature <= lam_max (spectral norm)", mx <= p.lam_max + tol, mx, p.lam_max))

    g0 = float(np.linalg.norm(gradient(p, x0)))
    limit_g = p.grad_bound * (1.0 + 1e-12) + 1e-15
    clauses.append(Clause("||grad F(x0)|| <= G", g0 <= limit_g, g0, p.grad_bound))

    xstar = p.minimizer().point
    gstar = max(float(np.linalg.norm(component_gradient(p, i, xstar))) for i in range(p.n))
    clauses.append(Clause("max_i ||grad f_i(x*)|| <= G", gstar <= limit_g, gstar, p.grad_bound))

    nk = p.n * int(k)
    ratio = math.log(nk) * p.smooth_l / (p.lam * nk) if nk > 1 else math.inf
    clauses.append(Clause("log(nk) L / (lam n k) <= 1", ratio <= 1.0 + tol, ratio, 1.0))

    return AssumptionReport(clauses=tuple(clauses))


def conjugate(p: Problem, O) -> Problem:
    """Rotate the problem by orthogonal O (composing with any existing rotation).

    Metadata is unchanged: orthogonal maps are isometries, so eigenvalue and
    gradient-norm bounds carry over.
    """
    O = np.array(O, dtype=np.float64)
    if O.shape != (p.dim, p.dim):
        raise ValueError(f"O has shape {O.shape}, expected ({p.dim}, {p.dim})")
    if not _is_orthogonal(O):
        raise ValueError("O is not orthogonal to 1e-12")
    combined = O if p.conjugation is None else O @ p.conjugation
    return dataclasses.replace(p, conjugation=combined)


# Named initializations from the two analyses of the constructions.  No single
# default is blessed; callers pick explicitly.
X0_PRESETS = ("worst-case", "fig1")


def preset_x0(construction: str, preset: str, G: float, lam: float, lam_max: float) -> np.ndarray:
    """Initialization presets.

    "worst-case": (G/lam, 0, ...) -- saturates ||grad F(x0)|| = G.
    "fig1": (-G/(2 lam), -G/(2 lam_max)) -- the experiment initialization;
    for the "rr" construction this belongs to its 2-d reduced variant.
    """
    if preset == "worst-case":
        dim = 2 if construction == "ss" else 3
        x0 = np.zeros(dim)
        x0[0] = G / lam
        return x0
    if preset == "fig1":
        return np.array([-G / (2.0 * lam), -G / (2.0 * lam_max)])
    raise ValueError(f"unknown x0 preset {preset!r}; choose from {X0_PRESETS}")
