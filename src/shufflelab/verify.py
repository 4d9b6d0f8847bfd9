"""Self-check suites behind the `verify` command.

Each check recomputes a quantity along two independent routes (enumeration
vs formula, explicit steps vs closed form, rotated vs diagonal frame, exact
sweep vs stored calibration) and reports measured values with its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import analysis, calibrate, engine, model


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# lemmas


def _check_perm_moment_identity() -> CheckResult:
    worst = 0.0
    exact_ok = True
    for n in range(2, 13, 2):
        for m in range(1, n):
            enum = analysis.perm_moment_enumeration(m, n)
            if analysis.perm_moment_fraction(m, n) != enum:
                exact_ok = False
            got = analysis.perm_moment_formula(m, n)
            ref = float(enum)
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return _result(
        "perm-moment formula == enumeration (n=2..12, all m)",
        exact_ok and worst <= 1e-12,
        f"exact rational match={exact_ok}, worst float deviation={worst:.3g}",
    )


def _check_alternating_sum_bounds() -> CheckResult:
    worst_margin = -math.inf
    ok = True
    for n in range(2, 13, 2):
        for frac in (0.1, 0.5, 1.0):
            eta = frac / n  # lam_max = 1
            v_sum = analysis.sum_prod_expectation_exact(n, eta, 1.0)
            v_st = analysis.stochastic_terms_exact(n, eta, 1.0)
            m1 = v_sum - analysis.sum_prod_ceiling(n, eta, 1.0)
            m2 = v_st - analysis.stochastic_terms_ceiling(n, eta, 1.0)
            worst_margin = max(worst_margin, m1, m2)
            ok = ok and m1 <= 1e-12 and m2 <= 1e-12
    return _result(
        "alternating-sum expectation ceilings (-n*eta*lmax/8 and /16)",
        ok,
        f"worst signed margin above ceiling={worst_margin:.3g}",
    )


def _check_beta_exchangeability() -> CheckResult:
    worst = 0.0
    for n in (4, 8, 12):
        for alpha in (0.05, 0.3, 0.9):
            asc = analysis.beta_exact(n, alpha, 1.0)
            signs = 2.0 * analysis._pattern_matrix(n) - 1.0
            weights = (1.0 - alpha) ** (n - 1 - np.arange(n))
            desc = float(np.mean((signs @ weights) ** 2))
            worst = max(worst, abs(asc - desc) / max(asc, 1e-30))
    return _result(
        "beta invariant under index reversal (exchangeability)",
        worst <= 1e-12,
        f"worst relative gap={worst:.3g}",
    )


def _check_keyup_telescoping() -> CheckResult:
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 12))
        betas = rng.uniform(-1, 1, size=n)
        betas -= betas.mean()
        betas /= max(1.0, np.max(np.abs(betas)))
        perm = engine.sample_permutation(n, rng)
        worst = max(worst, abs(analysis.keyup_quantity(np.zeros(n), betas, perm)))
    return _result(
        "keyup with zero alphas telescopes to zero",
        worst <= 1e-12,
        f"worst |value|={worst:.3g}",
    )


def _check_keyup_matches_enumeration() -> CheckResult:
    """The scan behind `expected_keyup_square` against the mean square of
    `two_valued_tail_products`, on both constructions' column shapes."""
    worst = 0.0
    for n in (4, 16):
        for alpha in (0.01, 0.1, 0.5):
            for shape in ("equal", "half-zero"):
                alphas, betas = analysis._shape_data(shape, n, alpha)
                e_sq = analysis.expected_keyup_square(alphas, betas)
                ref = float(np.mean(analysis.two_valued_tail_products(alphas, betas, 1.0) ** 2))
                worst = max(worst, abs(e_sq - ref) / ref)
    return _result(
        "E[keyup^2] by the scan == enumeration (equal and half-zero alphas), n=4 and 16",
        worst <= 1e-12,
        f"worst relative gap={worst:.3g}",
    )


def lemmas_suite() -> List[CheckResult]:
    return [
        _check_perm_moment_identity(),
        _check_alternating_sum_bounds(),
        _check_beta_exchangeability(),
        _check_keyup_telescoping(),
        _check_keyup_matches_enumeration(),
    ]


# ---------------------------------------------------------------------------
# closed form vs explicit steps


def random_problem(rng: np.random.Generator, max_n: int = 8, max_d: int = 3):
    """A small random commuting-quadratic instance for equivalence suites.

    Curvatures are 0 or at least 0.2 so epoch contractions stay safely away
    from 1 and the geometric closed form is well conditioned.
    """
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    curv = np.where(rng.random((n, d)) < 0.25, 0.0, rng.uniform(0.2, 2.0, (n, d)))
    for j in range(d):  # keep every mean curvature positive
        if np.all(curv[:, j] == 0.0):
            curv[int(rng.integers(0, n)), j] = rng.uniform(0.2, 2.0)
    lin = rng.uniform(-1.0, 1.0, (n, d))
    mean_curv = curv.mean(axis=0)
    p = model.Problem(
        curvature_matrix=curv, linear_matrix=lin, lam=float(np.min(mean_curv)),
        lam_max=float(np.max(mean_curv)), smooth_l=float(np.max(curv)),
        grad_bound=1.0,
    )
    if d > 1 and rng.random() < 0.3:
        p = model.conjugate(p, random_rotation(d, rng))
    return p


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def trajectory_discrepancy(a: engine.Trajectory, b: engine.Trajectory) -> float:
    """max over epochs/coordinates of |a-b| / (1 + max(|a|, |b|))."""
    scale = 1.0 + np.maximum(np.abs(a.points), np.abs(b.points))
    return float(np.max(np.abs(a.points - b.points) / scale))


def _check_seeding() -> CheckResult:
    """The vectorized seeding and draws against numpy: `derive_seeds` against
    `SeedSequence`, a block's PCG64 outputs against `random_raw` and its
    bounded draws against `Generator.integers` at a bound that rejects about
    half its words, a run's raw-word draws against successive
    `Generator.integers` calls, and batched final losses against per-run
    `default_rng` runs."""
    keys = [(r % 3, r << (r % 48)) for r in range(256)]  # 1- and 2-word elements
    got = engine.derive_seeds(2**32 + 5, keys)
    want = [int(np.random.SeedSequence(2**32 + 5, spawn_key=key)
                .generate_state(1, np.uint64)[0]) for key in keys]
    seed_misses = sum(a != b for a, b in zip(got, want))
    seeds = [r << 27 | r for r in range(64)]  # both sides of 2**32
    block = np.array(seeds, dtype=np.uint64)
    raw = engine._pcg64_outputs(engine._seed_states(block[:, None], [], 4), 16)
    draws = engine._block_draws(block, np.full(4, 2**31 + 1))
    draw_misses = 0
    for seed, raw_row, draw_row in zip(seeds, raw, draws):
        draw_misses += int(np.any(raw_row != np.random.default_rng(seed)
                                  .bit_generator.random_raw(16)))
        draw_misses += int(np.any(draw_row != np.random.default_rng(seed)
                                  .integers(0, 2**31 + 1, size=4)))
    # odd word counts carry a high half into the next call; the bound
    # 2**31 + 1 rejects about half its words, so numpy makes that call
    calls = [(np.arange(10, 1, -1), 3), (np.full(3, 2**31 + 1), 1), (np.full(10, 10), 5)]
    streamed, stream_misses = seeds[:16], 0
    for seed in streamed:
        stream, rng = engine._Stream(seed), np.random.default_rng(seed)
        for bounds, rows in calls:
            want = rng.integers(0, np.tile(bounds, (rows, 1)))
            stream_misses += int(np.any(stream.integers(bounds, rows) != want))
    n, k = 10, 5
    p = model.build_rr_construction(n, 1.0, 1.0, 4.0)
    x0, eta = [1.0, 0.5, -0.5], engine.recommended_eta(n, k, 1.0)
    loss_misses = 0
    for scheme in engine.Scheme:
        batched = engine.final_losses([p], scheme, eta, k, [x0], seeds)[0]
        per_run = [engine.run_sgd_closed_form(p, engine.RunConfig(scheme, eta, k, x0, s))
                   .final_loss for s in seeds]
        loss_misses += int(np.sum(batched != np.array(per_run)))
    return _result(
        "vectorized seeding and draws == numpy SeedSequence and default_rng",
        seed_misses == 0 and draw_misses == 0 and stream_misses == 0 and loss_misses == 0,
        f"derive_seeds mismatches={seed_misses}/{len(keys)}, "
        f"raw/draw mismatches={draw_misses}/{2 * len(seeds)}, "
        f"stream mismatches={stream_misses}/{len(calls) * len(streamed)}, "
        f"final_losses mismatches={loss_misses}/{3 * len(seeds)}",
    )


def closed_form_suite() -> List[CheckResult]:
    cases, rng = 1000, np.random.default_rng(11)
    worst = 0.0
    worst_loss = 0.0
    for _ in range(cases):
        p = random_problem(rng)
        eta = rng.uniform(0.1, 1.0) / p.smooth_l
        k = int(rng.integers(1, 6))
        scheme = list(engine.Scheme)[int(rng.integers(0, 3))]
        x0 = rng.uniform(-2.0, 2.0, size=p.dim)
        cfg = engine.RunConfig(scheme=scheme, eta=eta, epochs=k, x0=x0,
                               seed=int(rng.integers(0, 2**63)))
        t_step = engine.run_sgd(p, cfg)
        t_map = engine.run_sgd_closed_form(p, cfg)
        worst = max(worst, trajectory_discrepancy(t_step, t_map))
        loss_scale = 1.0 + np.maximum(np.abs(t_step.losses), np.abs(t_map.losses))
        worst_loss = max(worst_loss, float(np.max(np.abs(t_step.losses - t_map.losses) / loss_scale)))
    return [
        _result(
            f"closed form == explicit steps on {cases} random instances",
            worst <= 1e-10 and worst_loss <= 1e-10,
            f"worst point discrepancy={worst:.3g}, worst loss discrepancy={worst_loss:.3g}",
        ),
        _check_seeding(),
    ]


# ---------------------------------------------------------------------------
# conjugation equivariance


def conjugation_suite() -> List[CheckResult]:
    rotations, rng = 100, np.random.default_rng(5)
    n, k = 6, 3
    worst_pt = 0.0
    worst_loss = 0.0
    problems = [build(n, 1.0, 1.0, 4.0)
                for build in (model.build_ss_construction, model.build_rr_construction)]
    for i in range(rotations):
        for p in problems:
            O = random_rotation(p.dim, rng)
            pc = model.conjugate(p, O)
            x0 = rng.uniform(-1.0, 1.0, size=p.dim)
            scheme = list(engine.Scheme)[i % 3]
            run_seed = int(rng.integers(0, 2**63))
            eta = rng.uniform(0.05, 0.2)
            base = engine.run_sgd(
                p, engine.RunConfig(scheme=scheme, eta=eta, epochs=k, x0=x0, seed=run_seed)
            )
            rot = engine.run_sgd(
                pc, engine.RunConfig(scheme=scheme, eta=eta, epochs=k, x0=O @ x0, seed=run_seed)
            )
            for t in range(k):
                target = O @ base.points[t]
                err = float(np.linalg.norm(rot.points[t] - target))
                worst_pt = max(worst_pt, err / (1.0 + float(np.linalg.norm(base.points[t]))))
            scale = 1.0 + np.maximum(np.abs(base.losses), np.abs(rot.losses))
            worst_loss = max(worst_loss, float(np.max(np.abs(base.losses - rot.losses) / scale)))
    return [
        _result(
            f"rotated runs track O x_t over {rotations} rotations x 2 constructions",
            worst_pt <= 1e-9 and worst_loss <= 1e-10,
            f"worst scaled point error={worst_pt:.3g}, worst loss gap={worst_loss:.3g}",
        )
    ]


# ---------------------------------------------------------------------------
# envelopes vs calibration file


def envelopes_suite(calibration_path: Optional[str] = None) -> List[CheckResult]:
    measured = calibrate.measure_constants()
    try:
        stored = calibrate.load_calibration(calibration_path)
    except FileNotFoundError:
        stored = None
    results = []
    lo = measured["beta_envelope_c_lo"]["value"]
    hi = measured["beta_envelope_c_hi"]["value"]
    results.append(
        _result(
            "beta/envelope ratio positive and finite over the grid",
            0.0 < lo <= hi < math.inf,
            f"measured c_lo={lo:.6g}, c_hi={hi:.6g}",
        )
    )
    if stored is None:
        results.append(_result("calibration file present", False, "no calibration file found"))
        return results
    worst = 0.0
    for name, rec in measured.items():
        ref = stored.get(name, {}).get("value")
        if ref is None:
            worst = math.inf
            continue
        worst = max(worst, abs(rec["value"] - ref) / max(abs(ref), 1e-30))
    results.append(
        _result(
            "stored calibration matches a fresh enumeration sweep",
            worst <= 1e-9,
            f"worst relative drift={worst:.3g}",
        )
    )
    for name in ("keyup_sq_c", "rv_abs_c1", "rv_sq_c2", "rv_sq_c3"):
        v = measured[name]["value"]
        results.append(
            _result(f"{name} measured on grid is finite", 0.0 < v < math.inf, f"value={v:.6g}")
        )
    return results


# each suite by name, in `run_suite("all")`'s order; only envelopes reads the calibration path
_SUITES = {
    "lemmas": lambda calibration_path: lemmas_suite(),
    "closed-form": lambda calibration_path: closed_form_suite(),
    "conjugation": lambda calibration_path: conjugation_suite(),
    "envelopes": envelopes_suite,
}
SUITES = tuple(_SUITES)


def run_suite(suite: str, calibration_path: Optional[str] = None) -> List[CheckResult]:
    """The checks of the suite named `suite`, or of every suite in `SUITES`'
    order for "all"; ValueError naming the choices for any other name."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    names = SUITES if suite == "all" else (suite,)
    return [check for name in names for check in _SUITES[name](calibration_path)]
