"""The benchmark's three workloads: a timed unit of work and its correctness
gates.

A unit is what one user-visible call does: the `reproduce-fig1` CLI, one
paper-scale sweep, or the oracle suite.  Gates run outside the timed region
and count operations: an operation is one SGD run or one oracle/verify
check, and it fails if it raises, gives a non-finite loss or misses a gate.
A unit that raises counts as one failed operation and has no gates.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs as inp

# Acceptance criterion 3's tolerance for explicit steps vs closed form,
# measured as |a - b| / (1 + max(|a|, |b|)).
REFERENCE_TOL = 1e-10
# Criterion 6's gate on analytic vs Monte Carlo expected loss.
Z_LIMIT = 3.0
PERM_MOMENT_TOL = 1e-12
REFERENCE_SAMPLES = 4  # re-derived records per sweep
PAPER_REFERENCE_MAX_K = 100  # keeps the n=500 explicit-step runs short
FIG1_ARTIFACTS = frozenset(
    f"fig1_{c}{suffix}" for c in ("ss", "rr") for suffix in ("_records.csv", ".svg")
)


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class UnitResult:
    steps: int  # component-gradient steps simulated, sum of n*k over SGD runs
    losses_kept: int  # final losses the unit's outputs keep
    out: object  # what the gates inspect


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    unit: Callable  # (inputs, jobs, tmp_dir) -> UnitResult
    gate: Callable  # (inputs, UnitResult, Tally) -> None


def _sweep_runs(plan) -> int:
    return len(plan.k_values) * 3 * plan.seeds


def _sweep_steps(plan) -> int:
    return 3 * plan.seeds * plan.n * sum(plan.k_values)


def _loss_gap(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _reference_checks(sl, plan, problem, records, rng, tally, max_k=None) -> None:
    """Re-derive sampled records with the explicit-step reference run_sgd."""
    engine, experiments = sl.engine, sl.experiments
    pool = [r for r in records if max_k is None or r.k <= max_k]
    if not pool:
        tally.add(False, REFERENCE_SAMPLES)
        return
    p, x0 = problem
    for i in rng.choice(len(pool), size=REFERENCE_SAMPLES, replace=False):
        r = pool[int(i)]
        cfg = engine.RunConfig(
            scheme=engine.Scheme.from_tag(r.scheme), eta=plan.eta_for(r.k), epochs=r.k,
            x0=x0, seed=experiments.run_seed_for(plan, r.scheme, r.k, r.seed),
        )
        ref = engine.run_sgd(p, cfg).final_loss
        tally.add(_loss_gap(ref, r.final_loss) <= REFERENCE_TOL)


def _finite_records(records, expected: int, tally) -> None:
    for r in records:
        tally.add(math.isfinite(r.final_loss))
    if len(records) != expected:
        tally.add(False, abs(expected - len(records)))


# ---------------------------------------------------------------------------
# fig1-desk: the CLI path users run most


def _fig1_unit(inputs, jobs, tmp) -> UnitResult:
    out_dir = tempfile.mkdtemp(dir=tmp)
    argv = ["reproduce-fig1", "--scale", "desk", "--seed", str(inputs["seed"]),
            "--jobs", str(jobs), "--out-dir", out_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = inputs["package"].cli.main(argv)
    plans = inputs["plans"]
    return UnitResult(steps=sum(_sweep_steps(p) for p in plans),
                      losses_kept=sum(_sweep_runs(p) for p in plans),
                      out=(rc, out_dir))


def _fig1_gate(inputs, res: UnitResult, tally: Tally) -> None:
    sl = inputs["package"]
    rc, out_dir = res.out
    tally.add(rc == 0)
    tally.add(set(os.listdir(out_dir)) == FIG1_ARTIFACTS)
    rng = np.random.default_rng(inputs["seed"])
    for plan, problem in zip(inputs["plans"], inputs["problems"]):
        path = os.path.join(out_dir, f"fig1_{plan.construction}_records.csv")
        expected = _sweep_runs(plan)
        try:
            records = sl.experiments.read_records_csv(path)
        except (OSError, ValueError, IndexError):
            tally.add(False)
            continue
        _finite_records(records, expected, tally)
        _reference_checks(sl, plan, problem, records, rng, tally)


# ---------------------------------------------------------------------------
# paper-n500: one paper-scale sweep on the process pool


def _paper_unit(inputs, jobs, tmp) -> UnitResult:
    (plan,) = inputs["plans"]
    records, summaries = inputs["package"].experiments.run_sweep(plan, jobs=jobs)
    return UnitResult(steps=_sweep_steps(plan), losses_kept=len(records),
                      out=records)


def _paper_gate(inputs, res: UnitResult, tally: Tally) -> None:
    (plan,), (problem,) = inputs["plans"], inputs["problems"]
    _finite_records(res.out, _sweep_runs(plan), tally)
    rng = np.random.default_rng(inputs["seed"])
    _reference_checks(inputs["package"], plan, problem, res.out, rng, tally,
                      max_k=PAPER_REFERENCE_MAX_K)


# ---------------------------------------------------------------------------
# oracles-mc: exact oracles, the Monte Carlo cross-check and verify


def _attempt(fn):
    """(value, None) or (None, error text); one oracle call is one operation."""
    try:
        return fn(), None
    except (ValueError, ArithmeticError, AssertionError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _finite_value(value) -> bool:
    if value is None:
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    return all(math.isfinite(v) for v in (value.e_p, value.e_p2, value.e_q,
                                           value.e_q2, value.e_pq))


def _oracles_unit(inputs, jobs, tmp) -> UnitResult:
    sl = inputs["package"]
    an, Scheme = sl.analysis, sl.engine.Scheme
    n = inp.EXACT_N
    (p_ss, x_ss), (p_rr, x_rr) = inputs["exact_ss"], inputs["exact_rr"]
    # the construction's second coordinate takes two balanced (a, b) values
    a_col, b_col = p_ss.curvature_matrix[:, 1], p_ss.linear_matrix[:, 1]
    oracles = []
    k = inp.EXACT_K
    for alpha in inputs["alphas"]:
        eta = alpha / inp.LAM_MAX
        oracles += [
            _attempt(lambda: an.beta_exact(n, alpha, 1.0)),
            _attempt(lambda: an.sum_prod_expectation_exact(n, alpha / n, 1.0)),
            _attempt(lambda: an.stochastic_terms_exact(n, alpha / n, 1.0)),
            _attempt(lambda: an.permutation_moments(a_col, b_col, eta)),
            _attempt(lambda: an.expected_loss_rr_analytic(p_rr, eta, k, x_rr)),
            _attempt(lambda: an.expected_loss_ss_exact(p_ss, eta, k, x_ss)),
        ]
    eta = inputs["mc_eta"]
    mc = {}
    for tag, scheme, exact in (
        ("rr", Scheme.RANDOM_RESHUFFLE, an.expected_loss_rr_analytic),
        ("ss", Scheme.SINGLE_SHUFFLE, an.expected_loss_ss_exact),
    ):
        p, x0 = inputs[f"mc_{tag}"]
        mc[tag] = (
            _attempt(lambda: exact(p, eta, inp.MC_K, x0)),
            _attempt(lambda: an.mc_expected_loss(p, scheme, eta, inp.MC_K, x0,
                                                 runs=inp.MC_RUNS,
                                                 seed=inp.MC_SEED_BASE[tag])),
        )
    checks = sl.verify.run_suite("all")
    return UnitResult(steps=2 * inp.MC_RUNS * inp.MC_N * inp.MC_K,
                      losses_kept=2 * inp.MC_RUNS,
                      out={"oracles": oracles, "mc": mc, "checks": checks})


def _oracles_gate(inputs, res: UnitResult, tally: Tally) -> None:
    out = res.out
    for value, _ in out["oracles"]:
        tally.add(_finite_value(value))
    for (exact, _), (mc, _) in out["mc"].values():
        runs_ok = mc is not None and all(math.isfinite(v) for v in mc)
        tally.add(runs_ok, inp.MC_RUNS)
        z_ok = runs_ok and exact is not None and mc[1] > 0
        tally.add(z_ok and abs(exact - mc[0]) / mc[1] <= Z_LIMIT)
    an = inputs["package"].analysis
    n = inp.EXACT_N
    for m in range(1, n):
        ref = float(an.perm_moment_fraction(m, n))
        got = an.perm_moment_formula(m, n)
        tally.add(abs(got - ref) / max(1.0, abs(ref)) <= PERM_MOMENT_TOL)
    for check in out["checks"]:
        tally.add(check.passed)


def checks_failed(res: UnitResult) -> int:
    """Failed `verify` checks in an oracles-mc unit (0 for other workloads)."""
    if not isinstance(res.out, dict):
        return 0
    return sum(not c.passed for c in res.out["checks"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1-desk", 1, _fig1_unit, _fig1_gate),
        Workload("paper-n500", 2, _paper_unit, _paper_gate),
        Workload("oracles-mc", 1, _oracles_unit, _oracles_gate),
    )
}
