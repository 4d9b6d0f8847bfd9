"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (including failed verification
suites), 2 flag/usage errors.  All state flows through flags and files;
no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import analysis, bounds, engine, experiments, model, verify


def _float_list(text: str) -> List[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _int_list(text: str) -> List[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _add_problem_flags(sub, include_scheme: bool = True):
    sub.add_argument("--construction", choices=model.CONSTRUCTIONS, default="ss",
                     help="which lower-bound construction to instantiate")
    sub.add_argument("--n", type=int, default=100, help="number of components (even)")
    sub.add_argument("--G", type=float, default=1.0, help="gradient-norm scale G")
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0,
                     help="strong-convexity parameter")
    sub.add_argument("--lambda-max", dest="lam_max", type=float, default=50.0,
                     help="largest mean-curvature eigenvalue")
    sub.add_argument("--x0-preset", choices=model.X0_PRESETS, default="fig1",
                     help="named initialization point")
    if include_scheme:
        sub.add_argument("--scheme", choices=experiments.SCHEME_ORDER, default="rr",
                         help="sampling scheme")


def _add_eta_flag(sub):
    sub.add_argument("--eta", type=float, default=None,
                     help="fixed step size (default: the rule log(nk)/(lambda n k))")


def _resolve_eta(args) -> float:
    return engine.recommended_eta(args.n, args.k, args.lam) if args.eta is None else args.eta


class _NoteGiven(argparse.Action):
    """argparse's `store` (`store_true` with nargs=0) that also records each
    flag given on the command line in `args.given`, as {dest: flag}.  A
    parser that registers it as its default action notes each flag it
    declares after that."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = {**namespace.given, self.dest: self.option_strings[0]}


# the flags each oracle quantity reads besides --quantity, --method and --out;
# the Monte Carlo method also reads --samples and --seed
_LOSS_READS = ("construction", "n", "G", "lam", "lam_max", "x0_preset", "k", "eta")
_ORACLE_READS = {
    "beta": ("n", "eta_lmax"),
    "perm-moment": ("n", "m"),
    "sum-prod": ("n", "eta_lmax"),
    "stochastic-terms": ("n", "eta_lmax"),
    "keyup": ("alphas", "betas", "perm"),
    "loss-ss": _LOSS_READS,
    "loss-rr": _LOSS_READS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflelab",
        description="Simulation and verification lab for SGD sampling schemes "
        "on commuting quadratic finite sums.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one SGD trajectory and print the final loss")
    sim.set_defaults(run=_cmd_simulate)
    _add_problem_flags(sim)
    _add_eta_flag(sim)
    sim.add_argument("--k", type=int, default=10, help="number of epochs")
    sim.add_argument("--seed", type=int, default=0, help="run seed")
    sim.add_argument("--out", type=str, default=None, help="trajectory CSV path")
    sim.add_argument("--stepwise", action="store_true",
                     help="use explicit per-step updates instead of the per-epoch maps")

    orc = subs.add_parser("oracle", help="evaluate an exact/Monte-Carlo expectation oracle")
    orc.register("action", None, _NoteGiven)  # argparse's default action, `store`
    orc.add_argument("--quantity", required=True, choices=tuple(_ORACLE_READS))
    _add_problem_flags(orc, include_scheme=False)  # then the oracle's own defaults replace theirs
    orc.set_defaults(run=_cmd_oracle, given={}, construction=None, n=4, lam_max=4.0,
                     x0_preset="worst-case")
    orc.add_argument("--eta-lmax", type=float, default=0.5,
                     help="the product eta*lambda_max for pattern oracles")
    orc.add_argument("--m", type=int, default=1, help="moment order for perm-moment")
    orc.add_argument("--alphas", type=_float_list, default=None)
    orc.add_argument("--betas", type=_float_list, default=None)
    orc.add_argument("--perm", type=_int_list, default=None, help="0-based permutation")
    orc.add_argument("--k", type=int, default=5)
    _add_eta_flag(orc)
    orc.add_argument("--method", choices=("exact", "monte-carlo"), default="exact")
    orc.add_argument("--samples", type=int, default=100000)
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--out", type=str, default=None,
                     help="also write the result as a one-row oracle CSV")

    bnd = subs.add_parser("bounds", help="print the worst-case rate table for given parameters")
    bnd.set_defaults(run=_cmd_bounds)
    bnd.add_argument("--n", type=int, default=500)
    bnd.add_argument("--k", type=int, default=100)
    bnd.add_argument("--G", type=float, default=1.0)
    bnd.add_argument("--lambda", dest="lam", type=float, default=1.0)
    bnd.add_argument("--lambda-max", dest="lam_max", type=float, default=200.0)
    bnd.add_argument("--c", type=float, default=1.0, help="constant for the lower bounds")
    bnd.add_argument("--c-log", type=float, default=1.0, help="polylog knob for the upper bounds")
    bnd.add_argument("--delta", type=float, default=bounds.DEFAULT_DELTA,
                     help="confidence for the explicit high-probability form")
    bnd.add_argument("--d", type=int, default=1, help="dimension multiplier for upper bounds")

    ver = subs.add_parser("verify", help="run invariant suites; nonzero exit on failure")
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    ver.add_argument("--calibration", type=str, default=None,
                     help="calibration file (defaults to the packaged one)")

    swp = subs.add_parser("sweep", help="run a sweep plan and emit CSV/SVG artifacts")
    swp.set_defaults(run=_cmd_sweep, given={})
    swp.register("action", None, _NoteGiven)
    swp.add_argument("--plan", type=str, default=None,
                     help="JSON plan file, in place of the plan-field flags")
    _add_problem_flags(swp, include_scheme=False)
    swp.add_argument("--k-values", type=_int_list, default=[10, 25, 50, 100])
    swp.add_argument("--seeds", type=int, default=20)
    swp.add_argument("--seed", type=int, default=0, help="seed base")
    swp.add_argument("--couple-rng", nargs=0, const=True, default=False)  # `store_true`
    _add_eta_flag(swp)
    swp.add_argument("--out-dir", type=str, required=True)
    swp.add_argument("--jobs", type=int, default=None)

    fig = subs.add_parser("reproduce-fig1",
                          help="loss-vs-epochs sweeps for both constructions, CSV + SVG")
    fig.set_defaults(run=_cmd_reproduce_fig1)
    fig.add_argument("--scale", choices=("desk", "paper"), default="desk")
    fig.add_argument("--out-dir", type=str, required=True)
    fig.add_argument("--seed", type=int, default=0, help="seed base")
    fig.add_argument("--force", action="store_true",
                     help="write into an existing non-empty directory")
    fig.add_argument("--jobs", type=int, default=None)
    return parser


def _cmd_simulate(args, parser) -> int:
    p, x0 = experiments.build_instance(args.construction, args.x0_preset, args.n, args.G,
                                       args.lam, args.lam_max)
    eta = _resolve_eta(args)
    cfg = engine.RunConfig(scheme=args.scheme, eta=eta, epochs=args.k, x0=x0, seed=args.seed)
    traj = (engine.run_sgd if args.stepwise else engine.run_sgd_closed_form)(p, cfg)
    if args.out:
        experiments.write_trajectory_csv(traj, args.out)
        print(f"wrote {args.out}")
    print(f"final loss = {traj.final_loss!r}")
    return 0


def _cmd_oracle(args, parser) -> int:
    q = args.quantity
    if args.method == "monte-carlo" and q not in ("loss-ss", "loss-rr"):
        parser.error(f"--method monte-carlo applies to loss-ss and loss-rr, not {q}")
    reads = _ORACLE_READS[q] + (("samples", "seed") if args.method == "monte-carlo" else ())
    unread = [flag for dest, flag in args.given.items()
              if dest not in reads + ("quantity", "method", "out")]
    if unread:
        parser.error(f"--quantity {q} with --method {args.method} does not read "
                     + ", ".join(unread))
    if q in ("beta", "perm-moment", "sum-prod", "stochastic-terms"):
        try:
            model.check_even_n(args.n)
        except ValueError as exc:
            parser.error(f"--n: {exc}")
    if q == "perm-moment" and not 1 <= args.m <= args.n - 1:  # closed form: no enumeration cap
        parser.error(f"--m must lie in 1..n-1, got {args.m}")
    if q == "beta":
        value = analysis.beta_exact(args.n, args.eta_lmax, 1.0)
        envelope = analysis.beta_lower_envelope(args.n, args.eta_lmax, 1.0)
        print(f"beta = {value!r}")
        print(f"envelope shape = {envelope!r} (ratio {value / envelope!r})")
        row = analysis.OracleRow(q, args.n, args.eta_lmax, exact=value)
    elif q == "perm-moment":
        frac = analysis.perm_moment_fraction(args.m, args.n)
        print(f"perm-moment = {float(frac)!r} (= {frac})")
        row = analysis.OracleRow(q, args.n, 0.0, exact=float(frac))
    elif q == "sum-prod":
        eta = args.eta_lmax  # with lam_max = 1
        value = analysis.sum_prod_expectation_exact(args.n, eta, 1.0)
        print(f"sum-prod expectation = {value!r}")
        if eta * args.n <= 1.0:
            print(f"ceiling = {analysis.sum_prod_ceiling(args.n, eta, 1.0)!r}")
        row = analysis.OracleRow(q, args.n, eta, exact=value)
    elif q == "stochastic-terms":
        eta = args.eta_lmax
        value = analysis.stochastic_terms_exact(args.n, eta, 1.0)
        print(f"stochastic-terms expectation = {value!r}")
        print(f"ceiling = {analysis.stochastic_terms_ceiling(args.n, eta, 1.0)!r}")
        row = analysis.OracleRow(q, args.n, eta, exact=value)
    elif q == "keyup":
        if args.alphas is None or args.betas is None:
            parser.error("keyup needs --alphas and --betas")
        n = len(args.alphas)
        perm = args.perm if args.perm is not None else list(range(n))
        value = analysis.keyup_quantity(args.alphas, args.betas, perm)
        print(f"keyup = {value!r} (squared {value * value!r})")
        row = analysis.OracleRow(q, n, float(np.mean(args.alphas)), exact=value)
    else:
        tag = q.removeprefix("loss-")  # the scheme, and the construction unless given
        p, x0 = experiments.build_instance(args.construction or tag, args.x0_preset, args.n,
                                           args.G, args.lam, args.lam_max)
        eta = _resolve_eta(args)
        label = experiments.SCHEME_STYLES[tag].label
        if args.method == "exact":
            if q == "loss-ss":
                value = analysis.expected_loss_ss_exact(p, eta, args.k, x0)
            else:
                value = analysis.expected_loss_rr_analytic(p, eta, args.k, x0)
            print(f"E[F(x_k)] {label} = {value!r}")
            row = analysis.OracleRow(q, args.n, eta * args.lam_max, exact=value)
        else:
            mean, se = analysis.mc_expected_loss(
                p, tag, eta, args.k, x0, runs=args.samples, seed=args.seed)
            print(f"E[F(x_k)] {label} ~= {mean!r} (se {se!r}, {args.samples} runs)")
            row = analysis.OracleRow(q, args.n, eta * args.lam_max, mc_mean=mean, mc_se=se)
    if args.out:
        experiments.emit_csv([row], analysis.OracleRow, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_bounds(args, parser) -> int:
    n, k, G, lam, lmax = args.n, args.k, args.G, args.lam, args.lam_max
    rows = [
        ("ss-lower", bounds.ss_lower(n, k, G, lam, lmax, args.c)),
        ("rr-lower", bounds.rr_lower(n, k, G, lam, lmax, args.c)),
        ("ss-upper", bounds.ss_upper(n, k, G, lam, lmax, args.c_log, args.d)),
        ("rr-upper", bounds.rr_upper(n, k, G, lam, lmax, args.c_log, args.d)),
        ("ss-upper-high-prob", bounds.ss_upper_high_prob(n, k, G, lam, lmax, args.delta, args.c)),
        ("wr-baseline", bounds.wr_baseline(n, k, G, lam, args.c)),
    ]
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6e}")
    print(f"{'crossover-epoch':<{width}}  {bounds.crossover_epoch(lam, lmax):.6g}")
    return 0


def _cmd_verify(args, parser) -> int:
    results = verify.run_suite(args.suite, args.calibration)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  {r.detail}")
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _prepare_out_dir(path: str, force: bool, parser) -> None:
    if os.path.isdir(path) and os.listdir(path) and not force:
        parser.error(f"output directory {path!r} is not empty (use --force)")
    os.makedirs(path, exist_ok=True)


def _cmd_sweep(args, parser) -> int:
    given = [flag for dest, flag in args.given.items() if dest not in ("plan", "jobs", "out_dir")]
    if args.plan and given:
        parser.error("--plan reads every plan field from its file, not from " + ", ".join(given))
    experiments.check_jobs(args.jobs)
    if args.plan:
        with open(args.plan) as fh:
            plan = experiments.plan_from_json_dict(json.load(fh))
    else:
        eta_rule = "recommended" if args.eta is None else args.eta
        plan = experiments.SweepPlan(
            construction=args.construction, n=args.n, G=args.G, lam=args.lam,
            lam_max=args.lam_max, k_values=tuple(args.k_values), seeds=args.seeds,
            x0_preset=args.x0_preset, eta_rule=eta_rule, couple_rng=args.couple_rng,
            seed_base=args.seed,
        )
    os.makedirs(args.out_dir, exist_ok=True)
    records, summaries = experiments.run_sweep(plan, jobs=args.jobs)
    rec_path = os.path.join(args.out_dir, "records.csv")
    sum_path = os.path.join(args.out_dir, "summaries.csv")
    svg_path = os.path.join(args.out_dir, "sweep.svg")
    experiments.emit_records_csv(records, rec_path, plan)
    experiments.emit_summaries_csv(summaries, sum_path, plan)
    experiments.emit_svg(summaries, svg_path,
                         title=f"{plan.construction} construction, n={plan.n}")
    for s in summaries:
        print(f"{s.scheme} k={s.k:>5} mean log10 loss={s.mean_log10_loss:+.4f} "
              f"(std {s.std_log10_loss:.4f}, {s.n_seeds} seeds)")
    print(f"wrote {rec_path}, {sum_path}, {svg_path}")
    return 0


def _fig1_overlays(plan: experiments.SweepPlan, summaries) -> list:
    """Fitted rate overlays: constants are least-squares fits, labeled as such
    in the legend and printed at full precision."""
    out = []
    for scheme, theorem_id in zip(experiments.SCHEME_ORDER,
                                  ("WR-BASELINE", "SS-UPPER", "RR-UPPER")):
        spec = bounds.BoundSpec(theorem_id)
        subset = [s for s in summaries if s.scheme == scheme]
        c = experiments.fit_bound_constant(subset, spec, plan)
        pts = [
            (k, spec.evaluate(plan.n, k, plan.G, plan.lam, plan.lam_max) * c)
            for k in plan.k_values
        ]
        print(f"{plan.construction} {scheme} {spec.theorem_id} fitted c = {c!r}")
        out.append((f"{spec.theorem_id} fit c={c:.2g}", pts))
    return out


def _cmd_reproduce_fig1(args, parser) -> int:
    experiments.check_jobs(args.jobs)
    plan_fn = experiments.desk_plan if args.scale == "desk" else experiments.paper_plan
    plans = [plan_fn(construction, seed_base=args.seed) for construction in model.CONSTRUCTIONS]
    _prepare_out_dir(args.out_dir, args.force, parser)
    if args.scale == "paper":
        print(
            "warning: paper scale runs 3 schemes x 12 k-values x 100 seeds on "
            "n=500, about 20 s of CPU (about 10 s wall at --jobs 2 on a 2-vCPU Xeon)",
            file=sys.stderr,
        )
    for plan, (records, summaries) in zip(plans, experiments.run_sweeps(plans, jobs=args.jobs)):
        construction = plan.construction
        rec_path = os.path.join(args.out_dir, f"fig1_{construction}_records.csv")
        svg_path = os.path.join(args.out_dir, f"fig1_{construction}.svg")
        experiments.emit_records_csv(records, rec_path, plan)
        experiments.emit_svg(
            summaries, svg_path, bound_curves=_fig1_overlays(plan, summaries),
            title=f"{construction} construction, n={plan.n}, "
            f"condition number {plan.lam_max / plan.lam:.0f}",
        )
        print(f"wrote {rec_path} and {svg_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
