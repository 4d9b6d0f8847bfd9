"""Sweep harness: loss-versus-epochs curves for all three sampling schemes.

A sweep runs every (scheme, k, seed) cell of a plan with the step size rule
applied per k, records final losses, and aggregates per-(scheme, k) mean and
standard deviation of log10 loss (error bars are one standard deviation, not
a standard error).  Outputs are byte-deterministic for a fixed plan: per-run
seeds derive from the plan's seed_base through numpy SeedSequence spawn keys
(scheme_code, k, seed_index), with the scheme code dropped when couple_rng
asks for shared randomness across schemes.

The dataclasses are the file formats: a plan document is `SweepPlan`'s fields
under `model`'s one document rule, and a records CSV's `# plan=` line is one,
reproducing the sweep byte for byte; `emit_csv`, the one CSV writer, takes its
columns from a row type's fields (`SweepRecord`, `SweepSummary`, `OracleRow`
and a trajectory row type of its run's width).
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, make_dataclass
from operator import attrgetter
from types import NoneType
from typing import Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import bounds, engine, model
from .model import is_integer

LOG10_FLOOR = 1e-300
# the scheme tags in `engine.Scheme`'s order; a tag's index is its spawn-key code
SCHEME_ORDER = tuple(s.value for s in engine.Scheme)
# each scheme's look in plots and its name in printed output, in SCHEME_ORDER;
# a marker maps (x, y, color) to its SVG element
SchemeStyle = namedtuple("SchemeStyle", "color label marker")
SCHEME_STYLES = {
    "wr": SchemeStyle("#1f77b4", "with-replacement", lambda x, y, color: (
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}"/>')),
    "ss": SchemeStyle("#d62728", "single shuffling", lambda x, y, color: (
        f'<path d="M {x - 4:.2f} {y:.2f} H {x + 4:.2f} M {x:.2f} {y - 4:.2f} '
        f'V {y + 4:.2f}" stroke="{color}" stroke-width="1.8"/>')),
    "rr": SchemeStyle("#2ca02c", "random reshuffling", lambda x, y, color: (
        f'<polygon points="{x:.2f},{y - 4.2:.2f} {x - 3.8:.2f},{y + 3.2:.2f} '
        f'{x + 3.8:.2f},{y + 3.2:.2f}" fill="{color}"/>')),
}


@dataclass(frozen=True)
class SweepPlan:
    construction: str  # one of model.CONSTRUCTIONS
    n: int
    G: float
    lam: float
    lam_max: float
    k_values: tuple
    seeds: int
    x0_preset: str = "fig1"
    eta_rule: object = "recommended"  # "recommended" or a fixed float
    couple_rng: bool = False
    seed_base: int = 0

    def __post_init__(self):
        for name in ("G", "lam", "lam_max"):
            value = model.plain_number(model.doc_key(name), getattr(self, name))
            object.__setattr__(self, name, value)
        try:
            k_values = tuple(self.k_values)
        except TypeError:
            raise ValueError(f"k_values must be a list of integers, got {self.k_values!r}") from None
        for k in k_values:
            if not is_integer(k):
                raise ValueError(f"k_values must be integers, got {k!r}")
        if not is_integer(self.seeds):
            raise ValueError(f"seeds must be an integer, got {self.seeds!r}")
        object.__setattr__(self, "k_values", tuple(int(k) for k in k_values))
        if not self.k_values or list(self.k_values) != sorted(set(self.k_values)):
            raise ValueError("k_values must be nonempty, ascending and distinct")
        if self.k_values[0] < 1:
            raise ValueError(f"k_values must be >= 1, got {self.k_values[0]}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        engine.check_seed_base(self.seed_base)
        if model.is_number(self.eta_rule):
            engine.check_eta(self.eta_rule)
            object.__setattr__(self, "eta_rule", float(self.eta_rule))
        elif not (isinstance(self.eta_rule, str) and self.eta_rule == "recommended"):
            raise ValueError(f'eta_rule must be "recommended" or a number, got {self.eta_rule!r}')
        if not isinstance(self.couple_rng, (bool, np.bool_)):
            raise ValueError(f"couple_rng must be a boolean, got {self.couple_rng!r}")
        object.__setattr__(self, "couple_rng", bool(self.couple_rng))
        resolve_problem(self)  # a plan whose problem cannot be built is rejected here
        for name in ("n", "seeds", "seed_base"):  # checked integers; numpy's are not JSON
            object.__setattr__(self, name, int(getattr(self, name)))

    def eta_for(self, k: int) -> float:
        if self.eta_rule == "recommended":
            return engine.recommended_eta(self.n, k, self.lam)
        return self.eta_rule

    def to_json_dict(self) -> dict:
        return model.to_document(self)


def plan_from_json_dict(doc: dict) -> SweepPlan:
    """The plan a `SweepPlan.to_json_dict` document describes."""
    return model.from_document(SweepPlan, doc, "plan")


def desk_plan(construction: str, seed_base: int = 0) -> SweepPlan:
    """Laptop-scale default: crossover epoch lam_max/lam = 50 sits inside the
    k grid, so both regimes of the rate curves are visible cheaply."""
    return SweepPlan(
        construction=construction,
        n=100,
        G=1.0,
        lam=1.0,
        lam_max=50.0,
        k_values=(10, 25, 50, 75, 100, 150, 200, 400),
        seeds=100,
        x0_preset="fig1",
        seed_base=seed_base,
    )


def paper_plan(construction: str, seed_base: int = 0) -> SweepPlan:
    """Full-scale experiment settings (n=500, condition number 200, k up to
    2000, 100 instantiations); expensive, run deliberately."""
    return SweepPlan(
        construction=construction,
        n=500,
        G=1.0,
        lam=1.0,
        lam_max=200.0,
        k_values=(40, 60, 100, 150, 200, 300, 400, 600, 800, 1000, 1400, 2000),
        seeds=100,
        x0_preset="fig1",
        seed_base=seed_base,
    )


def build_instance(construction: str, x0_preset: str, n: int, G: float,
                   lam: float, lam_max: float) -> Tuple[model.Problem, np.ndarray]:
    """Problem plus initialization for a (construction, preset) pair.

    The "rr" construction with the "fig1" preset resolves to its reduced 2-d
    variant, matching the experiment's use of only the first and third
    coordinates.
    """
    x0 = model.preset_x0(construction, x0_preset, G, lam, lam_max)  # checks the names first
    if construction == "ss":
        return model.build_ss_construction(n, G, lam, lam_max), x0
    build = model.build_rr_fig1_construction if x0_preset == "fig1" else model.build_rr_construction
    return build(n, G, lam, lam_max), x0


def resolve_problem(plan: SweepPlan) -> Tuple[model.Problem, np.ndarray]:
    """Build the plan's problem instance and initialization point."""
    return build_instance(plan.construction, plan.x0_preset, plan.n, plan.G,
                          plan.lam, plan.lam_max)


@dataclass(frozen=True)
class SweepRecord:
    scheme: str
    k: int
    seed: int
    final_loss: float
    log10_loss: float


@dataclass(frozen=True)
class SweepSummary:
    scheme: str
    k: int
    mean_log10_loss: float
    std_log10_loss: float
    n_seeds: int


def _cell_key(plan: SweepPlan, scheme_tag: str, k: int) -> tuple:
    """The spawn key of a cell's runs without the seed index: (scheme_code,
    k), or (k,) when coupled."""
    return (k,) if plan.couple_rng else (SCHEME_ORDER.index(scheme_tag), k)


def run_seed_for(plan: SweepPlan, scheme_tag: str, k: int, seed_index: int) -> int:
    """`engine.derive_seed` of seed_base with spawn key (scheme_code, k,
    seed_index), or (k, seed_index) when coupled."""
    return engine.derive_seed(plan.seed_base, _cell_key(plan, scheme_tag, k) + (seed_index,))


def _clamped_log10(loss: float) -> float:
    return math.log10(max(loss, LOG10_FLOOR))


def _run_cell(plans: Sequence[SweepPlan], scheme_tag: str, k: int) -> List[List[SweepRecord]]:
    """One (scheme, k) cell of every plan of a group, one record list per plan:
    the plans differ only in construction, so a seed index's run of each
    plan makes the same draws."""
    instances = [resolve_problem(plan) for plan in plans]
    plan = plans[0]
    eta = plan.eta_for(k)
    key = _cell_key(plan, scheme_tag, k)
    seeds = engine.derive_seeds(plan.seed_base, [key + (s,) for s in range(plan.seeds)])
    if len(plans) == 1:
        # a lone plan keeps one run_sgd_closed_form call per run only because
        # perfbench's test_counters_repeat_exactly counts those calls
        (p, x0), = instances
        losses = [[engine.run_sgd_closed_form(p, engine.RunConfig(
            scheme=scheme_tag, eta=eta, epochs=k, x0=x0, seed=seed)).final_loss for seed in seeds]]
    else:
        problems, x0s = zip(*instances)
        losses = engine.final_losses(problems, scheme_tag, eta, k, x0s, seeds).tolist()
    return [[SweepRecord(scheme=scheme_tag, k=k, seed=s, final_loss=loss,
                         log10_loss=_clamped_log10(loss)) for s, loss in enumerate(row)]
            for row in losses]


def summarize(records: Sequence[SweepRecord]) -> List[SweepSummary]:
    """Per-(scheme, k) mean and sample standard deviation of log10 loss."""
    groups: Dict[Tuple[str, int], List[float]] = {}
    for r in records:
        groups.setdefault((r.scheme, r.k), []).append(r.log10_loss)
    out = []
    for scheme in SCHEME_ORDER:
        for (s, k) in sorted((g for g in groups if g[0] == scheme), key=lambda g: g[1]):
            vals = np.array(groups[(s, k)])
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            out.append(
                SweepSummary(scheme=s, k=k, mean_log10_loss=float(np.mean(vals)),
                             std_log10_loss=std, n_seeds=int(vals.size))
            )
    return out


def check_jobs(jobs: Optional[int]) -> None:
    """Reject a worker count below 1; None means one worker per CPU."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_sweep(plan: SweepPlan, jobs: Optional[int] = None
              ) -> Tuple[List[SweepRecord], List[SweepSummary]]:
    """All three schemes over the plan's grid; deterministic given the plan."""
    return run_sweeps([plan], jobs)[0]


def _check_group(plans: Sequence[SweepPlan]) -> None:
    """Reject an empty group, or plans that differ in a field other than
    construction, naming the field."""
    if not plans:
        raise ValueError("a sweep group needs at least one plan")
    for plan in plans[1:]:
        for f in fields(SweepPlan):
            a, b = getattr(plans[0], f.name), getattr(plan, f.name)
            if f.name != "construction" and a != b:
                raise ValueError(f"plans of one sweep group must agree on {f.name}, "
                                 f"got {a!r} and {b!r}")


def run_sweeps(plans: Sequence[SweepPlan], jobs: Optional[int] = None
               ) -> List[Tuple[List[SweepRecord], List[SweepSummary]]]:
    """`run_sweep` of every plan, from one index stream per run.

    The plans differ only in construction; each keeps its own problem, x0,
    assumption check, records and summaries.  Seeds derive from the seed
    base, scheme, k and seed index, never the construction, so a run of
    each plan makes the same draws: one cell per (scheme, k) runs the whole
    group in one `engine.final_losses` call, each run's indices drawn and
    permuted once for every problem.  A lone plan's cell makes one
    `engine.run_sgd_closed_form` call per run instead, with the same values.
    Cells parallelize over (scheme, k) and are submitted largest k first;
    aggregation reads results back in (scheme, k, seed) order, so neither
    submission order nor worker scheduling changes the output.
    """
    plans = list(plans)
    check_jobs(jobs)
    _check_group(plans)
    for plan in plans:
        p, x0 = resolve_problem(plan)
        report = model.validate_assumptions(p, x0, max(plan.k_values))
        if not report.all_passed:
            failed = ", ".join(c.name for c in report.failed())
            engine.warn_caller(f"plan violates assumption clauses: {failed}")
    tasks = [(scheme, k) for scheme in SCHEME_ORDER for k in plans[0].k_values]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # Largest k first, so the costliest cells do not start last and
            # set the finish; the stable sort keeps scheme order within a k.
            futures = {t: pool.submit(_run_cell, plans, *t)
                       for t in sorted(tasks, key=lambda t: -t[1])}
            cells = {t: futures[t].result() for t in tasks}
    else:
        cells = {t: _run_cell(plans, *t) for t in tasks}
    out = []
    for i in range(len(plans)):
        records = [r for t in tasks for r in cells[t][i]]
        out.append((records, summarize(records)))
    return out


def fit_loglog_slope(summaries: Sequence[SweepSummary]) -> Tuple[float, float, float]:
    """OLS of mean_log10_loss against log10 k: (slope, intercept, r^2)."""
    if len(summaries) < 3:
        raise ValueError("need at least 3 points to fit a slope")
    x = np.array([math.log10(s.k) for s in summaries])
    y = np.array([s.mean_log10_loss for s in summaries])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_bound_constant(summaries: Sequence[SweepSummary], spec: bounds.BoundSpec,
                       plan: SweepPlan) -> float:
    """Least-squares fit (on log10 values) of a rate curve's constant to the
    summaries of one scheme; the fit is reported, never claimed universal."""
    logs = []
    for s in summaries:
        shape = spec.evaluate(plan.n, s.k, plan.G, plan.lam, plan.lam_max)
        logs.append(s.mean_log10_loss - math.log10(shape))
    return 10.0 ** float(np.mean(logs))


# ---------------------------------------------------------------------------
# CSV emission


def _columns(row_type: type) -> Tuple[List[str], list]:
    """A CSV's column names and types: its row type's fields, in order."""
    hints = get_type_hints(row_type)
    return [f.name for f in fields(row_type)], [hints[f.name] for f in fields(row_type)]


def _optional(kind) -> Optional[type]:
    """T for an Optional[T] column, whose None is an empty cell; else None."""
    args = get_args(kind)
    return next(arg for arg in args if arg is not NoneType) if NoneType in args else None


def _parse_cell(kind, cell: str):
    """The value `emit_csv` wrote as `cell` in a column of type `kind`."""
    inner = _optional(kind)
    return kind(cell) if inner is None else (inner(cell) if cell else None)


def emit_csv(rows: Sequence, row_type: type, path, comments: Sequence[str] = ()) -> None:
    """Write the caller's `#` lines, a header of `row_type`'s field names and
    one line per row: float cells by repr, None as an empty cell, the others
    by str (a Python float's str is its repr)."""
    names, kinds = _columns(row_type)
    row_format = ",".join("%r" if kind is float else "%s" for kind in kinds)
    cells = map(attrgetter(*names), rows)
    if any(map(_optional, kinds)):
        cells = (tuple("" if cell is None else cell for cell in row) for row in cells)
    lines = [*comments, ",".join(names), *(row_format % row for row in cells)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _sweep_comments(plan: Optional[SweepPlan], *extra: str) -> List[str]:
    """A sweep CSV's `#` lines: the plan if given, log10 floor, RNG id, `extra`."""
    lines = [] if plan is None else ["# plan=" + json.dumps(plan.to_json_dict(), sort_keys=True)]
    return [*lines, f"# log10_floor={LOG10_FLOOR!r}",
            f"# rng_algorithm_id={engine.RNG_ALGORITHM_ID}", *extra]


def _read_csv(path, row_type: type) -> list:
    """The rows of a CSV that `emit_csv` wrote for `row_type`, skipping blank
    and `#` lines.  ValueError on a missing or other header, on a row with
    another cell count, or on a cell its field's type cannot parse."""
    names, kinds = _columns(row_type)
    with open(path) as fh:
        rows = [line.split(",") for line in map(str.strip, fh) if line and line[0] != "#"]
    if not rows:
        raise ValueError(f"no header in {path}")
    if rows[0] != names:
        raise ValueError(f"unexpected header in {path}")
    ragged = [len(cells) for cells in rows[1:] if len(cells) != len(kinds)]
    if ragged:
        raise ValueError(f"a row of {path} has {ragged[0]} cells, not {len(kinds)}")
    return [row_type(*map(_parse_cell, kinds, cells)) for cells in rows[1:]]


def emit_records_csv(records: Sequence[SweepRecord], path,
                     plan: Optional[SweepPlan] = None) -> None:
    clamped = sum(1 for r in records if r.final_loss < LOG10_FLOOR)
    emit_csv(records, SweepRecord, path, _sweep_comments(plan, f"# clamped_rows={clamped}"))


def emit_summaries_csv(summaries: Sequence[SweepSummary], path,
                       plan: Optional[SweepPlan] = None) -> None:
    emit_csv(summaries, SweepSummary, path, _sweep_comments(plan))


def write_trajectory_csv(traj: engine.Trajectory, path) -> None:
    """A run's `#` config and RNG lines, then `epoch,x_1..x_d,loss` rows: a
    row type of the run's width d, through `emit_csv`."""
    cfg = traj.config
    x_columns = [(f"x_{j}", float) for j in range(1, traj.points.shape[1] + 1)]
    row_type = make_dataclass("TrajectoryRow", [("epoch", int), *x_columns, ("loss", float)])
    rows = [row_type(t, *x, loss) for t, (x, loss)
            in enumerate(zip(traj.points.tolist(), traj.losses.tolist()), 1)]
    emit_csv(rows, row_type, path, [
        f"# scheme={cfg.scheme.value} eta={cfg.eta!r} epochs={cfg.epochs} seed={cfg.seed}",
        f"# x0={','.join(map(repr, cfg.x0.tolist()))}",
        f"# rng_algorithm_id={traj.rng_algorithm_id}",
    ])


def read_records_csv(path) -> List[SweepRecord]:
    return _read_csv(path, SweepRecord)


def read_summaries_csv(path) -> List[SweepSummary]:
    return _read_csv(path, SweepSummary)


# ---------------------------------------------------------------------------
# SVG emission


def emit_svg(summaries: Sequence[SweepSummary], path,
             bound_curves: Optional[Sequence[Tuple[str, Sequence[Tuple[int, float]]]]] = None,
             title: str = "") -> None:
    """Static plot: one polyline per scheme on log10(k) vs mean log10 loss,
    error bars of one standard deviation, optional dashed rate overlays.

    A (scheme, k) cell whose mean or standard deviation is not finite (a
    divergent run) stays out of the plot and of its range, with one warning
    naming the cells; the k axis keeps every k.  ValueError when no finite
    cell remains."""
    width, height = 760, 500
    left, right, top, bottom = 72, 210, 46, 58
    inner_w, inner_h = width - left - right, height - top - bottom

    ks = sorted({s.k for s in summaries})
    if not ks:
        raise ValueError("no summaries to plot")
    finite = [math.isfinite(s.mean_log10_loss) and math.isfinite(s.std_log10_loss)
              for s in summaries]
    if not any(finite):
        raise ValueError("no finite summaries to plot")
    if not all(finite):
        left_out = ", ".join(f"({s.scheme}, {s.k})" for s, ok in zip(summaries, finite) if not ok)
        engine.warn_caller(f"non-finite summaries left out of the plot: {left_out}")
        summaries = [s for s, ok in zip(summaries, finite) if ok]
    xs_all = [math.log10(k) for k in ks]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_vals = [s.mean_log10_loss - s.std_log10_loss for s in summaries]
    y_vals += [s.mean_log10_loss + s.std_log10_loss for s in summaries]
    if bound_curves:
        for _, pts in bound_curves:
            y_vals += [_clamped_log10(v) for _, v in pts]
    y_lo, y_hi = min(y_vals), max(y_vals)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(k: float) -> float:
        return left + (math.log10(k) - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{left + inner_w / 2:.2f}" y="24" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for k in ks:
        x = sx(k)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + inner_h}" x2="{x:.2f}" '
            f'y2="{top + inner_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + inner_h + 18}" text-anchor="middle">{k}</text>'
        )
    for i in range(7):
        v = y_lo + i * (y_hi - y_lo) / 6
        y = sy(v)
        parts.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + inner_w / 2:.2f}" y="{height - 16}" text-anchor="middle">k</text>'
    )
    parts.append(
        f'<text x="20" y="{top + inner_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {top + inner_h / 2:.2f})">log10 F(x_k)</text>'
    )

    legend_y = top + 12
    for scheme, (color, label, marker) in SCHEME_STYLES.items():
        pts = sorted((s for s in summaries if s.scheme == scheme), key=lambda s: s.k)
        if not pts:
            continue
        coords = " ".join(f"{sx(s.k):.2f},{sy(s.mean_log10_loss):.2f}" for s in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for s in pts:
            x = sx(s.k)
            if s.std_log10_loss > 0:
                lo, hi = sy(s.mean_log10_loss - s.std_log10_loss), sy(
                    s.mean_log10_loss + s.std_log10_loss
                )
                parts.append(
                    f'<line x1="{x:.2f}" y1="{lo:.2f}" x2="{x:.2f}" y2="{hi:.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
                for yy in (lo, hi):
                    parts.append(
                        f'<line x1="{x - 3:.2f}" y1="{yy:.2f}" x2="{x + 3:.2f}" '
                        f'y2="{yy:.2f}" stroke="{color}" stroke-width="1"/>'
                    )
            parts.append(marker(x, sy(s.mean_log10_loss), color))
        lx = left + inner_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(marker(lx + 11, legend_y - 4, color))
        parts.append(f'<text x="{lx + 28}" y="{legend_y}">{label}</text>')
        legend_y += 18
    if bound_curves:
        for label, pts in bound_curves:
            coords = " ".join(f"{sx(k):.2f},{sy(_clamped_log10(v)):.2f}" for k, v in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="#777" '
                'stroke-width="1.2" stroke-dasharray="5,3"/>'
            )
            lx = left + inner_w + 14
            parts.append(
                f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" y2="{legend_y - 4}" '
                'stroke="#777" stroke-width="1.2" stroke-dasharray="5,3"/>'
            )
            parts.append(f'<text x="{lx + 28}" y="{legend_y}">{label}</text>')
            legend_y += 18
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
