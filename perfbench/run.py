"""shufflelab benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload fig1-desk --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  With `--trace 0` the workload's unit of work is repeated
until `--seconds` of measurement have passed (at least once) and the
end-to-end metrics are medians over units.  With `--trace 1` the benchmark
first makes that untraced measurement, then an untraced and a traced pass at
jobs=1, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced wall time).

Every metric is printed as `name value unit`; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A run also writes its result (with provenance) and, when traced,
its spans under `--out-dir`, and removes the scratch files it made.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import inputs as inp
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11  # fresh-interpreter set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "sgd_steps_per_s": "steps/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def git_commit(root: Path):
    """HEAD's commit, or None outside a git checkout or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(inputs: dict, args, jobs: int) -> dict:
    sl = inputs["package"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "R": inp.PAPER_SEEDS,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "shufflelab": sl.__version__,
        "rng_algorithm_id": sl.engine.RNG_ALGORITHM_ID,
        "git_commit": git_commit(inp.ROOT),
        "machine": platform.machine(),
    }


class Bench:
    """One benchmark invocation: measured units, gates and their tally."""

    def __init__(self, workload, inputs: dict, tmp: str):
        self.wl = workload
        self.inputs = inputs
        self.tmp = tmp
        self.tally = workloads.Tally()
        self.checks_failed = 0

    def unit(self, jobs: int, tracer=None) -> dict:
        """Time one unit (optionally traced), then gate its outputs."""
        sl = self.inputs["package"]
        # users pay the pattern-cache fill on every CLI call, so every unit does
        sl.analysis._pattern_matrix.cache_clear()
        patches = spans.shufflelab_patches(sl) if tracer is not None else []
        res = None
        with tracer.installed(patches) if tracer is not None else contextlib.nullcontext():
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                res = self.wl.unit(self.inputs, jobs, self.tmp)
            except Exception:  # a failed unit is reported, not fatal
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
        if res is None:
            self.tally.add(False)
        else:
            self.wl.gate(self.inputs, res, self.tally)
            self.checks_failed += workloads.checks_failed(res)
        return {"wall": wall, "cpu": cpu, "steps": res.steps if res else 0,
                "losses_kept": res.losses_kept if res else 0}

    def measure(self, seconds: float, jobs: int) -> list:
        """Units until `seconds` of measured wall time have passed (>= 1)."""
        units = [self.unit(jobs)]
        while sum(u["wall"] for u in units) < seconds:
            units.append(self.unit(jobs))
        return units


def setup_probes(workload: str, seed: int, count: int) -> list:
    """Set-up seconds from `count` fresh interpreters, run one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(units: list, setups: list, peak_rss_mb: float) -> dict:
    return {
        "wall_s": statistics.median(u["wall"] for u in units),
        "sgd_steps_per_s": statistics.median(u["steps"] / u["wall"] for u in units),
        "cpu_s": statistics.median(u["cpu"] for u in units),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inp.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=inp.ROOT / ".perfbench_out",
                        help="where results and spans are written")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        inputs = inp.build(args.workload, args.seed)
    except inp.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_dir, prefix="tmp-") as tmp:
        bench = Bench(wl, inputs, tmp)
        units = bench.measure(args.seconds, wl.jobs)
        peak = _peak_rss_mb()
        layer, passes = None, {}
        if args.trace:
            baseline = passes["untraced"] = units[0] if wl.jobs == 1 else bench.unit(1)
            tracer = spans.Tracer()
            traced = passes["traced"] = bench.unit(1, tracer)
            layer = layer_metrics(tracer, units, baseline, traced, bench)
            # one spans file per workload (the latest run's): they are large
            tracer.save(args.out_dir / f"spans-{args.workload}.npz")
    setups = setup_probes(args.workload, args.seed, SETUP_SAMPLES)
    e2e = end_to_end(units, setups, peak)

    _print_metrics(f"end-to-end ({len(units)} unit(s), trace off)", e2e, END_TO_END_UNITS)
    if layer is not None:
        runs = layer["engine.run_sgd_closed_form.calls"][0]
        tail = spans.tail_percentile(runs)
        _print_metrics(f"per-layer (traced pass, jobs=1; run tail is "
                       f"p{tail or 0:g} of {runs} runs)",
                       {k: v for k, (v, _) in layer.items()},
                       {k: u for k, (_, u) in layer.items()})
    prov = provenance(inputs, args, wl.jobs)
    tally = bench.tally
    print(f"# operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(failed_frac {tally.failed_frac:.6g})")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    chosen = ({k: {"value": v, "unit": u} for k, (v, u) in layer.items()} if layer
              else {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()})
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": chosen}
    record = dict(result, provenance=prov, end_to_end=e2e, units=units,
                  setup_samples=setups, trace_passes_jobs1=passes)
    out_file = args.out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, units: list, baseline: dict, traced: dict, bench) -> dict:
    """Per-layer metrics from one traced unit: name -> (value, unit)."""
    summ = tracer.summary()
    ctr = tracer.counters

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0)

    m = {
        "failed_frac": (bench.tally.failed_frac, "ratio"),
        "trace.overhead_s": (traced["wall"] - baseline["wall"], "s"),
        "model.objective.calls": (calls("model.objective"), "count"),
        "model.objective.self_s": (self_s("model.objective"), "s"),
        "model.build.self_s": (self_s("model.build"), "s"),
        "engine.sample_permutation.calls": (calls("engine.sample_permutation"), "count"),
        "engine.sample_permutation.self_s": (self_s("engine.sample_permutation"), "s"),
        "engine.rng_draws": (ctr["engine.rng_draws"], "count"),
        "engine.sequence_map.calls": (calls("engine.sequence_map"), "count"),
        "engine.sequence_map.self_s": (self_s("engine.sequence_map"), "s"),
        "engine.sequence_map.bytes_computed": (ctr["engine.sequence_map.bytes_computed"],
                                               "bytes"),
        "engine.run_sgd_closed_form.calls": (calls("engine.run_sgd_closed_form"), "count"),
        "engine.run_sgd_closed_form.self_s": (self_s("engine.run_sgd_closed_form"), "s"),
    }
    dur, attrs, parents = tracer.run_durations()
    tail = spans.tail_percentile(len(dur))
    m["engine.run_sgd_closed_form.median_us"] = (
        float(np.median(dur)) * 1e6 if len(dur) else 0.0, "us")
    # the tail is the highest percentile with ten runs beyond it; which one
    # depends only on the run count, which is fixed per workload
    m["engine.run_sgd_closed_form.tail_us"] = (
        float(np.percentile(dur, tail)) * 1e6 if tail else 0.0, "us")
    for tag in ("wr", "ss", "rr"):
        pick = [i for i, a in enumerate(attrs) if a[0] == tag]
        epochs = sum(attrs[i][2] for i in pick)
        m[f"engine.us_per_epoch.{tag}"] = (
            float(dur[pick].sum()) / epochs * 1e6 if epochs else 0.0, "us")
    objective_calls = calls("model.objective")
    m["engine.losses_used_frac"] = (
        traced["losses_kept"] / objective_calls if objective_calls else 0.0, "ratio")
    m["engine.run_sgd.self_s"] = (self_s("engine.run_sgd"), "s")
    m["experiments.run_sweep.s"] = (summ.get("experiments.run_sweep", {}).get("s", 0.0), "s")
    m.update(_cell_seconds(attrs, parents, dur, calls("experiments.run_sweep")))
    m["experiments.run_seed_for.self_s"] = (self_s("experiments.run_seed_for"), "s")
    first = units[0]
    m["experiments.parallel_efficiency"] = (
        first["cpu"] / (bench.wl.jobs * first["wall"]), "ratio")
    m["experiments.emit.self_s"] = (self_s("experiments.emit"), "s")
    m["experiments.bytes_written"] = (ctr["experiments.bytes_written"], "bytes")
    m["bounds.self_s"] = (self_s("bounds"), "s")
    for name in spans.ANALYSIS_SPANS:
        m[f"analysis.{name}.self_s"] = (self_s(f"analysis.{name}"), "s")
    m["analysis.patterns_enumerated"] = (ctr["analysis.patterns_enumerated"], "count")
    m["calibrate.measure_constants.self_s"] = (self_s("calibrate.measure_constants"), "s")
    m["verify.run_suite.self_s"] = (self_s("verify.run_suite"), "s")
    m["verify.checks_failed"] = (bench.checks_failed, "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    return m


def _cell_seconds(attrs, parents, dur, sweeps: int) -> dict:
    """Per scheme, the largest-k cell of each sweep as the sum of its run
    spans, averaged over the unit's sweeps."""
    out = {}
    for tag in ("wr", "ss", "rr"):
        pick = [i for i, a in enumerate(attrs)
                if a[0] == tag and parents[i] == "experiments.run_sweep"]
        top = max((attrs[i][2] for i in pick), default=None)
        total = sum(float(dur[i]) for i in pick if attrs[i][2] == top)
        out[f"experiments.cell_s.{tag}"] = (total / sweeps if sweeps else 0.0, "s")
    return out


if __name__ == "__main__":
    raise SystemExit(run())
