"""Tests of the benchmark itself: span arithmetic, the tail rule, operation
counting, exact counters and what a run leaves behind.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import subprocess
from pathlib import Path

import pytest

import inputs as inp
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_subtract_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans_and_restores_patches():
    class Lib:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Lib.inner(x) + Lib.inner(x)

    original_inner, original_outer = Lib.inner, Lib.outer
    tracer = spans.Tracer()
    patches = [([(Lib, "inner")], lambda tr, fn: tr.wrap(fn, "inner")),
               ([(Lib, "outer")], lambda tr, fn: tr.wrap(fn, "outer"))]
    with pytest.raises(RuntimeError):
        with tracer.installed(patches):
            assert Lib.outer(1) == 4
            raise RuntimeError("patches must be undone on error")
    assert Lib.inner is original_inner and Lib.outer is original_outer
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert tracer.parent.tolist() == [-1, 0, 0]
    total = summary["outer"]["self_s"] + summary["inner"]["self_s"]
    assert total == pytest.approx(summary["outer"]["s"], abs=1e-12)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99),
    (10**6, 99.999), (10**9, 99.999),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_tally_counts_failed_fraction():
    tally = workloads.Tally()
    assert tally.failed_frac == 0.0
    tally.add(True)
    tally.add(False)
    tally.add(True, 5)
    tally.add(False, 2)
    assert (tally.attempted, tally.failed) == (9, 3)
    assert tally.failed_frac == pytest.approx(1 / 3)


@pytest.fixture
def small_paper(monkeypatch):
    monkeypatch.setattr(inp, "PAPER_SEEDS", 1)
    return inp.build("paper-n500", 3)


def test_raising_unit_counts_as_one_failed_operation(small_paper, tmp_path, capsys):
    def crash(inputs, jobs, tmp):
        raise FloatingPointError("simulated crash")

    wl = workloads.Workload("crash", 1, crash, gate=None)
    bench = run.Bench(wl, small_paper, str(tmp_path))
    assert bench.unit(1)["steps"] == 0
    assert (bench.tally.attempted, bench.tally.failed) == (1, 1)
    assert "simulated crash" in capsys.readouterr().err


def test_gate_misses_count_as_failures_without_raising(small_paper):
    sl = small_paper["package"]
    wl = workloads.WORKLOADS["paper-n500"]
    expected = 3 * len(small_paper["plans"][0].k_values)
    nan_records = [sl.experiments.SweepRecord("ss", 40, s, float("nan"), 0.0)
                   for s in range(4)]
    res = workloads.UnitResult(steps=0, losses_kept=4, out=nan_records)
    tally = workloads.Tally()
    wl.gate(small_paper, res, tally)
    # 4 non-finite losses, the missing records, 4 failed reference re-derivations
    missing = expected - 4
    assert tally.attempted == tally.failed == 4 + missing + workloads.REFERENCE_SAMPLES


def test_fig1_gate_counts_each_missing_row_once(tmp_path):
    fig1 = inp.build("fig1-desk", 3)
    sl = fig1["package"]
    for plan in fig1["plans"]:
        k = plan.k_values[0]
        nan_records = [sl.experiments.SweepRecord("ss", k, s, float("nan"), float("nan"))
                       for s in range(4)]
        sl.experiments.emit_records_csv(
            nan_records, tmp_path / f"fig1_{plan.construction}_records.csv")
        (tmp_path / f"fig1_{plan.construction}.svg").write_text("<svg/>")
    res = workloads.UnitResult(steps=0, losses_kept=0, out=(0, str(tmp_path)))
    tally = workloads.Tally()
    workloads.WORKLOADS["fig1-desk"].gate(fig1, res, tally)
    # per construction: 4 non-finite losses, the missing rows and 4 failed
    # re-derivations; the exit code and the artifact set pass
    per_plan = [workloads._sweep_runs(p) + workloads.REFERENCE_SAMPLES for p in fig1["plans"]]
    assert (tally.attempted, tally.failed) == (2 + sum(per_plan), sum(per_plan))


def _traced_counts(inputs, tmp):
    bench = run.Bench(workloads.WORKLOADS[inputs["workload"]], inputs, tmp)
    tracer = spans.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        bench.unit(1, tracer)
    calls = {name: v["calls"] for name, v in tracer.summary().items()}
    return calls, dict(tracer.counters)


def test_counters_repeat_exactly(small_paper, monkeypatch, tmp_path):
    first = _traced_counts(small_paper, str(tmp_path))
    assert first == _traced_counts(small_paper, str(tmp_path))
    calls, counters = first
    runs = 3 * len(small_paper["plans"][0].k_values)
    assert calls["engine.run_sgd_closed_form"] == runs
    assert counters["engine.rng_draws"] > 0

    monkeypatch.setattr(inp, "MC_RUNS", 50)
    oracles = inp.build("oracles-mc", 3)
    first = _traced_counts(oracles, str(tmp_path))
    assert first == _traced_counts(oracles, str(tmp_path))
    assert first[1]["analysis.patterns_enumerated"] > 0


def _git_status():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_declared_metrics_and_leaves_tree_clean(
        small_paper, tmp_path, capsys, trace, kind):
    before = _git_status()
    if before is None:
        pytest.skip("not inside a git work tree")
    out_dir = tmp_path / "out"
    argv = ["--workload", "paper-n500", "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--out-dir", str(out_dir)]
    assert run.run(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared(kind)
    assert _git_status() == before
    expected = {f"result-paper-n500-seed3-trace{trace}.json"}
    if trace:
        expected.add("spans-paper-n500.npz")
    assert {p.name for p in out_dir.iterdir()} == expected
