import json
import math
from concurrent.futures import Future

import numpy as np
import pytest

from shufflelab import experiments, model
from shufflelab.experiments import (
    SweepPlan,
    SweepSummary,
    build_instance,
    desk_plan,
    emit_records_csv,
    emit_summaries_csv,
    emit_svg,
    fit_loglog_slope,
    paper_plan,
    plan_from_json_dict,
    read_records_csv,
    read_summaries_csv,
    run_sweep,
    summarize,
)


def tiny_plan(**overrides) -> SweepPlan:
    base = dict(
        construction="ss", n=8, G=1.0, lam=1.0, lam_max=2.0,
        k_values=(1, 2, 4), seeds=5, x0_preset="fig1",
        eta_rule="recommended", couple_rng=False, seed_base=3,
    )
    base.update(overrides)
    return SweepPlan(**base)


class TestPlan:
    def test_json_round_trip(self):
        plan = tiny_plan()
        doc = json.loads(json.dumps(plan.to_json_dict()))
        assert plan_from_json_dict(doc) == plan

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_plan(k_values=(4, 2))
        with pytest.raises(ValueError):
            tiny_plan(k_values=())
        with pytest.raises(ValueError):
            tiny_plan(seeds=0)
        with pytest.raises(ValueError):
            tiny_plan(construction="xx")
        with pytest.raises(ValueError, match="^eta must be finite, got nan$"):
            tiny_plan(eta_rule=math.nan)
        for k_values in ((-3, 0, 5), (0, 5)):
            with pytest.raises(ValueError, match=f"^k_values must be >= 1, got {k_values[0]}$"):
                tiny_plan(k_values=k_values)

    def test_eta_rules(self):
        assert tiny_plan().eta_for(4) == pytest.approx(math.log(32) / 32)
        assert tiny_plan(eta_rule=0.01).eta_for(4) == 0.01

    def test_desk_plan_brackets_crossover(self):
        plan = desk_plan("ss")
        crossover = plan.lam_max / plan.lam
        assert min(plan.k_values) < crossover < max(plan.k_values)
        assert plan.seeds == 100

    def test_paper_plan_echoes_experiment_parameters(self):
        plan = paper_plan("rr")
        assert (plan.n, plan.G, plan.lam, plan.lam_max) == (500, 1.0, 1.0, 200.0)
        assert min(plan.k_values) == 40 and max(plan.k_values) == 2000
        assert plan.seeds == 100


class TestBuildInstance:
    def test_rr_fig1_uses_first_and_third_coordinates(self):
        p, x0 = build_instance("rr", "fig1", 8, 1.0, 1.0, 4.0)
        assert p.dim == 2
        full = model.build_rr_construction(8, 1.0, 1.0, 4.0)
        np.testing.assert_array_equal(p.curvature_matrix, full.curvature_matrix[:, [0, 2]])
        np.testing.assert_array_equal(p.linear_matrix, full.linear_matrix[:, [0, 2]])
        np.testing.assert_allclose(x0, [-0.5, -0.125])

    def test_rr_worst_case_full_dimension(self):
        p, x0 = build_instance("rr", "worst-case", 8, 1.0, 1.0, 4.0)
        assert p.dim == 3
        np.testing.assert_allclose(x0, [1.0, 0.0, 0.0])

    def test_fig1_x0_satisfies_gradient_bound(self):
        for construction in ("ss", "rr"):
            p, x0 = build_instance(construction, "fig1", 8, 1.0, 1.0, 4.0)
            assert np.linalg.norm(model.gradient(p, x0)) <= 1.0 + 1e-12


class TestRunSweep:
    def test_eta_zero_all_schemes_report_f_x0(self):
        plan = tiny_plan(eta_rule=0.0, k_values=(1,), seeds=2)
        records, summaries = run_sweep(plan, jobs=1)
        p, x0 = experiments.resolve_problem(plan)
        expected = math.log10(model.objective(p, x0))
        assert len(records) == 6
        for r in records:
            assert r.log10_loss == pytest.approx(expected, rel=1e-12)

    def test_deterministic_and_ordered(self):
        plan = tiny_plan()
        rec1, sum1 = run_sweep(plan, jobs=1)
        rec2, sum2 = run_sweep(plan, jobs=1)
        assert rec1 == rec2
        assert sum1 == sum2
        keys = [(r.scheme, r.k, r.seed) for r in rec1]
        order = {"wr": 0, "ss": 1, "rr": 2}
        assert keys == sorted(keys, key=lambda t: (order[t[0]], t[1], t[2]))

    def test_coupled_rng_at_eta_zero_identical_rows(self):
        plan = tiny_plan(eta_rule=0.0, couple_rng=True)
        records, _ = run_sweep(plan, jobs=1)
        by_scheme = {}
        for r in records:
            by_scheme.setdefault(r.scheme, []).append((r.k, r.seed, r.final_loss, r.log10_loss))
        assert by_scheme["wr"] == by_scheme["ss"] == by_scheme["rr"]

    def test_summary_consistency(self):
        plan = tiny_plan()
        records, summaries = run_sweep(plan, jobs=1)
        for s in summaries:
            vals = np.array([r.log10_loss for r in records
                             if r.scheme == s.scheme and r.k == s.k])
            assert s.n_seeds == plan.seeds == vals.size
            assert s.mean_log10_loss == pytest.approx(float(vals.mean()), abs=1e-12)
            assert s.std_log10_loss == pytest.approx(float(vals.std(ddof=1)), abs=1e-12)

    def test_uncoupled_schemes_draw_distinct_noise(self):
        plan = tiny_plan(seeds=3, k_values=(2,))
        records, _ = run_sweep(plan, jobs=1)
        ss = [r.final_loss for r in records if r.scheme == "ss"]
        rr = [r.final_loss for r in records if r.scheme == "rr"]
        assert ss != rr

    def test_assumption_warning_surfaces(self):
        # k small enough that log(nk) L/(lam n k) > 1
        plan = tiny_plan(lam_max=4.0, k_values=(1,), n=8, seeds=1)
        with pytest.warns(RuntimeWarning):
            run_sweep(plan, jobs=1)


class TestSlopeFit:
    def test_exact_power_law(self):
        summaries = [
            SweepSummary("wr", k, math.log10(k**-2.0), 0.0, 1) for k in (10, 20, 40, 80)
        ]
        slope, intercept, r2 = fit_loglog_slope(summaries)
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        summaries = [SweepSummary("wr", k, -3.0, 0.0, 1) for k in (10, 20, 40)]
        slope, intercept, r2 = fit_loglog_slope(summaries)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([SweepSummary("wr", 10, -3.0, 0.0, 1)] * 2)


class TestCsv:
    def test_records_round_trip(self, tmp_path):
        plan = tiny_plan()
        records, _ = run_sweep(plan, jobs=1)
        path = tmp_path / "records.csv"
        emit_records_csv(records, path, plan)
        assert read_records_csv(path) == records
        text = path.read_text()
        assert "scheme,k,seed,final_loss,log10_loss" in text
        assert "# log10_floor=1e-300" in text

    def test_summaries_round_trip(self, tmp_path):
        plan = tiny_plan()
        records, summaries = run_sweep(plan, jobs=1)
        path = tmp_path / "summaries.csv"
        emit_summaries_csv(summaries, path, plan)
        assert read_summaries_csv(path) == summaries

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_records_csv([], path)
        data = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert data == ["scheme,k,seed,final_loss,log10_loss"]
        assert read_records_csv(path) == []

    def test_byte_determinism(self, tmp_path):
        plan = tiny_plan()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_records_csv(run_sweep(plan, jobs=1)[0], a, plan)
        emit_records_csv(run_sweep(plan, jobs=1)[0], b, plan)
        assert a.read_bytes() == b.read_bytes()

    def test_log10_clamp_floor(self):
        rec = experiments.SweepRecord("wr", 1, 0, 0.0, experiments._clamped_log10(0.0))
        assert rec.log10_loss == -300.0


class TestSvg:
    def test_emit_svg_structure(self, tmp_path):
        plan = tiny_plan()
        _, summaries = run_sweep(plan, jobs=1)
        path = tmp_path / "plot.svg"
        emit_svg(summaries, path, title="test sweep")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 3
        assert "log10 F(x_k)" in text
        assert ">k<" in text
        for label in ("with-replacement", "single shuffling", "random reshuffling"):
            assert label in text

    def test_emit_svg_with_bound_overlay(self, tmp_path):
        plan = tiny_plan()
        _, summaries = run_sweep(plan, jobs=1)
        path = tmp_path / "plot.svg"
        curve = [(k, 1.0 / (8 * k)) for k in plan.k_values]
        emit_svg(summaries, path, bound_curves=[("baseline shape", curve)])
        text = path.read_text()
        assert text.count("<polyline") == 4
        assert "baseline shape" in text
        assert "stroke-dasharray" in text

    def test_svg_deterministic(self, tmp_path):
        plan = tiny_plan()
        _, summaries = run_sweep(plan, jobs=1)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(summaries, a)
        emit_svg(summaries, b)
        assert a.read_bytes() == b.read_bytes()


class TestParallelDeterminism:
    def test_jobs_do_not_change_output(self):
        plan = tiny_plan(seeds=3)
        serial = run_sweep(plan, jobs=1)
        parallel = run_sweep(plan, jobs=2)
        assert serial == parallel

    def test_pool_submits_largest_k_first(self, monkeypatch):
        submitted = []

        class InlinePool:
            """Runs each task on submission and records the order."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, plan, scheme, k):
                submitted.append((scheme, k))
                future = Future()
                future.set_result(fn(plan, scheme, k))
                return future

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        plan = tiny_plan(seeds=2)
        parallel = run_sweep(plan, jobs=2)
        assert submitted == [(s, k) for k in (4, 2, 1) for s in experiments.SCHEME_ORDER]
        assert parallel == run_sweep(plan, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected_before_any_cell(self, jobs, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_run_cell", no_cell)
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            run_sweep(tiny_plan(), jobs=jobs)


class TestPlanMetadataEcho:
    def test_paper_plan_parameters_in_csv_metadata(self, tmp_path):
        plan = paper_plan("ss", seed_base=3)
        path = tmp_path / "records.csv"
        emit_records_csv([], path, plan)
        meta = [l for l in path.read_text().splitlines() if l.startswith("# plan=")][0]
        for fragment in ('"n": 500', '"lambda_max": 200.0', '"G": 1.0',
                         '"lambda": 1.0', '"seeds": 100'):
            assert fragment in meta

    def test_coupled_streams_share_first_epoch_permutation(self):
        # with coupled RNG, ss and rr runs of one epoch are identical draws
        plan = tiny_plan(couple_rng=True, k_values=(1,), seeds=4)
        records, _ = run_sweep(plan, jobs=1)
        ss = [(r.seed, r.final_loss) for r in records if r.scheme == "ss"]
        rr = [(r.seed, r.final_loss) for r in records if r.scheme == "rr"]
        assert ss == rr
        uncoupled, _ = run_sweep(tiny_plan(couple_rng=False, k_values=(1,), seeds=4), jobs=1)
        ss_u = [(r.seed, r.final_loss) for r in uncoupled if r.scheme == "ss"]
        rr_u = [(r.seed, r.final_loss) for r in uncoupled if r.scheme == "rr"]
        assert ss_u != rr_u
