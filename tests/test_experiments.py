import dataclasses
import hashlib
import json
import math
import re
import warnings
import xml.etree.ElementTree as ET
from concurrent.futures import Future

import numpy as np
import pytest

from shufflelab import engine, experiments, model
from shufflelab.analysis import OracleRow
from shufflelab.experiments import (
    SweepPlan,
    SweepSummary,
    build_instance,
    desk_plan,
    emit_csv,
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
    write_trajectory_csv,
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

    def test_json_missing_key_named(self):
        doc = tiny_plan().to_json_dict()
        del doc["lambda"]
        with pytest.raises(ValueError, match="^plan lacks required keys: lambda$"):
            plan_from_json_dict(doc)

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

    NUMPY_FIELDS = dict(n=np.int64(8), G=np.float32(0.5), lam=np.int32(1),
                        lam_max=np.float64(2.0), k_values=np.array([1, 2, 4], dtype=np.uint16),
                        seeds=np.uint8(5), eta_rule=np.float32(0.1), couple_rng=np.bool_(True),
                        seed_base=np.uint64(3))

    @pytest.mark.parametrize("overrides", [
        {}, NUMPY_FIELDS, *({name: value} for name, value in NUMPY_FIELDS.items()),
        dict(G=1, lam=1, lam_max=2, eta_rule=0),
    ], ids=["python", "numpy", *NUMPY_FIELDS, "integer-numbers"])
    def test_accepted_plans_round_trip_through_the_records(self, tmp_path, overrides):
        plan = tiny_plan(**overrides)
        assert plan_from_json_dict(json.loads(json.dumps(plan.to_json_dict()))) == plan
        path = tmp_path / "records.csv"
        emit_records_csv([], path, plan)
        plan_line = path.read_text().splitlines()[0]
        assert plan_from_json_dict(json.loads(plan_line.removeprefix("# plan="))) == plan

    @pytest.mark.parametrize("field, value, message", [
        ("G", None, "G must be a number, got None"),
        ("G", "1", "G must be a number, got '1'"),
        ("lam", True, "lambda must be a number, got True"),
        ("lam_max", np.str_("2"), "lambda_max must be a number, got np.str_('2')"),
        ("k_values", 5, "k_values must be a list of integers, got 5"),
        ("eta_rule", None, 'eta_rule must be "recommended" or a number, got None'),
        ("eta_rule", True, 'eta_rule must be "recommended" or a number, got True'),
        ("eta_rule", "0.01", "eta_rule must be \"recommended\" or a number, got '0.01'"),
        ("couple_rng", 1, "couple_rng must be a boolean, got 1"),
    ])
    def test_plan_names_the_key_of_a_bad_value(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tiny_plan(**{field: value})

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

    @pytest.mark.parametrize("preset", model.X0_PRESETS)
    def test_unknown_construction(self, preset):
        with pytest.raises(ValueError, match="^construction must be 'ss' or 'rr', got 'bogus'$"):
            build_instance("bogus", preset, 8, 1.0, 1.0, 4.0)


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


def fig1_group(**overrides):
    """One desk-like plan per construction, differing only in construction."""
    return [tiny_plan(construction=c, **overrides) for c in model.CONSTRUCTIONS]


class TestRunSweeps:
    """A group sweep draws and permutes each run's indices once for every
    plan's problem, and equals one lone `run_sweep` per plan."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("x0_preset", ["fig1", "worst-case"])
    def test_equals_lone_sweeps(self, x0_preset, jobs):
        plans = fig1_group(n=100, lam_max=50.0, k_values=(10, 25, 400), seeds=2,
                           x0_preset=x0_preset)
        assert 400 > 2 * (engine._CHUNK_ENTRIES // 100)  # several chunks and passes
        dims = [experiments.resolve_problem(plan)[0].dim for plan in plans]
        assert dims == ([2, 3] if x0_preset == "worst-case" else [2, 2])
        lone = [run_sweep(plan, jobs=1) for plan in plans]
        assert {r.scheme for r in lone[0][0]} == set(experiments.SCHEME_ORDER)
        assert experiments.run_sweeps(plans, jobs=jobs) == lone

    def test_only_a_group_takes_the_coupled_entry(self, monkeypatch):
        calls = {"lone": 0, "batched": 0}
        lone, batched = engine.run_sgd_closed_form, engine.final_losses

        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(engine, "run_sgd_closed_form", count("lone", lone))
        monkeypatch.setattr(engine, "final_losses", count("batched", batched))
        plans = fig1_group(seeds=2)
        cells = 3 * len(plans[0].k_values)
        run_sweep(plans[0], jobs=1)
        assert calls == {"lone": cells * plans[0].seeds, "batched": 0}
        calls.update(lone=0, batched=0)
        experiments.run_sweeps(plans, jobs=1)
        assert calls == {"lone": 0, "batched": cells}

    @pytest.mark.parametrize("field, value", [
        ("n", 10), ("k_values", (1, 2)), ("seeds", 3), ("x0_preset", "worst-case"),
        ("eta_rule", 0.01), ("couple_rng", True), ("seed_base", 4)])
    def test_plans_differing_beyond_construction_rejected(self, field, value, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_run_cell", no_cell)
        ss, rr = fig1_group()
        with pytest.raises(ValueError,
                           match=f"^plans of one sweep group must agree on {field}, got "):
            experiments.run_sweeps([ss, dataclasses.replace(rr, **{field: value})], jobs=1)

    def test_no_plans_rejected(self):
        with pytest.raises(ValueError, match="at least one plan"):
            experiments.run_sweeps([], jobs=1)


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

    @pytest.mark.parametrize("reader", [read_records_csv, read_summaries_csv])
    def test_no_header_rejected(self, tmp_path, reader):
        path = tmp_path / "empty.csv"
        for text in ("", "# plan={}\n\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="^no header in "):
                reader(path)

    @pytest.mark.parametrize("emit, reader, row", [
        (emit_records_csv, read_records_csv, experiments.SweepRecord("wr", 1, 0, 0.5, -0.3)),
        (emit_summaries_csv, read_summaries_csv, SweepSummary("rr", 2, -0.3, 0.1, 5)),
    ])
    def test_row_of_another_cell_count_rejected(self, tmp_path, emit, reader, row):
        path = tmp_path / "rows.csv"
        emit([row, row], path)
        text = path.read_text()
        assert reader(path) == [row, row]
        line = text.splitlines()[-1]
        for bad, cells in ((line.rsplit(",", 1)[0], 4), (line + ",9", 6)):
            path.write_text(text.replace(line + "\n", bad + "\n", 1))
            with pytest.raises(ValueError, match=f"^a row of .* has {cells} cells, not 5$"):
                reader(path)

    def test_byte_determinism(self, tmp_path):
        plan = tiny_plan()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_records_csv(run_sweep(plan, jobs=1)[0], a, plan)
        emit_records_csv(run_sweep(plan, jobs=1)[0], b, plan)
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_rows_take_their_fields_and_leave_none_empty(self, tmp_path):
        path = tmp_path / "oracle.csv"
        emit_csv([OracleRow("beta", 2, 0.5, exact=0.25),
                  OracleRow("loss-rr", 6, 0.04, mc_mean=1e-3, mc_se=2e-05),
                  OracleRow("keyup", 4, 0.1)], OracleRow, path, ["# a comment"])
        header = ",".join(f.name for f in dataclasses.fields(OracleRow))
        assert header == "quantity,n,eta_lambda_max,exact,mc_mean,mc_se"
        assert path.read_text() == "\n".join([
            "# a comment", header, "beta,2,0.5,0.25,,", "loss-rr,6,0.04,,0.001,2e-05",
            "keyup,4,0.1,,,"]) + "\n"

    def test_log10_clamp_floor(self):
        rec = experiments.SweepRecord("wr", 1, 0, 0.0, experiments._clamped_log10(0.0))
        assert rec.log10_loss == -300.0


class TestTrajectoryCsv:
    def test_round_trippable_and_annotated(self, tmp_path):
        p = model.build_ss_construction(4, 1.0, 1.0, 2.0)
        cfg = engine.RunConfig(scheme=engine.Scheme.RANDOM_RESHUFFLE, eta=0.02, epochs=3,
                               x0=[1.0, 0.0], seed=12)
        traj = engine.run_sgd(p, cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("rng_algorithm_id" in l for l in meta)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "epoch,x_1,x_2,loss"
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 3
        for t, row in enumerate(rows):
            assert int(row[0]) == t + 1
            assert float(row[3]) == traj.losses[t]

    def test_dyadic_run_bytes(self, tmp_path):
        # every value is dyadic, so these bytes are the same on any platform
        p, x0 = build_instance("ss", "worst-case", 2, 1.0, 1.0, 2.0)
        cfg = engine.RunConfig(scheme="wr", eta=0.25, epochs=2, x0=x0, seed=0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(engine.run_sgd(p, cfg), path)
        assert path.read_text() == "\n".join([
            "# scheme=wr eta=0.25 epochs=2 seed=0", "# x0=1.0,0.0",
            f"# rng_algorithm_id={engine.RNG_ALGORITHM_ID}", "epoch,x_1,x_2,loss",
            "1,0.5625,0.1875,0.193359375", "2,0.31640625,-0.015625,0.05030059814453125"]) + "\n"

    def test_columns_follow_the_run_width(self, tmp_path):
        p, x0 = build_instance("rr", "worst-case", 4, 1.0, 1.0, 2.0)  # a 3-d problem
        cfg = engine.RunConfig(scheme="ss", eta=0.05, epochs=4, x0=x0, seed=1)
        traj = engine.run_sgd_closed_form(p, cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "epoch,x_1,x_2,x_3,loss"
        assert [[float(c) for c in l.split(",")[1:]] for l in lines[1:]] == [
            [*x, loss] for x, loss in zip(traj.points.tolist(), traj.losses.tolist())]


class TestSchemeStyles:
    def test_one_style_per_scheme_in_order(self):
        styles = experiments.SCHEME_STYLES
        assert tuple(styles) == experiments.SCHEME_ORDER
        assert len({s.color for s in styles.values()}) == len(styles)
        assert len({s.label for s in styles.values()}) == len(styles)
        assert len({s.marker(10.0, 20.0, "red") for s in styles.values()}) == len(styles)


class TestSvg:
    def test_golden_bytes(self, tmp_path):
        # k in {1, 10, 100} and powers of ten in the curve: every log10 is exact
        means = {"wr": [(-1.0, 0.5), (-2.0, 0.25), (-3.0, 0.0)],
                 "ss": [(-0.5, 0.0), (-2.5, 0.5), (-4.5, 0.125)],
                 "rr": [(-0.75, 0.25), (-3.0, 0.0), (-5.0, 0.5)]}
        summaries = [SweepSummary(scheme, k, mean, std, 4) for scheme, rows in means.items()
                     for k, (mean, std) in zip((1, 10, 100), rows)]
        curve = [(1, 1e-1), (10, 1e-3), (100, 1e-5)]
        path = tmp_path / "golden.svg"
        emit_svg(summaries, path, bound_curves=[("shape fit c=1", curve)], title="golden")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "56ce6be28032760592ed827ad3a398fea118ed19556b36a67f9a4c4314c54fb2")

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

    def test_divergent_cells_left_out(self, tmp_path):
        # eta*L = 20: the k = 50 runs overflow, so their summaries are NaN
        plan = SweepPlan(construction="rr", n=10, G=1.0, lam=1.0, lam_max=4.0,
                         k_values=(5, 50), seeds=3, eta_rule=5.0)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            _, summaries = run_sweep(plan, jobs=1)
        assert [math.isfinite(s.mean_log10_loss) for s in summaries] == [True, False] * 3
        path = tmp_path / "plot.svg"
        with pytest.warns(RuntimeWarning) as record:
            emit_svg(summaries, path)
        assert [str(w.message) for w in record] == [
            "non-finite summaries left out of the plot: (wr, 50), (ss, 50), (rr, 50)"]
        text = path.read_text()
        ET.fromstring(text)
        assert not re.search("nan|inf", text)
        assert text.count("<polyline") == 3

    def test_no_finite_cell_rejected(self, tmp_path):
        summaries = [SweepSummary("wr", 5, math.nan, math.nan, 3),
                     SweepSummary("rr", 5, math.inf, math.nan, 3)]
        with pytest.raises(ValueError, match="^no finite summaries to plot$"):
            emit_svg(summaries, tmp_path / "plot.svg")
        assert not (tmp_path / "plot.svg").exists()


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
