import json

import pytest

from shufflelab import analysis, bounds, cli, experiments, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    @pytest.mark.parametrize(
        "sub", ["simulate", "oracle", "bounds", "verify", "sweep", "reproduce-fig1"]
    )
    def test_subcommand_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out


class TestSimulate:
    def test_eta_zero_prints_f_x0(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--construction", "ss", "--n", "4", "--eta", "0",
            "--k", "1", "--seed", "1", "--x0-preset", "worst-case",
            "--lambda-max", "2.0",
        )
        assert code == 0
        assert "final loss = 0.5" in out

    def test_auto_eta_runs(self, capsys, tmp_path):
        out_file = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--construction", "ss", "--n", "8", "--auto-eta",
            "--k", "3", "--seed", "2", "--scheme", "ss", "--lambda-max", "2.0",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.exists()
        header = [l for l in out_file.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "epoch,x_1,x_2,loss"

    def test_bad_scheme_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--scheme", "zz", "--eta", "0.1"])
        assert exc.value.code == 2

    def test_missing_eta_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--construction", "ss"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_eta_fails_before_any_run(self, capsys, eta):
        code, out, err = run_cli(capsys, "simulate", "--construction", "ss", "--n", "4",
                                 "--eta", eta, "--k", "1")
        assert (code, out, err) == (1, "", f"error: eta must be finite, got {eta}\n")

    @pytest.mark.parametrize("flag, value, name", [("--G", "nan", "G"), ("--G", "inf", "G"),
                                                   ("--lambda-max", "inf", "lam_max")])
    def test_non_finite_problem_parameter_fails(self, capsys, flag, value, name):
        code, out, err = run_cli(capsys, "simulate", "--construction", "ss", "--n", "10",
                                 "--k", "3", "--auto-eta", flag, value)
        assert (code, out, err) == (1, "", f"error: {name} must be finite, got {value}\n")

    def test_stepwise_matches_default_final_loss(self, capsys):
        args = ["simulate", "--construction", "rr", "--n", "6", "--eta", "0.01",
                "--k", "2", "--seed", "5", "--scheme", "rr",
                "--x0-preset", "worst-case", "--lambda-max", "4.0"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args, "--stepwise")
        assert code1 == code2 == 0
        v1 = float(out1.split("=")[-1])
        v2 = float(out2.split("=")[-1])
        assert v1 == pytest.approx(v2, rel=1e-10)


class TestOracle:
    def test_beta_example(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--quantity", "beta",
                               "--n", "2", "--eta-lmax", "0.5")
        assert code == 0
        assert "beta = 0.25" in out

    def test_perm_moment_example(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--quantity", "perm-moment",
                               "--m", "1", "--n", "4")
        assert code == 0
        assert "0.1666666666666666" in out

    def test_sum_prod_reports_value_and_bound(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--quantity", "sum-prod",
                               "--n", "2", "--eta-lmax", "0.5")
        assert code == 0
        assert "-0.25" in out and "ceiling" in out

    def test_keyup(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--quantity", "keyup",
                               "--alphas", "0.5,0.5", "--betas", "1,-1",
                               "--perm", "0,1")
        assert code == 0
        assert "keyup = -0.5" in out

    def test_eta_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--quantity", "loss-rr", "--n", "10", "--eta", "0.3",
                      "--auto-eta"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_unsupported_n_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--quantity", "beta", "--n", "18"])
        assert exc.value.code == 2
        assert "even" in capsys.readouterr().err

    def test_exact_loss_rejects_bad_eta(self, capsys):
        for quantity, eta, message in (("loss-rr", "nan", "eta must be finite"),
                                       ("loss-ss", "-0.5", "eta must be nonnegative")):
            code, out, err = run_cli(capsys, "oracle", "--quantity", quantity, "--n", "10",
                                     "--k", "3", "--eta", eta)
            assert code == 1 and out == ""
            assert message in err

    def test_exact_loss_rejects_non_finite_G(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--quantity", "loss-rr", "--n", "10",
                                 "--k", "3", "--auto-eta", "--G", "nan")
        assert (code, out, err) == (1, "", "error: G must be finite, got nan\n")

    def test_exact_loss_warns_on_large_eta(self, capsys):
        for quantity in ("loss-ss", "loss-rr"):
            with pytest.warns(RuntimeWarning, match=r"eta\*L = 4 > 1"):
                code, out, _ = run_cli(capsys, "oracle", "--quantity", quantity, "--n", "10",
                                       "--k", "3", "--eta", "1.0", "--lambda-max", "4")
            assert code == 0 and "E[F(x_k)]" in out

    def test_perm_moment_is_not_capped(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--quantity", "perm-moment",
                               "--n", "18", "--m", "1")
        assert code == 0
        assert "(= 1/34)" in out
        for bad in (["--n", "17", "--m", "1"], ["--n", "18", "--m", "18"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["oracle", "--quantity", "perm-moment", *bad])
            assert exc.value.code == 2
        assert "--m must lie in" in capsys.readouterr().err

    def test_loss_rr_exact_vs_mc(self, capsys):
        base = ["oracle", "--quantity", "loss-rr", "--n", "10", "--k", "3",
                "--auto-eta", "--lambda-max", "4.0"]
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        exact = float(out.split("=")[-1])
        code, out, _ = run_cli(capsys, *base[:1], *base[1:], "--method", "monte-carlo",
                               "--samples", "400", "--seed", "3")
        assert code == 0
        assert "se" in out


class TestBounds:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "500", "--k", "100",
                               "--lambda-max", "200")
        assert code == 0
        assert "2.000000e-05" in out  # wr baseline and both lower bounds at c=1
        assert "crossover-epoch" in out and "200" in out


class TestVerify:
    def test_lemmas_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_mutated_formula_fails_suite(self, capsys, monkeypatch):
        # sign-flip mutation must be caught by the dual enumeration route
        original = analysis.perm_moment_formula
        monkeypatch.setattr(analysis, "perm_moment_formula", lambda m, n: -original(m, n))
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas")
        assert code == 1
        assert "[FAIL]" in out


class TestSweepCommand:
    def test_sweep_emits_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "sweep", "--construction", "ss", "--n", "8", "--lambda-max", "2.0",
            "--k-values", "1,2,4", "--seeds", "3", "--seed", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summaries.csv").exists()
        assert (out_dir / "sweep.svg").exists()

    def test_sweep_from_plan_file(self, capsys, tmp_path):
        plan = {
            "construction": "ss", "n": 8, "G": 1.0, "lambda": 1.0, "lambda_max": 2.0,
            "k_values": [1, 2], "seeds": 2, "x0_preset": "fig1",
            "eta_rule": "recommended", "couple_rng": False, "seed_base": 5,
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--plan", str(plan_path),
                             "--out-dir", str(out_dir))
        assert code == 0
        text = (out_dir / "records.csv").read_text()
        assert '"seed_base": 5' in text

    def test_negative_seed_fails_before_any_work(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "sweep", "--construction", "ss", "--n", "8",
                               "--k-values", "1,2", "--seeds", "2", "--seed", "-1",
                               "--out-dir", str(out_dir))
        assert (code, err) == (1, "error: seed must be nonnegative, got -1\n")
        assert not out_dir.exists()
        code, _, err = run_cli(capsys, "oracle", "--quantity", "loss-rr", "--n", "10",
                               "--k", "3", "--auto-eta", "--method", "monte-carlo",
                               "--samples", "10", "--seed", "-1")
        assert (code, err) == (1, "error: seed must be nonnegative, got -1\n")


    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_fails_before_any_work(self, capsys, tmp_path, jobs):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "sweep", "--construction", "ss", "--n", "8",
                                 "--k-values", "1,2", "--seeds", "2", "--jobs", jobs,
                                 "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", f"error: jobs must be >= 1, got {jobs}\n")
        assert not out_dir.exists()

    def test_epochs_below_one_fail_before_any_work(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        for eta_flags in (["--eta", "0.01"], ["--auto-eta"]):
            code, out, err = run_cli(capsys, "sweep", "--construction", "ss", "--n", "8",
                                     "--k-values", "0,5", "--seeds", "2", "--jobs", "1",
                                     *eta_flags, "--out-dir", str(out_dir))
            assert (code, out, err) == (1, "", "error: k_values must be >= 1, got 0\n")
            assert not out_dir.exists()

    def test_non_finite_G_fails(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "sweep", "--construction", "ss", "--n", "8",
                                 "--k-values", "1,2", "--seeds", "2", "--jobs", "1",
                                 "--G", "nan", "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", "error: G must be finite, got nan\n")
        assert not (out_dir / "records.csv").exists()


class TestReproduceFig1:
    def test_jobs_below_one_fails_before_any_work(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "reproduce-fig1", "--scale", "desk", "--jobs", "0",
                                 "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", "error: jobs must be >= 1, got 0\n")
        assert not out_dir.exists()

    def test_refuses_nonempty_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "junk.txt").write_text("x")
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce-fig1", "--scale", "desk", "--out-dir", str(out_dir)])
        assert exc.value.code == 2

    def test_fitted_constants_printed_at_full_precision(self, capsys):
        plan = experiments.SweepPlan(construction="rr", n=8, G=1.0, lam=1.0, lam_max=2.0,
                                     k_values=(1, 2, 4), seeds=3)
        _, summaries = experiments.run_sweep(plan, jobs=1)
        curves = cli._fig1_overlays(plan, summaries)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(curves) == 3
        for line, scheme, theorem in zip(lines, ("wr", "ss", "rr"),
                                         ("WR-BASELINE", "SS-UPPER", "RR-UPPER")):
            subset = [s for s in summaries if s.scheme == scheme]
            c = experiments.fit_bound_constant(subset, bounds.BoundSpec(theorem), plan)
            assert line == f"rr {scheme} {theorem} fitted c = {c!r}"


class TestOracleCsvExport:
    def test_exact_row(self, capsys, tmp_path):
        out = tmp_path / "oracle.csv"
        code, _, _ = run_cli(capsys, "oracle", "--quantity", "beta", "--n", "2",
                             "--eta-lmax", "0.5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,n,eta_lambda_max,exact,mc_mean,mc_se"
        assert lines[1] == "beta,2,0.5,0.25,,"

    def test_mc_row_has_se(self, capsys, tmp_path):
        out = tmp_path / "oracle.csv"
        code, _, _ = run_cli(capsys, "oracle", "--quantity", "loss-rr", "--n", "6",
                             "--k", "2", "--eta", "0.01", "--lambda-max", "4.0",
                             "--method", "monte-carlo", "--samples", "200",
                             "--seed", "1", "--out", str(out))
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "loss-rr" and row[3] == ""
        assert float(row[4]) > 0 and float(row[5]) > 0


class TestVerifyAll:
    def test_all_suites_pass_on_fresh_checkout(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        assert "[FAIL]" not in out


class TestOutDirHandling:
    def test_force_allows_nonempty(self, tmp_path):
        parser = cli._build_parser()
        target = tmp_path / "out"
        target.mkdir()
        (target / "junk.txt").write_text("x")
        cli._prepare_out_dir(str(target), True, parser)  # must not raise
