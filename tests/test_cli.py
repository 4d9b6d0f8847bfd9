import argparse
import dataclasses
import json
import math

import pytest

from shufflelab import analysis, bounds, calibrate, cli, experiments, model, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subparser(name: str) -> argparse.ArgumentParser:
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return subs.choices[name]


class TestDispatch:
    def test_every_subcommand_registers_its_handler(self):
        for name in ("simulate", "oracle", "bounds", "verify", "sweep", "reproduce-fig1"):
            handler = subparser(name).get_default("run")
            assert handler is getattr(cli, "_cmd_" + name.replace("-", "_"))

    @pytest.mark.parametrize("sub", ["simulate", "sweep", "oracle"])
    def test_construction_choices_are_the_constructions(self, sub):
        action = next(a for a in subparser(sub)._actions if a.dest == "construction")
        assert tuple(action.choices) == model.CONSTRUCTIONS

    def test_oracle_keeps_its_defaults(self):
        args = cli._build_parser().parse_args(["oracle", "--quantity", "loss-rr"])
        assert (args.construction, args.n, args.G, args.lam, args.lam_max, args.x0_preset,
                args.k) == (None, 4, 1.0, 1.0, 4.0, "worst-case", 5)

    @pytest.mark.parametrize("quantity", ["loss-ss", "loss-rr"])
    def test_oracle_takes_its_construction_from_the_quantity(self, capsys, monkeypatch,
                                                             quantity):
        built = []
        real = experiments.build_instance
        monkeypatch.setattr(experiments, "build_instance",
                            lambda construction, *rest: built.append(construction)
                            or real(construction, *rest))
        assert run_cli(capsys, "oracle", "--quantity", quantity, "--auto-eta")[0] == 0
        assert run_cli(capsys, "oracle", "--quantity", quantity, "--auto-eta",
                       "--construction", "rr")[0] == 0
        assert built == [quantity.removeprefix("loss-"), "rr"]


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
    @pytest.mark.parametrize("quantity, flags", [
        ("beta", []), ("perm-moment", []), ("sum-prod", []), ("stochastic-terms", []),
        ("keyup", ["--alphas", "0.1,0.2", "--betas", "1,-1"])])
    def test_monte_carlo_is_only_for_expected_losses(self, capsys, quantity, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--quantity", quantity, *flags, "--method", "monte-carlo",
                      "--samples", "10"])
        assert exc.value.code == 2
        assert f"--method monte-carlo applies to loss-ss and loss-rr, not {quantity}" in (
            capsys.readouterr().err)

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

    def test_stochastic_terms_prints_the_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--quantity", "stochastic-terms",
                               "--n", "8", "--eta-lmax", "0.1")
        assert code == 0
        values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert float(values["stochastic-terms expectation"]) == (
            analysis.stochastic_terms_exact(8, 0.1, 1.0))
        assert float(values["ceiling"]) == analysis.stochastic_terms_ceiling(8, 0.1, 1.0)

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

    @pytest.mark.parametrize("quantity, flags, unread", [
        ("beta", ["--n", "4", "--eta", "0.3", "--k", "99", "--samples", "5", "--seed", "3",
                  "--G", "7"], "--eta, --k, --samples, --seed, --G"),
        ("beta", ["--seed", "0"], "--seed"),  # given at its default value
        ("beta", ["--k=5"], "--k"),
        ("perm-moment", ["--eta-lmax", "0.3"], "--eta-lmax"),
        ("sum-prod", ["--lambda-max", "2", "--lambda", "1"], "--lambda-max, --lambda"),
        ("stochastic-terms", ["--auto-eta"], "--auto-eta"),
        ("keyup", ["--alphas", "0.5,0.5", "--betas", "1,-1", "--n", "4"], "--n"),
        ("loss-rr", ["--auto-eta", "--samples", "5"], "--samples"),
        ("loss-ss", ["--auto-eta", "--m", "2", "--eta-lmax", "0.1"], "--m, --eta-lmax"),
    ])
    def test_a_flag_the_quantity_does_not_read_is_a_usage_error(self, capsys, quantity,
                                                                flags, unread):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--quantity", quantity, *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f" does not read {unread}\n")

    @pytest.mark.parametrize("quantity, flags, label", [
        ("sum-prod", ["--n", "100", "--eta-lmax", "0.005"], "sum-prod expectation"),
        ("stochastic-terms", ["--n", "100", "--eta-lmax", "0.005"],
         "stochastic-terms expectation"),
        ("loss-rr", ["--n", "18", "--auto-eta"], "E[F(x_k)] random reshuffling"),
        ("loss-ss", ["--n", "500", "--k", "40", "--auto-eta", "--lambda-max", "200"],
         "E[F(x_k)] single shuffling"),
    ])
    def test_scanning_quantities_take_n_past_the_cap(self, capsys, quantity, flags, label):
        code, out, _ = run_cli(capsys, "oracle", "--quantity", quantity, *flags)
        values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert code == 0 and math.isfinite(float(values[label]))

    def test_n_help_names_the_enumerating_quantity(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["oracle", "--help"])
        assert "beta enumerates all C(n, n/2)" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("quantity, n, message", [
        ("beta", "7", "--n: n must be even and an integer >= 2, got 7"),
        ("beta", "18", "--n must be even and within [2, 16] for enumeration oracles, got 18"),
        ("perm-moment", "7", "--n: n must be even and an integer >= 2, got 7"),
    ])
    def test_bad_n_is_a_usage_error(self, capsys, quantity, n, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--quantity", quantity, "--n", n])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ") and f"error: {message}\n" in err

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

    @pytest.mark.parametrize("quantity, label", [("loss-ss", "single shuffling"),
                                                 ("loss-rr", "random reshuffling")])
    def test_loss_labels_are_the_scheme_labels(self, capsys, quantity, label):
        assert experiments.SCHEME_STYLES[quantity.removeprefix("loss-")].label == label
        code, out, _ = run_cli(capsys, "oracle", "--quantity", quantity, "--n", "10",
                               "--k", "3", "--auto-eta", "--lambda-max", "4")
        assert code == 0 and out.startswith(f"E[F(x_k)] {label} = ")

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--G", "nan", "G must be finite, got nan"),
        ("--lambda", "inf", "lam must be finite, got inf"),
        ("--lambda-max", "nan", "lam_max must be finite, got nan"),
    ])
    def test_non_finite_parameter_fails(self, capsys, flag, value, message):
        assert run_cli(capsys, "bounds", flag, value) == (1, "", f"error: {message}\n")


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

    def test_suites_keep_their_order(self, monkeypatch):
        assert verify.SUITES == ("lemmas", "closed-form", "conjugation", "envelopes")
        for name in verify.SUITES:
            monkeypatch.setitem(verify._SUITES, name,
                                lambda path, name=name: [verify.CheckResult(name, True, path)])
        checks = verify.run_suite("all", "cal.json")
        assert [(c.name, c.detail) for c in checks] == [(s, "cal.json") for s in verify.SUITES]
        assert verify.run_suite("conjugation") == [verify.CheckResult("conjugation", True, None)]
        with pytest.raises(ValueError, match="^unknown suite 'bogus'; choose from"):
            verify.run_suite("bogus")

    @pytest.mark.parametrize("doc", [[1, 2], {"beta_envelope_c_lo": 5},
                                     {"beta_envelope_c_lo": {"value": "0.04"}},
                                     {"beta_envelope_c_lo": {"value": float("nan")}}],
                             ids=["list", "number-entry", "string-value", "nan-value"])
    def test_malformed_calibration_file_fails_cleanly(self, capsys, tmp_path, doc):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--suite", "envelopes",
                                 "--calibration", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: calibration file {path}") and err.count("\n") == 1

    def test_calibration_file_missing_an_entry_fails_the_drift_check(self, capsys, tmp_path):
        doc = calibrate.load_calibration()
        del doc["rv_sq_c3"]
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--suite", "envelopes",
                               "--calibration", str(path))
        assert code == 1
        assert "[FAIL] stored calibration matches a fresh enumeration sweep" in out


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

    PLAN = {
        "construction": "ss", "n": 8, "G": 1.0, "lambda": 1.0, "lambda_max": 2.0,
        "k_values": [1, 2], "seeds": 2, "x0_preset": "fig1",
        "eta_rule": "recommended", "couple_rng": False, "seed_base": 5,
    }

    def test_sweep_from_plan_file(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(self.PLAN))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--plan", str(plan_path),
                             "--out-dir", str(out_dir))
        assert code == 0
        text = (out_dir / "records.csv").read_text()
        assert '"seed_base": 5' in text

    @pytest.mark.parametrize("doc, named", [
        ({"extra": 1}, "unknown plan keys: extra"),
        ([1, 2], "a plan must be a JSON object, got list"),
        ({"k_values": 5}, "k_values must be a list of integers"),
        ({"seeds": "2"}, "seeds must be an integer"),
        ({"lambda": None}, "lambda must be a number"),
        ({"G": 10**400}, "G must be finite, got an integer beyond the float range"),
    ])
    def test_malformed_plan_file_fails_cleanly(self, capsys, tmp_path, doc, named):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({**self.PLAN, **doc} if isinstance(doc, dict) else doc))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "sweep", "--plan", str(plan_path), "--jobs", "1",
                                 "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and named in err
        assert not out_dir.exists()

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

    def test_auto_eta_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--construction", "ss", "--n", "8", "--k-values", "1,2",
                      "--seeds", "2", "--auto-eta", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --auto-eta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_epochs_below_one_fail_before_any_work(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        for eta_flags in (["--eta", "0.01"], []):
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
        assert not out_dir.exists()


class TestReproduceFig1:
    def test_jobs_below_one_fails_before_any_work(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "reproduce-fig1", "--scale", "desk", "--jobs", "0",
                                 "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", "error: jobs must be >= 1, got 0\n")
        assert not out_dir.exists()

    def test_negative_seed_fails_before_any_work(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "reproduce-fig1", "--scale", "desk", "--seed", "-1",
                                 "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", "error: seed must be nonnegative, got -1\n")
        assert not out_dir.exists()

    def test_runs_every_construction(self, capsys, tmp_path, monkeypatch):
        ran = []
        real = experiments.run_sweeps

        def small_sweeps(plans, jobs=None):
            ran.extend(plan.construction for plan in plans)
            return real([dataclasses.replace(plan, k_values=(10, 25), seeds=2) for plan in plans],
                        jobs=1)

        monkeypatch.setattr(experiments, "run_sweeps", small_sweeps)
        out_dir = tmp_path / "out"
        assert run_cli(capsys, "reproduce-fig1", "--out-dir", str(out_dir), "--jobs", "1")[0] == 0
        assert tuple(ran) == model.CONSTRUCTIONS
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            f"fig1_{c}{suffix}" for c in model.CONSTRUCTIONS for suffix in (".svg", "_records.csv"))

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
        assert lines[0].split(",") == [f.name for f in dataclasses.fields(analysis.OracleRow)]
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

    @pytest.mark.parametrize("method", [["--method", "exact"],
                                        ["--method", "monte-carlo", "--samples", "50"]])
    def test_rows_read_back_equal(self, capsys, tmp_path, monkeypatch, method):
        written = []
        real = experiments.emit_csv
        monkeypatch.setattr(experiments, "emit_csv",
                            lambda rows, *rest: written.extend(rows) or real(rows, *rest))
        out = tmp_path / "oracle.csv"
        code, _, _ = run_cli(capsys, "oracle", "--quantity", "loss-ss", "--n", "6", "--k", "2",
                             "--auto-eta", *method, "--out", str(out))
        assert code == 0 and len(written) == 1
        assert experiments._read_csv(out, analysis.OracleRow) == written


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
