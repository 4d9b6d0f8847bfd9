import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflelab import analysis, engine, experiments, model
from shufflelab.engine import (
    RunConfig,
    Scheme,
    recommended_eta,
    run_sgd,
    run_sgd_closed_form,
    sample_permutation,
    sequence_map,
)
from shufflelab.verify import random_problem, random_rotation, trajectory_discrepancy


def two_point_problem() -> model.Problem:
    """n=2, 1-d, curvatures (1,1), linear (1,-1)."""
    return model.Problem(curvature_matrix=[[1.0], [1.0]], linear_matrix=[[1.0], [-1.0]],
                         lam=1.0, lam_max=1.0, smooth_l=1.0, grad_bound=2.0)


class TestRecommendedEta:
    def test_value(self):
        assert recommended_eta(500, 100, 1.0) == pytest.approx(
            math.log(50000) / 50000, rel=1e-15
        )
        assert recommended_eta(500, 100, 1.0) == pytest.approx(2.1640e-4, rel=1e-4)

    def test_lambda_scaling(self):
        assert recommended_eta(50, 10, 2.0) == pytest.approx(
            recommended_eta(50, 10, 1.0) / 2.0
        )

    def test_degenerate_nk(self):
        with pytest.raises(ValueError):
            recommended_eta(1, 1, 1.0)


class TestSamplePermutation:
    def test_n1_identity_consumes_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        np.testing.assert_array_equal(sample_permutation(1, rng), [0])
        assert rng.bit_generator.state["state"]["state"] == before

    def test_determinism(self):
        a = sample_permutation(20, np.random.default_rng(42))
        b = sample_permutation(20, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_uniform_over_n3(self):
        rng = np.random.default_rng(7)
        draws = 60000
        counts = {}
        for _ in range(draws):
            key = tuple(sample_permutation(3, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        p = 1.0 / 6.0
        sigma = math.sqrt(p * (1 - p) / draws)
        for key, c in counts.items():
            assert abs(c / draws - p) <= 4 * sigma, (key, c / draws)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_always_a_permutation(self, n, seed):
        perm = sample_permutation(n, np.random.default_rng(seed))
        assert sorted(perm.tolist()) == list(range(n))


class TestRunSgd:
    def test_zero_eta_fixed_point(self):
        p = model.build_ss_construction(4, 1.0, 1.0, 2.0)
        cfg = RunConfig(scheme=Scheme.RANDOM_RESHUFFLE, eta=0.0, epochs=3,
                        x0=[0.7, -0.4], seed=1)
        traj = run_sgd(p, cfg)
        for t in range(3):
            np.testing.assert_array_equal(traj.points[t], [0.7, -0.4])
        assert traj.final_loss == pytest.approx(model.objective(p, [0.7, -0.4]))

    def test_hand_stepped_example(self):
        # eta=0.5, x0=0, identity permutation: 0 -> 0.5 -> -0.25
        p = two_point_problem()
        cfg = RunConfig(scheme=Scheme.SINGLE_SHUFFLE, eta=0.5, epochs=1, x0=[0.0], seed=0)
        perms = []
        traj = run_sgd(p, cfg, perm_log=perms)
        contraction, noise = sequence_map(p, perms[0], 0.5)
        expected = contraction[0] * 0.0 + 0.5 * noise[0]
        assert traj.points[0][0] == pytest.approx(expected, rel=1e-15)
        if perms[0].tolist() == [0, 1]:
            assert traj.points[0][0] == pytest.approx(-0.25)

    def test_zero_linear_pure_contraction_exact(self):
        # dyadic factors so repeated products equal the closed-form powers exactly
        p = model.build_ss_construction(4, 0.0, 1.0, 1.5)
        x0 = np.array([1.0, 1.0])
        for scheme in Scheme:
            cfg = RunConfig(scheme=scheme, eta=0.5, epochs=3, x0=x0, seed=5)
            traj = run_sgd(p, cfg)
            nk = 4 * 3
            assert traj.points[-1][0] == 0.5**nk * x0[0]
            assert traj.points[-1][1] == 0.25**nk * x0[1]

    def test_bit_determinism(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        cfg = RunConfig(scheme=Scheme.RANDOM_RESHUFFLE, eta=0.01, epochs=4,
                        x0=[1.0, 0.0, 0.0], seed=99)
        a = run_sgd(p, cfg)
        b = run_sgd(p, cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.losses, b.losses)
        assert a.rng_algorithm_id == engine.RNG_ALGORITHM_ID

    def test_losses_match_objective(self):
        p = model.build_ss_construction(4, 1.0, 1.0, 2.0)
        cfg = RunConfig(scheme=Scheme.WITH_REPLACEMENT, eta=0.05, epochs=5,
                        x0=[1.0, 0.0], seed=3)
        traj = run_sgd(p, cfg)
        for t in range(5):
            ref = model.objective(p, traj.points[t])
            assert traj.losses[t] == pytest.approx(ref, rel=1e-12)

    def test_dimension_mismatch(self):
        p = model.build_ss_construction(4, 1.0, 1.0, 2.0)
        cfg = RunConfig(scheme=Scheme.SINGLE_SHUFFLE, eta=0.1, epochs=1,
                        x0=[0.0, 0.0, 0.0], seed=0)
        with pytest.raises(ValueError):
            run_sgd(p, cfg)

    def test_eta_above_one_over_l_warns_but_runs(self):
        p = model.build_ss_construction(4, 1.0, 1.0, 2.0)
        cfg = RunConfig(scheme=Scheme.SINGLE_SHUFFLE, eta=0.9, epochs=1,
                        x0=[0.1, 0.1], seed=0)
        with pytest.warns(RuntimeWarning):
            run_sgd(p, cfg)

    def test_scheme_separation_via_perm_log(self):
        p = model.build_ss_construction(6, 1.0, 1.0, 2.0)
        eta = recommended_eta(6, 4, 1.0)
        for scheme, expected in ((Scheme.SINGLE_SHUFFLE, 1), (Scheme.RANDOM_RESHUFFLE, 4)):
            perms = []
            run_sgd(p, RunConfig(scheme=scheme, eta=eta, epochs=4, x0=[1.0, 0.0], seed=2),
                    perm_log=perms)
            assert len(perms) == expected


class TestEpochMap:
    def test_eta_zero(self):
        p = two_point_problem()
        contraction, noise = sequence_map(p, [1, 0], 0.0)
        assert contraction[0] == 1.0
        assert noise[0] == pytest.approx(0.0)  # sum of b = 1 + (-1)

    def test_hand_example(self):
        p = two_point_problem()
        contraction, noise = sequence_map(p, [0, 1], 0.5)
        assert contraction[0] == pytest.approx(0.25)
        assert noise[0] == pytest.approx(-0.5)

    def test_contraction_is_permutation_free(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        eta = 0.03
        rng = np.random.default_rng(8)
        ref, _ = sequence_map(p, np.arange(6), eta)
        for _ in range(10):
            perm = sample_permutation(6, rng)
            np.testing.assert_allclose(sequence_map(p, perm, eta)[0], ref, rtol=1e-15)

    def test_contraction_in_unit_interval_when_eta_small(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        contraction, _ = sequence_map(p, np.arange(6), 0.2)  # eta * L = 0.8 <= 1
        assert np.all(contraction >= 0.0) and np.all(contraction <= 1.0)

    def test_map_equals_explicit_steps(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        eta = 0.05
        perm = sample_permutation(6, np.random.default_rng(11))
        contraction, noise = sequence_map(p, perm, eta)
        x = np.array([0.3, -0.7, 0.9])
        y = x.copy()
        for i in perm:
            y = y - eta * model.component_gradient(p, int(i), y)
        np.testing.assert_allclose(contraction * x + eta * noise, y, rtol=1e-12)


class TestClosedForm:
    def test_matches_stepwise_on_randomized_instances(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(200):
            p = random_problem(rng)
            eta = rng.uniform(0.1, 1.0) / p.smooth_l
            k = int(rng.integers(1, 6))
            scheme = list(Scheme)[int(rng.integers(0, 3))]
            cfg = RunConfig(scheme=scheme, eta=eta, epochs=k,
                            x0=rng.uniform(-2, 2, p.dim), seed=int(rng.integers(2**32)))
            worst = max(worst, trajectory_discrepancy(run_sgd(p, cfg),
                                                      run_sgd_closed_form(p, cfg)))
        assert worst <= 1e-10

    def test_single_shuffle_two_epoch_unroll(self):
        p = two_point_problem()
        cfg = RunConfig(scheme=Scheme.SINGLE_SHUFFLE, eta=0.25, epochs=2, x0=[2.0], seed=9)
        perms = []
        traj = run_sgd_closed_form(p, cfg, perm_log=perms)
        contraction, noise = sequence_map(p, perms[0], 0.25)
        s, x = contraction[0], noise[0]
        assert traj.points[1][0] == pytest.approx(s**2 * 2.0 + 0.25 * (1 + s) * x, rel=1e-12)

    def test_zero_curvature_coordinate_takes_limit_branch(self):
        # flat balanced coordinate: S == 1 exactly, x_k = x0 + eta*k*X with X = sum b = 0
        p = model.Problem(curvature_matrix=[[1.0, 0.0], [1.0, 0.0]],
                          linear_matrix=[[0.0, 0.5], [0.0, -0.5]],
                          lam=1.0, lam_max=1.0, smooth_l=1.0, grad_bound=1.0)
        cfg = RunConfig(scheme=Scheme.SINGLE_SHUFFLE, eta=0.1, epochs=5, x0=[1.0, 2.0], seed=0)
        traj = run_sgd_closed_form(p, cfg)
        contraction, _ = sequence_map(p, [0, 1], 0.1)
        assert contraction[1] == 1.0
        # X in the flat coordinate telescopes to sum(b) = 0, so x stays put
        assert traj.points[-1][1] == pytest.approx(2.0, rel=1e-12)
        ref = run_sgd(p, cfg)
        assert trajectory_discrepancy(traj, ref) <= 1e-12

    def test_geometric_factor_limit_branch(self):
        s = np.array([1.0, 0.5, 0.0])
        out = engine._geometric_factor(s, 4)
        np.testing.assert_allclose(out, [4.0, (1 - 0.5**4) / 0.5, 1.0])
        # a column of epoch counts broadcasts against s: one row per t
        t = np.array([[1], [3], [4], [50]])
        grid = engine._geometric_factor(s, t)
        assert grid.shape == (4, 3)
        np.testing.assert_array_equal(grid[:, 0], [1.0, 3.0, 4.0, 50.0])
        for row, count in zip(grid, t[:, 0]):
            np.testing.assert_array_equal(row, engine._geometric_factor(s, int(count)))

    def test_conjugation_equivariance_shared_stream(self):
        rng = np.random.default_rng(31)
        p = model.build_ss_construction(6, 1.0, 1.0, 3.0)
        O = random_rotation(2, rng)
        pc = model.conjugate(p, O)
        x0 = np.array([0.5, -0.25])
        for scheme in Scheme:
            cfg = RunConfig(scheme=scheme, eta=0.05, epochs=4, x0=x0, seed=77)
            cfg_rot = RunConfig(scheme=scheme, eta=0.05, epochs=4, x0=O @ x0, seed=77)
            base = run_sgd(p, cfg)
            rot = run_sgd(pc, cfg_rot)
            for t in range(4):
                err = np.linalg.norm(rot.points[t] - O @ base.points[t])
                assert err <= 1e-9 * (1.0 + np.linalg.norm(base.points[t]))
            np.testing.assert_allclose(rot.losses, base.losses, rtol=1e-10, atol=1e-300)


def swap_loop_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """High-to-low Fisher-Yates one element at a time, from one per-epoch
    draw call: the permutation sampler as RNG contract v1 defines it."""
    perm = list(range(n))
    draws = rng.integers(0, np.arange(n, 1, -1))
    for i in range(n - 1, 0, -1):
        j = draws[n - 1 - i]
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def per_epoch_closed_form(p: model.Problem, cfg: RunConfig):
    """Reference closed form that draws and applies one epoch map at a time,
    single shuffling included: (points, losses, perm_log)."""
    rng = np.random.default_rng(cfg.seed)
    y = model._to_diag_frame(p, cfg.x0)
    perms, ys = [], []
    if cfg.scheme is Scheme.SINGLE_SHUFFLE:
        perms.append(swap_loop_permutation(p.n, rng))
    for _ in range(cfg.epochs):
        if cfg.scheme is Scheme.WITH_REPLACEMENT:
            seq = rng.integers(0, p.n, size=p.n)
        elif cfg.scheme is Scheme.RANDOM_RESHUFFLE:
            seq = swap_loop_permutation(p.n, rng)
        else:
            seq = perms[0]
        if cfg.scheme is not Scheme.SINGLE_SHUFFLE:
            perms.append(seq)
        contraction, noise = sequence_map(p, seq, cfg.eta)
        y = contraction * y + cfg.eta * noise
        ys.append(y)
    points = np.array(ys)
    if p.conjugation is not None:
        points = points @ p.conjugation.T
    return points, np.array([model.objective(p, x) for x in points]), perms


class TestChunkedStream:
    """One generator call over several epochs draws exactly what one call per
    epoch draws, and leaves the generator in the same state."""

    DRAWS = {
        "rr": (lambda rng, n, c: rng.integers(0, np.tile(np.arange(n, 1, -1), c))),
        "wr": (lambda rng, n, c: rng.integers(0, n, size=n * c)),
    }

    @pytest.mark.parametrize("tag", ["rr", "wr"])
    @pytest.mark.parametrize("n", [2, 7, 100, 101, 500])
    def test_one_call_equals_per_epoch_calls(self, tag, n):
        draw = self.DRAWS[tag]
        epochs = 9
        for seed in (0, 12345):
            once, split, per_epoch = (np.random.default_rng(seed) for _ in range(3))
            whole = draw(once, n, epochs)
            halves = np.concatenate([draw(split, n, 4), draw(split, n, epochs - 4)])
            epochwise = np.concatenate([draw(per_epoch, n, 1) for _ in range(epochs)])
            np.testing.assert_array_equal(whole, epochwise)
            np.testing.assert_array_equal(halves, epochwise)
            nxt = [g.integers(0, 2**63) for g in (once, split, per_epoch)]
            assert nxt[0] == nxt[1] == nxt[2]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 101])
    def test_permutation_rows_equal_swap_loop(self, n):
        # row counts on both sides of the scalar/vectorized switch
        for count, seed in itertools.product((1, engine._SCALAR_WIDTH - 1,
                                              engine._SCALAR_WIDTH, 11), (0, 5)):
            rows_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            # rows of a longer bound array, as a chunk shorter than the first takes them
            bounds = engine._fisher_yates_bounds(n, 12)
            rows = engine._fisher_yates(engine._draws(engine.Scheme.RANDOM_RESHUFFLE, n, count,
                                                      rows_rng, bounds))
            assert rows.shape == (count, n) and rows.flags.c_contiguous
            for row in rows:
                np.testing.assert_array_equal(row, swap_loop_permutation(n, loop_rng))
            assert rows_rng.integers(0, 2**63) == loop_rng.integers(0, 2**63)

    def test_sample_permutation_is_the_one_row_case(self):
        for n in (2, 3, 10, 500):
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(3):
                np.testing.assert_array_equal(sample_permutation(n, a),
                                              swap_loop_permutation(n, b))


class TestChunkedRuns:
    """The chunked closed form against the per-epoch reference loop."""

    @staticmethod
    def assert_matches_reference(p, cfg):
        log = []
        traj = run_sgd_closed_form(p, cfg, perm_log=log)
        points, losses, perms = per_epoch_closed_form(p, cfg)
        assert len(log) == len(perms)
        for got, want in zip(log, perms):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(traj.points, points, rtol=1e-12, atol=0)
        np.testing.assert_allclose(traj.losses, losses, rtol=1e-12, atol=0)
        assert traj.points.flags.c_contiguous  # the layout downstream kernels see

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_odd_n_random_problems(self, scheme):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 12:
            p = random_problem(rng, max_n=9)
            if p.n % 2 == 0:
                continue
            cfg = RunConfig(scheme=scheme, eta=rng.uniform(0.1, 1.0) / p.smooth_l,
                            epochs=int(rng.integers(1, 30)), x0=rng.uniform(-2, 2, p.dim),
                            seed=int(rng.integers(2**32)))
            self.assert_matches_reference(p, cfg)
            checked += 1

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rotated_problem(self, scheme):
        p = model.build_rr_construction(100, 1.0, 1.0, 8.0)
        O = random_rotation(3, np.random.default_rng(6))
        cfg = RunConfig(scheme=scheme, eta=recommended_eta(100, 400, 1.0), epochs=400,
                        x0=O @ np.array([1.0, 0.5, -0.5]), seed=8)
        self.assert_matches_reference(model.conjugate(p, O), cfg)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_paper_scale_run_crosses_many_chunks(self, scheme):
        n, k = 500, 2000
        assert k > 10 * (engine._CHUNK_ENTRIES // n)
        p = model.build_ss_construction(n, 1.0, 1.0, 200.0)
        cfg = RunConfig(scheme=scheme, eta=recommended_eta(n, k, 1.0), epochs=k,
                        x0=[1.0, 0.5], seed=2021)
        self.assert_matches_reference(p, cfg)

    @pytest.mark.parametrize("scheme", [Scheme.WITH_REPLACEMENT, Scheme.RANDOM_RESHUFFLE])
    @pytest.mark.parametrize("case", ["desk-fig1-rr", "paper-ss", "rotated-rr"])
    def test_points_bit_identical_to_reference(self, case, scheme):
        # Both routes map an epoch through `tail_products` and apply it as
        # contraction*y + eta*noise, so the iterates agree exactly.
        if case == "rotated-rr":
            O = random_rotation(3, np.random.default_rng(6))
            p = model.conjugate(model.build_rr_construction(100, 1.0, 1.0, 8.0), O)
            k, eta, x0 = 400, recommended_eta(100, 400, 1.0), O @ np.array([1.0, 0.5, -0.5])
        else:
            plan = (experiments.desk_plan("rr") if case == "desk-fig1-rr"
                    else experiments.paper_plan("ss"))
            k = max(plan.k_values)
            p, x0 = experiments.resolve_problem(plan)
            eta = plan.eta_for(k)
        assert k > 2 * (engine._CHUNK_ENTRIES // p.n)
        cfg = RunConfig(scheme=scheme, eta=eta, epochs=k, x0=x0, seed=2021)
        points, _, _ = per_epoch_closed_form(p, cfg)
        np.testing.assert_array_equal(run_sgd_closed_form(p, cfg).points, points)


class TestFinalLosses:
    """Batched final losses against one `run_sgd_closed_form` call per run."""

    @staticmethod
    def assert_matches_per_run(p, scheme, eta, k, x0, seeds):
        got = engine.final_losses(p, scheme, eta, k, x0, seeds)
        want = [run_sgd_closed_form(p, RunConfig(scheme, eta, k, x0, s)).final_loss
                for s in seeds]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_odd_n_random_problems(self, scheme):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 8:
            p = random_problem(rng, max_n=9)
            if p.n % 2 == 0:
                continue
            seeds = [int(s) for s in rng.integers(2**63, size=int(rng.integers(1, 6)))]
            self.assert_matches_per_run(p, scheme, rng.uniform(0.1, 1.0) / p.smooth_l,
                                        int(rng.integers(1, 30)), rng.uniform(-2, 2, p.dim),
                                        seeds)
            checked += 1

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rotated_problem(self, scheme):
        p = model.build_rr_construction(100, 1.0, 1.0, 8.0)
        O = random_rotation(3, np.random.default_rng(6))
        # runs x d = 6 and 9 lanes: one block on each side of the scalar/numpy
        # switch of the map recurrence; the first starts from a broadcast y0
        for seeds in ([8, 9], [8, 9, 2**64 - 1]):
            self.assert_matches_per_run(model.conjugate(p, O), scheme,
                                        recommended_eta(100, 20, 1.0), 20,
                                        O @ np.array([1.0, 0.5, -0.5]), seeds)
        assert 2 * p.dim < engine._SCALAR_WIDTH <= 3 * p.dim

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_divergent_eta_overflows_alike(self, scheme):
        # eta*L = 4: factors 1 - eta*a reach -3, so the iterates overflow to
        # inf and the losses to inf or nan; lone runs and blocks on either
        # side of the scalar/numpy switch give the same values
        n, k = 10, 300
        p = model.build_rr_construction(n, 1.0, 1.0, 4.0)
        for seeds in ([5, 6], [5, 6, 7, 8]):
            with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
                warnings.filterwarnings("ignore", "eta\\*L", RuntimeWarning)
                got = engine.final_losses(p, scheme, 1.0, k, [1.0, 0.5, -0.5], seeds)
                runs = [run_sgd_closed_form(p, RunConfig(scheme, 1.0, k, [1.0, 0.5, -0.5], s))
                        for s in seeds]
                reference, _, _ = per_epoch_closed_form(p, runs[0].config)
            assert np.array_equal(got, [r.final_loss for r in runs], equal_nan=True)
            assert not np.isfinite(got).any()
            if scheme is not Scheme.SINGLE_SHUFFLE:  # the schemes that take the recurrence
                np.testing.assert_array_equal(runs[0].points, reference)  # inf signs, nan places
        assert 2 * p.dim < engine._SCALAR_WIDTH <= 4 * p.dim

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_seeds_span_several_chunks(self, scheme):
        n, k = 10, 5
        seeds = [TestSeedRule.first_word(3, (r,)) for r in range(900)]
        assert len(seeds) * k * n > 2 * engine._CHUNK_ENTRIES
        p = model.build_rr_construction(n, 1.0, 1.0, 4.0)
        self.assert_matches_per_run(p, scheme, recommended_eta(n, k, 1.0), k,
                                    [1.0, 0.5, -0.5], seeds)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_one_run_longer_than_a_chunk(self, scheme):
        n, k = 500, 40
        assert k * n > engine._CHUNK_ENTRIES
        p = model.build_ss_construction(n, 1.0, 1.0, 200.0)
        self.assert_matches_per_run(p, scheme, recommended_eta(n, k, 1.0), k,
                                    [1.0, 0.5], [2021, 7])

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_block_mixes_seed_word_counts(self, scheme):
        # seeds below 2**32 hash one entropy word, the others two
        seeds = [3, 2**32 - 1, 2**32, 17, 2**40 + 9, 0, 2**64 - 1]
        p = model.build_rr_construction(10, 1.0, 1.0, 4.0)
        assert len(seeds) * 10 * 5 <= engine._CHUNK_ENTRIES  # one block
        self.assert_matches_per_run(p, scheme, recommended_eta(10, 5, 1.0), 5,
                                    [1.0, 0.5, -0.5], seeds)

    def test_mc_expected_loss_equals_per_run_loop(self):
        n, k, runs = 10, 5, 500
        p = model.build_ss_construction(n, 1.0, 1.0, 4.0)
        x0 = model.preset_x0("ss", "worst-case", 1.0, 1.0, 4.0)
        eta = recommended_eta(n, k, 1.0)
        for scheme in Scheme:
            losses = np.array([
                run_sgd_closed_form(p, RunConfig(scheme, eta, k, x0,
                                                 TestSeedRule.first_word(11, (r,)))).final_loss
                for r in range(runs)
            ])
            want = (float(np.mean(losses)),
                    float(np.std(losses, ddof=1) / math.sqrt(runs)))
            assert analysis.mc_expected_loss(p, scheme, eta, k, x0, runs, seed=11) == want

    @pytest.mark.parametrize("eta, k, seeds, message", [
        (-0.1, 3, [0], "eta must be nonnegative"),
        (0.1, 0, [0], "epochs must be >= 1"),
        (0.1, 3, [0, -1], "seed must fit in 64 unsigned bits"),
        (0.1, 3, [2**64], "seed must fit in 64 unsigned bits"),
        (math.nan, 3, [0], "^eta must be finite, got nan$"),
        (math.inf, 3, [0], "^eta must be finite, got inf$"),
    ])
    def test_bad_input_rejected_like_run_config(self, eta, k, seeds, message):
        p = two_point_problem()
        with pytest.raises(ValueError, match=message):
            engine.final_losses(p, Scheme.RANDOM_RESHUFFLE, eta, k, [0.0], seeds)
        with pytest.raises(ValueError, match=message):
            for s in seeds:
                RunConfig(Scheme.RANDOM_RESHUFFLE, eta, k, [0.0], s)


class TestTailProducts:
    def test_batch_axes_match_row_by_row(self):
        rng = np.random.default_rng(17)
        for shape in ((3, 2, 7), (4, 1, 2), (2, 3, 1)):
            factors = rng.uniform(-1.0, 1.0, shape)
            b = rng.normal(size=shape)
            P, Q = engine.tail_products(factors, b)
            assert P.shape == Q.shape == shape[:-1]
            for i in range(shape[0]):
                for j in range(shape[1]):
                    p_row, q_row = engine.tail_products(factors[i, j], b[i, j])
                    assert P[i, j] == p_row and Q[i, j] == q_row

    def test_matches_direct_sums(self):
        factors = np.array([0.5, 0.25, 2.0])
        b = np.array([1.0, -3.0, 4.0])
        P, Q = engine.tail_products(factors, b)
        assert P == 0.25
        assert Q == 1.0 * 0.25 * 2.0 - 3.0 * 2.0 + 4.0


class TestSeedRule:
    @staticmethod
    def first_word(entropy, key):
        ss = np.random.SeedSequence(entropy=entropy, spawn_key=key)
        return int(ss.generate_state(1, np.uint64)[0])

    def test_derive_run_seed(self):
        for master in (0, 7, 101, 102):
            for index in (0, 1, 19999):
                assert analysis.derive_run_seed(master, index) == self.first_word(
                    master, (index,)
                )

    def test_run_seed_for_both_key_shapes(self):
        for base in (0, 101, 102):
            for couple in (False, True):
                plan = dataclasses.replace(experiments.desk_plan("ss", seed_base=base),
                                           couple_rng=couple)
                for code, tag in enumerate(experiments.SCHEME_ORDER):
                    for k, s in ((10, 0), (400, 99)):
                        key = (k, s) if couple else (code, k, s)
                        assert experiments.run_seed_for(plan, tag, k, s) == self.first_word(
                            base, key
                        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            engine.derive_seed(-1, (0,))
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            experiments.desk_plan("ss", seed_base=-1)

    @pytest.mark.parametrize("entropy", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**200])
    def test_derive_seed_matches_seed_sequence(self, entropy):
        for key in [(), (0,), (2**32 - 1,), (2**32,), (2**64 - 1,), (2**70 + 3,),
                    (1, 2**32 + 7, 3), (2**40, 0, 2**63), (5, 6, 7)]:
            assert engine.derive_seed(entropy, key) == self.first_word(entropy, key)

    def test_mixed_word_counts_in_one_call(self):
        keys = [(1, 2), (2**32, 2), (1, 2**33), (2**64 - 1, 0), (0, 0), (2**32 - 1, 2**48)]
        assert engine.derive_seeds(101, keys) == [self.first_word(101, k) for k in keys]
        keys = np.array(keys, dtype=np.uint64)
        assert engine.derive_seeds(7, keys) == [self.first_word(7, tuple(map(int, k)))
                                                for k in keys]
        huge = [(3,), (2**64,), (2**100 + 1,), (2**32,)]  # object-dtype keys
        assert engine.derive_seeds(2**64, huge) == [self.first_word(2**64, k) for k in huge]

    def test_many_keys_match(self):
        keys = np.arange(20000)[:, None]
        got = engine.derive_seeds(102, keys)
        assert got == [self.first_word(102, (r,)) for r in range(20000)]

    def test_generators_match_default_rng(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**40 + 17, 2**64 - 1]
        gens = list(engine._generators(np.array(seeds, dtype=np.uint64)))
        assert len(gens) == len(seeds)
        for seed, gen in zip(seeds, gens):
            ref = np.random.default_rng(seed)
            assert gen.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(gen.bit_generator.random_raw(64),
                                          ref.bit_generator.random_raw(64))

    @pytest.mark.parametrize("entropy, key", [(-1, (0,)), (0, (-1,)), (3, (1, -2**40, 2))])
    def test_negative_entropy_or_key_rejected_as_numpy_does(self, entropy, key):
        with pytest.raises(ValueError):
            np.random.SeedSequence(entropy, spawn_key=key)
        with pytest.raises(ValueError):
            engine.derive_seed(entropy, key)
        with pytest.raises(ValueError):
            engine.derive_seeds(entropy, [(0,) * len(key), key])


class TestTrajectoryCsv:
    def test_round_trippable_and_annotated(self, tmp_path):
        p = model.build_ss_construction(4, 1.0, 1.0, 2.0)
        cfg = RunConfig(scheme=Scheme.RANDOM_RESHUFFLE, eta=0.02, epochs=3,
                        x0=[1.0, 0.0], seed=12)
        traj = run_sgd(p, cfg)
        path = tmp_path / "traj.csv"
        engine.write_trajectory_csv(traj, path)
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
