import dataclasses
import itertools
import json
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

    @pytest.mark.parametrize("n, k, lam, message", [
        (10, 5, math.nan, "^lam must be finite, got nan$"),
        (10, 5, math.inf, "^lam must be finite, got inf$"),
        (10, 5, 0.0, "^lam must be positive$"),
        (10, 2.5, 1.0, "^n and k must be integers, got 10 and 2.5$"),
        (10.0, 5, 1.0, "^n and k must be integers, got 10.0 and 5$"),
        (10, True, 1.0, "^n and k must be integers, got 10 and True$"),
    ])
    def test_bad_parameters_rejected(self, n, k, lam, message):
        with pytest.raises(ValueError, match=message):
            recommended_eta(n, k, lam)


class TestSchemeLookup:
    """Each engine entry point looks its scheme up in `Scheme`: a member and
    its tag give the same values, and a value that names no scheme raises."""

    ENTRIES = {
        "run_sgd": lambda s: engine.run_sgd(
            two_point_problem(), RunConfig(s, 0.1, 3, [0.5], 7)).losses,
        "run_sgd_closed_form": lambda s: engine.run_sgd_closed_form(
            two_point_problem(), RunConfig(s, 0.1, 3, [0.5], 7)).losses,
        "final_losses": lambda s: engine.final_losses(
            [two_point_problem()], s, 0.1, 3, [[0.5]], [7, 8, 9]),
        "mc_expected_loss": lambda s: analysis.mc_expected_loss(
            two_point_problem(), s, 0.1, 3, [0.5], runs=4, seed=7),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_member_or_tag_and_nothing_else(self, entry):
        run = self.ENTRIES[entry]
        for scheme in Scheme:
            np.testing.assert_array_equal(run(scheme.value), run(scheme))
        assert not np.array_equal(run("wr"), run("rr"))  # "wr" is no longer run as rr
        for value in ("bogus", None, "WR", 1):
            with pytest.raises(ValueError, match=f"^unknown scheme {value!r}; "
                                                 "choose from wr, ss, rr$"):
                run(value)

    def test_from_tag_is_the_lookup(self):
        assert Scheme.from_tag("ss") is Scheme("ss") is Scheme.SINGLE_SHUFFLE
        assert RunConfig("wr", 0.1, 3, [0.5], 7).scheme is Scheme.WITH_REPLACEMENT


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
        traj = run_sgd(p, cfg)
        perm = sample_permutation(2, np.random.default_rng(0))  # the run's one permutation
        contraction, noise = sequence_map(p, perm, 0.5)
        expected = contraction[0] * 0.0 + 0.5 * noise[0]
        assert traj.points[0][0] == pytest.approx(expected, rel=1e-15)
        if perm.tolist() == [0, 1]:
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

    def test_scheme_separation_against_explicit_loop(self):
        # Distinct rows, so the iterates pin the index order (rows of a
        # two-type construction are interchangeable within a type): single
        # shuffling reuses its one permutation, reshuffling draws one per epoch.
        rng = np.random.default_rng(2)
        p = random_problem(rng)
        rows = np.hstack([p.curvature_matrix, p.linear_matrix])
        assert len(np.unique(rows, axis=0)) == p.n >= 4
        eta, epochs, x0 = 0.5 / p.smooth_l, 4, rng.uniform(-1.0, 1.0, p.dim)
        points = {}
        for scheme in (Scheme.SINGLE_SHUFFLE, Scheme.RANDOM_RESHUFFLE):
            stream = np.random.default_rng(2)
            perm = sample_permutation(p.n, stream)
            x, points[scheme] = x0.copy(), []
            for t in range(epochs):
                if t > 0 and scheme is Scheme.RANDOM_RESHUFFLE:
                    perm = sample_permutation(p.n, stream)
                for i in perm:
                    x = x - eta * model.component_gradient(p, int(i), x)
                points[scheme].append(x)
            traj = run_sgd(p, RunConfig(scheme=scheme, eta=eta, epochs=epochs, x0=x0, seed=2))
            assert np.array_equal(traj.points, points[scheme])
        ss, rr = (np.array(points[s]) for s in (Scheme.SINGLE_SHUFFLE, Scheme.RANDOM_RESHUFFLE))
        assert np.array_equal(ss[0], rr[0]) and not np.array_equal(ss[1:], rr[1:])


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
        traj = run_sgd_closed_form(p, cfg)
        perm = sample_permutation(2, np.random.default_rng(9))  # the run's one permutation
        contraction, noise = sequence_map(p, perm, 0.25)
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


def distinct_rows_problem(n: int) -> model.Problem:
    """A two-dimensional instance whose n rows all differ, so a run's
    iterates pin every index it draws.  (With d = 1 the reference's
    `sequence_map` sums contiguous rows, whose einsum may round differently.)"""
    rng = np.random.default_rng(n)
    curv = rng.uniform(0.2, 2.0, (n, 2))
    mean = curv.mean(axis=0)
    return model.Problem(curvature_matrix=curv, linear_matrix=rng.uniform(-1.0, 1.0, (n, 2)),
                         lam=float(mean.min()), lam_max=float(mean.max()),
                         smooth_l=float(curv.max()), grad_bound=1.0)


def per_epoch_closed_form(p: model.Problem, cfg: RunConfig):
    """Reference closed form that draws and applies one epoch map at a time,
    single shuffling included: (points, losses)."""
    rng = np.random.default_rng(cfg.seed)
    y = model._to_diag_frame(p, cfg.x0)
    ys = []
    if cfg.scheme is Scheme.SINGLE_SHUFFLE:
        fixed = swap_loop_permutation(p.n, rng)
    for _ in range(cfg.epochs):
        if cfg.scheme is Scheme.WITH_REPLACEMENT:
            seq = rng.integers(0, p.n, size=p.n)
        elif cfg.scheme is Scheme.RANDOM_RESHUFFLE:
            seq = swap_loop_permutation(p.n, rng)
        else:
            seq = fixed
        contraction, noise = sequence_map(p, seq, cfg.eta)
        y = contraction * y + cfg.eta * noise
        ys.append(y)
    points = np.array(ys)
    if p.conjugation is not None:
        points = points @ p.conjugation.T
    return points, np.array([model.objective(p, x) for x in points])


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
            rows = engine._fisher_yates(rows_rng.integers(0, bounds[:count]))
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


class TestStream:
    """A run's raw-word draws against numpy's generator, call after call."""

    @pytest.mark.parametrize("n", [2, 9, 500])
    def test_successive_calls_match_integers(self, n, monkeypatch):
        # Odd word counts (3 draws at n = 2, 9 at n = 9, 1497 at n = 500)
        # leave a high half for the next call; at the bound 2**31 + 1 numpy
        # rejects about half its words, so those calls are numpy's own and
        # the next call starts from the generator's state.
        made = []
        generator = np.random.Generator
        monkeypatch.setattr(np.random, "Generator",
                            lambda bit_generator: made.append(1) or generator(bit_generator))
        shuffle, uniform, wide = np.arange(n, 1, -1), np.full(n, n), np.full(3, 2**31 + 1)
        calls = [(shuffle, 3), (uniform, 1), (wide, 1), (shuffle, 2), (uniform, 5),
                 (wide, 3), (shuffle, 1)]
        for seed in (0, 5, 2**32 + 3, 2**64 - 1, 12345):
            stream, rng = engine._Stream(seed), np.random.default_rng(seed)
            for bounds, rows in calls:
                want = rng.integers(0, np.tile(bounds, (rows, 1)))
                np.testing.assert_array_equal(stream.integers(bounds, rows), want)
        assert made


class TestChunkedRuns:
    """The chunked closed form against the per-epoch reference loop."""

    @staticmethod
    def assert_matches_reference(p, cfg):
        traj = run_sgd_closed_form(p, cfg)
        points, losses = per_epoch_closed_form(p, cfg)
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
    @pytest.mark.parametrize("case", ["desk-fig1-rr", "paper-ss", "rotated-rr",
                                      "odd-chunks-n201", "odd-passes-n420"])
    def test_points_bit_identical_to_reference(self, case, scheme):
        # Both routes map an epoch through `tail_products` and apply it as
        # contraction*y + eta*noise, so the iterates agree exactly.
        if case == "rotated-rr":
            O = random_rotation(3, np.random.default_rng(6))
            p = model.conjugate(model.build_rr_construction(100, 1.0, 1.0, 8.0), O)
            k, eta, x0 = 400, recommended_eta(100, 400, 1.0), O @ np.array([1.0, 0.5, -0.5])
        elif case.startswith("odd"):
            # Odd word counts per call: at n = 201 a with-replacement chunk
            # draws 81 x 201 words, at n = 420 a reshuffling pass of three
            # chunks 117 x 419, so the next call starts on a carried half.
            n, k = (201, 200) if case == "odd-chunks-n201" else (420, 300)
            p, x0 = distinct_rows_problem(n), [1.0, -0.5]
            eta = recommended_eta(n, k, p.lam)
        else:
            plan = (experiments.desk_plan("rr") if case == "desk-fig1-rr"
                    else experiments.paper_plan("ss"))
            k = max(plan.k_values)
            p, x0 = experiments.resolve_problem(plan)
            eta = plan.eta_for(k)
        assert k > 2 * (engine._CHUNK_ENTRIES // p.n)
        cfg = RunConfig(scheme=scheme, eta=eta, epochs=k, x0=x0, seed=2021)
        points, _ = per_epoch_closed_form(p, cfg)
        np.testing.assert_array_equal(run_sgd_closed_form(p, cfg).points, points)

    def test_lemire_rejection_mid_run(self):
        # Seed 122, found by scanning: numpy rejects the word of draw 64915
        # (epoch 130) of this n = 500 reshuffling run, in its second
        # Fisher-Yates pass, so that pass's draws are numpy's own and the
        # third starts from its state, on a carried half.  About 0.4% of
        # k = 300 runs at n = 500 hit a rejection.
        n, k, seed = 500, 300, 122
        raw = np.random.PCG64(seed).random_raw((k * (n - 1) + 1) // 2)
        words = np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=1).reshape(-1)
        bounds = np.tile(np.arange(n, 1, -1, dtype=np.uint64), k)
        low = words[:bounds.size] * bounds & 0xFFFFFFFF
        assert np.flatnonzero(low < 2**32 % bounds)[0] == 64915
        p = distinct_rows_problem(n)
        cfg = RunConfig(Scheme.RANDOM_RESHUFFLE, recommended_eta(n, k, p.lam), k, [1.0, -0.5],
                        seed)
        points, _ = per_epoch_closed_form(p, cfg)
        np.testing.assert_array_equal(run_sgd_closed_form(p, cfg).points, points)


def coupled_problems(n: int):
    """(problem, x0) pairs of one n: the 2-d construction, whose components
    share their factors, the 3-d one, whose third factor column varies, and
    the 3-d one rotated."""
    O = random_rotation(3, np.random.default_rng(6))
    rr = model.build_rr_construction(n, 1.0, 1.0, 8.0)
    return [(model.build_ss_construction(n, 1.0, 1.0, 8.0), np.array([1.0, 0.5])),
            (rr, np.array([0.5, -1.0, 0.25])),
            (model.conjugate(rr, O), O @ np.array([1.0, 0.5, -0.5]))]


class TestCoupledRuns:
    """`final_losses` over several problems of one n: one index stream per
    seed mapped through every problem equals each problem batched alone and
    one `run_sgd_closed_form` call per run, bit for bit."""

    # each k's seed blocks: one of >= _ARRAY_RUNS runs drawn as array
    # expressions, a 16-run and a 4-run block of streams, and lone runs
    # over several chunks and Fisher-Yates passes
    BLOCKS = {1: [40], 10: [16, 4], 400: [1, 1]}

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("k", [1, 10, 400])
    def test_equals_lone_runs(self, scheme, k):
        n, blocks = 100, self.BLOCKS[k]
        seeds = [2021 + r for r in range(sum(blocks))]
        per_block = max(1, engine._CHUNK_ENTRIES // (k * n))
        assert [min(per_block, len(seeds) - first)
                for first in range(0, len(seeds), per_block)] == blocks
        assert (min(blocks) >= engine._ARRAY_RUNS) == (k == 1)
        if k == 400:
            assert k > 2 * (engine._CHUNK_ENTRIES // n)
        problems, x0s = zip(*coupled_problems(n))
        eta = recommended_eta(n, k, 1.0)
        got = engine.final_losses(problems, scheme, eta, k, x0s, seeds)
        assert got.shape == (len(problems), len(seeds))
        for p, x0, row in zip(problems, x0s, got):
            assert np.array_equal(row, engine.final_losses([p], scheme, eta, k, [x0], seeds)[0])
            lone = [run_sgd_closed_form(p, RunConfig(scheme, eta, k, x0, s)) for s in seeds]
            assert np.array_equal(row, [traj.final_loss for traj in lone])
            if scheme is not Scheme.SINGLE_SHUFFLE:
                np.testing.assert_array_equal(lone[0].points,
                                              per_epoch_closed_form(p, lone[0].config)[0])

    def test_order_of_the_problems_changes_nothing(self):
        problems, x0s = zip(*coupled_problems(20))
        args = Scheme.RANDOM_RESHUFFLE, 0.01, 30
        forward = engine.final_losses(problems, *args, x0s, [5, 6, 7])
        backward = engine.final_losses(problems[::-1], *args, x0s[::-1], [5, 6, 7])[::-1]
        np.testing.assert_array_equal(forward, backward)

    def test_unequal_n_rejected(self):
        (p, x0), (q, y0) = coupled_problems(10)[0], coupled_problems(12)[1]
        with pytest.raises(ValueError, match="^problems must share n, got 10 and 12$"):
            engine.final_losses([p, q], Scheme.RANDOM_RESHUFFLE, 0.01, 3, [x0, y0], [5])

    @pytest.mark.parametrize("starts", [1, 3])
    def test_one_x0_per_problem(self, starts):
        (p, x0), (q, y0) = coupled_problems(10)[:2]
        x0s = [x0, y0, y0][:starts]
        with pytest.raises(ValueError, match=f"^final_losses needs one x0 per problem, "
                                             f"got {starts} x0s for 2 problems$"):
            engine.final_losses([p, q], Scheme.RANDOM_RESHUFFLE, 0.01, 3, x0s, [5])

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="^final_losses needs at least one problem$"):
            engine.final_losses([], Scheme.RANDOM_RESHUFFLE, 0.01, 3, [], [5])


class TestFinalLosses:
    """Batched final losses against one `run_sgd_closed_form` call per run."""

    @staticmethod
    def assert_matches_per_run(p, scheme, eta, k, x0, seeds):
        got = engine.final_losses([p], scheme, eta, k, [x0], seeds)[0]
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
                got = engine.final_losses([p], scheme, 1.0, k, [[1.0, 0.5, -0.5]], seeds)[0]
                runs = [run_sgd_closed_form(p, RunConfig(scheme, 1.0, k, [1.0, 0.5, -0.5], s))
                        for s in seeds]
                reference, _ = per_epoch_closed_form(p, runs[0].config)
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
        # seeds below 2**32 hash one entropy word, the others two; 7 runs
        # draw from a generator each, 35 as array expressions
        seeds = [3, 2**32 - 1, 2**32, 17, 2**40 + 9, 0, 2**64 - 1]
        more = [s ^ r for r in range(1, 5) for s in seeds]
        p = model.build_rr_construction(10, 1.0, 1.0, 4.0)
        assert len(seeds) < engine._ARRAY_RUNS <= len(seeds + more)
        assert len(seeds + more) * 10 * 5 <= engine._CHUNK_ENTRIES  # one block
        for block in (seeds, seeds + more):
            self.assert_matches_per_run(p, scheme, recommended_eta(10, 5, 1.0), 5,
                                        [1.0, 0.5, -0.5], block)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_stream_blocks_match_numpy_reference(self, scheme):
        # Blocks of 2-31 runs draw from one stream per run; at n = 100,
        # k = 40 a chunk holds 4 runs, so 9 seeds make blocks of 4, 4 and 1.
        for n, k, count in ((10, 5, 2), (10, 5, 31), (100, 40, 9)):
            p = distinct_rows_problem(n)
            eta = recommended_eta(n, k, p.lam)
            seeds = [TestSeedRule.first_word(9, (r,)) for r in range(count)]
            x0 = [1.0, -0.5]
            want = [per_epoch_closed_form(p, RunConfig(scheme, eta, k, x0, s))[1][-1]
                    for s in seeds]
            got = engine.final_losses([p], scheme, eta, k, [x0], seeds)[0]
            if scheme is Scheme.SINGLE_SHUFFLE:  # the geometric closed form rounds apart
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            else:
                np.testing.assert_array_equal(got, want)

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
        (10**400, 3, [0], "^eta must be finite, got an integer beyond the float range$"),
    ])
    def test_bad_input_rejected_like_run_config(self, eta, k, seeds, message):
        p = two_point_problem()
        with pytest.raises(ValueError, match=message):
            engine.final_losses([p], Scheme.RANDOM_RESHUFFLE, eta, k, [[0.0]], seeds)
        with pytest.raises(ValueError, match=message):
            for s in seeds:
                RunConfig(Scheme.RANDOM_RESHUFFLE, eta, k, [0.0], s)


def _rr_config(**fields):
    return dataclasses.replace(RunConfig(Scheme.RANDOM_RESHUFFLE, 0.1, 2, [0.0], 1), **fields)


def _final_losses(k, seeds):
    return engine.final_losses([two_point_problem()], Scheme.RANDOM_RESHUFFLE, 0.1, k, [[0.0]],
                               seeds)[0]


def _desk_plan(**fields):
    return dataclasses.replace(experiments.desk_plan("ss"), **fields)


def _mc_estimate(runs=2, seed=0):
    return analysis.mc_expected_loss(two_point_problem(), Scheme.RANDOM_RESHUFFLE, 0.1, 2,
                                     [0.0], runs, seed=seed)


class TestIntegerInputs:
    """Counts and seeds must be Python or numpy integers, not floats,
    strings or bools; the error names the value."""

    @pytest.mark.parametrize("make, message", [
        (lambda: _rr_config(epochs=2.5), "epochs must be an integer, got 2.5"),
        (lambda: _rr_config(epochs=True), "epochs must be an integer, got True"),
        (lambda: _rr_config(seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: _rr_config(seed=False), "seed must be an integer, got False"),
        (lambda: _final_losses(2.5, [0]), "epochs must be an integer, got 2.5"),
        (lambda: _final_losses(2, [0, 1.5]), "seed must be an integer, got 1.5"),
        (lambda: _desk_plan(k_values=(2.7, 5)), "k_values must be integers, got 2.7"),
        (lambda: _desk_plan(k_values=("10",)), "k_values must be integers, got '10'"),
        (lambda: _desk_plan(seeds=2.5), "seeds must be an integer, got 2.5"),
        (lambda: _desk_plan(seed_base=1.5), "seed must be an integer, got 1.5"),
        (lambda: _desk_plan(seed_base=True), "seed must be an integer, got True"),
        (lambda: _mc_estimate(seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: _mc_estimate(runs=2.5),
         "runs must be an integer >= 2 for a standard error, got 2.5"),
        (lambda: engine.derive_seeds(0, [[1.5]]),
         "spawn keys must be equal-length sequences of integers"),
        (lambda: engine.derive_seeds(0, [[1, 2**64], [True, 2]]),
         "spawn keys must be equal-length sequences of integers"),
        (lambda: engine.derive_seeds(0, [[1], [1, 2]]),
         "spawn keys must be equal-length sequences of integers"),
        (lambda: model.build_ss_construction(10.0, 1.0, 1.0, 4.0),
         "n must be even and an integer >= 2, got 10.0"),
        (lambda: _desk_plan(n=10.0), "n must be even and an integer >= 2, got 10.0"),
        (lambda: analysis.sum_prod_expectation_exact(10.0, 0.01, 1.0),
         "n must be even and an integer >= 2, got 10.0"),
    ], ids=["config-epochs-float", "config-epochs-bool", "config-seed-float",
            "config-seed-bool", "final_losses-k-float", "final_losses-seed-float",
            "plan-k_values-float", "plan-k_values-str", "plan-seeds-float",
            "plan-seed_base-float", "plan-seed_base-bool", "mc-seed-float",
            "mc-runs-float", "spawn-key-float", "spawn-key-object-bool", "spawn-key-ragged",
            "construction-n-float", "plan-n-float", "sum_prod-n-float"])
    def test_non_integers_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_numpy_integers_accepted(self):
        plan = _desk_plan(n=np.int64(100), k_values=np.array([10, 20]), seeds=np.int64(3),
                          seed_base=np.uint64(5))
        assert plan.k_values == (10, 20) and plan.seeds == 3 and plan.seed_base == 5
        assert all(type(v) is int
                   for v in (plan.n, *plan.k_values, plan.seeds, plan.seed_base))
        json.dumps(plan.to_json_dict())  # the records' metadata line
        cfg = _rr_config(epochs=np.int64(2), seed=np.uint64(2**64 - 1))
        want = _final_losses(2, [2**64 - 1])[0]
        assert run_sgd_closed_form(two_point_problem(), cfg).final_loss == want


class TestWarningLocation:
    """Warnings name the caller's line, however deep in the package they
    are raised."""

    @staticmethod
    def large_eta_problem():
        return model.build_rr_construction(6, 1.0, 1.0, 4.0)  # eta = 0.5 gives eta*L = 2

    CALLS = {
        "run_sgd": lambda p: run_sgd(p, RunConfig(Scheme.RANDOM_RESHUFFLE, 0.5, 2,
                                                  np.zeros(3), 1)),
        "run_sgd_closed_form": lambda p: run_sgd_closed_form(
            p, RunConfig(Scheme.RANDOM_RESHUFFLE, 0.5, 2, np.zeros(3), 1)),
        "final_losses": lambda p: engine.final_losses([p], Scheme.SINGLE_SHUFFLE, 0.5, 2,
                                                      [np.zeros(3)], [1, 2]),
        "mc_expected_loss": lambda p: analysis.mc_expected_loss(
            p, Scheme.RANDOM_RESHUFFLE, 0.5, 2, np.zeros(3), 2, seed=1),
        "expected_loss_rr_analytic": lambda p: analysis.expected_loss_rr_analytic(
            p, 0.5, 2, np.zeros(3)),
        "expected_loss_ss_exact": lambda p: analysis.expected_loss_ss_exact(
            p, 0.5, 2, np.zeros(3)),
        # k = 1 violates an assumption clause, and the recommended eta has eta*L > 1
        "run_sweep": lambda p: experiments.run_sweep(experiments.SweepPlan(
            construction="ss", n=8, G=1.0, lam=1.0, lam_max=4.0, k_values=(1,), seeds=1),
            jobs=1),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_warning_names_the_test_file(self, name):
        with pytest.warns(RuntimeWarning) as record:
            self.CALLS[name](self.large_eta_problem())
        assert {w.filename for w in record} == {__file__}


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


def python_epoch_map(factors, b):
    """One epoch's (P, Q) per coordinate from its (n, d) factor and linear
    rows in position order, in Python floats: the suffix products from the
    last position down and Q summed left to right, as `tail_products`'
    summation contract states."""
    P, Q = [], []
    for f_col, b_col in zip(np.asarray(factors).T.tolist(), np.asarray(b).T.tolist()):
        s, suffix = 1.0, []
        for f in reversed(f_col):
            suffix.append(s)
            s = s * f
        acc = 0.0
        for b_i, s_i in zip(b_col, reversed(suffix)):
            acc = acc + b_i * s_i
        P.append(s)
        Q.append(acc)
    return np.array(P), np.array(Q)


def factor_problem(n: int, d: int, shared: bool) -> model.Problem:
    """n components in d coordinates with distinct linear rows.  Every column
    of curvatures is constant when `shared`; otherwise the last column
    varies from row to row, as the 3-d construction's third one does."""
    rng = np.random.default_rng(10 * n + d)
    curv = np.tile(np.linspace(1.0, 3.0, d), (n, 1))
    if not shared:
        curv[:, -1] = rng.uniform(0.5, 3.0, n)
    mean = curv.mean(axis=0)
    return model.Problem(curvature_matrix=curv, linear_matrix=rng.uniform(-1.0, 1.0, (n, d)),
                         lam=float(mean.min()), lam_max=float(mean.max()),
                         smooth_l=float(curv.max()), grad_bound=1.0)


def python_reference_run(p: model.Problem, scheme: Scheme, eta: float, k: int, x0, seed: int):
    """A run's diagonal-frame iterates (k, d) from its numpy generator, one
    epoch map at a time through `python_epoch_map`, applied as the closed
    form applies it: P*y + eta*Q per epoch, or the geometric form under
    single shuffling."""
    rng = np.random.default_rng(seed)
    factors = 1.0 - eta * p.curvature_matrix
    y = np.array(x0, dtype=np.float64)
    if scheme is Scheme.SINGLE_SHUFFLE:
        seq = swap_loop_permutation(p.n, rng)
        P, Q = python_epoch_map(factors[seq], p.linear_matrix[seq])
        t = np.arange(1, k + 1)[:, None]
        return P**t * y + eta * engine._geometric_factor(P, t) * Q
    ys = []
    for _ in range(k):
        seq = (rng.integers(0, p.n, size=p.n) if scheme is Scheme.WITH_REPLACEMENT
               else swap_loop_permutation(p.n, rng))
        P, Q = python_epoch_map(factors[seq], p.linear_matrix[seq])
        y = P * y + eta * Q
        ys.append(y)
    return np.array(ys)


class TestEpochMaps:
    """The noise sum's order is pinned: both routes of `_epoch_maps`, the
    shared suffix products and `tail_products`, equal a left-to-right
    Python-float sum bit for bit."""

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("n", [2, 7, 100, 501])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_epoch_maps_sum_left_to_right(self, d, n, shared):
        p = factor_problem(n, d, shared)
        eta = 0.9 / p.smooth_l
        table, weights = engine._map_table(p, eta)
        assert (weights is None) is not shared
        factors = 1.0 - eta * p.curvature_matrix
        rng = np.random.default_rng(n)
        for shape in ((3, n), (2, 5, n)):  # a lone run's chunk and a block's
            seqs = rng.integers(0, n, size=shape)
            routes = [engine._epoch_maps(table, None, seqs)]
            if shared:
                routes.append(engine._epoch_maps(table, weights, seqs))
            for contraction, noise in routes:
                assert contraction.shape == noise.shape == shape[:-1] + (d,)
                for idx in np.ndindex(shape[:-1]):
                    P, Q = python_epoch_map(factors[seqs[idx]], p.linear_matrix[seqs[idx]])
                    np.testing.assert_array_equal(contraction[idx], P)
                    np.testing.assert_array_equal(noise[idx], Q)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shared_factor_runs_match_python_reference(self, d, scheme):
        # A lone run over several chunks, a block of streams (2-31 runs) and
        # a block drawn as array expressions (32 or more).
        p, x0 = factor_problem(100, d, True), np.linspace(1.0, -0.5, d)
        k, eta = 400, recommended_eta(100, 400, p.lam)
        assert k > 2 * (engine._CHUNK_ENTRIES // p.n)
        assert engine._map_table(p, eta)[1] is not None
        cfg = RunConfig(scheme, eta, k, x0, 2021)
        want = python_reference_run(p, scheme, eta, k, x0, cfg.seed)
        np.testing.assert_array_equal(run_sgd_closed_form(p, cfg).points, want)
        if d >= 2 and scheme is not Scheme.SINGLE_SHUFFLE:
            # at d = 1 the reference's `sequence_map` sums contiguous rows
            np.testing.assert_array_equal(per_epoch_closed_form(p, cfg)[0], want)
        p, x0 = factor_problem(10, d, True), np.linspace(1.0, -0.5, d)
        k, eta = 20, recommended_eta(10, 20, p.lam)
        for count in (1, 5, 40):
            seeds = [TestSeedRule.first_word(13, (r,)) for r in range(count)]
            assert len(seeds) * k * p.n <= engine._CHUNK_ENTRIES  # one block
            want = [model.objective(p, python_reference_run(p, scheme, eta, k, x0, s)[-1])
                    for s in seeds]
            np.testing.assert_array_equal(
                engine.final_losses([p], scheme, eta, k, [x0], seeds)[0], want)


class TestScratch:
    """The engine's per-process scratch changes no value, and nothing it
    returns is a view of a scratch buffer."""

    @pytest.mark.parametrize("scheme", [Scheme.WITH_REPLACEMENT, Scheme.RANDOM_RESHUFFLE])
    def test_shapes_small_large_small_match_reference(self, scheme, monkeypatch):
        # from empty buffers: later small shapes take prefixes of grown ones
        monkeypatch.setattr(engine, "_SCRATCH", {})
        mc = model.build_rr_construction(10, 1.0, 1.0, 4.0), [1.0, 0.5, -0.5]
        desk = experiments.resolve_problem(experiments.desk_plan("rr"))
        paper = experiments.resolve_problem(experiments.paper_plan("ss"))
        for (p, x0), k, seeds in ((mc, 5, range(40)), (desk, 400, [2021]),
                                  (paper, 2000, [2021]), (desk, 400, [7]), (mc, 5, range(40, 80))):
            eta = recommended_eta(p.n, k, 1.0)
            want = [per_epoch_closed_form(p, RunConfig(scheme, eta, k, x0, s))[1][-1]
                    for s in seeds]
            np.testing.assert_array_equal(
                engine.final_losses([p], scheme, eta, k, [x0], seeds)[0], want)

    def test_results_keep_their_values(self):
        p, x0 = model.build_rr_construction(100, 1.0, 1.0, 8.0), [1.0, 0.5, -0.5]
        eta, rng = recommended_eta(100, 400, 1.0), np.random.default_rng(1)
        traj = run_sgd_closed_form(p, RunConfig(Scheme.RANDOM_RESHUFFLE, eta, 400, x0, 3))
        losses = engine.final_losses([p], Scheme.RANDOM_RESHUFFLE, eta, 20, [x0], range(30))
        perm = sample_permutation(100, rng)
        pq = engine.tail_products(rng.uniform(size=(4, 3, 50)), rng.normal(size=(4, 3, 50)))
        # a run of several Fisher-Yates passes of 128 epochs, and a block of streams
        paper, paper_x0 = experiments.resolve_problem(experiments.paper_plan("ss"))
        wide = run_sgd_closed_form(paper, RunConfig(Scheme.RANDOM_RESHUFFLE,
                                                    recommended_eta(500, 300, 1.0), 300,
                                                    paper_x0, 122))
        few = engine.final_losses([p], Scheme.WITH_REPLACEMENT, eta, 20, [x0], range(5))
        results = [traj.points, traj.losses, losses, perm, *pq, wide.points, wide.losses, few]
        copies = [r.copy() for r in results]
        # later calls of other shapes: paper-scale runs, Monte Carlo blocks
        for scheme in Scheme:
            run_sgd_closed_form(paper, RunConfig(scheme, recommended_eta(500, 100, 1.0), 100,
                                                 paper_x0, 5))
            engine.final_losses([p], scheme, eta, 5, [x0], range(100))
            engine.final_losses([p], scheme, eta, 20, [x0], range(40, 47))
        run_sgd_closed_form(paper, RunConfig(Scheme.RANDOM_RESHUFFLE,
                                             recommended_eta(500, 260, 1.0), 260, paper_x0, 7))
        engine.tail_products(rng.uniform(size=(2, 7)), rng.normal(size=(2, 7)))
        sample_permutation(500, rng)
        for got, want in zip(results, copies):
            np.testing.assert_array_equal(got, want)
        assert not any(np.shares_memory(r, buf)
                       for r in results for buf in engine._SCRATCH.values())


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

    def test_scheme_codes_are_pinned(self):
        # a scheme's code is in the spawn key of every sweep seed, so a reorder
        # of engine.Scheme would change every record: wr 0, ss 1, rr 2
        assert experiments.SCHEME_ORDER == ("wr", "ss", "rr")
        plan = experiments.desk_plan("ss", seed_base=101)
        for tag, code in (("wr", 0), ("ss", 1), ("rr", 2)):
            assert experiments.run_seed_for(plan, tag, 10, 3) == self.first_word(101, (code, 10, 3))

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

    def test_seed_states_pad_rows_on_both_sides_of_the_pool(self):
        # 3, 4, 5 and 8 entropy words in one table; numpy concatenates a
        # list's words as the rows' values are split
        values = [(1, 2, 3), (0, 2**32, 7), (2**64, 2**32 + 1, 0), (2**100, 2**64, 5)]
        got = engine._seed_states(np.array(values, dtype=object), [], 4)
        for row, entropy in zip(got, values):
            want = np.random.SeedSequence(list(entropy)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, want)
        assert engine._seed_states(np.zeros((0, 1), np.uint64), [], 4).shape == (0, 4)
        assert engine.derive_seeds(9, []) == []

    def test_many_keys_match(self):
        keys = np.arange(20000)[:, None]
        got = engine.derive_seeds(102, keys)
        assert got == [self.first_word(102, (r,)) for r in range(20000)]

    def test_pcg64_outputs_match_random_raw(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**40 + 17, 2**64 - 1]
        states = engine._seed_states(np.array(seeds, dtype=np.uint64)[:, None], [], 4)
        raw = engine._pcg64_outputs(states, 64)
        assert raw.shape == (len(seeds), 64) and raw.dtype == np.uint64
        for seed, row in zip(seeds, raw):
            np.testing.assert_array_equal(
                row, np.random.default_rng(seed).bit_generator.random_raw(64))

    # 1- and 2-word seeds in one block
    BLOCK_SEEDS = [5, 2**32 + 3, 0, 2**64 - 1, 2**32 - 1, 2**40 + 17, 12345]

    @pytest.mark.parametrize("n, epochs", [(7, 3), (10, 1), (10, 5), (100, 5)])
    def test_block_draws_match_integers(self, n, epochs):
        seeds = self.BLOCK_SEEDS
        fisher_yates = engine._fisher_yates_bounds(n, epochs)
        uniform = np.full((epochs, n), n)
        # odd word counts: 21 uniform draws at (7, 3), 9 Fisher-Yates draws at (10, 1)
        for bounds, draw in ((fisher_yates, lambda rng: rng.integers(0, fisher_yates)),
                             (uniform, lambda rng: rng.integers(0, n, size=(epochs, n)))):
            got = engine._block_draws(np.array(seeds, dtype=np.uint64), bounds)
            assert got.shape == (len(seeds),) + bounds.shape and got.dtype == np.int64
            for seed, row in zip(seeds, got):
                np.testing.assert_array_equal(row, draw(np.random.default_rng(seed)))

    def test_rejected_words_fall_back_to_numpy(self, monkeypatch):
        # at b = 2**31 + 1 a word is rejected when w*b mod 2**32 < 2**31 - 1,
        # about half the time, and every later draw of that run shifts
        bound = 2**31 + 1
        seeds = [r * (2**32 + 7) % 2**64 for r in range(64)] + self.BLOCK_SEEDS
        want = [np.random.default_rng(s).integers(0, bound, size=3) for s in seeds]
        # a rejecting run is drawn again by its `_Stream`, which makes the
        # engine's one numpy `Generator` outside the explicit-step reference
        fallbacks = []
        generator = np.random.Generator
        monkeypatch.setattr(np.random, "Generator",
                            lambda bit_generator: fallbacks.append(1) or generator(bit_generator))
        got = engine._block_draws(np.array(seeds, dtype=np.uint64), np.full(3, bound))
        np.testing.assert_array_equal(got, want)
        assert 0 < len(fallbacks) < len(seeds)

    @pytest.mark.parametrize("entropy, key", [(-1, (0,)), (0, (-1,)), (3, (1, -2**40, 2))])
    def test_negative_entropy_or_key_rejected_as_numpy_does(self, entropy, key):
        with pytest.raises(ValueError):
            np.random.SeedSequence(entropy, spawn_key=key)
        with pytest.raises(ValueError):
            engine.derive_seed(entropy, key)
        with pytest.raises(ValueError):
            engine.derive_seeds(entropy, [(0,) * len(key), key])
