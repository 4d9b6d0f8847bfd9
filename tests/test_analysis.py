import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflelab import analysis, engine, model
from shufflelab.analysis import (
    MomentState,
    UnsupportedInstanceError,
    beta_exact,
    beta_lower_envelope,
    enumerate_balanced_patterns,
    evolve_moment_state,
    expected_keyup_square,
    expected_loss_rr_analytic,
    expected_loss_ss_exact,
    expected_loss_ss_formula,
    keyup_quantity,
    mc_expected_loss,
    perm_moment_enumeration,
    perm_moment_formula,
    perm_moment_fraction,
    permutation_moments,
    stochastic_terms_exact,
    sum_prod_expectation_exact,
)


class TestPatterns:
    def test_n2(self):
        assert set(enumerate_balanced_patterns(2)) == {(0, 1), (1, 0)}

    def test_counts(self):
        assert len(list(enumerate_balanced_patterns(4))) == 6
        assert analysis.pattern_count(16) == 12870

    def test_each_balanced(self):
        for pat in enumerate_balanced_patterns(6):
            assert sum(pat) == 3

    @pytest.mark.parametrize("n", [3, 18, 0])
    def test_rejects_odd_or_oversized(self, n):
        with pytest.raises(ValueError):
            list(enumerate_balanced_patterns(n))

    def test_rational_weights_sum_to_one(self):
        n = 6
        total = sum(Fraction(1, analysis.pattern_count(n)) for _ in enumerate_balanced_patterns(n))
        assert total == 1


class TestBeta:
    def test_hand_example(self):
        assert beta_exact(2, 0.5, 1.0) == pytest.approx(0.25)

    def test_zero_alpha_balanced_signs_cancel(self):
        for n in (2, 4, 8):
            assert beta_exact(n, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_monte_carlo(self):
        n, alpha = 4, 0.3
        exact = beta_exact(n, alpha, 1.0)
        rng = np.random.default_rng(17)
        w = (1.0 - alpha) ** np.arange(n)
        base = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        draws = 10**6
        idx = np.argsort(rng.random((draws, n)), axis=1)
        samples = (np.take_along_axis(np.tile(base, (draws, 1)), idx, axis=1) @ w) ** 2
        se = samples.std(ddof=1) / math.sqrt(draws)
        assert abs(samples.mean() - exact) <= 4 * se

    def test_exchangeable_index_reversal(self):
        for n in (4, 6, 10):
            for alpha in (0.1, 0.5, 0.9):
                signs = 2.0 * analysis._pattern_matrix(n) - 1.0
                w_desc = (1.0 - alpha) ** (n - 1 - np.arange(n))
                desc = float(np.mean((signs @ w_desc) ** 2))
                assert beta_exact(n, alpha, 1.0) == pytest.approx(desc, rel=1e-12)

    def test_lambda_eta_factorization(self):
        # only the product eta*lam_max matters
        assert beta_exact(6, 0.1, 2.0) == pytest.approx(beta_exact(6, 0.2, 1.0), rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            beta_exact(4, 1.5, 1.0)
        with pytest.raises(ValueError):
            beta_exact(4, -0.1, 1.0)


class TestBetaEnvelope:
    def test_branch_crossing_at_inverse_n(self):
        n = 8
        assert beta_lower_envelope(n, 1.0 / n, 1.0) == pytest.approx(n)

    def test_large_alpha_branch(self):
        assert beta_lower_envelope(4, 1.0, 1.0) == pytest.approx(2.0)

    def test_zero_alpha_invalid(self):
        with pytest.raises(ValueError):
            beta_lower_envelope(4, 0.0, 1.0)

    def test_ratio_positive_and_finite_on_grid(self):
        ratios = [
            beta_exact(n, a, 1.0) / beta_lower_envelope(n, a, 1.0)
            for n in range(4, 17, 2)
            for a in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
        ]
        assert min(ratios) > 0.0
        assert max(ratios) < math.inf


class TestKeyup:
    def test_hand_example(self):
        assert keyup_quantity([0.5, 0.5], [1.0, -1.0], [0, 1]) == pytest.approx(-0.5)

    def test_zero_alphas_telescope(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            betas = rng.uniform(-1, 1, n)
            betas -= betas.mean()
            betas /= max(1.0, float(np.max(np.abs(betas))))
            perm = engine.sample_permutation(n, rng)
            assert keyup_quantity(np.zeros(n), betas, perm) == pytest.approx(0.0, abs=1e-12)

    def test_reversed_permutation_gives_prefix_form(self):
        rng = np.random.default_rng(4)
        n = 6
        alphas = rng.uniform(0, 1, n)
        betas = rng.uniform(-1, 1, n)
        betas -= betas.mean()
        perm = engine.sample_permutation(n, rng)
        rev = perm[::-1].copy()
        got = keyup_quantity(alphas, betas, rev)
        prefix = sum(
            betas[perm[j]] * np.prod(1.0 - alphas[perm[:j]]) for j in range(n)
        )
        assert got == pytest.approx(prefix, rel=1e-12)

    def test_unbalanced_betas_rejected(self):
        with pytest.raises(ValueError):
            keyup_quantity([0.1, 0.1], [1.0, -0.5], [0, 1])

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            keyup_quantity([1.2, 0.0], [1.0, -1.0], [0, 1])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            keyup_quantity([], [], [])

    def test_expected_square_matches_beta_for_equal_alphas(self):
        for n, alpha in ((4, 0.2), (8, 0.6)):
            alphas = np.full(n, alpha)
            betas = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
            assert expected_keyup_square(alphas, betas) == pytest.approx(
                beta_exact(n, alpha, 1.0), rel=1e-12
            )

    def test_expected_square_general_small_n(self):
        # full n! enumeration path against a direct average
        rng = np.random.default_rng(5)
        n = 4
        alphas = rng.uniform(0, 1, n)
        betas = rng.uniform(-1, 1, n)
        betas -= betas.mean()
        direct = np.mean(
            [
                keyup_quantity(alphas, betas, perm) ** 2
                for perm in itertools.permutations(range(n))
            ]
        )
        assert expected_keyup_square(alphas, betas) == pytest.approx(direct, rel=1e-12)


class TestPermMoment:
    def test_example_values(self):
        assert perm_moment_formula(1, 4) == pytest.approx(1.0 / 6.0)
        assert perm_moment_fraction(2, 4) == Fraction(1, 6)

    def test_half_n_branch(self):
        n = 4
        assert perm_moment_fraction(n // 2, n) == Fraction(1, 2 * math.comb(n - 1, n // 2))

    def test_beyond_half_is_zero(self):
        for n in (4, 6, 8):
            for m in range(n // 2 + 1, n):
                assert perm_moment_formula(m, n) == 0.0
                assert perm_moment_enumeration(m, n) == 0

    def test_formula_equals_enumeration_exactly(self):
        for n in range(2, 13, 2):
            for m in range(1, n):
                assert perm_moment_fraction(m, n) == perm_moment_enumeration(m, n)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            perm_moment_formula(0, 4)
        with pytest.raises(ValueError):
            perm_moment_formula(4, 4)


class TestAlternatingSums:
    def test_sum_prod_hand_example(self):
        assert sum_prod_expectation_exact(2, 0.5, 1.0) == pytest.approx(-0.25)

    def test_sum_prod_zero_alpha(self):
        assert sum_prod_expectation_exact(6, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_sum_prod_bound_on_grid(self):
        for n in (4, 8, 12):
            for frac in (0.05, 0.1, 0.2, 1.0):
                eta = frac / n
                v = sum_prod_expectation_exact(n, eta, 1.0)
                assert v <= analysis.sum_prod_ceiling(n, eta, 1.0) + 1e-12

    def test_stochastic_terms_hand_example(self):
        assert stochastic_terms_exact(2, 0.5, 1.0) == pytest.approx(-0.125)
        assert stochastic_terms_exact(2, 0.5, 1.0) <= -0.0625

    def test_stochastic_terms_vanishes_continuously(self):
        vals = [stochastic_terms_exact(4, eta, 1.0) for eta in (0.25, 0.1, 0.01, 0.001)]
        assert all(v < 0 for v in vals)
        assert abs(vals[-1]) < abs(vals[0])

    def test_stochastic_terms_precondition(self):
        with pytest.raises(ValueError):
            stochastic_terms_exact(4, 0.5, 1.0)  # eta*lam_max*n = 2 > 1


class TestPermutationMoments:
    def test_zero_linears(self):
        m = permutation_moments([1.0, 2.0, 1.0, 2.0], [0.0] * 4, 0.1)
        assert m.e_q == 0.0 and m.e_q2 == 0.0 and m.e_pq == 0.0

    def test_equal_curvatures_deterministic_p(self):
        m = permutation_moments([2.0] * 4, [0.5, 0.5, -0.5, -0.5], 0.1)
        assert m.e_p == pytest.approx(0.8**4, rel=1e-15)
        assert m.e_p2 == pytest.approx(m.e_p**2, rel=1e-15)

    def test_p_always_deterministic_for_full_product(self):
        m = permutation_moments([3.0, 0.0, 3.0, 0.0], [0.5, -0.5, 0.5, -0.5], 0.1)
        assert m.e_p2 == pytest.approx(m.e_p**2, rel=1e-12)
        assert m.e_pq == pytest.approx(m.e_p * m.e_q, rel=1e-12)

    def test_more_than_two_values_unsupported(self):
        with pytest.raises(UnsupportedInstanceError):
            permutation_moments([1.0, 2.0, 3.0, 1.0], [0.0] * 4, 0.1)

    def test_unbalanced_counts_unsupported(self):
        with pytest.raises(UnsupportedInstanceError):
            permutation_moments([1.0, 1.0, 2.0, 2.0, 2.0, 2.0], [0.0] * 6, 0.1)

    def test_moment_state_guards_variance(self):
        with pytest.raises(ValueError):
            MomentState(mean=[2.0], second=[1.0])


class TestScaleAwareTolerances:
    """Variance guards must not reject valid input whose rounding error
    exceeds an absolute 1e-12 only because its magnitudes are large."""

    def test_rr_analytic_accepts_large_gradient_bound(self):
        eta = engine.recommended_eta(6, 5, 1.0)
        losses = {}
        for G in (1.0, 1e4):
            p = model.build_rr_construction(6, G, 1.0, 2.0)
            x0 = model.preset_x0("rr", "worst-case", G, 1.0, 2.0)
            assert model.validate_assumptions(p, x0, 5).all_passed
            losses[G] = expected_loss_rr_analytic(p, eta, 5, x0)
        # every term is quadratic in (x0, b), both proportional to G
        assert losses[1e4] == pytest.approx(1e8 * losses[1.0], rel=1e-12)

    def test_constant_q_accepted_at_large_linear_terms(self):
        # flat coordinate: Q = sum(b) for every pattern, so Var[Q] = 0 up to rounding
        b = np.repeat([8.292244049818343, -40.057621892523045], 4)
        m = permutation_moments(np.zeros(8), b, 0.1)
        assert m.e_q == pytest.approx(float(np.sum(b)), rel=1e-14)
        assert m.e_q2 == pytest.approx(m.e_q**2, rel=1e-14)

    def test_negative_variance_still_rejected_at_scale(self):
        with pytest.raises(ValueError):
            MomentState(mean=[1e4], second=[0.999 * 1e8])
        with pytest.raises(ValueError):
            analysis.PermutationMoments(e_p=1e3, e_p2=0.999e6, e_q=0.0, e_q2=0.0, e_pq=0.0)


class TestExpectedLossRR:
    def test_eta_zero_returns_f_x0(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        x0 = np.array([0.5, -0.5, 0.25])
        assert expected_loss_rr_analytic(p, 0.0, 7, x0) == pytest.approx(
            model.objective(p, x0), rel=1e-12
        )

    def test_single_epoch_matches_pattern_enumeration(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        eta = 0.04
        x0 = np.array([1.0, 0.0, 0.0])
        got = expected_loss_rr_analytic(p, eta, 1, x0)
        # oracle: enumerate balanced type arrangements, place real component
        # indices accordingly, step the epoch map, average F(x_1)
        type_a = [i for i in range(p.n) if i < p.n // 2]
        type_b = [i for i in range(p.n) if i >= p.n // 2]
        total = 0.0
        count = 0
        for pat in enumerate_balanced_patterns(p.n):
            ia, ib = iter(type_a), iter(type_b)
            seq = [next(ia) if v == 1 else next(ib) for v in pat]
            contraction, noise = engine.sequence_map(p, seq, eta)
            x1 = contraction * x0 + eta * noise
            total += model.objective(p, x1)
            count += 1
        assert got == pytest.approx(total / count, rel=1e-12)

    def test_lambda_coordinate_decays_exactly(self):
        # eta*lam = 1/2 keeps everything a power of two, so the repeated
        # per-epoch squaring agrees bit for bit with the direct power
        p = model.build_rr_construction(4, 0.0, 1.0, 2.0)
        eta, k = 0.5, 6
        got = expected_loss_rr_analytic(p, eta, k, np.array([1.0, 0.0, 0.0]))
        assert got == 0.5 * (1 - eta * 1.0) ** (2 * 4 * k)
        moments = analysis._coordinate_moments(p, eta)
        state = MomentState(mean=np.array([1.0, 0.0, 0.0]), second=np.array([1.0, 0.0, 0.0]))
        for _ in range(k):
            state = evolve_moment_state(state, moments, eta)
        assert state.second[0] == (1 - eta * 1.0) ** (2 * 4 * k)

    def test_matches_monte_carlo(self):
        p = model.build_rr_construction(10, 1.0, 1.0, 4.0)
        eta = engine.recommended_eta(10, 5, 1.0)
        x0 = np.array([1.0, 0.0, 0.0])
        ana = expected_loss_rr_analytic(p, eta, 5, x0)
        mean, se = mc_expected_loss(p, engine.Scheme.RANDOM_RESHUFFLE, eta, 5, x0,
                                    runs=4000, seed=6)
        assert abs(ana - mean) <= 3 * se

    def test_oversized_n_names_the_monte_carlo_route(self):
        p = model.build_rr_construction(18, 1.0, 1.0, 4.0)
        with pytest.raises(UnsupportedInstanceError, match="mc_expected_loss"):
            expected_loss_rr_analytic(p, 0.01, 2, np.zeros(3))

    def test_second_moments_nonnegative_along_the_way(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        eta = 0.05
        moments = analysis._coordinate_moments(p, eta)
        state = MomentState(mean=np.array([1.0, 0.0, 0.0]), second=np.array([1.0, 0.0, 0.0]))
        for _ in range(10):
            state = evolve_moment_state(state, moments, eta)
            assert np.all(state.second >= state.mean**2 - 1e-12)


class TestExpectedLossSS:
    def test_eta_zero(self):
        p = model.build_ss_construction(6, 1.0, 1.0, 2.0)
        x0 = np.array([0.3, 0.4])
        assert expected_loss_ss_exact(p, 0.0, 5, x0) == pytest.approx(
            model.objective(p, x0), rel=1e-12
        )

    def test_zero_start_zero_noise(self):
        p = model.build_ss_construction(4, 0.0, 1.0, 2.0)
        assert expected_loss_ss_exact(p, 0.1, 3, np.zeros(2)) == pytest.approx(0.0, abs=1e-18)

    def test_dual_path_against_closed_formula(self):
        n, k = 4, 2
        for alpha in (0.1, 0.4):
            lam_max = 2.0
            eta = alpha / lam_max
            p = model.build_ss_construction(n, 1.0, 1.0, lam_max)
            x0 = np.array([1.0, -0.5])
            enum = expected_loss_ss_exact(p, eta, k, x0)
            formula = expected_loss_ss_formula(n, k, eta, 1.0, 1.0, lam_max, x0)
            assert enum == pytest.approx(formula, rel=1e-12)

    def test_monotone_in_k_at_moderate_step(self):
        p = model.build_ss_construction(8, 1.0, 1.0, 2.0)
        eta = 0.2  # eta * L = 0.4
        x0 = np.array([1.0, 0.0])
        vals = [expected_loss_ss_exact(p, eta, k, x0) for k in range(1, 8)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_monte_carlo(self):
        p = model.build_ss_construction(10, 1.0, 1.0, 4.0)
        eta = engine.recommended_eta(10, 5, 1.0)
        x0 = np.array([1.0, 0.0])
        exact = expected_loss_ss_exact(p, eta, 5, x0)
        mean, se = mc_expected_loss(p, engine.Scheme.SINGLE_SHUFFLE, eta, 5, x0,
                                    runs=4000, seed=8)
        assert abs(exact - mean) <= 3 * se

    def test_conjugated_problem_same_expected_loss(self):
        p = model.build_ss_construction(6, 1.0, 1.0, 3.0)
        theta = 0.6
        O = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        pc = model.conjugate(p, O)
        x0 = np.array([0.8, -0.1])
        assert expected_loss_ss_exact(pc, 0.05, 3, O @ x0) == pytest.approx(
            expected_loss_ss_exact(p, 0.05, 3, x0), rel=1e-12
        )


@given(
    n=st.sampled_from([2, 4, 6, 8]),
    alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_beta_bounded_by_worst_sign_vector(n, alpha):
    # |sum s_i w_i| <= sum w_i pointwise, so beta <= (sum w_i)^2
    w_sum = float(np.sum((1.0 - alpha) ** np.arange(n)))
    assert 0.0 <= beta_exact(n, alpha, 1.0) <= w_sum**2 + 1e-12


@given(
    n=st.sampled_from([2, 4, 6]),
    eta=st.floats(min_value=0.0, max_value=0.25, allow_nan=False),
    k=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_rr_moment_recursion_keeps_variance_nonnegative(n, eta, k):
    p = model.build_rr_construction(n, 1.0, 1.0, 4.0)
    x0 = np.array([1.0, 0.2, -0.3])
    val = expected_loss_rr_analytic(p, eta, k, x0)
    assert val >= -1e-12


class TestMeanRecursionEnvelopes:
    def test_switching_coordinate_mean_ceiling(self):
        # with x0 = 0 and eta <= 1/(lam_max n), the mean of the switching
        # coordinate stays below -(eta G / 8)(1 - (1 - eta lam_max n / 2)^k)
        lam_max = 4.0
        for n in (4, 8, 12):
            for frac in (0.2, 0.5, 1.0):
                eta = frac / (lam_max * n)
                p = model.build_rr_construction(n, 1.0, 1.0, lam_max)
                moments = analysis._coordinate_moments(p, eta)
                state = MomentState(mean=np.zeros(3), second=np.zeros(3))
                for k in range(1, 9):
                    state = evolve_moment_state(state, moments, eta)
                    ceiling = -(eta / 8.0) * (1.0 - (1.0 - eta * lam_max * n / 2.0) ** k)
                    assert state.mean[2] <= ceiling + 1e-15, (n, frac, k)

    def test_half_active_product_floor(self):
        # the epoch product over a half-active coordinate is permutation-free
        # and at least 1 - eta*lam_max*n/2 >= 1/2 when eta <= 1/(lam_max n)
        lam_max = 3.0
        for n in (2, 6, 12):
            eta = 1.0 / (lam_max * n)
            curv = [lam_max] * (n // 2) + [0.0] * (n // 2)
            m = permutation_moments(curv, [0.0] * n, eta)
            assert m.e_p2 == pytest.approx(m.e_p**2, rel=1e-12)
            assert m.e_p >= 1.0 - eta * lam_max * n / 2.0 - 1e-15
            assert m.e_p >= 0.5 - 1e-15
