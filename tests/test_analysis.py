import itertools
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflelab import analysis, calibrate, engine, experiments, model
from shufflelab.analysis import (
    UnsupportedInstanceError,
    beta_exact,
    beta_lower_envelope,
    expected_keyup_square,
    expected_loss_rr_analytic,
    expected_loss_ss_exact,
    keyup_quantity,
    mc_expected_loss,
    perm_moment_enumeration,
    perm_moment_formula,
    perm_moment_fraction,
    permutation_moments,
    stochastic_terms_exact,
    sum_prod_expectation_exact,
)


BAD_ETAS = [(math.nan, "eta must be finite"), (math.inf, "eta must be finite"),
            (-0.5, "eta must be nonnegative")]


class TestPatterns:
    def test_n2(self):
        assert set(map(tuple, analysis._pattern_matrix(2).tolist())) == {(0, 1), (1, 0)}

    def test_counts(self):
        assert len(analysis._pattern_matrix(4)) == 6
        assert analysis._pattern_matrix(16).shape[0] == 12870

    def test_each_balanced(self):
        for pat in analysis._pattern_matrix(6):
            assert sum(pat) == 3

    @pytest.mark.parametrize("n", [3, 18, 0])
    def test_rejects_odd_or_oversized(self, n):
        with pytest.raises(ValueError):
            analysis._pattern_matrix(n)

    def test_float_n_rejected_once_the_integer_is_cached(self):
        # 10.0 == 10 and both hash alike, so an untyped cache would hand back
        # the n = 10 patterns without checking 10.0
        analysis._pattern_matrix(10)
        for oracle in (lambda n: beta_exact(n, 0.01, 1.0),
                       lambda n: analysis.perm_moment_enumeration(1, n),
                       lambda n: stochastic_terms_exact(n, 0.01, 1.0)):
            with pytest.raises(ValueError, match="^n must be even and an integer >= 2, got 10.0$"):
                oracle(10.0)

    @pytest.mark.parametrize("oracle, enumerates", [
        (lambda n: beta_exact(n, 0.01, 1.0), True),
        (lambda n: sum_prod_expectation_exact(n, 0.01, 1.0), False),
        (lambda n: stochastic_terms_exact(n, 0.01, 1.0), False),
        (lambda n: expected_keyup_square(np.full(n, 0.1), [1.0, -1.0] * (n // 2)), False),
        (lambda n: permutation_moments([1.0, 2.0] * (n // 2), [0.5, -0.5] * (n // 2),
                                       0.01).e_q2, False),
        (lambda n: perm_moment_enumeration(1, n), True),
        (lambda n: expected_loss_rr_analytic(model.build_rr_construction(n, 1.0, 1.0, 4.0),
                                             0.01, 2, np.zeros(3)), False),
        (lambda n: expected_loss_ss_exact(model.build_ss_construction(n, 1.0, 1.0, 4.0),
                                          0.01, 2, np.zeros(2)), False),
    ], ids=["beta", "sum-prod", "stochastic-terms", "keyup-square", "permutation-moments",
            "perm-moment-enumeration", "loss-rr", "loss-ss"])
    def test_only_the_enumerating_routes_stop_at_the_cap(self, oracle, enumerates):
        oracle(16)
        if enumerates:
            with pytest.raises(UnsupportedInstanceError, match="capped at n = 16"):
                oracle(18)
        else:
            assert math.isfinite(oracle(18))

    def test_rational_weights_sum_to_one(self):
        mat = analysis._pattern_matrix(6)
        total = sum(Fraction(1, mat.shape[0]) for _ in mat)
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

    def test_defined_past_the_enumeration_cap(self):
        assert beta_lower_envelope(18, 0.5, 1.0) == 3.0

    @pytest.mark.parametrize("n", [0, 5, 17])
    def test_odd_n_invalid(self, n):
        with pytest.raises(ValueError, match="n must be even"):
            beta_lower_envelope(n, 0.5, 1.0)

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

    def test_expected_square_needs_two_valued_data(self):
        with pytest.raises(UnsupportedInstanceError):
            expected_keyup_square([0.1, 0.2, 0.3, 0.4], [0.5, -0.5, 0.25, -0.25])

    @pytest.mark.parametrize("alphas, betas, message", [
        ([0.1, 0.2], [5.0, 3.0], "betas must lie in [-1, 1]"),
        ([0.1, 0.2], [0.5, 0.25], "betas must sum to zero"),
        ([1.5, -0.2], [1.0, -1.0], "alphas must lie in [0, 1]"),
        ([math.nan, 0.2], [1.0, -1.0], "alphas must be finite"),
        ([0.1, 0.2], [1.0, -1.0, 0.0], "alphas and betas must have equal length, got 2 and 3"),
        ([], [], "alphas must be a nonempty 1-D sequence, got shape (0,)"),
    ])
    def test_expected_square_shares_the_keyup_domain(self, alphas, betas, message):
        for oracle in (lambda: keyup_quantity(alphas, betas, range(len(alphas))),
                       lambda: expected_keyup_square(alphas, betas)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                oracle()


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

    @pytest.mark.parametrize("n", [0, 3, 17])
    def test_odd_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be even"):
            sum_prod_expectation_exact(n, 0.01, 1.0)
        with pytest.raises(ValueError, match="n must be even"):
            stochastic_terms_exact(n, 0.01, 1.0)

    def test_sum_prod_rejects_negative_lam_max(self):
        with pytest.raises(ValueError, match="lam_max must be nonnegative"):
            sum_prod_expectation_exact(4, 0.1, -1.0)

    @pytest.mark.parametrize("eta,message", BAD_ETAS)
    def test_bad_eta_rejected(self, eta, message):
        with pytest.raises(ValueError, match=message):
            sum_prod_expectation_exact(4, eta, 1.0)
        with pytest.raises(ValueError, match=message):
            stochastic_terms_exact(4, eta, 1.0)


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

    @pytest.mark.parametrize("eta,message", BAD_ETAS)
    def test_bad_eta_rejected(self, eta, message):
        with pytest.raises(ValueError, match=message):
            permutation_moments([2.0] * 4, [0.5, 0.5, -0.5, -0.5], eta)

    @pytest.mark.parametrize("curvatures, linears, message", [
        ([math.nan, 1.0], [0.5, -0.5], "curvatures must be finite"),
        ([1.0, 1.0], [math.inf, -0.5], "linears must be finite"),
        ([[1.0, 1.0]], [0.5, -0.5], "curvatures must be a nonempty 1-D sequence, got shape (1, 2)"),
        (1.0, [0.5, -0.5], "curvatures must be a nonempty 1-D sequence, got shape ()"),
        ([1.0, 1.0], [[0.5, -0.5]], "linears must be a nonempty 1-D sequence, got shape (1, 2)"),
        ([1.0, 1.0, 1.0], [0.5, -0.5], "curvatures and linears must have equal length, got 3 and 2"),
        ([], [], "curvatures must be a nonempty 1-D sequence, got shape (0,)"),
    ])
    def test_bad_data_rejected(self, curvatures, linears, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            permutation_moments(curvatures, linears, 0.1)


ALPHAS = (0.001, 0.01, 0.1, 0.5, 1.0)  # eta * lam_max


def construction_columns(n, alpha):
    """The two-valued columns of both constructions at eta*lam_max = alpha, as
    (curvatures, linears, eta): the 2-d construction's steep coordinate (equal
    curvatures) and the 3-d construction's switching coordinate (half of the
    curvatures zero)."""
    lam_max = 4.0
    ss = model.build_ss_construction(n, 1.0, 1.0, lam_max)
    rr = model.build_rr_construction(n, 1.0, 1.0, lam_max)
    eta = alpha / lam_max
    return {"equal": (ss.curvature_matrix[:, 1], ss.linear_matrix[:, 1], eta),
            "half-zero": (rr.curvature_matrix[:, 2], rr.linear_matrix[:, 2], eta)}


def two_types(a, b, eta):
    """The column's two (factor, linear) pairs as Decimals, from the float
    factors 1 - eta*a that the oracles use, so that a reference measures the
    oracles' arithmetic and not the rounding of their inputs."""
    pairs = sorted(set(zip((1.0 - eta * np.asarray(a)).tolist(), np.asarray(b).tolist())))
    return [(Decimal(f), Decimal(v)) for f, v in pairs]


def decimal_enumeration_moments(a, b, eta):
    """(E[Q], E[Q^2]) over every balanced arrangement, each Q stepped in
    60-digit decimal arithmetic."""
    n = len(a)
    with localcontext() as ctx:
        ctx.prec = 60
        (f0, b0), (f1, b1) = two_types(a, b, eta)
        s1 = s2 = Decimal(0)
        for zeros in itertools.combinations(range(n), n // 2):
            q = Decimal(0)
            for j in range(n):
                q = f0 * q + b0 if j in zeros else f1 * q + b1
            s1 += q
            s2 += q * q
        count = math.comb(n, n // 2)
        return float(s1 / count), float(s2 / count)


def decimal_recursion_moments(a, b, eta):
    """(E[Q], E[Q^2]) by the uncentred recursion over (position, type-0
    count) on (probability, E[Q 1], E[Q^2 1]), in 60-digit decimal
    arithmetic."""
    n, half = len(a), len(a) // 2
    with localcontext() as ctx:
        ctx.prec = 60
        types = two_types(a, b, eta)
        states = {0: (Decimal(1), Decimal(0), Decimal(0))}
        for t in range(n):
            nxt = {}
            for u, (w, m1, m2) in states.items():
                for kind, left in ((0, half - u), (1, half - t + u)):
                    if left == 0:
                        continue
                    p = Decimal(left) / (n - t)
                    f, v = types[kind]
                    moved = (p * w, p * (f * m1 + v * w),
                             p * (f * f * m2 + 2 * f * v * m1 + v * v * w))
                    key = u + (kind == 0)
                    nxt[key] = tuple(x + y for x, y in zip(nxt.get(key, (0, 0, 0)), moved))
            states = nxt
        _, m1, m2 = states[half]
        return float(m1), float(m2)


def scan_errors(a, b, eta, reference):
    """The scan's E[Q] error relative to sqrt(E[Q^2]) (E[Q] is 0 for equal
    curvatures) and its relative E[Q^2] error, against `reference`."""
    m = permutation_moments(a, b, eta)
    e_q, e_q2 = reference
    return abs(m.e_q - e_q) / math.sqrt(e_q2), abs(m.e_q2 - e_q2) / e_q2


class TestArrangementScan:
    """The O(n^2) scan behind every moment oracle against high-precision and
    enumerating references."""

    @pytest.mark.parametrize("shape", ["equal", "half-zero"])
    def test_matches_decimal_enumeration(self, shape):
        # measured worst: scan 2.2e-16, enumeration 4.3e-14 (n = 8, alpha = 0.001)
        for n in (2, 4, 8, 12):
            for alpha in ALPHAS:
                a, b, eta = construction_columns(n, alpha)[shape]
                ref = decimal_enumeration_moments(a, b, eta)
                assert max(scan_errors(a, b, eta, ref)) <= 1e-15, (n, alpha)
                q = analysis.two_valued_tail_products(a, b, eta)
                assert abs(np.mean(q * q) - ref[1]) <= 2e-13 * ref[1], (n, alpha)

    @pytest.mark.parametrize("shape", ["equal", "half-zero"])
    def test_matches_enumeration_up_to_the_cap(self, shape):
        # measured worst: 2.1e-14 at n = 16, alpha = 0.001, the enumeration's
        # own rounding (see test_matches_decimal_enumeration)
        for n in (4, 10, 16):
            for alpha in ALPHAS:
                a, b, eta = construction_columns(n, alpha)[shape]
                q = analysis.two_valued_tail_products(a, b, eta)
                ref = (float(np.mean(q)), float(np.mean(q * q)))
                assert max(scan_errors(a, b, eta, ref)) <= 1e-13, (n, alpha)

    @pytest.mark.parametrize("shape", ["equal", "half-zero"])
    def test_centred_state_keeps_precision_past_the_cap(self, shape):
        # eta*lam_max = 0.001, where an uncentred float recursion loses 6.5e-13
        # in E[Q^2] at n = 100; the centred scan measured 5.5e-16
        a, b, eta = construction_columns(100, 0.001)[shape]
        ref = decimal_recursion_moments(a, b, eta)
        assert max(scan_errors(a, b, eta, ref)) <= 1e-15

    @pytest.mark.parametrize("tag, oracle, seed", [
        ("rr", expected_loss_rr_analytic, 101), ("ss", expected_loss_ss_exact, 102)])
    def test_expected_loss_matches_monte_carlo_past_the_cap(self, tag, oracle, seed):
        # criterion 6's seed bases and |z| <= 3 gate at n = 100, k = 40 on the
        # fig1 instances (the rr one is the 3-d construction's reduced form);
        # measured z = -1.73 (rr) and -0.77 (ss), about 1.4 s together
        n, k = 100, 40
        p, x0 = experiments.build_instance(tag, "fig1", n, 1.0, 1.0, 4.0)
        eta = engine.recommended_eta(n, k, 1.0)
        mean, se = mc_expected_loss(p, tag, eta, k, x0, runs=4000, seed=seed)
        assert abs(oracle(p, eta, k, x0) - mean) <= 3.0 * se


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
        for pat in analysis._pattern_matrix(p.n):
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
        _, second = analysis._expected_moments(p, eta, k, np.array([1.0, 0.0, 0.0]),
                                               single=False)
        assert second[0] == (1 - eta * 1.0) ** (2 * 4 * k)

    def test_matches_monte_carlo(self):
        p = model.build_rr_construction(10, 1.0, 1.0, 4.0)
        eta = engine.recommended_eta(10, 5, 1.0)
        x0 = np.array([1.0, 0.0, 0.0])
        ana = expected_loss_rr_analytic(p, eta, 5, x0)
        mean, se = mc_expected_loss(p, engine.Scheme.RANDOM_RESHUFFLE, eta, 5, x0,
                                    runs=4000, seed=6)
        assert abs(ana - mean) <= 3 * se

    @pytest.mark.parametrize("eta,message", BAD_ETAS)
    def test_bad_eta_rejected(self, eta, message):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        with pytest.raises(ValueError, match=message):
            expected_loss_rr_analytic(p, eta, 3, np.zeros(3))

    def test_second_moments_nonnegative_along_the_way(self):
        p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
        eta = 0.05
        for k in range(1, 11):
            mean, second = analysis._expected_moments(p, eta, k, np.array([1.0, 0.0, 0.0]),
                                                      single=False)
            assert np.all(second >= mean**2 - 1e-12)


def expected_loss_ss_formula(n: int, k: int, eta: float, G: float, lam: float,
                             lam_max: float, x0) -> float:
    """E[F(x_k)] of the 2-d construction under single shuffling, driven by the
    enumerating `beta_exact`: decay of both coordinates plus the beta variance
    term."""
    x0 = np.asarray(x0, dtype=np.float64)
    s_epoch = (1.0 - eta * lam_max) ** n
    ratio = float(engine._geometric_factor(s_epoch, k))
    beta = beta_exact(n, eta, lam_max)
    return float(
        0.5 * lam * (1.0 - eta * lam) ** (2 * n * k) * x0[0] ** 2
        + 0.5 * lam_max * (1.0 - eta * lam_max) ** (2 * n * k) * x0[1] ** 2
        + (eta**2 * G**2 * lam_max / 8.0) * ratio**2 * beta
    )


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
            exact = expected_loss_ss_exact(p, eta, k, x0)
            formula = expected_loss_ss_formula(n, k, eta, 1.0, 1.0, lam_max, x0)
            assert exact == pytest.approx(formula, rel=1e-12)

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

    @pytest.mark.parametrize("eta,message", BAD_ETAS)
    def test_bad_eta_rejected(self, eta, message):
        p = model.build_ss_construction(6, 1.0, 1.0, 4.0)
        with pytest.raises(ValueError, match=message):
            expected_loss_ss_exact(p, eta, 3, np.zeros(2))

    def test_conjugated_problem_same_expected_loss(self):
        p = model.build_ss_construction(6, 1.0, 1.0, 3.0)
        theta = 0.6
        O = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        pc = model.conjugate(p, O)
        x0 = np.array([0.8, -0.1])
        assert expected_loss_ss_exact(pc, 0.05, 3, O @ x0) == pytest.approx(
            expected_loss_ss_exact(p, 0.05, 3, x0), rel=1e-12
        )


class TestLargeEtaWarning:
    """The exact oracles warn on eta*L > 1, as the Monte Carlo route does."""

    BUILDS = (model.build_ss_construction, model.build_rr_construction,
              model.build_rr_fig1_construction)
    ORACLES = (expected_loss_rr_analytic, expected_loss_ss_exact)

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("build", BUILDS)
    def test_warns_beyond_one(self, build, oracle):
        p = build(6, 1.0, 1.0, 4.0)
        with pytest.warns(RuntimeWarning, match=r"eta\*L"):
            oracle(p, 0.5, 3, np.zeros(p.dim))

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("build", BUILDS)
    def test_calibration_grid_is_silent(self, build, oracle):
        # the suite turns warnings into errors, so a warning here fails
        p = build(16, 1.0, 1.0, 4.0)
        assert p.smooth_l == p.lam_max
        for alpha in calibrate.CALIBRATION_GRID_ALPHA:
            oracle(p, alpha / p.lam_max, 5, np.ones(p.dim))


def rr_by_recursion(p, eta, k, x0):
    """E[F(x_k)] under random reshuffling by the per-epoch moment recursion on
    `permutation_moments`' five fields, one epoch at a time."""
    y0 = p.conjugation.T @ x0 if p.conjugation is not None else np.asarray(x0)
    cols = [permutation_moments(p.curvature_matrix[:, j], p.linear_matrix[:, j], eta)
            for j in range(p.dim)]
    e_p, e_p2, e_q, e_q2, e_pq = (np.array([getattr(m, f) for m in cols])
                                  for f in ("e_p", "e_p2", "e_q", "e_q2", "e_pq"))
    mean, second = y0.astype(np.float64), y0 * y0
    for _ in range(k):
        mean, second = (e_p * mean + eta * e_q,
                        e_p2 * second + 2.0 * eta * e_pq * mean + eta**2 * e_q2)
    return float(np.sum(0.5 * p.mean_curvature * second - p.mean_linear * mean))


class TestClosedFormAgainstRecursion:
    """The rr closed form against the epoch-by-epoch recursion it sums."""

    @pytest.mark.parametrize("build", [model.build_ss_construction,
                                       model.build_rr_construction,
                                       model.build_rr_fig1_construction])
    def test_rr_matches_recursion(self, build):
        for n in (4, 10, 16):
            for lam_max in (4.0, 200.0):
                p = build(n, 1.0, 1.0, lam_max)
                x0 = np.linspace(1.0, -0.5, p.dim)
                for alpha in (0.01, 0.5, 1.0):
                    eta = alpha / lam_max
                    for k in (0, 1, 5, 40, 2000):
                        got = expected_loss_rr_analytic(p, eta, k, x0)
                        ref = rr_by_recursion(p, eta, k, x0)
                        # measured worst: 2.2e-15 up to k = 40, 6.9e-14 at k = 2000
                        rel = 1e-13 if k <= 40 else 2e-12
                        assert got == pytest.approx(ref, rel=rel, abs=0.0), \
                            (n, lam_max, alpha, k)


@pytest.mark.parametrize("oracle", [expected_loss_rr_analytic, expected_loss_ss_exact])
def test_epoch_count_must_be_a_nonnegative_integer(oracle):
    p = model.build_rr_construction(6, 1.0, 1.0, 4.0)
    x0 = np.array([1.0, 0.5, -0.5])
    assert oracle(p, 0.1, np.int64(3), x0) == oracle(p, 0.1, 3, x0)
    for k in (2.5, 3.0, np.float64(3.0), "3", True, -1):
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            oracle(p, 0.1, k, x0)


def ss_loss_per_coordinate(p, eta, k, x0):
    """E[F(x_k)] under single shuffling, one coordinate at a time in scalars."""
    y0 = p.conjugation.T @ x0 if p.conjugation is not None else np.asarray(x0)
    total = 0.0
    for j in range(p.dim):
        m = permutation_moments(p.curvature_matrix[:, j], p.linear_matrix[:, j], eta)
        s = float(np.prod(1.0 - eta * p.curvature_matrix[:, j]))
        g = float(k) if s == 1.0 else (1.0 - s**k) / (1.0 - s)
        mean = s**k * y0[j] + eta * g * m.e_q
        second = (s**k * y0[j]) ** 2 + 2.0 * s**k * y0[j] * eta * g * m.e_q \
            + (eta * g) ** 2 * m.e_q2
        total += 0.5 * p.mean_curvature[j] * second - p.mean_linear[j] * mean
    return total


class TestMomentTable:
    """The (d,)-array moment table against a per-coordinate scalar loop."""

    @staticmethod
    def flat_balanced_problem():
        # coordinate 2 has zero curvature everywhere and balanced linear
        # terms: its epoch product is exactly 1, the k-limit branch
        half = 3
        return model.Problem(
            curvature_matrix=[[1.0, 4.0, 0.0]] * half + [[1.0, 0.0, 0.0]] * half,
            linear_matrix=[[0.0, -0.5, 0.25]] * half + [[0.0, 0.5, -0.25]] * half,
            lam=1.0, lam_max=2.0, smooth_l=4.0, grad_bound=1.0,
        )

    @staticmethod
    def rotated_rr_problem():
        o, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
        return model.conjugate(model.build_rr_construction(8, 1.0, 1.0, 4.0), o)

    @pytest.mark.parametrize("which", ["flat_balanced_problem", "rotated_rr_problem"])
    def test_ss_exact_matches_per_coordinate_loop(self, which):
        p = getattr(self, which)()
        x0 = np.array([1.0, -0.5, 0.75])
        for eta in (0.01, 0.05, 0.2):
            for k in (0, 1, 3, 10):
                got = expected_loss_ss_exact(p, eta, k, x0)
                ref = ss_loss_per_coordinate(p, eta, k, x0)
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (eta, k)

    def test_table_fields_are_per_coordinate_arrays(self):
        p = self.flat_balanced_problem()
        table = analysis._coordinate_moments(p, 0.1)
        assert table.e_p.shape == (3,) and table.e_p[2] == 1.0  # the flat coordinate
        for j in range(p.dim):
            m = permutation_moments(p.curvature_matrix[:, j], p.linear_matrix[:, j], 0.1)
            for field in ("e_p", "e_p2", "e_q", "e_q2", "e_pq"):
                assert getattr(table, field)[j] == getattr(m, field)

    def test_negative_variance_in_one_coordinate_rejected(self):
        ok, zero = np.array([0.5, 0.5]), np.zeros(2)
        with pytest.raises(ValueError, match=r"E\[P\^2\]"):
            analysis.PermutationMoments(e_p=ok, e_p2=np.array([0.25, 0.2]),
                                        e_q=zero, e_q2=zero, e_pq=zero)
        with pytest.raises(ValueError, match=r"E\[Q\^2\]"):
            analysis.PermutationMoments(e_p=ok, e_p2=ok**2, e_q=np.array([0.0, 1e3]),
                                        e_q2=np.array([0.0, 0.999e6]), e_pq=zero)

    def test_large_magnitudes_accepted(self):
        # the TestScaleAwareTolerances cases, as columns of one table
        b = np.repeat([8.292244049818343, -40.057621892523045], 4)
        flat = permutation_moments(np.zeros(8), b, 0.1)
        steep = permutation_moments(np.full(8, 2.0), 1e4 * np.repeat([0.5, -0.5], 4), 0.1)
        columns = [(m.e_p, m.e_p2, m.e_q, m.e_q2, m.e_pq) for m in (flat, steep)]
        analysis.PermutationMoments(*np.array(columns).T)
        eta = engine.recommended_eta(6, 5, 1.0)
        table = analysis._coordinate_moments(model.build_rr_construction(6, 1e4, 1.0, 2.0), eta)
        assert table.e_q2.shape == (3,)


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
                for k in range(1, 9):
                    mean, _ = analysis._expected_moments(p, eta, k, np.zeros(3), single=False)
                    ceiling = -(eta / 8.0) * (1.0 - (1.0 - eta * lam_max * n / 2.0) ** k)
                    assert mean[2] <= ceiling + 1e-15, (n, frac, k)

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
