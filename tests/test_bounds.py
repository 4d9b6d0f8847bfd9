import pytest
from hypothesis import given, settings, strategies as st

from shufflelab import bounds
from shufflelab.bounds import (
    BoundSpec,
    crossover_epoch,
    rr_lower,
    rr_upper,
    ss_lower,
    ss_upper,
    ss_upper_high_prob,
    wr_baseline,
)


class TestSsLower:
    def test_reference_value(self):
        assert ss_lower(500, 100, 1.0, 1.0, 200.0) == pytest.approx(2e-5)

    def test_branch_boundary_continuous(self):
        # at k = lam_max/lam both branches agree
        lam, lmax = 1.0, 8.0
        k = 8
        assert ss_lower(10, k, 1.0, lam, lmax) == pytest.approx(
            wr_baseline(10, k, 1.0, lam)
        )

    def test_quadratic_in_g(self):
        assert ss_lower(10, 5, 2.0, 1.0, 3.0) == pytest.approx(
            4 * ss_lower(10, 5, 1.0, 1.0, 3.0)
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ss_lower(1, 5, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            ss_lower(10, 5, 1.0, -1.0, 2.0)


class TestRrLower:
    def test_reference_value(self):
        # min{1, 200/50000 + 4} = 1
        assert rr_lower(500, 100, 1.0, 1.0, 200.0) == pytest.approx(2e-5)

    def test_well_conditioned(self):
        n, k = 10, 4
        expected = 1.0 / (n * k) * min(1.0, 1.0 / (n * k) + 1.0 / k**2)
        assert rr_lower(n, k, 1.0, 1.0, 1.0) == pytest.approx(expected)

    def test_both_terms_add(self):
        n, k, kappa = 100, 1000, 2.0
        val = rr_lower(n, k, 1.0, 1.0, kappa)
        inner = kappa / (n * k) + kappa**2 / k**2
        assert val == pytest.approx(inner / (n * k))


class TestUppers:
    def test_ss_upper_is_scaled_lower_shape(self):
        args = (50, 20, 1.0, 1.0, 10.0)
        assert ss_upper(*args, c_log=3.0) == pytest.approx(3.0 * ss_lower(*args))

    def test_rr_upper_mirrors_rr_lower(self):
        args = (50, 20, 1.0, 1.0, 10.0)
        assert rr_upper(*args, c_log=2.0, d=3) == pytest.approx(6.0 * rr_lower(*args))

    def test_rr_branch_switch_at_condition_number(self):
        lam, lmax = 1.0, 6.0
        k = int(lmax / lam)
        inner = lmax / (100 * k) + (lmax / lam) ** 2 / k**2
        assert inner == pytest.approx(1.0 + lmax / (100 * k))

    def test_high_prob_polylog_magnitude(self):
        # log^2(8*500/0.05) * log^2(50000) ~ 1.49e4
        val = ss_upper_high_prob(500, 100, 1.0, 1.0, 1.0, delta=0.05)
        base = wr_baseline(500, 100, 1.0, 1.0) * min(1.0, 1.0 / 100)
        assert val / base == pytest.approx(1.49e4, rel=0.01)

    def test_high_prob_delta_range(self):
        with pytest.raises(ValueError):
            ss_upper_high_prob(10, 10, 1.0, 1.0, 1.0, delta=1.5)


class TestBaselineAndCrossover:
    def test_wr_value(self):
        assert wr_baseline(500, 100, 1.0, 1.0) == pytest.approx(2e-5)
        assert wr_baseline(500, 100, 1.0, 1.0, c=3.0) == pytest.approx(6e-5)

    def test_wr_linear_in_inverse_k(self):
        assert wr_baseline(10, 20, 1.0, 1.0) == pytest.approx(
            wr_baseline(10, 10, 1.0, 1.0) / 2
        )

    def test_crossover(self):
        assert crossover_epoch(1.0, 200.0) == pytest.approx(200.0)
        assert crossover_epoch(2.0, 2.0) == pytest.approx(1.0)
        assert crossover_epoch(3.0, 600.0) == pytest.approx(crossover_epoch(1.0, 200.0))

    def test_ss_lower_equals_baseline_below_crossover(self):
        lam, lmax = 1.0, 50.0
        for k in (5, 20, 49):
            assert ss_lower(100, k, 1.0, lam, lmax) == pytest.approx(
                wr_baseline(100, k, 1.0, lam)
            )


class TestBoundSpec:
    def test_dispatch(self):
        args = (100, 10, 1.0, 1.0, 5.0)
        assert BoundSpec("SS-LOWER").evaluate(*args) == pytest.approx(ss_lower(*args))
        assert BoundSpec("WR-BASELINE").evaluate(*args) == pytest.approx(
            wr_baseline(100, 10, 1.0, 1.0)
        )

    def test_rejects_unknown_id(self):
        with pytest.raises(ValueError):
            BoundSpec("SS-MIDDLE")

    def test_ids_keep_their_order(self):
        assert bounds.THEOREM_IDS == ("SS-LOWER", "RR-LOWER", "SS-UPPER", "RR-UPPER",
                                      "WR-BASELINE")

    def test_wr_baseline_ignores_lam_max(self):
        spec = BoundSpec("WR-BASELINE")
        want = wr_baseline(100, 10, 1.0, 1.0)
        assert spec.evaluate(100, 10, 1.0, 1.0, 5.0) == spec.evaluate(100, 10, 1.0, 1.0, 1e9) == want


@pytest.mark.parametrize("rate", [ss_lower, rr_lower, ss_upper, rr_upper, wr_baseline])
@pytest.mark.parametrize("position, value, message", [
    (2, float("nan"), "^G must be finite, got nan$"),
    (3, float("inf"), "^lam must be finite, got inf$"),
    (1, 2.5e400, "^k must be finite, got inf$"),
    (0, None, "^n must be a number, got None$"),
    (2, 0.0, "^G must be positive, got 0.0$"),
])
def test_non_finite_or_non_positive_parameters_rejected(rate, position, value, message):
    args = [10, 5, 1.0, 1.0, 2.0][:4 if rate is wr_baseline else 5]
    args[position] = value
    with pytest.raises(ValueError, match=message):
        rate(*args)


def test_non_finite_lam_max_rejected():
    with pytest.raises(ValueError, match="^lam_max must be finite, got inf$"):
        ss_lower(10, 5, 1.0, 1.0, float("inf"))
    with pytest.raises(ValueError, match="^a_bar must be finite, got nan$"):
        ss_upper_high_prob(10, 5, 1.0, 1.0, float("nan"))


@given(
    n=st.integers(min_value=2, max_value=10**4),
    k=st.integers(min_value=1, max_value=10**4),
    G=st.floats(min_value=1e-3, max_value=1e3),
    lam=st.floats(min_value=1e-3, max_value=10.0),
    ratio=st.floats(min_value=1.0, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_shape_containment_and_homogeneity(n, k, G, lam, ratio):
    lmax = lam * ratio
    assert ss_lower(n, k, G, lam, lmax) <= wr_baseline(n, k, G, lam) * (1 + 1e-12)
    assert rr_lower(n, k, G, lam, lmax) <= rr_upper(n, k, G, lam, lmax) * (1 + 1e-12)
    # degree 2 in G, degree -1 in n
    assert ss_lower(n, k, 2 * G, lam, lmax) == pytest.approx(
        4 * ss_lower(n, k, G, lam, lmax), rel=1e-9
    )
    assert wr_baseline(2 * n, k, G, lam) == pytest.approx(
        wr_baseline(n, k, G, lam) / 2, rel=1e-9
    )
