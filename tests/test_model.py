import json

import numpy as np
import pytest

from shufflelab import model
from shufflelab.model import (
    Problem,
    build_rr_construction,
    build_ss_construction,
    component_gradient,
    conjugate,
    gradient,
    objective,
    preset_x0,
    validate_assumptions,
)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestConstructions:
    def test_ss_layout(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        assert p.n == 4 and p.dim == 2
        for row in p.curvature_matrix:
            np.testing.assert_array_equal(row, [1.0, 2.0])
        np.testing.assert_array_equal(p.linear_matrix[:, 1], [-0.5, -0.5, 0.5, 0.5])
        np.testing.assert_array_equal(p.mean_linear, [0.0, 0.0])
        np.testing.assert_array_equal(p.mean_curvature, [1.0, 2.0])

    def test_ss_zero_noise_case(self):
        p = build_ss_construction(2, 0.0, 1.0, 1.0)
        assert objective(p, [0.3, -0.4]) == pytest.approx(0.5 * 0.25)
        m = p.minimizer()
        np.testing.assert_array_equal(m.point, [0.0, 0.0])
        assert m.value == 0.0

    def test_ss_initialization_gradient_norm(self):
        G, lam = 1.5, 0.5
        p = build_ss_construction(6, G, lam, 3.0)
        g0 = gradient(p, [G / lam, 0.0])
        assert np.linalg.norm(g0) == pytest.approx(G)

    def test_rr_layout(self):
        p = build_rr_construction(4, 1.0, 1.0, 2.0)
        assert p.dim == 3
        np.testing.assert_array_equal(p.curvature_matrix[0], [1.0, 2.0, 2.0])
        np.testing.assert_array_equal(p.curvature_matrix[3], [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(p.mean_curvature, [1.0, 2.0, 1.0])
        assert objective(p, np.zeros(3)) == 0.0
        np.testing.assert_array_equal(gradient(p, np.zeros(3)), np.zeros(3))

    def test_rr_objective_shape(self):
        p = build_rr_construction(8, 1.0, 1.0, 4.0)
        x = np.array([1.0, -2.0, 0.5])
        expected = 0.5 * x[0] ** 2 + 2.0 * x[1] ** 2 + 1.0 * x[2] ** 2
        assert objective(p, x) == pytest.approx(expected, rel=1e-14)

    def test_rr_component_gradient_norm_at_minimizer(self):
        G = 2.0
        p = build_rr_construction(6, G, 1.0, 5.0)
        xstar = p.minimizer().point
        for i in range(p.n):
            norm = np.linalg.norm(component_gradient(p, i, xstar))
            assert norm == pytest.approx(G / np.sqrt(2.0))

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_odd_or_small_n_rejected(self, n):
        with pytest.raises(ValueError):
            build_ss_construction(n, 1.0, 1.0, 2.0)

    def test_lam_max_below_lam_rejected(self):
        with pytest.raises(ValueError):
            build_ss_construction(4, 1.0, 2.0, 1.0)

    def test_rr_needs_twice_lam(self):
        with pytest.raises(ValueError):
            build_rr_construction(4, 1.0, 1.0, 1.5)

    @pytest.mark.parametrize("build", [build_ss_construction, build_rr_construction])
    @pytest.mark.parametrize("G, lam, lam_max, message", [
        (float("nan"), 1.0, 4.0, "^G must be finite, got nan$"),
        (float("inf"), 1.0, 4.0, "^G must be finite, got inf$"),
        (1.0, float("nan"), 4.0, "^lam must be finite, got nan$"),
        (1.0, 1.0, float("inf"), "^lam_max must be finite, got inf$"),
    ])
    def test_non_finite_parameters_rejected(self, build, G, lam, lam_max, message):
        with pytest.raises(ValueError, match=message):
            build(4, G, lam, lam_max)


class TestObjectiveAndGradients:
    def test_objective_example(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        assert objective(p, [1.0, 1.0]) == pytest.approx(1.5)
        assert objective(p, [1.0, 0.0]) == pytest.approx(0.5)

    def test_rows_round_like_single_points(self):
        # the closed-form runner evaluates all epochs' losses in one call;
        # each row must equal a lone objective call bit for bit
        rng = np.random.default_rng(4)
        for p in (build_ss_construction(6, 1.0, 0.7, 2.5),
                  build_rr_construction(6, 1.0, 0.7, 2.5)):
            ys = rng.normal(size=(200, p.dim)) * rng.uniform(0, 5, (200, 1))
            np.testing.assert_array_equal(model.diagonal_objective(p, ys),
                                          [objective(p, y) for y in ys])

    def test_dimension_mismatch(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            objective(p, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            component_gradient(p, 0, [1.0])

    def test_component_gradient_example(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        np.testing.assert_allclose(component_gradient(p, 0, [0.0, 0.0]), [0.0, 0.5])

    def test_component_index_out_of_range(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            component_gradient(p, 4, [0.0, 0.0])

    def test_component_stationary_point(self):
        p = build_rr_construction(4, 1.0, 1.0, 2.0)
        a, b = p.curvature_matrix[0], p.linear_matrix[0]
        x = np.where(a > 0, b / np.where(a > 0, a, 1.0), 0.0)
        # coordinate 3 has zero curvature but nonzero linear term: gradient -b there
        g = component_gradient(p, 0, x)
        np.testing.assert_allclose(g[:2], 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for p in (
            build_ss_construction(6, 1.0, 0.7, 2.5),
            build_rr_construction(6, 1.0, 0.7, 2.5),
            conjugate(build_ss_construction(4, 2.0, 1.0, 3.0), rotation(0.7)),
        ):
            for _ in range(100):
                x = rng.uniform(-2, 2, size=p.dim)
                g = gradient(p, x)
                h = 1e-6
                for j in range(p.dim):
                    e = np.zeros(p.dim)
                    e[j] = h
                    fd = (objective(p, x + e) - objective(p, x - e)) / (2 * h)
                    assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-7)

    def test_mean_of_component_gradients_is_gradient(self):
        rng = np.random.default_rng(1)
        p = build_rr_construction(6, 1.0, 1.0, 4.0)
        x = rng.uniform(-1, 1, size=3)
        mean_g = np.mean([component_gradient(p, i, x) for i in range(p.n)], axis=0)
        np.testing.assert_allclose(mean_g, gradient(p, x), rtol=1e-12, atol=1e-14)


class TestValidateAssumptions:
    def test_worst_case_init_passes(self):
        p = build_ss_construction(10, 1.0, 1.0, 2.0)
        report = validate_assumptions(p, [1.0, 0.0], k=100)
        assert report.all_passed, report.lines()

    def test_small_nk_fails_log_clause(self):
        p = build_ss_construction(2, 1.0, 1.0, 200.0)
        report = validate_assumptions(p, [1.0, 0.0], k=1)
        failed = [c.name for c in report.failed()]
        assert any("log(nk)" in name for name in failed)

    def test_oversized_initialization_fails(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        report = validate_assumptions(p, [2.0, 0.0], k=100)  # ||grad F|| = 2G
        failed = [c.name for c in report.failed()]
        assert any("x0" in name for name in failed)
        assert not report.all_passed


class TestConjugation:
    def test_identity_is_noop_on_values(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        pc = conjugate(p, np.eye(2))
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            assert objective(pc, x) == pytest.approx(objective(p, x), rel=1e-14)

    def test_rotation_equivalence(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        O = rotation(np.pi / 2)
        pc = conjugate(p, O)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            assert objective(pc, O @ x) == pytest.approx(objective(p, x), abs=1e-12)

    def test_double_conjugation_recovers(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        O = rotation(0.3)
        back = conjugate(conjugate(p, O), O.T)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            assert objective(back, x) == pytest.approx(objective(p, x), abs=1e-12)

    def test_validation_unchanged_under_conjugation(self):
        p = build_rr_construction(6, 1.0, 1.0, 4.0)
        O = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
        pc = conjugate(p, O)
        x0 = np.array([1.0, 0.0, 0.0])
        rep = validate_assumptions(p, x0, 50)
        rep_c = validate_assumptions(pc, O @ x0, 50)
        assert [c.passed for c in rep.clauses] == [c.passed for c in rep_c.clauses]

    def test_non_orthogonal_rejected(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            conjugate(p, np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_dense_matrices_match_gradient(self):
        p = conjugate(build_ss_construction(4, 1.0, 1.0, 2.0), rotation(1.1))
        x = np.array([0.4, -0.2])
        O = p.conjugation
        A0 = O @ np.diag(p.curvature_matrix[0]) @ O.T
        b0 = O @ p.linear_matrix[0]
        np.testing.assert_allclose(A0 @ x - b0, component_gradient(p, 0, x), rtol=1e-12)


class TestSerialization:
    def test_round_trip(self):
        p = build_rr_construction(4, 1.0, 1.0, 2.0)
        doc = json.loads(model.problem_to_json(p))
        q = model.problem_from_json_dict(doc)
        assert q.n == p.n and q.dim == p.dim
        np.testing.assert_array_equal(q.curvature_matrix, p.curvature_matrix)
        np.testing.assert_array_equal(q.linear_matrix, p.linear_matrix)
        assert q.lam == p.lam and q.lam_max == p.lam_max
        assert q.smooth_l == p.smooth_l and q.grad_bound == p.grad_bound

    def test_round_trip_with_conjugation(self):
        p = conjugate(build_ss_construction(4, 1.0, 1.0, 2.0), rotation(0.25))
        q = model.problem_from_json(model.problem_to_json(p))
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=2)
            assert objective(q, x) == objective(p, x)

    def test_schema_keys(self):
        doc = build_ss_construction(4, 1.0, 1.0, 2.0).to_json_dict()
        assert set(doc) == {"n", "dim", "lambda", "lambda_max", "smooth_l",
                            "grad_bound", "components"}
        assert set(doc["components"][0]) == {"curvatures", "linear"}

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["components"].pop(), "component count does not match n"),
        (lambda doc: doc["components"][1]["linear"].append(0.0),
         "all components must have dimension dim"),
        (lambda doc: doc["components"][2]["curvatures"].pop(),
         "all components must have dimension dim"),
        (lambda doc: doc["components"][0]["curvatures"].__setitem__(0, -0.1),
         "component curvatures must be nonnegative"),
    ])
    def test_reader_rejects_malformed_documents(self, edit, message):
        doc = build_rr_construction(4, 1.0, 1.0, 2.0).to_json_dict()
        model.problem_from_json_dict(doc)
        edit(doc)
        with pytest.raises(ValueError, match=message):
            model.problem_from_json_dict(doc)


class TestPresets:
    def test_worst_case_saturates_gradient_bound(self):
        for construction, build in (("ss", build_ss_construction), ("rr", build_rr_construction)):
            p = build(4, 1.0, 1.0, 2.0)
            x0 = preset_x0(construction, "worst-case", 1.0, 1.0, 2.0)
            assert np.linalg.norm(gradient(p, x0)) == pytest.approx(1.0)

    def test_fig1_preset_within_bound(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        x0 = preset_x0("ss", "fig1", 1.0, 1.0, 2.0)
        assert np.linalg.norm(gradient(p, x0)) <= 1.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_x0("ss", "center", 1.0, 1.0, 2.0)


class TestInvariants:
    def test_component_rejects_negative_curvature(self):
        with pytest.raises(ValueError, match="component curvatures must be nonnegative"):
            Problem(curvature_matrix=[[1.0], [-0.1]], linear_matrix=[[0.0], [0.0]],
                    lam=0.1, lam_max=1.0, smooth_l=1.0, grad_bound=1.0)

    def test_problem_rejects_weak_mean_curvature(self):
        with pytest.raises(ValueError):
            Problem(curvature_matrix=[[0.1], [0.1]], linear_matrix=[[0.0], [0.0]],
                    lam=1.0, lam_max=1.0, smooth_l=1.0, grad_bound=1.0)

    @pytest.mark.parametrize("name", ["lam", "lam_max", "smooth_l", "grad_bound"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_problem_rejects_non_finite_metadata(self, name, value):
        fields = dict(lam=1.0, lam_max=1.0, smooth_l=1.0, grad_bound=1.0)
        fields[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            Problem(curvature_matrix=[[1.0], [1.0]], linear_matrix=[[0.0], [0.0]], **fields)

    def test_problem_is_immutable(self):
        p = build_ss_construction(4, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            p.curvature_matrix[0, 0] = 9.0


class TestMinimizer:
    def test_gradient_vanishes_at_minimizer(self):
        rng = np.random.default_rng(9)
        problems = [
            build_ss_construction(6, 2.0, 1.0, 3.0),
            build_rr_construction(6, 2.0, 1.0, 3.0),
        ]
        theta = rng.uniform(0, 2 * np.pi)
        problems.append(conjugate(problems[0], rotation(theta)))
        for p in problems:
            m = p.minimizer()
            norm = np.linalg.norm(gradient(p, m.point))
            assert norm <= 1e-10 * max(1.0, p.grad_bound)
            assert m.value == pytest.approx(objective(p, m.point))

    def test_constructions_minimize_at_origin(self):
        for build in (build_ss_construction, build_rr_construction):
            p = build(4, 1.0, 1.0, 2.0)
            m = p.minimizer()
            np.testing.assert_allclose(m.point, 0.0, atol=1e-15)
            assert m.value == pytest.approx(0.0, abs=1e-15)
