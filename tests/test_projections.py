from fractions import Fraction

import numpy as np
import pytest

from ballrep import (
    jacobi_eigh,
    project_l1_ball,
    project_psd_trace,
    project_simplex,
    project_weighted_l2_ball,
)


class TestJacobiEigh:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_matches_lapack(self, size):
        rng = np.random.default_rng(size)
        a = rng.normal(size=(size, size))
        a = 0.5 * (a + a.T)
        values, vectors = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(values, ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(size), atol=1e-10)
        np.testing.assert_allclose((vectors * values) @ vectors.T, a, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("big", [10**400, Fraction(10**400)], ids=["int", "fraction"])
    def test_rejects_an_entry_beyond_float_range(self, big):
        # no float holds it: it reads as inf, so the PSD projection rejects it too
        for decompose in (jacobi_eigh, lambda a: project_psd_trace(a, 1.0)):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                decompose([[big, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            jacobi_eigh(np.zeros((2, 3)))

    def test_rejects_empty(self):
        # the PSD projection decomposes through it, so it rejects the empty matrix too
        for decompose in (jacobi_eigh, lambda a: project_psd_trace(a, 1.0)):
            with pytest.raises(ValueError, match=r"square matrix, got shape \(0, 0\)"):
                decompose(np.zeros((0, 0)))


class TestSimplexProjection:
    def test_interior_point_moves_to_face(self):
        out = project_simplex(np.array([0.2, 0.2]), 1.0)
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_vertex_attraction(self):
        # nearest simplex point to (2, 0) is the vertex (1, 0)
        out = project_simplex(np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0])
        assert out.sum() == pytest.approx(1.0)

    def test_feasibility_and_optimality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=rng.integers(1, 9))
            p = project_simplex(v, 1.0)
            assert (p >= 0).all()
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            # variational inequality against random feasible points
            for _ in range(10):
                z = rng.dirichlet(np.ones(v.size))
                assert np.dot(v - p, z - p) <= 1e-10


class TestL1BallProjection:
    def test_interior_unchanged(self):
        v = np.array([0.5, -0.25, 0.1])
        np.testing.assert_array_equal(project_l1_ball(v, 2.0), v)

    def test_lands_on_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            v = rng.normal(scale=3.0, size=rng.integers(1, 7))
            if np.abs(v).sum() <= 1.0:
                continue
            p = project_l1_ball(v, 1.0)
            assert np.abs(p).sum() == pytest.approx(1.0, abs=1e-12)
            assert (np.sign(p) * np.sign(v) >= 0).all()

    def test_optimality_against_feasible_points(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            v = rng.normal(scale=2.0, size=5)
            p = project_l1_ball(v, 1.0)
            for _ in range(10):
                z = rng.dirichlet(np.ones(5)) * rng.choice([-1, 1], size=5)
                z *= rng.uniform(0.0, 1.0)  # random point with l1 norm <= 1
                assert np.dot(v - p, z - p) <= 1e-10

    def test_soft_threshold_zeroes_small_entries(self):
        p = project_l1_ball(np.array([10.0, 0.01, -0.01]), 1.0)
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0])


class TestWeightedL2Projection:
    def test_interior_unchanged(self):
        v = np.array([0.4, 0.1])
        w = np.array([1.0, 6.0])
        np.testing.assert_array_equal(project_weighted_l2_ball(v, w, 2.0), v)

    def test_radial_scaling(self):
        v = np.array([2.0, 1.0])
        w = np.array([1.0, 6.0])
        p = project_weighted_l2_ball(v, w, 2.0)
        assert np.dot(w, p * p) == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(p / np.linalg.norm(p), v / np.linalg.norm(v))


class TestPsdTraceProjection:
    def test_feasible_matrix_unchanged(self):
        a = np.diag([0.5, 0.25])
        np.testing.assert_allclose(project_psd_trace(a, 1.0), a, atol=1e-12)

    def test_clips_negative_eigenvalue(self):
        a = np.diag([0.5, -0.7])
        np.testing.assert_allclose(project_psd_trace(a, 1.0), np.diag([0.5, 0.0]), atol=1e-12)

    def test_trace_bound_enforced(self):
        a = np.diag([2.0, 1.0])
        p = project_psd_trace(a, 1.0)
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_projection_optimality(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            a = 0.5 * (a + a.T)
            p = project_psd_trace(a, 2.0)
            evals = np.linalg.eigvalsh(p)
            assert evals.min() >= -1e-10
            assert np.trace(p) <= 2.0 + 1e-10
            # variational inequality against random feasible matrices
            for _ in range(8):
                b = rng.normal(size=(3, 3))
                z = b @ b.T
                z *= rng.uniform(0.0, 2.0) / max(np.trace(z), 1e-12)
                assert np.tensordot(a - p, z - p) <= 1e-8


@pytest.mark.parametrize("project,message", [
    (lambda bound: project_simplex(np.ones(3), bound), "simplex total must be positive"),
    (lambda bound: project_l1_ball(np.ones(3), bound), "l1 radius must be positive"),
    (lambda bound: project_weighted_l2_ball(np.ones(3), np.ones(3), bound),
     "squared radius must be positive"),
    (lambda bound: project_psd_trace(np.eye(3), bound), "trace bound must be positive"),
], ids=["simplex", "l1", "weighted-l2", "psd-trace"])
@pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), True, "1", None])
def test_non_positive_radius_is_rejected(project, message, bound):
    with pytest.raises(ValueError, match=message):
        project(bound)


def test_infinite_simplex_total_is_rejected():
    # a simplex of infinite total has no point; the balls' infinite radius stays valid
    with pytest.raises(ValueError, match="simplex total must be positive and finite, got inf"):
        project_simplex(np.ones(2), float("inf"))
    assert project_l1_ball(np.ones(2), float("inf")).tolist() == [1.0, 1.0]
    assert project_weighted_l2_ball(np.ones(2), np.ones(2), float("inf")).tolist() == [1.0, 1.0]
    assert project_psd_trace(np.eye(2), float("inf")) == pytest.approx(np.eye(2))


# a real that no float holds: float() of either raises OverflowError
BEYOND_FLOAT = [10**400, Fraction(10**400)]
BEYOND_FLOAT_IDS = ["int-beyond-float", "fraction-beyond-float"]


@pytest.mark.parametrize("project", [
    project_l1_ball,
    lambda v, bound: project_weighted_l2_ball(v, np.ones(2), bound),
], ids=["l1", "weighted-l2"])
@pytest.mark.parametrize("bound", BEYOND_FLOAT, ids=BEYOND_FLOAT_IDS)
def test_ball_bound_beyond_float_range_reads_as_infinite(project, bound):
    assert project([1.0, 2.0], bound).tolist() == project([1.0, 2.0], float("inf")).tolist()


@pytest.mark.parametrize("bound", BEYOND_FLOAT, ids=BEYOND_FLOAT_IDS)
def test_trace_bound_beyond_float_range_reads_as_infinite(bound):
    assert project_psd_trace(np.eye(2), bound) == pytest.approx(np.eye(2))


@pytest.mark.parametrize("total", BEYOND_FLOAT, ids=BEYOND_FLOAT_IDS)
def test_simplex_total_beyond_float_range_is_rejected(total):
    with pytest.raises(ValueError, match="simplex total must be positive and finite, got "):
        project_simplex(np.ones(2), total)


@pytest.mark.parametrize("project", [
    project_simplex,
    project_l1_ball,
    lambda v, bound: project_weighted_l2_ball(v, np.ones(2), bound),
], ids=["simplex", "l1", "weighted-l2"])
@pytest.mark.parametrize("v", [[], [float("nan"), 1.0], [float("inf"), 1.0], [[0.5, 0.5]],
                               *([big, 1.0] for big in BEYOND_FLOAT)],
                         ids=["empty", "nan", "inf", "two-dimensional", *BEYOND_FLOAT_IDS])
def test_bad_vector_is_rejected(project, v):
    with pytest.raises(ValueError, match="v must be a non-empty 1-D array of finite numbers"):
        project(v, 1.0)


@pytest.mark.parametrize("weights", [[-1.0, 1.0], [0.0, 1.0], [float("nan"), 1.0],
                                     [float("inf"), 1.0], [1.0, 1.0, 1.0],
                                     *([big, 1.0] for big in BEYOND_FLOAT)],
                         ids=["negative", "zero", "nan", "inf", "three", *BEYOND_FLOAT_IDS])
def test_bad_weights_are_rejected(weights):
    # under weights [-1, 1], [3, 1] has "norm" -8, inside any ball, and would pass unprojected
    with pytest.raises(ValueError, match="weights must be 2 positive finite numbers"):
        project_weighted_l2_ball([3.0, 1.0], weights, 1.0)
