import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from ballrep import (
    EffectiveSampleSizeWarning,
    GeneralizedPolynomial,
    InfiniteVolumeError,
    closed_form_ball_moment,
    closed_form_ball_volume,
    euler_residual,
    finite_volume_test,
    grad_volume,
    hankel_diag_bound_check,
    ld_polynomial,
    moment,
    moment_matrix,
    moment_table,
    region_hash,
    volume,
)
from ballrep.polynomials import enumerate_indices
from ballrep.volume import _sphere_grid
from conftest import agree, random_feasible_quartic

DISK4 = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0})
FIG1_QUARTIC = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
FIG1_SEXTIC = GeneralizedPolynomial(2, 6, 1, {(6, 0): 1.0, (0, 6): 1.0, (3, 3): -1.925})


class TestClosedForms:
    def test_disk_volume_is_pi(self):
        assert closed_form_ball_volume(2, 2) == pytest.approx(math.pi, abs=1e-12)

    def test_cross_polytope_area(self):
        # {|x1| + |x2| <= 1} is a square with diagonal 2, elementary area 2
        assert closed_form_ball_volume(2, 1) == pytest.approx(2.0, abs=1e-12)

    def test_half_power_ball(self):
        assert closed_form_ball_volume(2, Fraction(1, 2)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_euclidean_ball_3d(self):
        assert closed_form_ball_volume(3, 2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_disk_axis_moment(self):
        # polar integration: int x1^2 over the unit disk = pi / 4
        assert closed_form_ball_moment(2, 2) == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_moment_is_volume_over_n_plus_d(self):
        for n, d in ((2, 4), (3, 2), (4, 6), (2, Fraction(1, 2))):
            ratio = closed_form_ball_moment(n, d) / closed_form_ball_volume(n, d)
            assert ratio == pytest.approx(1.0 / (n + float(Fraction(d))), rel=1e-12)

    def test_ball3_axis_moment(self):
        assert closed_form_ball_moment(3, 2) == pytest.approx((4 * math.pi / 3) / 5, rel=1e-12)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError, match="overflows"):
            closed_form_ball_volume(2000, 1000)
        # the other extreme: high dimension with small degree loses the value to 0
        with pytest.raises(OverflowError, match="underflows"):
            closed_form_ball_volume(400, Fraction(1, 4))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_form_ball_volume(0, 2)
        with pytest.raises(ValueError):
            closed_form_ball_volume(2, 0)


class TestSphericalBackend:
    def test_disk_as_quartic_volume(self):
        est = volume(DISK4, budget=256)
        assert est.value == pytest.approx(math.pi, abs=1e-6)
        assert est.std_error == 0.0
        assert est.backend == "spherical"

    def test_quadratic_disk_volume(self):
        est = volume(ld_polynomial(2, 2), budget=256)
        assert est.value == pytest.approx(math.pi, abs=1e-9)

    def test_paper_example_moments(self):
        assert moment(DISK4, (4, 0), budget=512)[0] == pytest.approx(0.392699, abs=1e-5)
        assert moment(DISK4, (2, 2), budget=512)[0] == pytest.approx(0.130899, abs=1e-5)
        # exact oracle values: pi/8 and pi/24 by polar integration
        assert moment(DISK4, (4, 0), budget=512)[0] == pytest.approx(math.pi / 8, rel=1e-10)
        assert moment(DISK4, (2, 2), budget=512)[0] == pytest.approx(math.pi / 24, rel=1e-10)

    def test_axis_moment_consistency_with_closed_form(self):
        for d in (2, 4):
            g = ld_polynomial(2, d)
            got = moment(g, (d, 0), budget=4096)[0]
            assert got == pytest.approx(closed_form_ball_moment(2, d), rel=1e-9)

    def test_ball_volumes_match_closed_form(self):
        for n, d in ((2, 2), (2, 4), (3, 2), (3, 4)):
            est = volume(ld_polynomial(n, d), budget=16384)
            assert est.value == pytest.approx(closed_form_ball_volume(n, d), rel=1e-8)

    def test_generalized_half_power_volume(self):
        est = volume(ld_polynomial(2, Fraction(1, 2), q=2), budget=65536)
        assert est.value == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_infeasible_raises(self):
        bad = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -2.1})
        with pytest.raises(InfiniteVolumeError, match="sphere minimum"):
            volume(bad, budget=1024)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="n in"):
            volume(ld_polynomial(4, 2), backend="spherical")

    def test_zero_sphere_minimum_raises(self):
        # 2 x1**4 vanishes on the x2 axis, where the sublevel set is unbounded
        with pytest.raises(InfiniteVolumeError, match="sphere minimum"):
            volume(GeneralizedPolynomial(2, 4, 1, {(4, 0): 2.0}))


class TestSymmetryZeros:
    def test_even_support_odd_component_is_exact_zero(self):
        for backend in ("spherical", "monte_carlo", "grid_oracle"):
            value, err = moment(FIG1_QUARTIC, (3, 1), backend=backend, budget=10000, seed=1)
            assert value == 0.0 and err == 0.0

    def test_odd_total_degree_is_exact_zero(self):
        g = random_feasible_quartic(np.random.default_rng(0))
        assert moment(g, (1, 0), budget=128) == (0.0, 0.0)
        assert moment(g, (2, 1), budget=128) == (0.0, 0.0)

    @pytest.mark.parametrize("backend", ["spherical", "monte_carlo", "grid_oracle"])
    def test_repeated_alphas_give_the_table_of_the_distinct_list(self, backend):
        g = random_feasible_quartic(np.random.default_rng(0))
        alphas = [(2, 2), (1, 0), (4, 0), (2, 2), (0, 0), (1, 0), (3, 1)]
        distinct = [(2, 2), (1, 0), (4, 0), (0, 0), (3, 1)]
        table = moment_table(g, alphas=alphas, backend=backend, budget=4096, seed=2)
        assert list(table.entries) == distinct
        assert table.entries[(1, 0)] == (0.0, 0.0)
        assert table.entries[(0, 0)] == (table.normalization.value, table.normalization.std_error)
        assert table == moment_table(g, alphas=distinct, backend=backend, budget=4096, seed=2)

    def test_asymmetric_support_keeps_honest_odd_moments(self):
        g = GeneralizedPolynomial(
            2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (3, 1): 0.35, (2, 2): 0.2}
        )
        sph = moment(g, (3, 1), budget=8192)[0]
        assert sph != 0.0
        grid = moment(g, (3, 1), backend="grid_oracle", budget=1_500_000, seed=5)
        assert agree(sph, 0.0, grid[0], grid[1])


class TestMomentTable:
    def test_zero_row_equals_volume(self):
        table = moment_table(DISK4, max_order=4, budget=512)
        zero = (0, 0)
        assert table.entries[zero][0] == table.normalization.value

    def test_covers_degree_slice_by_default(self):
        table = moment_table(DISK4, budget=256)
        assert set(table.entries) == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}

    def test_region_hash_tracks_polynomial(self):
        assert region_hash(DISK4) != region_hash(FIG1_QUARTIC)

    def test_computes_no_content_hash(self, monkeypatch):
        def refuse(g):
            raise AssertionError("moment_table serialized its polynomial")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ballrep" and hasattr(module, "serialize_polynomial"):
                monkeypatch.setattr(module, "serialize_polynomial", refuse)
        table = moment_table(DISK4, budget=128)
        assert table.normalization.value > 0

    def test_max_order_lattice_walk(self):
        g = ld_polynomial(2, Fraction(1, 2), q=8)
        table = moment_table(g, max_order=Fraction(1, 2), budget=4096)
        grades = {sum(a) for a in table.entries}
        assert grades == set(range(5))
        top = [a for a in table.entries if sum(a) == 4]
        assert len(top) == 5


class TestGradient:
    def test_disk_gradient_component(self):
        # -(n+d)/d * moment = -2 * pi/4 at the quadratic disk
        grads = grad_volume(ld_polynomial(2, 2), budget=2048)
        assert grads[(2, 0)] == pytest.approx(-math.pi / 2, rel=1e-9)
        assert grads[(1, 1)] == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        eps = 1e-4
        for _ in range(3):
            g = random_feasible_quartic(rng)
            grads = grad_volume(g, budget=4096)
            for alpha, got in grads.items():
                plus = dict(g.terms)
                minus = dict(g.terms)
                plus[alpha] = plus.get(alpha, 0.0) + eps
                minus[alpha] = minus.get(alpha, 0.0) - eps
                fd = (
                    volume(GeneralizedPolynomial(2, 4, 1, plus), budget=4096).value
                    - volume(GeneralizedPolynomial(2, 4, 1, minus), budget=4096).value
                ) / (2 * eps)
                assert abs(got - fd) <= 1e-4 * max(abs(got), abs(fd)) + 1e-10

    def test_multinomial_chain_rule(self):
        mono = grad_volume(DISK4, budget=1024)
        multi = grad_volume(DISK4.to_convention("multinomial"), budget=1024)
        assert multi[(2, 2)] == pytest.approx(6.0 * mono[(2, 2)], rel=1e-12)


class TestEulerIdentity:
    def test_disk_values(self):
        g = ld_polynomial(2, 2)
        assert abs(euler_residual(g, budget=2048)) <= 1e-12
        table = moment_table(g, budget=2048)
        integral_g = table.value((2, 0)) + table.value((0, 2))
        assert integral_g == pytest.approx(math.pi / 2, rel=1e-9)

    def test_quartic_representation_of_disk(self):
        table = moment_table(DISK4, budget=2048)
        integral_g = (
            table.value((4, 0)) + table.value((0, 4)) + 2.0 * table.value((2, 2))
        )
        assert integral_g == pytest.approx(math.pi / 3, rel=1e-9)

    def test_residual_tiny_for_random_quartics(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_feasible_quartic(rng)
            vol = volume(g, budget=4096).value
            assert abs(euler_residual(g, budget=4096)) / vol <= 1e-12


class TestFeasibility:
    def test_figure_one_sphere_minimum(self):
        verdict = finite_volume_test(FIG1_QUARTIC)
        assert verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(0.075 / 4.0, abs=1e-9)

    def test_infeasible_quartic(self):
        bad = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -2.1})
        verdict = finite_volume_test(bad)
        assert not verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(-0.025, abs=1e-9)

    def test_constant_on_sphere(self):
        verdict = finite_volume_test(ld_polynomial(2, 2))
        assert verdict.sphere_minimum == pytest.approx(1.0, abs=1e-12)

    def test_three_dimensional_search(self):
        g = GeneralizedPolynomial(
            3, 4, 1,
            {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (2, 2, 0): -1.9},
        )
        verdict = finite_volume_test(g, seed=1)
        # minimizing 0.1 t^4 + (1 - 2 t^2)^2 over 2 t^2 + z^2 = 1 gives exactly 1/41,
        # strictly below the in-plane value (2 - 1.9)/4 = 0.025
        assert verdict.sphere_minimum == pytest.approx(1.0 / 41.0, abs=1e-6)


class TestHomogeneityAndConvexity:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_volume_scaling(self, lam):
        for g in (DISK4, FIG1_QUARTIC, ld_polynomial(2, Fraction(1, 2), q=2)):
            base = volume(g, budget=8192).value
            scaled = volume(g.rescale(lam), budget=8192).value
            n, d = g.n, g.degree_float
            assert scaled == pytest.approx(lam ** (-n / d) * base, rel=1e-6)

    def test_midpoint_strict_convexity(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g, h = random_feasible_quartic(rng), random_feasible_quartic(rng)
            mid_terms = {
                a: 0.5 * (g.terms.get(a, 0.0) + h.terms.get(a, 0.0))
                for a in set(g.terms) | set(h.terms)
            }
            mid = GeneralizedPolynomial(2, 4, 1, mid_terms)
            fmid = volume(mid, budget=4096).value
            favg = 0.5 * (volume(g, budget=4096).value + volume(h, budget=4096).value)
            assert fmid < favg


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "poly,floor",
        [
            (ld_polynomial(2, 2), 0.0),
            (DISK4, 0.0),
            (FIG1_QUARTIC, 0.0),
            # the generalized integrand has kinks on the axes, so the spherical
            # trapezoid carries an (unreported) truncation error at this budget
            (ld_polynomial(2, Fraction(1, 2), q=2), 1e-4),
        ],
        ids=["disk2", "disk4", "fig1", "half"],
    )
    def test_volume_three_backends(self, poly, floor):
        sph = volume(poly, budget=16384)
        mc = volume(poly, backend="monte_carlo", budget=400_000, seed=3)
        grid = volume(poly, backend="grid_oracle", budget=1_000_000, seed=3)
        assert agree(sph.value, sph.std_error, mc.value, mc.std_error, floor=floor)
        assert agree(sph.value, sph.std_error, grid.value, grid.std_error, floor=floor)
        assert agree(mc.value, mc.std_error, grid.value, grid.std_error, floor=floor)

    def test_moment_cross_check(self):
        sph = moment(FIG1_QUARTIC, (2, 2), budget=16384)
        mc = moment(FIG1_QUARTIC, (2, 2), backend="monte_carlo", budget=400_000, seed=2)
        grid = moment(FIG1_QUARTIC, (2, 2), backend="grid_oracle", budget=1_000_000, seed=2)
        assert agree(sph[0], sph[1], mc[0], mc[1])
        assert agree(sph[0], sph[1], grid[0], grid[1])


class TestMonteCarlo:
    def test_reproducible_given_seed(self):
        a = volume(FIG1_QUARTIC, backend="monte_carlo", budget=50_000, seed=9)
        b = volume(FIG1_QUARTIC, backend="monte_carlo", budget=50_000, seed=9)
        assert a == b
        c = volume(FIG1_QUARTIC, backend="monte_carlo", budget=50_000, seed=10)
        assert c.value != a.value

    def test_axis_power_weights_are_flat(self):
        est = volume(ld_polynomial(3, 4), backend="monte_carlo", budget=30_000, seed=4)
        assert est.value == pytest.approx(closed_form_ball_volume(3, 4), rel=1e-12)
        assert est.ess == pytest.approx(30_000.0)

    def test_ess_diagnostic_fires_for_infeasible_input(self):
        # negative on an open cone: no rescale can make the reference dominate
        bad = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -3.0})
        with pytest.warns(EffectiveSampleSizeWarning):
            est = volume(bad, backend="monte_carlo", budget=200_000, seed=0)
        assert est.ess < 0.01 * 200_000

    def test_table_rows_agree_with_spherical(self):
        # every row of a mixed-degree table: g's own terms, missing alphas of
        # several total degrees, in an order unlike the kernel's row order
        g = random_feasible_quartic(np.random.default_rng(21))
        alphas = [(0, 0), (1, 3), (0, 2), (4, 0), (2, 1), (2, 2), (0, 4), (1, 1), (3, 1)]
        mc = moment_table(g, alphas=alphas, backend="monte_carlo", budget=100_000, seed=2)
        sph = moment_table(g, alphas=alphas, budget=8192)
        for a in alphas:
            assert agree(mc.value(a), mc.error(a), sph.value(a), 0.0, sigmas=4.0), a
        assert mc.value((2, 1)) == sph.value((2, 1)) == 0.0  # odd total degree

    def test_higher_dimension_supported(self):
        g = ld_polynomial(4, 2)
        est = volume(g, backend="monte_carlo", budget=200_000, seed=6)
        assert est.value == pytest.approx(closed_form_ball_volume(4, 2), rel=1e-2)


class TestMomentMatrixAndHankel:
    def test_disk_matrix_is_quarter_pi_identity(self):
        mm = moment_matrix(ld_polynomial(2, 2), 1, budget=2048)
        np.testing.assert_allclose(mm.values, (math.pi / 4) * np.eye(2), atol=1e-9)

    def test_disk4_matrix_entries(self):
        mm = moment_matrix(DISK4, 2, budget=2048)
        assert mm.values[0, 0] == pytest.approx(0.392699, abs=1e-5)
        assert mm.values[0, 2] == pytest.approx(0.130899, abs=1e-5)
        assert mm.values[1, 1] == pytest.approx(0.130899, abs=1e-5)
        np.testing.assert_allclose(mm.values, mm.values.T)

    def test_matrix_is_positive_semidefinite(self):
        for g in (DISK4, FIG1_QUARTIC, ld_polynomial(2, 4)):
            mm = moment_matrix(g, 2, budget=8192)
            assert np.linalg.eigvalsh(mm.values).min() >= -1e-10

    def test_hankel_bound_on_balls(self):
        assert hankel_diag_bound_check(moment_matrix(ld_polynomial(2, 4), 2, budget=8192))
        assert hankel_diag_bound_check(moment_matrix(ld_polynomial(2, 2), 1, budget=2048))

    def test_hankel_bound_generalized(self):
        g = ld_polynomial(2, Fraction(1, 2), q=4)
        mm = moment_matrix(g, budget=65536)
        assert mm.values.shape == (2, 2)
        assert hankel_diag_bound_check(mm)

    def test_odd_half_lattice_needs_explicit_half_degree(self):
        g = ld_polynomial(2, 3, q=1)
        with pytest.raises(ValueError, match="half_degree"):
            moment_matrix(g)


class TestGridOracle:
    def test_half_ball_volume(self):
        est = volume(
            ld_polynomial(2, Fraction(1, 2), q=2),
            backend="grid_oracle", budget=1_400_000, seed=3,
        )
        assert est.value == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert est.std_error > 0.0

    def test_infeasible_raises(self):
        bad = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -2.1})
        with pytest.raises(InfiniteVolumeError):
            volume(bad, backend="grid_oracle", budget=10_000)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match=r"n in \{2, 3\}, got 1"):
            volume(ld_polynomial(1, 2), backend="grid_oracle", budget=100)

    def test_sextic_figure_case(self):
        sph = volume(FIG1_SEXTIC, budget=16384)
        grid = volume(FIG1_SEXTIC, backend="grid_oracle", budget=1_000_000, seed=8)
        assert agree(sph.value, sph.std_error, grid.value, grid.std_error)


def _perturbed_ball(n, d, q=1, scale=0.01, seed=0):
    """Axis-power ball plus seeded noise on every term, odd exponents included."""
    rng = np.random.default_rng(seed)
    terms = {a: rng.uniform(-scale, scale) for a in enumerate_indices(n, int(Fraction(d) * q))}
    for a, c in ld_polynomial(n, d, q).terms.items():
        terms[a] += c
    return GeneralizedPolynomial(n, Fraction(d), q, terms)


def _per_alpha_moments(g, alphas, budget):
    """{alpha: (value, scale)} by the per-alpha spherical formula.

    g and each x^alpha are raised term by term with np.prod on the cached
    grid; scale is the same quadrature of the integrand's magnitude.
    """
    dirs, w = _sphere_grid(g.n, budget)

    def power(a):
        if g.is_classical:
            return np.prod(dirs ** np.asarray(a), axis=-1)
        return np.prod(np.abs(dirs) ** (np.asarray(a) / g.q), axis=-1)

    h = sum(g.monomial_coefficient(a) * power(a) for a in g.terms)
    assert h.min() > 0.0
    out = {}
    for alpha in set(alphas):
        k = g.n + sum(alpha) / g.q
        integrand = w * power(alpha) * h ** (-k / g.degree_float)
        out[alpha] = (integrand.sum() / k, np.abs(integrand).sum() / k)
    return out


EQUIVALENCE_CASES = [
    _perturbed_ball(2, 4),
    _perturbed_ball(3, 4),
    _perturbed_ball(3, 6, scale=0.004),
    _perturbed_ball(3, Fraction(1, 2), q=4, scale=0.2),
]


class TestSphericalEquivalence:
    BUDGET = 4096

    def _check(self, g, entries):
        reference = _per_alpha_moments(g, [alpha for alpha, _ in entries], self.BUDGET)
        for alpha, got in entries:
            want, scale = reference[alpha]
            assert abs(got - want) <= 1e-12 * scale, alpha

    @pytest.mark.parametrize("g", EQUIVALENCE_CASES, ids=["2-4", "3-4", "3-6", "p1q-3-1/2"])
    def test_moment_table_matches_per_alpha_formula(self, g):
        table = moment_table(g, budget=self.BUDGET)
        odd = [v for a, (v, _) in table.entries.items() if any(x % 2 for x in a)]
        assert any(v != 0.0 for v in odd)  # odd exponents are live, not symmetry zeros
        self._check(g, [(a, v) for a, (v, _) in table.entries.items()])

    def test_moment_table_max_order_mixes_k(self):
        g = EQUIVALENCE_CASES[1]
        table = moment_table(g, max_order=4, budget=self.BUDGET)
        assert {sum(a) for a in table.entries} == set(range(5))
        self._check(g, [(a, v) for a, (v, _) in table.entries.items()])

    @pytest.mark.parametrize("g", EQUIVALENCE_CASES, ids=["2-4", "3-4", "3-6", "p1q-3-1/2"])
    def test_moment_matrix_matches_per_alpha_formula(self, g):
        mm = moment_matrix(g, budget=self.BUDGET)
        entries = []
        for i, a in enumerate(mm.basis):
            for j, b in enumerate(mm.basis):
                entries.append((tuple(x + y for x, y in zip(a, b)), mm.values[i, j]))
        self._check(g, entries)

    @pytest.mark.parametrize("g", EQUIVALENCE_CASES, ids=["2-4", "3-4", "3-6", "p1q-3-1/2"])
    def test_grad_volume_matches_per_alpha_formula(self, g):
        factor = -(g.n + g.degree_float) / g.degree_float
        grads = grad_volume(g, budget=self.BUDGET)
        self._check(g, [(a, v / factor) for a, v in grads.items()])


SPARSE_BALLS = [
    ld_polynomial(2, 4),
    ld_polynomial(3, 6),
    ld_polynomial(2, Fraction(3, 2), q=2),
    ld_polynomial(3, Fraction(3, 2), q=2),
    ld_polynomial(3, Fraction(1, 2), q=4),
]
SPARSE_IDS = ["2-4", "3-6", "2-3/2-q2", "3-3/2-q2", "3-1/2-q4"]


def _dense_form(n, d, seed):
    """A random dense classical form made positive by adding the axis-power ball."""
    rng = np.random.default_rng([seed, n, d])
    terms = {a: 0.1 * rng.normal() for a in enumerate_indices(n, d)}
    for a in ld_polynomial(n, d).terms:
        terms[a] += 1.0
    return GeneralizedPolynomial(n, d, 1, terms)


DENSE_FORMS = [_dense_form(2, 4, 0), _dense_form(2, 6, 1), _dense_form(3, 4, 2), _dense_form(3, 6, 3)]
DENSE_IDS = ["2-4", "2-6", "3-4", "3-6"]


class TestSingleKernelPass:
    """One monomial kernel call per spherical pass, against the per-alpha formula.

    The kernel rows are g's own terms followed by the moment alphas they
    miss; a sparse ball has few own rows, a dense form has them all, and a
    max_order table adds rows of several total degrees (several k groups).
    """

    BUDGET = 4096

    def _check(self, g, table):
        reference = _per_alpha_moments(g, list(table.entries), self.BUDGET)
        for alpha, (got, _) in table.entries.items():
            want, scale = reference[alpha]
            assert abs(got - want) <= 1e-12 * scale, alpha
        # the volume still comes from the evaluated polynomial, bit for bit
        dirs, w = _sphere_grid(g.n, self.BUDGET)
        h = g.evaluate(dirs)
        assert table.normalization.value == float(np.dot(w, h ** (-g.n / g.degree_float)) / g.n)

    @pytest.mark.parametrize("g", SPARSE_BALLS, ids=SPARSE_IDS)
    def test_sparse_ball_degree_slice(self, g):
        table = moment_table(g, budget=self.BUDGET)
        assert len(table.entries) > len(g.terms)  # most rows are not g's own
        self._check(g, table)

    @pytest.mark.parametrize("g", SPARSE_BALLS, ids=SPARSE_IDS)
    def test_sparse_ball_max_order_table(self, g):
        table = moment_table(g, max_order=4, budget=self.BUDGET)
        assert len({sum(a) for a in table.entries}) > 2
        self._check(g, table)

    @pytest.mark.parametrize("g", DENSE_FORMS, ids=DENSE_IDS)
    def test_dense_form_degree_slice(self, g):
        self._check(g, moment_table(g, budget=self.BUDGET))

    @pytest.mark.parametrize("g", DENSE_FORMS, ids=DENSE_IDS)
    def test_dense_form_max_order_table(self, g):
        table = moment_table(g, max_order=4, budget=self.BUDGET)
        assert {sum(a) for a in table.entries} == set(range(5))
        self._check(g, table)

    def test_unordered_alphas_with_repeats(self):
        g = DENSE_FORMS[2]
        alphas = [(0, 0, 2), (4, 0, 0), (1, 1, 0), (0, 0, 2), (2, 1, 1), (0, 0, 0), (3, 1, 0)]
        self._check(g, moment_table(g, alphas=alphas, budget=self.BUDGET))


class TestSphereGridCache:
    @pytest.mark.parametrize("n", [2, 3])
    def test_cached_arrays_are_shared_and_read_only(self, n):
        dirs, weights = _sphere_grid(n, 2048)
        again = _sphere_grid(n, 2048)
        assert again[0] is dirs and again[1] is weights
        with pytest.raises(ValueError, match="read-only"):
            dirs[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.5
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert weights.sum() == pytest.approx(2.0 * math.pi if n == 2 else 4.0 * math.pi)


def _sphere_power(n, d):
    """(x_1^2 + ... + x_n^2)**(d/2) in the monomial convention: 1 on the unit sphere."""
    terms = {}
    for beta in enumerate_indices(n, d // 2):
        coeff = math.factorial(d // 2)
        for b in beta:
            coeff //= math.factorial(b)
        terms[tuple(2 * b for b in beta)] = float(coeff)
    return terms


def _random_form(n, d, rng):
    """A classical form of degree d with standard normal coefficients on every term."""
    return GeneralizedPolynomial(n, d, 1, {a: rng.normal() for a in enumerate_indices(n, d)})


def _brute_minimum(g, count):
    """Minimum of g over count angles (n = 2) or a count-point Fibonacci lattice (n = 3)."""
    i = np.arange(count) + 0.5
    if g.n == 2:
        theta = 2.0 * math.pi * i / count
        dirs = np.stack([np.cos(theta), np.sin(theta)], -1)
    else:
        z = 1.0 - 2.0 * i / count
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        s = np.sqrt(1.0 - z * z)
        dirs = np.stack([s * np.cos(phi), s * np.sin(phi), z], -1)
    return min(float(g.evaluate(dirs[k:k + 100_000]).min()) for k in range(0, count, 100_000))


class TestFeasibilityGate:
    def test_shifted_random_sextics_classified(self):
        sphere = _sphere_power(3, 6)
        rng = np.random.default_rng(2024)
        for k in range(30):
            g = _random_form(3, 6, rng)
            low = _brute_minimum(g, 100_000)
            for shift in (0.02, -0.02):
                terms = dict(g.terms)
                for a, c in sphere.items():
                    terms[a] = terms.get(a, 0.0) + (shift - low) * c
                # the shifted form equals shift at the lattice's best direction and
                # lies at most the lattice's covering error (well below 0.02) under it
                verdict = finite_volume_test(GeneralizedPolynomial(3, 6, 1, terms), seed=k)
                assert verdict.finite_volume == (shift > 0), (k, shift, verdict)
                assert verdict.sphere_minimum <= shift + 1e-9, (k, shift, verdict)

    @pytest.mark.parametrize("n,d,seed", [
        (2, 4, 0), (2, 4, 1), (2, 6, 0), (2, 6, 1),
        (3, 4, 0), (3, 4, 1), (3, 6, 0), (3, 6, 1),
    ])
    def test_sphere_minimum_matches_brute_force(self, n, d, seed):
        g = _random_form(n, d, np.random.default_rng([seed, n, d]))
        got = finite_volume_test(g, seed=seed).sphere_minimum
        brute = _brute_minimum(g, 400_000 if n == 2 else 2_000_000)
        # the gate never misses what the exhaustive search finds
        assert got <= brute + 1e-9
        # 400k angles pin the n = 2 minimum to about 1e-10; the 2M-point
        # lattice is about 2.5e-3 rad apart, so its own minimum can sit up
        # to about 5e-6 above the true one
        assert got >= brute - (1e-9 if n == 2 else 1e-5)

    def test_degenerate_pole_is_infeasible(self):
        # (x1^2 + x2^2)^2 vanishes at the poles (0, 0, +-1): zero minimum, unbounded set
        g = GeneralizedPolynomial(3, 4, 1, {(4, 0, 0): 1.0, (2, 2, 0): 2.0, (0, 4, 0): 1.0})
        verdict = finite_volume_test(g)
        assert not verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(0.0, abs=1e-12)

    def test_generalized_half_ball(self):
        # sum |x_i|^(1/2) is smallest, at 1, on the axes
        verdict = finite_volume_test(ld_polynomial(3, Fraction(1, 2), q=4))
        assert verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(1.0, abs=1e-12)

    def test_planar_minimum_at_an_axis_kink(self):
        # g(e2) = 1 is the minimum; at the scan angle pi/2, cos is 6e-17 and
        # |x_1|^(1/4) turns it into 8.8e-5
        g = GeneralizedPolynomial(2, Fraction(1, 2), 4, {(2, 0): 2, (1, 1): 1, (0, 2): 1})
        verdict = finite_volume_test(g)
        assert verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(1.0, abs=1e-12)

    def test_four_dimensional_quartic_ball(self):
        # sum x_i^4 is smallest on the diagonal, at 4 * (1/4)^2 = 1/4
        verdict = finite_volume_test(ld_polynomial(4, 4))
        assert verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("c", [0.98, 1.02])
    def test_six_dimensional_hidden_direction(self, c):
        # (|x|^2)^2 - c (u.x)^4 is 1 - c cos^4 of the angle to u on the sphere:
        # its minimum 1 - c sits at a random direction u, away from every start
        n = 6
        u = np.random.default_rng(6).normal(size=n)
        u /= np.linalg.norm(u)
        terms = _sphere_power(n, 4)
        for a in enumerate_indices(n, 4):
            weight = math.factorial(4) / math.prod(math.factorial(x) for x in a)
            terms[a] = terms.get(a, 0.0) - c * weight * math.prod(u**np.array(a))
        verdict = finite_volume_test(GeneralizedPolynomial(n, 4, 1, terms), seed=3)
        assert verdict.finite_volume == (c < 1.0)
        assert verdict.sphere_minimum == pytest.approx(1.0 - c, abs=1e-9)
