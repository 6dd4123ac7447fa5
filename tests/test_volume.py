import math
import multiprocessing
import re
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
    solve_p2,
    volume,
)
from ballrep.polynomials import enumerate_indices, monomials
from ballrep.volume import _ball_moment, _sphere_grid
from conftest import agree, random_feasible_quartic

DISK4 = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0})
FIG1_QUARTIC = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
FIG1_SEXTIC = GeneralizedPolynomial(2, 6, 1, {(6, 0): 1.0, (0, 6): 1.0, (3, 3): -1.925})
# sphere minimum 4e-8 / 4 = 1e-8: finite volume, but heavy-tailed radial weights
NEAR_BOUNDARY = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -(2.0 - 4e-8)})


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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [4, 6])
    def test_ball_moments_match_the_closed_form(self, n, d):
        # the default spherical table of B_d against Dirichlet's formula: an
        # exact reference, so unlike the Euler identity this check can fail
        table = moment_table(ld_polynomial(n, d), max_order=4)
        exact = {a: 0.0 if any(x % 2 for x in a) else _ball_moment(n, d, a)
                 for a in table.entries}
        worst = max(abs(value - exact[a]) for a, (value, _) in table.entries.items())
        assert worst <= 1e-13 * max(exact.values())
        assert all(table.entries[a][0] == 0.0 for a, want in exact.items() if want == 0.0)

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

    def test_zero_on_an_exact_axis_raises(self):
        # sqrt|x1| vanishes on the x2 and x3 axes; the n = 3 grid misses them
        # by round-off, cos(pi/2) = 6e-17, whose fourth root 7.8e-9 clears
        # the tolerance, so the exact axes take part in the sphere minimum
        g = GeneralizedPolynomial(3, Fraction(1, 2), 4, {(2, 0, 0): 1.0})
        assert not finite_volume_test(g).finite_volume
        with pytest.raises(InfiniteVolumeError, match="sphere minimum 0"):
            volume(g, budget=2048)


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

    @pytest.mark.parametrize("alpha", [(1, 1, 2), (2, 0, 0), (-2, 4), (1.5, 0.5), (True, 3)],
                             ids=["too-long", "too-long-even", "negative", "fractional", "bool"])
    def test_malformed_alpha_rejected(self, alpha):
        # a 3-tuple read as a symmetry zero or broke the kernel's shapes, a
        # negative exponent wrapped the power table, a fractional one gave
        # zeros, a bool counted as 1
        with pytest.raises(ValueError, match=re.escape(f"got {alpha!r}")):
            moment(DISK4, alpha)
        with pytest.raises(ValueError, match=re.escape(f"got {alpha!r}")):
            moment_table(DISK4, alphas=[(4, 0), alpha])


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


class TestNegativeSeeds:
    """A negative, fractional or bool seed is an input error, not an alias of another stream."""

    @pytest.mark.parametrize("backend", ["spherical", "monte_carlo", "grid_oracle"])
    def test_every_pass_rejects_it(self, backend):
        g = ld_polynomial(2, 4)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            volume(g, backend, 5000, seed=-3)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            moment_table(g, backend=backend, budget=5000, seed=-1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gate_rejects_it(self, n):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            finite_volume_test(ld_polynomial(n, 4), seed=-1)

    @pytest.mark.parametrize("backend", ["spherical", "monte_carlo", "grid_oracle"])
    def test_every_pass_rejects_a_fractional_seed(self, backend):
        # int(2.7) would read the stream of seed 2
        g = ld_polynomial(2, 4)
        with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
            volume(g, backend, 5000, seed=2.7)
        with pytest.raises(ValueError, match="seed must be an integer, got 2.0"):
            moment_table(g, backend=backend, budget=5000, seed=2.0)
        with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
            finite_volume_test(ld_polynomial(4, 4), seed=2.7)

    @pytest.mark.parametrize("backend", ["spherical", "monte_carlo", "grid_oracle"])
    def test_every_pass_rejects_a_bool_seed(self, backend):
        # operator.index(True) is 1, so seed=True would read the stream of seed 1
        g = ld_polynomial(2, 4)
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            volume(g, backend, 5000, seed=True)
        with pytest.raises(ValueError, match="seed must be an integer, got False"):
            moment_table(g, backend=backend, budget=5000, seed=False)
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            finite_volume_test(ld_polynomial(4, 4), seed=True)

    @pytest.mark.parametrize("backend", ["spherical", "monte_carlo", "grid_oracle"])
    def test_every_pass_rejects_a_fractional_or_bool_budget(self, backend):
        # int(2048.7) would run a pass at budget 2048
        g = ld_polynomial(2, 4)
        with pytest.raises(ValueError, match="budget must be an integer, got 2048.7"):
            volume(g, backend, 2048.7)
        with pytest.raises(ValueError, match="budget must be an integer, got True"):
            moment_table(g, backend=backend, budget=True)

    def test_numpy_integers_stay_valid(self):
        # the disk, not B_4: g is 1 at every cone node of B_4, so its volume
        # is the same at any seed
        disk = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0})
        at = {seed: volume(disk, "monte_carlo", 5000, seed=seed) for seed in (np.int64(2), 2, 3)}
        assert at[np.int64(2)] == at[2] != at[3]


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

    @pytest.mark.parametrize("query", [volume, moment_table])
    def test_unknown_backend_is_named(self, query):
        with pytest.raises(ValueError, match="unknown backend 'mc'; choose from"):
            query(DISK4, backend="mc")


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

    def test_ess_diagnostic_fires_near_the_boundary(self):
        # sphere minimum 1e-8, just above the infinite-volume tolerance: the
        # weights h**(-1/2) peak near the diagonals (ESS/N measured 0.0049)
        with pytest.warns(EffectiveSampleSizeWarning):
            est = volume(NEAR_BOUNDARY, backend="monte_carlo", budget=200_000, seed=0)
        assert est.ess < 0.01 * 200_000

    @pytest.mark.parametrize("cross,query", [
        (-300.0, lambda g: volume(g, backend="monte_carlo", budget=1000, seed=0)),
        (-168.0, lambda g: moment_table(g, max_order=8, backend="monte_carlo",
                                        budget=1000, seed=0)),
        (-3.0, lambda g: volume(g, backend="monte_carlo", budget=200_000, seed=0)),
    ], ids=["squared-weight", "squared-moment", "negative-cone"])
    def test_overflowing_squares_raise(self, cross, query):
        # the inputs that overflowed the squared importance weights (-300)
        # and squared weighted moments (-168) of the former estimator, and
        # the one its ESS warning flagged (-3): each is negative on an open
        # cone, so some node has g < 0, which proves infinite volume
        bad = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): cross})
        with pytest.raises(InfiniteVolumeError, match="infinite volume") as caught:
            query(bad)
        assert caught.value.sphere_minimum < 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d,q", [(4, 1), (6, 1), (Fraction(1, 2), 4)], ids=["4", "6", "1/2-q4"])
    def test_error_bars_bound_the_ball_moments(self, n, d, q):
        # every moment of lattice order <= 4 against Dirichlet's closed form;
        # g is 1 at every cone node of B_d, so the volume is exact
        g = ld_polynomial(n, d, q)
        table = moment_table(g, max_order=Fraction(4, q), backend="monte_carlo",
                             budget=20_000, seed=n)
        exact = {a: 0.0 if g.q == 1 and any(x % 2 for x in a) else _ball_moment(n, d, a, q)
                 for a in table.entries}
        vol = table.normalization
        assert vol.value == pytest.approx(closed_form_ball_volume(n, d), rel=1e-12, abs=0.0)
        assert vol.std_error <= 1e-12 * vol.value
        for a, (value, err) in table.entries.items():
            assert abs(value - exact[a]) <= 4.0 * err + 1e-12 * exact[a], a
        assert sum(err > 0 for _, err in table.entries.values()) > 1

    def test_error_bars_bound_random_inputs(self):
        # dense random quartics shifted to sphere minimum +0.02, against a
        # 32768-node spherical table whose own error is far below these bars
        euclid = GeneralizedPolynomial(3, 4, 1, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0,
                                                 (2, 2, 0): 2.0, (2, 0, 2): 2.0, (0, 2, 2): 2.0})
        for seed in range(12):
            rng = np.random.default_rng([seed, 3])
            terms = {a: euclid.terms.get(a, 0.0) + 0.5 * rng.normal()
                     for a in enumerate_indices(3, 4)}
            low = finite_volume_test(GeneralizedPolynomial(3, 4, 1, terms)).sphere_minimum
            g = GeneralizedPolynomial(3, 4, 1, {a: c + (0.02 - low) * euclid.terms.get(a, 0.0)
                                                for a, c in terms.items()})
            ref = moment_table(g, budget=32768)
            mc = moment_table(g, backend="monte_carlo", budget=20_000, seed=seed)
            for a, (value, err) in mc.entries.items():
                assert abs(value - ref.value(a)) <= 4.0 * err, (seed, a)

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

    @pytest.mark.parametrize("budget,side", [(1_000_000, 100), (27_000, 30), (26_999, 29)])
    def test_side_is_the_exact_integer_cube_root(self, budget, side):
        est = volume(ld_polynomial(3, 4), backend="grid_oracle", budget=budget)
        assert est.samples_or_nodes == side**3

    @pytest.mark.parametrize("budget,side", [(1_000_000, 1000), (999_999, 999), (1_002_000, 1000)])
    def test_side_is_the_exact_integer_square_root(self, budget, side):
        est = volume(ld_polynomial(2, 4), backend="grid_oracle", budget=budget)
        assert est.samples_or_nodes == side**2


def _perturbed_ball(n, d, q=1, scale=0.01, seed=0):
    """Axis-power ball plus seeded noise on every term, odd exponents included."""
    rng = np.random.default_rng(seed)
    terms = {a: rng.uniform(-scale, scale) for a in enumerate_indices(n, int(Fraction(d) * q))}
    for a, c in ld_polynomial(n, d, q).terms.items():
        terms[a] += c
    return GeneralizedPolynomial(n, Fraction(d), q, terms)


def _backend_grid(g, budget):
    """The spherical backend's grid for g: one orthant when every sign flip leaves g unchanged."""
    return _sphere_grid(g.n, budget, not g.is_classical or g.has_even_support())


def _per_alpha_moments(g, alphas, budget):
    """{alpha: (value, scale)} by the per-alpha spherical formula.

    g and each x^alpha are raised term by term with np.prod on the grid the
    backend reads; scale is the same quadrature of the integrand's
    magnitude.  On an orthant grid a classical alpha with an odd entry sums
    to zero over every sign orbit, so its value is 0.
    """
    dirs, w = _backend_grid(g, budget)
    odd_vanish = g.is_classical and g.has_even_support()

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
        value = 0.0 if odd_vanish and any(a % 2 for a in alpha) else integrand.sum() / k
        out[alpha] = (value, np.abs(integrand).sum() / k)
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
        dirs, w = _backend_grid(g, self.BUDGET)
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
        dirs, weights = _sphere_grid(n, 2048, False)
        again = _sphere_grid(n, 2048, False)
        assert again[0] is dirs and again[1] is weights
        with pytest.raises(ValueError, match="read-only"):
            dirs[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.5
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert weights.sum() == pytest.approx(2.0 * math.pi if n == 2 else 4.0 * math.pi)


def _even_perturbed_sextic(seed=4):
    """B_6 at n = 3 plus seeded noise on its all-even terms only, so every sign flip keeps it."""
    rng = np.random.default_rng(seed)
    even = [a for a in enumerate_indices(3, 6) if not any(x % 2 for x in a)]
    terms = {a: rng.uniform(-0.02, 0.02) for a in even}
    for a, c in ld_polynomial(3, 6).terms.items():
        terms[a] += c
    return GeneralizedPolynomial(3, 6, 1, terms)


class TestOrthantFold:
    """A sign-symmetric input reads one orthant of the grid, each node weighing its sign orbit."""

    @pytest.mark.parametrize("n,budget,full,orthant", [
        (2, 2048, 2048, 513), (2, 8192, 8192, 2049), (3, 2048, 2048, 272), (3, 8192, 8192, 1056),
    ])
    def test_node_counts(self, n, budget, full, orthant):
        assert len(_sphere_grid(n, budget, False)[0]) == full
        assert len(_sphere_grid(n, budget, True)[0]) == orthant
        assert volume(ld_polynomial(n, 4), budget=budget).samples_or_nodes == orthant

    @pytest.mark.parametrize("budget", [2048, 4096, 5000])
    @pytest.mark.parametrize("n", [2, 3])
    def test_orthant_nodes_and_orbit_weights(self, n, budget):
        dirs, weights = _sphere_grid(n, budget, True)
        full_dirs, full_weights = _sphere_grid(n, budget, False)
        again = _sphere_grid(n, budget, True)
        assert again[0] is dirs and again[1] is weights
        assert not dirs.flags.writeable and not weights.flags.writeable
        assert (dirs >= 0.0).all()
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        # nodes on a coordinate plane carry exact zeros, not cos(pi/2) = 6e-17
        assert dirs[dirs != 0.0].min() > 1e-6
        # the sign orbits tile the full grid: every full node folds onto an
        # orthant node, each orthant node is one, and it weighs its orbit
        gap = np.abs(np.abs(full_dirs)[:, None, :] - dirs[None, :, :]).max(axis=2)
        assert gap.min(axis=1).max() <= 1e-12 and gap.min(axis=0).max() <= 1e-12
        orbit = np.bincount(gap.argmin(axis=1), weights=full_weights, minlength=len(dirs))
        assert np.abs(orbit - weights).max() <= 1e-14 * weights.max()
        sphere = 2.0 * math.pi if n == 2 else 4.0 * math.pi
        assert weights.sum() == pytest.approx(sphere, rel=1e-14)
        assert weights.sum() == pytest.approx(full_weights.sum(), rel=1e-14)

    @pytest.mark.parametrize("g", [ld_polynomial(2, 4), ld_polynomial(3, 6),
                                   _even_perturbed_sextic()], ids=["B4-2", "B6-3", "even-sextic"])
    def test_tables_match_the_full_grid(self, monkeypatch, g):
        assert g.has_even_support()
        orthant = moment_table(g, max_order=g.degree, budget=4096)
        monkeypatch.setattr(GeneralizedPolynomial, "sign_symmetric", property(lambda g: False))
        full = moment_table(g, max_order=g.degree, budget=4096)
        assert orthant.normalization.samples_or_nodes < full.normalization.samples_or_nodes
        assert orthant.entries.keys() == full.entries.keys()
        for alpha, (want, _) in full.entries.items():
            got = orthant.value(alpha)
            assert abs(got - want) <= 1e-14 * abs(want), alpha
        assert orthant.normalization.value == pytest.approx(full.normalization.value, rel=1e-14)

    def test_an_odd_term_keeps_the_full_grid(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0, (3, 1): 1e-9})
        assert volume(g, budget=2048).samples_or_nodes == 2048
        assert volume(DISK4, budget=2048).samples_or_nodes == 513
        full, orthant = volume(g, budget=2048).value, volume(DISK4, budget=2048).value
        assert orthant == pytest.approx(full, rel=1e-12)


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
    """Minimum of g over count angles (n = 2), a count-point Fibonacci lattice
    (n = 3) or count normalized Gaussian directions (n >= 4)."""
    i = np.arange(count) + 0.5
    if g.n == 2:
        theta = 2.0 * math.pi * i / count
        dirs = np.stack([np.cos(theta), np.sin(theta)], -1)
    elif g.n == 3:
        z = 1.0 - 2.0 * i / count
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        s = np.sqrt(1.0 - z * z)
        dirs = np.stack([s * np.cos(phi), s * np.sin(phi), z], -1)
    else:
        dirs = np.random.default_rng(g.n).normal(size=(count, g.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return min(float(g.evaluate(dirs[k:k + 100_000]).min()) for k in range(0, count, 100_000))


def _hidden_direction_form(n, c):
    """(|x|^2)^2 - c (u.x)^4, which is 1 - c cos^4 of the angle to a seeded random u."""
    u = np.random.default_rng(n).normal(size=n)
    u /= np.linalg.norm(u)
    terms = _sphere_power(n, 4)
    for a in enumerate_indices(n, 4):
        weight = math.factorial(4) / math.prod(math.factorial(x) for x in a)
        terms[a] = terms.get(a, 0.0) - c * weight * math.prod(u**np.array(a))
    return GeneralizedPolynomial(n, 4, 1, terms)


class TestFeasibilityGate:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_dimension_reads_the_axis(self, sign):
        # n = 1: the sphere is the two axis points, where g is its one coefficient
        verdict = finite_volume_test(GeneralizedPolynomial(1, 4, 1, {(4,): sign}), seed=0)
        assert verdict.finite_volume == (sign > 0)
        assert verdict.sphere_minimum == sign

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
        (4, 4, 0), (4, 4, 1), (5, 4, 0), (5, 4, 1),
    ])
    def test_sphere_minimum_matches_brute_force(self, n, d, seed):
        g = _random_form(n, d, np.random.default_rng([seed, n, d]))
        got = finite_volume_test(g, seed=seed).sphere_minimum
        brute = _brute_minimum(g, {2: 400_000, 3: 2_000_000}.get(n, 1_000_000))
        # the gate never misses what the exhaustive search finds
        assert got <= brute + 1e-9
        # 400k angles pin the n = 2 minimum to about 1e-10; the 2M-point
        # lattice is about 2.5e-3 rad apart, so its own minimum can sit up
        # to about 5e-6 above the true one; 1M random directions on the
        # 3-sphere leave gaps of about 3e-2 rad, so at n = 4 their minimum
        # can sit several 1e-4 above it, and on the 4-sphere (n = 5) gaps
        # of about 0.1 rad leave several 1e-3
        assert got >= brute - {2: 1e-9, 3: 1e-5, 4: 1e-3, 5: 1e-2}[n]

    def test_minimum_outside_the_best_grid_nodes_basin(self):
        # this octic's 8 best grid nodes are 4 antipodal pairs in one basin
        # whose minimum lies 0.01 above the true one, near -e_2, which the
        # axis start reaches
        rng = np.random.default_rng([29, 3, 8])
        for _ in range(6):
            g = _random_form(3, 8, rng)
        assert finite_volume_test(g).sphere_minimum <= _brute_minimum(g, 400_000) + 1e-9

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
        # the minimum 1 - c sits at a random direction u, away from every start
        verdict = finite_volume_test(_hidden_direction_form(6, c), seed=3)
        assert verdict.finite_volume == (c < 1.0)
        assert verdict.sphere_minimum == pytest.approx(1.0 - c, abs=1e-9)

    def test_chart_zoom_needs_no_qr(self, monkeypatch):
        # every n zooms in fixed coordinate charts; no tangent frame is
        # orthonormalized, the n = 6 one included
        class QRCalled(Exception):
            pass

        def qr(*args, **kwargs):
            raise QRCalled

        monkeypatch.setattr(np.linalg, "qr", qr)
        verdict = finite_volume_test(_random_form(3, 4, np.random.default_rng([0, 3, 4])))
        assert not verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(-1.2372597721669052, abs=1e-12)
        verdict = finite_volume_test(ld_polynomial(3, Fraction(1, 2), q=4))
        assert verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(1.0, abs=1e-12)
        verdict = finite_volume_test(ld_polynomial(4, 4))
        assert verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(0.25, abs=1e-12)
        verdict = finite_volume_test(_hidden_direction_form(6, 0.98), seed=3)
        assert verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(0.02, abs=1e-9)

    @pytest.mark.parametrize("draw", range(4))
    def test_six_dimensional_noisy_quartics_reach_the_brute_force_minimum(self, draw):
        # ld_polynomial(6, 4) plus uniform(-0.3, 0.3) on every term, the draws
        # of default_rng([6, 3]) in turn; tangent frames of random directions
        # stopped at 0.118 on the fourth, where 200k directions reach 0.078
        rng = np.random.default_rng([6, 3])
        for _ in range(draw + 1):
            base = ld_polynomial(6, 4)
            terms = {a: base.terms.get(a, 0.0) + rng.uniform(-0.3, 0.3)
                     for a in enumerate_indices(6, 4)}
        g = GeneralizedPolynomial(6, 4, 1, terms)
        verdict = finite_volume_test(g, seed=3)
        assert verdict.finite_volume
        assert verdict.sphere_minimum <= _brute_minimum(g, 200_000) + 1e-9

    @pytest.mark.parametrize("g", [
        _random_form(2, 4, np.random.default_rng([0, 2, 4])),
        _random_form(3, 6, np.random.default_rng([1, 3, 6])),
        ld_polynomial(3, Fraction(1, 2), q=4),
    ], ids=["n2-quartic", "n3-sextic", "n3-half-ball"])
    def test_low_dimensions_ignore_the_seed(self, g):
        # for n <= 3 the candidates are the axes, the diagonal and sphere-grid
        # nodes; none comes from the seed
        first = finite_volume_test(g, seed=0)
        for seed in (1, 7, 508841):
            assert finite_volume_test(g, seed=seed) == first, seed

    @pytest.mark.parametrize("n,points", [
        (2, 513 + 33 * (2 + 9) * 5),
        (3, 272 + 33 * (3 + 9) * 25),
        (4, 2048 + 33 * (4 + 9) * 125),
        (5, 2048 + 43 * (5 + 9) * 125),
    ])
    def test_evaluation_count(self, monkeypatch, n, points):
        # the scan (one orthant of the sphere grid for the sign-symmetric
        # ld_polynomial at n <= 3, 2048 cone nodes at n >= 4), then every zoom
        # level over the n axes, the diagonal and the _GATE_RESTARTS = 8 best
        # scan nodes; r halves over 33 levels, at n = 5 by 2**(3/4) over 43
        counts = []
        evaluate = GeneralizedPolynomial.evaluate

        def counted(self, x):
            out = evaluate(self, x)
            counts.append(np.size(out))
            return out

        monkeypatch.setattr(GeneralizedPolynomial, "evaluate", counted)
        finite_volume_test(ld_polynomial(n, 4))
        assert sum(counts) == points


# an odd-support form, so the tables below hold honest odd moments too
ODD_QUARTIC = GeneralizedPolynomial(
    2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (3, 1): 0.35, (2, 2): 0.2}
)


class TestKernelBlocks:
    """The kernel block size is a cache setting: it must not show in any answer."""

    BLOCKS = (1000, 1 << 20)

    def _at_blocks(self, monkeypatch, run):
        out = []
        for block in self.BLOCKS:
            monkeypatch.setattr(sys.modules["ballrep.volume"], "_BLOCK", block)
            out.append(run())
        return out

    @pytest.mark.parametrize("g,budget", [
        (ODD_QUARTIC, 250_000),
        (_perturbed_ball(3, 4, scale=0.05, seed=1), 27_000),
    ], ids=["n2", "n3"])
    def test_grid_is_bit_identical(self, monkeypatch, g, budget):
        small, large = self._at_blocks(monkeypatch, lambda: (
            volume(g, backend="grid_oracle", budget=budget, seed=4),
            moment_table(g, max_order=4, backend="grid_oracle", budget=budget, seed=4),
        ))
        assert small == large
        assert any(v != 0.0 for v, _ in small[1].entries.values())

    def test_monte_carlo_agrees_to_round_off(self, monkeypatch):
        # two streams of _MC_BATCH samples, the second one partial
        small, large = self._at_blocks(monkeypatch, lambda: moment_table(
            ODD_QUARTIC, max_order=4, backend="monte_carlo", budget=100_000, seed=4))
        for est in (small.normalization, large.normalization):
            assert est.samples_or_nodes == 100_000
        for a, (value, err) in large.entries.items():
            assert small.value(a) == pytest.approx(value, rel=1e-13, abs=0.0), a
            assert small.error(a) == pytest.approx(err, rel=1e-13, abs=0.0), a
        assert small.normalization.ess == pytest.approx(large.normalization.ess, rel=1e-13)

    def test_monte_carlo_heavy_tails_warn_at_every_block(self, monkeypatch):
        # the input of TestMonteCarlo.test_ess_diagnostic_fires_near_the_boundary
        def run():
            with pytest.warns(EffectiveSampleSizeWarning):
                return volume(NEAR_BOUNDARY, backend="monte_carlo", budget=200_000, seed=0)

        small, large = self._at_blocks(monkeypatch, run)
        assert small.ess < 0.01 * 200_000
        assert small.value == pytest.approx(large.value, rel=1e-13, abs=0.0)
        assert small.ess == pytest.approx(large.ess, rel=1e-13, abs=0.0)

    # the kernel's chunk size is the same kind of setting; 100 entries give
    # 3-point chunks at 28 rows, and 8192 nodes are not a multiple of 3
    KERNEL_ENTRIES = (100, 1 << 30)

    def _at_kernel_chunks(self, monkeypatch, run):
        out = []
        for entries in self.KERNEL_ENTRIES:
            monkeypatch.setattr(sys.modules["ballrep.polynomials"], "_KERNEL_ENTRIES", entries)
            out.append(run())
        return out

    @pytest.mark.parametrize("n,rows,points", [(1, 3, 1000), (2, 9, 4099), (3, 28, 8192),
                                               (4, 35, 777), (3, 0, 50)])
    def test_kernel_chunks_are_bit_identical(self, monkeypatch, n, rows, points):
        rng = np.random.default_rng(rows)
        base = rng.normal(size=(points, n))
        base[::7] = 0.0  # 0**0 = 1 in every chunk
        exponents = rng.integers(0, 7, size=(rows, n))
        small, large = self._at_kernel_chunks(monkeypatch, lambda: monomials(base, exponents))
        assert small.shape == (rows, points)
        assert np.array_equal(small, large)

    def test_kernel_chunks_keep_sextic_tables_bit_identical(self, monkeypatch):
        g = _perturbed_ball(3, 6, scale=0.05, seed=2)
        assert len(g.terms) == 28 and 8192 % (self.KERNEL_ENTRIES[0] // 28) != 0

        def run():
            table = moment_table(g, budget=8192)
            mm = moment_matrix(g, budget=8192)
            return table, mm.values, mm.errors, mm.normalization

        small, large = self._at_kernel_chunks(monkeypatch, run)
        assert small[0].normalization.samples_or_nodes == 8192
        assert small[0] == large[0]
        assert np.array_equal(small[1], large[1]) and np.array_equal(small[2], large[2])
        assert small[3] == large[3]

    def test_kernel_chunks_keep_the_p2_certificate_bit_identical(self, monkeypatch):
        small, large = self._at_kernel_chunks(monkeypatch, lambda: solve_p2(3, 6))
        assert small.certificate == large.certificate
        assert small.solution == large.solution
        assert small.objective == large.objective

    def test_monte_carlo_overflow_raises_at_every_block(self, monkeypatch):
        # negative but in thin cones about the axes (it overflowed the former
        # importance weights), so the first block of either size holds a node with g < 0
        bad = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1e4})
        for block in self.BLOCKS:
            monkeypatch.setattr(sys.modules["ballrep.volume"], "_BLOCK", block)
            with pytest.raises(InfiniteVolumeError, match="infinite volume") as caught:
                volume(bad, backend="monte_carlo", budget=100_000, seed=0)
            assert caught.value.sphere_minimum < 0.0


def _serial_cone_nodes(n, d, budget, seed):
    """The cone nodes as one loop over the batch streams, on the calling thread alone."""
    batch = sys.modules["ballrep.volume"]._MC_BATCH
    dirs = np.empty((budget, n))
    for b, lo in enumerate(range(0, budget, batch)):
        size = min(batch, budget - lo)
        rng = np.random.default_rng([seed, b])
        t = rng.gamma(1.0 / d, 1.0, size=(size, n))
        dirs[lo : lo + size] = (t / (t @ np.ones(n))[:, None]) ** (1.0 / d)
        dirs[lo : lo + size] *= rng.integers(0, 2, size=(size, n)) * 2 - 1
    return dirs


def _child_table(conn, budget):
    conn.send(moment_table(ODD_QUARTIC, max_order=2, backend="monte_carlo", budget=budget, seed=2))
    conn.close()


class TestDrawAhead:
    """Drawing Monte Carlo batches ahead on a worker thread must not show in any answer."""

    @pytest.mark.parametrize("block", [1 << 10, 1 << 16])
    @pytest.mark.parametrize("budget", [65537, 140_000])
    def test_tables_are_bit_identical(self, monkeypatch, budget, block):
        # 2 and 3 batches, the last one short; a block divides a batch, down to a whole one
        volume_module = sys.modules["ballrep.volume"]
        monkeypatch.setattr(volume_module, "_BLOCK", block)

        def table():
            return moment_table(ODD_QUARTIC, max_order=4, backend="monte_carlo",
                                budget=budget, seed=4)

        nodes = _serial_cone_nodes(2, 4.0, budget, 4)
        tables = []
        for ahead in (1, 3):
            monkeypatch.setattr(volume_module, "_DRAW_AHEAD", ahead)
            assert np.array_equal(volume_module._cone_nodes(2, 4.0, budget, 4)[0], nodes)
            tables.append(table())
        # the reference: every node in one array, cut into blocks as it comes
        monkeypatch.setattr(volume_module, "_cone_batches", lambda *_: (b for b in [nodes]))
        tables.append(table())
        assert tables[0] == tables[1] == tables[2]
        assert tables[0].normalization.samples_or_nodes == budget

    @pytest.mark.parametrize("n,d", [(3, 6.0), (4, 2.0)])
    def test_cone_nodes_match_the_serial_loop(self, n, d):
        volume_module = sys.modules["ballrep.volume"]
        for budget in (1, 65536, 3 * 65536 + 7):
            dirs, w = volume_module._cone_nodes(n, d, budget, 3)
            assert np.array_equal(dirs, _serial_cone_nodes(n, d, budget, 3))
            assert np.array_equal(w, np.full(budget, w[0]))

    def test_infeasible_input_stops_drawing(self, monkeypatch):
        # g < 0 about the diagonals, so the first block raises; 400000 nodes are 7 batches
        bad = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -2.1})
        volume_module = sys.modules["ballrep.volume"]

        def run():
            with pytest.raises(InfiniteVolumeError, match="infinite volume") as caught:
                volume(bad, backend="monte_carlo", budget=400_000, seed=0)
            return str(caught.value), caught.value.sphere_minimum

        nodes = _serial_cone_nodes(2, 4.0, 400_000, 0)
        with monkeypatch.context() as serial:
            serial.setattr(volume_module, "_cone_batches", lambda *_: (b for b in [nodes]))
            reference = run()
        drawn = []

        def counted(*args, real=volume_module._cone_batch):
            drawn.append(args[-1])  # list.append is atomic, and some draws run on the draw thread
            return real(*args)

        monkeypatch.setattr(volume_module, "_cone_batch", counted)
        assert run() == reference
        assert reference[1] < 0.0
        assert 1 <= len(drawn) <= 1 + volume_module._DRAW_AHEAD < 7

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="fork is unavailable")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_draws_on_its_own_thread(self):
        # the parent's table starts its draw thread, which a forked child does not inherit
        budget = 140_000
        expected = moment_table(ODD_QUARTIC, max_order=2, backend="monte_carlo",
                                budget=budget, seed=2)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_table, args=(send, budget))
        child.start()
        try:
            assert receive.poll(60), "the forked child hung on its Monte Carlo table"
            assert receive.recv() == expected
        finally:
            if child.is_alive():
                child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert not child.is_alive() and child.exitcode == 0
