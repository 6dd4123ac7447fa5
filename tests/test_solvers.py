import itertools
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ballrep import (
    MONOMIAL,
    MULTINOMIAL,
    GeneralizedPolynomial,
    GramForm,
    InfiniteVolumeError,
    SolveConfig,
    certify,
    closed_form_ball_volume,
    coefficient_vector,
    count_indices,
    enumerate_indices,
    finite_volume_test,
    from_coefficient_vector,
    grad_volume,
    ld_polynomial,
    moment_table,
    multinomial_coefficient,
    scale_to_target_volume,
    solve_p1,
    solve_p2,
    solve_p3,
    volume,
)


class TestScaleToTargetVolume:
    def test_halved_disk_recovers_unit_disk(self):
        doubled = ld_polynomial(2, 2).rescale(2.0)
        back = scale_to_target_volume(doubled, math.pi, budget=2048)
        assert back.terms[(2, 0)] == pytest.approx(1.0, rel=1e-9)
        assert back.terms[(0, 2)] == pytest.approx(1.0, rel=1e-9)

    def test_fixed_point(self):
        g = ld_polynomial(2, 4)
        rho = closed_form_ball_volume(2, 4)
        scaled = scale_to_target_volume(g, rho, budget=4096)
        assert scaled.terms[(4, 0)] == pytest.approx(1.0, rel=1e-9)

    def test_defining_property(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.3, (2, 2): 0.4, (0, 4): 0.9})
        target = 2.5
        scaled = scale_to_target_volume(g, target, budget=8192)
        assert volume(scaled, budget=8192).value == pytest.approx(target, rel=1e-9)

    def test_gram_form_scaling(self):
        gram = GramForm(2, 2, 2.0 * np.eye(2))
        back = scale_to_target_volume(gram, math.pi, budget=2048)
        np.testing.assert_allclose(back.Q, np.eye(2), rtol=1e-9)

    def test_rejects_bad_target(self):
        # an infinite target once passed the check and reached rescale(0.0)
        for target in (-1.0, math.inf, math.nan, True, "1", None):
            with pytest.raises(ValueError, match="target volume must be positive and finite"):
                scale_to_target_volume(ld_polynomial(2, 2), target)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_unusable_volume_estimate_raises(self, value):
        target_scale = sys.modules["ballrep.solvers"]._target_scale
        with pytest.raises(InfiniteVolumeError, match="is not usable"):
            target_scale(value, math.pi, 2, 2)


class TestSolveConfig:
    @pytest.mark.parametrize("field", ["budget", "max_iters"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_rejects_non_positive_budgets(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            SolveConfig(**{field: value})

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_cert_tol(self, tol):
        with pytest.raises(ValueError, match="cert_tol must be finite and >= 0"):
            SolveConfig(cert_tol=tol)

    def test_zero_cert_tol_is_valid(self):
        assert SolveConfig(cert_tol=0.0).cert_tol == 0.0

    @pytest.mark.parametrize("seed", [-1, -508841])
    def test_rejects_negative_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SolveConfig(seed=seed)

    @pytest.mark.parametrize("seed", [2.5, 3.0])
    def test_rejects_fractional_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SolveConfig(seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("max_iters", 2.5), ("max_iters", True), ("budget", 2048.7), ("budget", 2048.0),
        ("budget", True), ("seed", True), ("seed", False),
    ])
    def test_rejects_bools_and_non_integers(self, field, value):
        # max_iters=2.5 used to fail in range() mid-solve, budget=2048.7 to be
        # truncated, and seed=True to read the stream of seed 1
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            SolveConfig(**{field: value})

    @pytest.mark.parametrize("backend", ["grid_oracle", "quadrature"])
    def test_rejects_backends_a_solve_cannot_descend_on(self, backend):
        # the grid oracle is a cross-check of volume and moment queries only
        with pytest.raises(ValueError, match="'spherical' or 'monte_carlo'"):
            SolveConfig(backend=backend)

    def test_numpy_integers_stay_valid(self):
        cfg = SolveConfig(max_iters=np.int64(3), budget=np.int32(512), seed=np.uint8(2))
        assert (cfg.max_iters, cfg.budget, cfg.seed) == (3, 512, 2)


class TestDefaultBudget:
    """A solve left at its default budget certifies on the pass a default certify() makes."""

    def test_budget_is_a_quarter_of_the_query_budget(self):
        assert SolveConfig().descent_budget == 2048
        assert SolveConfig(backend="monte_carlo").descent_budget == 50_000
        assert SolveConfig(backend="monte_carlo").certificate_budget == 200_000
        # a budget left out stays None; a budget given stays that number
        assert SolveConfig().budget is None
        assert replace(SolveConfig(budget=512), backend="monte_carlo").descent_budget == 512

    def test_replace_reads_the_new_backend_default(self):
        # the default used to be resolved at construction, so replace kept
        # the spherical 2048 for a Monte Carlo solve
        switched = replace(SolveConfig(), backend="monte_carlo")
        fresh = SolveConfig(backend="monte_carlo")
        assert (switched.descent_budget, switched.certificate_budget) == (
            fresh.descent_budget, fresh.certificate_budget)

    @pytest.mark.parametrize("problem,n,backend,seed", [
        ("p2", 3, "monte_carlo", 1),
        ("p1", 4, "monte_carlo", 0),
        ("p3", 2, "spherical", 0),
    ])
    def test_solve_certificate_is_that_of_certify(self, problem, n, backend, seed):
        # the solve's certificate pass maps the final iterate's moments to the
        # solution's by homogeneity; certify estimates the solution's directly
        solve = {"p1": solve_p1, "p2": solve_p2, "p3": solve_p3}[problem]
        config = SolveConfig(backend=backend, seed=seed)
        res = solve(n, 4, config=config)
        cert, _ = certify(problem, res.solution, backend, None, seed, config.cert_tol)
        assert res.certificate.verdict == cert.verdict
        assert res.certificate.residuals.keys() == cert.residuals.keys()
        for key, value in cert.residuals.items():
            assert res.certificate.residuals[key] == pytest.approx(value, abs=1e-12), key


class TestLatticeValidation:
    def test_p1_odd_classical_degree_rejected(self):
        with pytest.raises(ValueError, match="even integer"):
            solve_p1(2, 3)

    def test_p1_generalized_half_lattice_hypothesis(self):
        # d * q / 2 must be an integer; d = 1/3 on the q = 3 lattice is not allowed
        with pytest.raises(ValueError, match="lattice"):
            solve_p1(2, Fraction(1, 3), q=3)

    def test_p2_lattice_hypothesis(self):
        with pytest.raises(ValueError, match="lattice"):
            solve_p2(2, Fraction(1, 3), q=2)

    def test_p3_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="even degree"):
            solve_p3(2, 3)

    def test_lattice_denominator_below_one_rejected(self):
        with pytest.raises(ValueError, match="lattice denominator must be >= 1, got 0"):
            solve_p1(2, 4, q=0)


class TestLineSearch:
    """_projected_gradient on a fake oracle, so every branch can be reached."""

    CENTER = np.array([0.5, 0.5])

    def evaluate(self, x):
        # f = 50 |x - c|**2 + 1 has curvature 100: the unit step overshoots
        # by a factor 99 and lands where the fake reports an infinite volume
        if x[0] < -1.0:
            return None
        r = x - self.CENTER
        return 50.0 * float(r @ r) + 1.0, 100.0 * r

    def test_backtracks_past_infeasible_trials_and_converges(self):
        solvers = sys.modules["ballrep.solvers"]
        outcomes = []

        def counted(x):
            out = self.evaluate(x)
            outcomes.append(out)
            return out

        x0 = np.array([2.0, 2.0])
        x, trace, converged = solvers._projected_gradient(
            x0, counted(x0), counted, lambda x: x, lambda x, vol: vol, SolveConfig(),
        )
        assert converged
        assert np.allclose(x, self.CENTER, atol=1e-5)
        # a trial the line search did not accept was either infeasible or
        # failed the sufficient decrease test, and each one is a backtrack
        backtracks = len(outcomes) - len(trace)
        assert backtracks >= 5
        assert any(out is None for out in outcomes)
        objectives = [obj for obj, _ in trace]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_gives_up_when_every_trial_is_infeasible(self):
        solvers = sys.modules["ballrep.solvers"]
        calls = []

        def only_start(x):
            calls.append(x)
            return self.evaluate(x) if len(calls) == 1 else None

        x0 = np.array([2.0, 2.0])
        x, trace, converged = solvers._projected_gradient(
            x0, only_start(x0), only_start, lambda x: x, lambda x, vol: vol, SolveConfig(),
        )
        assert not converged
        assert len(trace) == 1
        assert len(calls) == 1 + solvers._MAX_BACKTRACKS
        np.testing.assert_array_equal(x, [2.0, 2.0])


class TestSolveP1:
    def test_quadratic_case(self):
        res = solve_p1(2, 2)
        assert res.converged
        assert res.objective == pytest.approx(2.0, abs=1e-6)
        assert res.solution.terms[(2, 0)] == pytest.approx(1.0, abs=1e-5)
        assert res.solution.terms[(1, 1)] == pytest.approx(0.0, abs=1e-5)
        assert res.certificate.passed

    def test_quartic_recovery(self):
        res = solve_p1(2, 4)
        expected = {(4, 0): 1.0, (3, 1): 0.0, (2, 2): 0.0, (1, 3): 0.0, (0, 4): 1.0}
        for alpha, want in expected.items():
            assert res.solution.terms.get(alpha, 0.0) == pytest.approx(want, abs=1e-2)
        assert res.objective == pytest.approx(2.0, abs=1e-2)
        assert res.converged

    def test_volume_normalization_at_exit(self):
        res = solve_p1(2, 4)
        rho = closed_form_ball_volume(2, 4)
        assert abs(res.volume - rho) / rho <= 1e-4

    def test_objective_trace_monotone(self):
        res = solve_p1(2, 4, config=SolveConfig(seed=3))
        objectives = [obj for obj, _ in res.iterations]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))
        volumes = [vol for _, vol in res.iterations]
        assert all(b <= a + 1e-12 for a, b in zip(volumes, volumes[1:]))

    def test_explicit_start_supported(self):
        start = GeneralizedPolynomial(
            2, 4, 1, {(4, 0): 0.8, (3, 1): 0.1, (2, 2): 0.4, (1, 3): -0.1, (0, 4): 1.2}
        )
        res = solve_p1(2, 4, start=start)
        assert res.solution.terms[(4, 0)] == pytest.approx(1.0, abs=1e-2)
        assert res.converged

    def test_start_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="start"):
            solve_p1(2, 4, start=ld_polynomial(2, 2))

    def test_start_projected_out_of_the_cone_rejected(self):
        # the l1 projection of this finite start, radius 2, has an infinite volume
        start = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): -1.8, (0, 4): 1.0})
        with pytest.raises(InfiniteVolumeError, match="initial iterate"):
            solve_p1(2, 4, start=start)

    @pytest.mark.parametrize(
        "terms",
        [
            {(4, 0): 4.0, (3, 1): 0.5, (0, 4): 0.2},
            {(4, 0, 0): 4.0, (3, 1, 0): 0.5, (0, 4, 0): 0.2, (0, 0, 4): 0.1},
        ],
        ids=["n2", "n3"],
    )
    def test_start_projected_onto_the_cone_boundary_rejected(self, terms):
        # the l1 projection keeps only the x1**4 term, whose sphere minimum is 0
        n = len(next(iter(terms)))
        start = GeneralizedPolynomial(n, 4, 1, terms)
        with pytest.raises(InfiniteVolumeError, match="initial iterate"):
            solve_p1(n, 4, start=start, config=SolveConfig(budget=4096))

    def test_unconverged_flagged(self):
        res = solve_p1(2, 4, config=SolveConfig(max_iters=1))
        assert not res.converged

    def test_generalized_half_power(self):
        res = solve_p1(2, Fraction(1, 2), q=4, config=SolveConfig(budget=16384))
        assert res.solution.terms[(2, 0)] == pytest.approx(1.0, abs=1e-2)
        assert res.solution.terms.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-2)
        assert res.solution.terms[(0, 2)] == pytest.approx(1.0, abs=1e-2)
        assert res.problem == "p1q"
        assert res.certificate.passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_p1q_case_reaches_its_optimum_and_certifies(self, seed):
        # p1q(3, 1/2, q=4): the optimum is B_{1/2}, objective n, which the
        # lattice rule's spectrally accurate moments let the descent reach
        res = solve_p1(3, Fraction(1, 2), q=4, config=SolveConfig(seed=seed))
        assert res.converged and res.certificate.passed
        assert abs(res.objective - 3.0) <= 1e-9

    def test_attached_certificate_passes(self):
        res = solve_p1(2, 4, config=SolveConfig(seed=11))
        assert res.certificate.passed
        assert res.certificate.kind == "p1_kkt"


class TestAnderson:
    """_anderson on the linear fake map T(x) = A x + b, whose plain iteration contracts slowly."""

    A = np.array([[0.8, 0.04], [0.0, 0.7]])
    B = np.array([0.1, 0.2])
    FIXED = np.linalg.solve(np.eye(2) - A, B)

    def run(self, feasible):
        solvers = sys.modules["ballrep.solvers"]
        calls = []

        def evaluate(x):
            calls.append(x)
            return (1.0, -(self.A @ x + self.B)) if feasible(len(calls)) else None

        x0 = np.zeros(2)
        out = solvers._anderson(
            x0, evaluate(x0), evaluate, lambda x: x, lambda x, vol: vol, SolveConfig(),
        )
        return (*out, calls)

    def test_mixing_reaches_the_fixed_point_in_few_calls(self):
        x, trace, converged, calls = self.run(lambda call: True)
        assert converged
        assert np.abs(x - self.FIXED).max() <= 1e-13
        # the plain iteration needs about 150 calls at contraction 0.8
        assert len(calls) == len(trace) <= 8

    def test_infeasible_mixed_points_fall_back_to_the_plain_step(self):
        # the second call is a plain step, and from then on each odd call is
        # a mixed point: rejecting them all leaves the plain iteration
        x, trace, converged, calls = self.run(lambda call: call < 3 or call % 2 == 0)
        assert converged
        assert np.abs(x - self.FIXED).max() <= 1e-12
        assert len(trace) > 100
        assert len(calls) == 2 * len(trace) - 2

    def test_stops_unconverged_when_a_plain_step_is_infeasible(self):
        x, trace, converged, calls = self.run(lambda call: call == 1)
        assert not converged
        assert len(trace) == 1
        assert len(calls) == 2
        np.testing.assert_array_equal(x, np.zeros(2))


def _euclidean_power(n, d):
    """(sum x_i**2)**(d/2) in the multinomial convention, canonical order.

    Its monomial coefficient at alpha = 2 beta is (d/2)! / beta!, and the
    multinomial convention divides that by d! / alpha!.
    """
    out = []
    for alpha in enumerate_indices(n, d):
        if any(a % 2 for a in alpha):
            out.append(0.0)
            continue
        mono = math.factorial(d // 2) / math.prod(math.factorial(a // 2) for a in alpha)
        out.append(mono * math.prod(math.factorial(a) for a in alpha) / math.factorial(d))
    return np.array(out)


class TestSolveP2:
    def test_lattice_start_converges_and_certifies(self):
        # q > 1 has no closed-form optimum: the iteration starts at the projected
        # B_d; that start is permutation-invariant, so the trials read orbit
        # means of the moments, and the iteration takes 7 entries (8 on the raw rule)
        res = solve_p2(2, Fraction(3, 2), q=2)
        assert res.converged
        assert len(res.iterations) == 7
        assert res.certificate.passed
        assert res.certificate.residuals["max_coefficient"] <= 1e-12

    @pytest.mark.parametrize("n,d,q", [
        (3, Fraction(3, 2), 2), (2, Fraction(1, 2), 4), (3, 1, 2), (3, Fraction(1, 2), 4),
        (2, Fraction(3, 2), 2),
    ], ids=["3-3/2-q2", "2-1/2-q4", "3-1-q2", "3-1/2-q4", "2-3/2-q2"])
    def test_generalized_lattices_certify(self, n, d, q):
        # every pass of a q > 1 solve, its certificate's included, reads the lattice grid
        res = solve_p2(n, d, q=q)
        assert res.converged and res.certificate.passed
        assert max(res.certificate.residuals.values()) <= 1e-10

    def test_quadratic_matches_p1(self):
        res = solve_p2(2, 2)
        assert res.solution.terms[(2, 0)] == pytest.approx(1.0, abs=1e-6)
        assert res.solution.terms[(1, 1)] == pytest.approx(0.0, abs=1e-6)
        assert res.solution.terms[(0, 2)] == pytest.approx(1.0, abs=1e-6)

    def test_quartic_worked_example(self):
        res = solve_p2(2, 4)
        assert res.solution.convention == "multinomial"
        assert res.solution.terms[(4, 0)] == pytest.approx(1.0, abs=2e-2)
        assert res.solution.terms[(2, 2)] == pytest.approx(1.0 / 3.0, abs=2e-2)
        assert res.objective == pytest.approx(8.0 / 3.0, abs=5e-2)
        assert res.volume == pytest.approx(math.pi, rel=1e-2)
        assert res.certificate.passed
        assert res.converged

    def test_three_dimensional_degree_four(self):
        res = solve_p2(3, 4, config=SolveConfig(budget=8192))
        square_of_sum = {}
        for i in range(3):
            axis = tuple(4 if j == i else 0 for j in range(3))
            square_of_sum[axis] = 1.0
        for pair in ((2, 2, 0), (2, 0, 2), (0, 2, 2)):
            square_of_sum[pair] = 1.0 / 3.0
        for alpha, want in square_of_sum.items():
            assert res.solution.terms.get(alpha, 0.0) == pytest.approx(want, abs=2e-2)
        for alpha, got in res.solution.terms.items():
            if alpha not in square_of_sum:
                assert got == pytest.approx(0.0, abs=2e-2)
        assert res.certificate.passed

    def test_attached_certificate_is_scale_invariant_check(self):
        res = solve_p2(2, 4, config=SolveConfig(seed=5))
        assert res.certificate.kind == "p2_moment"
        assert res.certificate.residuals["max_coefficient"] <= 1e-2

    def test_explicit_start_converges_and_certifies(self):
        # a monomial-convention start, converted to the whitened coordinates
        start = GeneralizedPolynomial(
            2, 4, 1, {(4, 0): 1.2, (3, 1): 0.1, (2, 2): 1.5, (1, 3): -0.1, (0, 4): 0.9}
        )
        res = solve_p2(2, 4, start=start)
        assert res.converged
        assert res.certificate.passed
        assert res.solution.terms[(2, 2)] == pytest.approx(1.0 / 3.0, abs=2e-2)
        assert res.objective == pytest.approx(8.0 / 3.0, rel=1e-2)
        assert res.iterations[0] != solve_p2(2, 4).iterations[0]

    def test_sextic_start_screened_on_sphere_grid(self):
        # the first perturbed p2 (3, 6) start that solver seed 508841 drew when
        # p2 still started from one: Nelder-Mead alone accepted it, though its
        # sphere minimum is about -0.023; the gate's sphere grid rejects it
        basis = enumerate_indices(3, 6)
        root_w = np.sqrt([float(multinomial_coefficient(a)) for a in basis])
        noise = np.random.default_rng([508841, 404]).uniform(-0.2, 0.2, size=len(basis))
        u = coefficient_vector(ld_polynomial(3, 6), basis) * root_w + noise
        u *= math.sqrt(3.0) / np.linalg.norm(u)
        start = from_coefficient_vector(3, 6, 1, basis, u / root_w, MULTINOMIAL)
        verdict = finite_volume_test(start, seed=508841)
        assert not verdict.finite_volume
        assert verdict.sphere_minimum == pytest.approx(-0.023, abs=1e-3)
        nodes = sys.modules["ballrep.volume"]._sphere_grid(3, 2048, False)[0]
        assert start.evaluate(nodes).min() < 0.0

    @pytest.mark.parametrize("n,d", [(2, 4), (3, 4), (3, 6)])
    def test_paper_cases_certify_at_round_off(self, n, d):
        res = solve_p2(n, d)
        assert res.converged
        assert res.certificate.passed
        assert res.certificate.residuals["max_coefficient"] <= 1e-10

    @pytest.mark.parametrize("n,d", [(2, 4), (3, 4), (3, 6)])
    def test_rescaled_pass_matches_a_fresh_one(self, n, d):
        # the certificate pass runs before the scale to leading coefficient 1,
        # and homogeneity maps its moments to the returned solution's ball
        cfg = SolveConfig()
        res = solve_p2(n, d, config=cfg)
        fresh = moment_table(res.solution, budget=cfg.certificate_budget)
        assert res.volume == pytest.approx(fresh.normalization.value, rel=1e-13)
        assert res.certificate.passed
        assert max(res.certificate.residuals.values()) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_quartic_is_the_square_of_the_euclidean_norm(self, n):
        # (sum x_i**2)**2 in the multinomial convention: 1 on the pure
        # fourth powers, 1/3 on x_i**2 x_j**2, 0 elsewhere
        res = solve_p2(n, 4)
        assert len(res.solution.terms) == len(enumerate_indices(n, 4))
        for alpha, got in res.solution.terms.items():
            want = 1.0 if 4 in alpha else 1.0 / 3.0 if set(alpha) <= {0, 2} else 0.0
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("n,d", [(2, 6), (2, 8), (3, 8)])
    def test_default_start_is_the_euclidean_power(self, n, d):
        # the start is the optimum, so the fixed-point test passes at once
        res = solve_p2(n, d)
        assert res.converged
        assert len(res.iterations) == 1
        got = coefficient_vector(res.solution, enumerate_indices(n, d))
        assert np.abs(got - _euclidean_power(n, d)).max() <= 1e-12
        assert res.certificate.passed

    def test_anderson_reaches_the_euclidean_power_from_a_perturbed_start(self):
        # monomial-convention noise of at most 0.02 on each of the 28 terms
        # keeps the start's sphere minimum above 1 - 28 * 0.02 > 0
        basis = enumerate_indices(3, 6)
        want = _euclidean_power(3, 6)
        mono = want * np.array([float(multinomial_coefficient(a)) for a in basis])
        noise = np.random.default_rng(6).uniform(-0.02, 0.02, size=len(basis))
        start = from_coefficient_vector(3, 6, 1, basis, mono + noise, MONOMIAL)
        res = solve_p2(3, 6, start=start)
        assert res.converged
        assert len(res.iterations) > 1
        assert np.abs(coefficient_vector(res.solution, basis) - want).max() <= 1e-12
        assert res.certificate.passed

    def test_start_with_infinite_volume_rejected(self):
        # x1**4 - 3 x1**2 x2**2 + x2**4 is negative on the diagonal
        start = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): -3.0, (0, 4): 1.0})
        with pytest.raises(InfiniteVolumeError, match="initial iterate"):
            solve_p2(2, 4, start=start)


DEFAULT_SOLVES = {
    "p1-2-4": lambda cfg: solve_p1(2, 4, config=cfg),
    "p1-3-6": lambda cfg: solve_p1(3, 6, config=cfg),
    "p1q-3-1/2-4": lambda cfg: solve_p1(3, Fraction(1, 2), q=4, config=cfg),
    "p2-3-6": lambda cfg: solve_p2(3, 6, config=cfg),
    "p3-2-4": lambda cfg: solve_p3(2, 4, config=cfg),
}


class TestDefaultStarts:
    """Every default start is feasible by construction, so a solve gates only a given start."""

    @pytest.mark.parametrize("case", list(DEFAULT_SOLVES))
    def test_default_spherical_solve_makes_no_gate_call(self, monkeypatch, case):
        calls = []
        for module in ("ballrep.solvers", "ballrep.volume"):
            real = getattr(sys.modules[module], "finite_volume_test")

            def counted(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(sys.modules[module], "finite_volume_test", counted)
        res = DEFAULT_SOLVES[case](SolveConfig())
        assert res.converged
        assert calls == []

    @pytest.mark.parametrize("case", list(DEFAULT_SOLVES))
    def test_spherical_solutions_do_not_depend_on_the_seed(self, case):
        first = DEFAULT_SOLVES[case](SolveConfig(seed=0))
        for seed in (5, 508841):
            res = DEFAULT_SOLVES[case](SolveConfig(seed=seed))
            if isinstance(first.solution, GramForm):
                np.testing.assert_array_equal(res.solution.Q, first.solution.Q)
            else:
                assert res.solution == first.solution
            assert res.iterations == first.iterations

    @pytest.mark.parametrize("n,d,q", [
        (2, 4, 1), (3, 6, 1), (4, 4, 1), (5, 6, 1),
        (3, Fraction(1, 2), 4), (4, Fraction(3, 2), 4), (5, 1, 2),
    ], ids=["2-4", "3-6", "4-4", "5-6", "3-1/2-q4", "4-3/2-q4", "5-1-q2"])
    def test_p1_start_is_a_dense_positive_point_of_the_l1_sphere(self, monkeypatch, n, d, q):
        # stop solve_p1 at _descend and read the start it would descend from
        monkeypatch.setattr(sys.modules["ballrep.solvers"], "_descend", lambda *args, **kw: kw)
        kw = solve_p1(n, d, q=q)
        x0 = kw["default_start"]
        basis = enumerate_indices(n, int(Fraction(d) * q))
        assert (x0 >= 0.0).all()
        for alpha, coeff in zip(basis, x0):
            assert (coeff > 0.0) == (q > 1 or all(a % 2 == 0 for a in alpha))
            if max(alpha) == sum(alpha):  # a pure power
                assert coeff > 0.0
        assert np.abs(x0).sum() == pytest.approx(n, rel=1e-14)
        assert finite_volume_test(kw["make"](x0)).sphere_minimum > 0.0


class TestSolveP3:
    def test_quadratic_identity(self):
        res = solve_p3(2, 2)
        np.testing.assert_allclose(res.solution.Q, np.eye(2), atol=1e-2)
        assert res.certificate.passed

    def test_quartic_beats_axis_power_trace(self):
        res = solve_p3(2, 4)
        assert res.converged
        assert res.certificate.passed
        assert res.objective < 2.0 - 0.01
        rho = closed_form_ball_volume(2, 4)
        assert abs(res.volume - rho) / rho <= 1e-4
        # the optimum is the rank-1 Gram of the scaled Euclidean ball quartic
        k = (math.pi / rho) ** 2
        expected = k * np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        np.testing.assert_allclose(res.solution.Q, expected, atol=2e-2)

    def test_diagonal_start_descends(self):
        start = GramForm(2, 4, np.diag([1.0, 0.0, 1.0]))
        res = solve_p3(2, 4, start=start)
        objectives = [obj for obj, _ in res.iterations]
        assert objectives[-1] < objectives[0] - 0.05
        assert res.objective < 2.0 - 0.01

    def test_psd_maintained(self):
        res = solve_p3(2, 4, config=SolveConfig(seed=2))
        eigenvalues = np.linalg.eigvalsh(res.solution.Q)
        assert eigenvalues.min() >= -1e-10

    @pytest.mark.parametrize("n,d,budget", [(2, 4, None), (3, 4, None), (3, 6, None), (2, 4, 8192)])
    def test_paper_cases_keep_even_support(self, n, d, budget):
        # the identity start and the exact projection never leave the parity
        # blocks, so the solution and its certificate pass keep the symmetry zeros
        cfg = SolveConfig() if budget is None else SolveConfig(budget=budget)
        res = solve_p3(n, d, config=cfg)
        assert res.solution.expand().sign_symmetric
        assert res.certificate.passed


class TestStochasticBackendSolve:
    def test_p1_with_monte_carlo_gradients(self):
        cfg = SolveConfig(
            backend="monte_carlo", budget=60_000, seed=1,
            max_iters=150, cert_tol=2e-2,
        )
        res = solve_p1(2, 4, config=cfg)
        rho = closed_form_ball_volume(2, 4)
        assert res.solution.terms[(4, 0)] == pytest.approx(1.0, abs=2e-2)
        assert res.solution.terms[(0, 4)] == pytest.approx(1.0, abs=2e-2)
        assert abs(res.volume - rho) / rho <= 1e-2
        assert res.certificate.passed

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_p2_with_monte_carlo_gradients(self, seed):
        cfg = SolveConfig(backend="monte_carlo", budget=60_000, seed=seed)
        res = solve_p2(2, 4, config=cfg)
        assert res.converged
        assert res.certificate.passed
        assert res.objective == pytest.approx(8.0 / 3.0, rel=1e-2)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
    def test_quartics_in_four_variables(self, problem, seed):
        # n = 4 has no sphere grid: only the cone nodes reach it
        cfg = SolveConfig(backend="monte_carlo", budget=20_000, seed=seed)
        res = {"p1": solve_p1, "p2": solve_p2, "p3": solve_p3}[problem](4, 4, config=cfg)
        assert res.converged
        assert res.certificate.passed
        if problem == "p1":
            assert res.objective == pytest.approx(4.0, rel=cfg.cert_tol)

    def test_monte_carlo_descent_builds_one_pass(self, monkeypatch):
        # the descent draws its cone nodes and builds P once, so every trial
        # is a product with P on the same nodes: no estimator pass, no redraw;
        # and so its trial count does not hinge on the last bits of the step,
        # here the BB step s.s / s.y against move**2 / s.y: where those bits
        # decide a trial, the volume is flat to round-off and the descent stops
        solvers, volume_module = sys.modules["ballrep.solvers"], sys.modules["ballrep.volume"]
        built, drawn = [], []

        def radial_pass(*args, real=volume_module._radial_pass):
            built.append("_radial_pass")
            return real(*args)

        def cone_batch(n, d, budget, seed, b, real=volume_module._cone_batch):
            drawn.append((budget, b))  # some batches are drawn on the draw thread
            return real(n, d, budget, seed, b)

        monkeypatch.setattr(volume_module, "_radial_pass", radial_pass)
        monkeypatch.setattr(volume_module, "_cone_batch", cone_batch)
        passes, per_call = _count_oracle_work(monkeypatch, [])
        for seed in (1, 2, 3):
            cfg = SolveConfig(backend="monte_carlo", budget=60_000, seed=seed)
            trials = []
            for numpy in (np, _RoundedSquares()):
                monkeypatch.setattr(solvers, "np", numpy)
                for log in (built, drawn, passes, per_call):
                    log.clear()
                res = solve_p1(2, 4, config=cfg)
                assert res.converged and res.certificate.passed, seed
                # the descent's one pass draws its nodes once; the certificate
                # pass draws its own: each batch of either budget once
                assert built == ["_radial_pass"], seed
                budgets = (cfg.budget, cfg.certificate_budget)
                assert sorted(drawn) == [(budget, b) for budget in budgets
                                         for b in range(-(-budget // volume_module._MC_BATCH))], seed
                assert per_call == [(0,)] * len(per_call), seed
                assert passes == [cfg.certificate_budget], seed
                trials.append(len(per_call))
            assert trials[0] == trials[1], seed


class _RoundedSquares:
    """numpy, but vdot(s, s) rounded through its square root, as move**2 is."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def vdot(a, b):
        out = np.vdot(a, b)
        return np.sqrt(out.real) ** 2 if a is b else out


class TestSeedRobustness:
    def test_p1_seeds_agree_pairwise(self):
        solutions = []
        for seed in range(3):
            res = solve_p1(2, 4, config=SolveConfig(seed=seed))
            solutions.append(res.solution)
        basis = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
        for i in range(len(solutions)):
            for j in range(i + 1, len(solutions)):
                delta = max(
                    abs(solutions[i].terms.get(a, 0.0) - solutions[j].terms.get(a, 0.0))
                    for a in basis
                )
                assert delta <= 2e-2


class _Captured(Exception):
    pass


# the iterations a solve hands its oracle to: p1/p1q and p3 descend, p2 mixes
ITERATIONS = ("_projected_gradient", "_anderson")


@pytest.mark.parametrize("name", ITERATIONS)
def test_infinite_initial_iterate_raises(monkeypatch, name):
    # _descend checks the start on the solve's own pass, once, before the iteration
    solvers = sys.modules["ballrep.solvers"]
    real = solvers._descent_pass

    def infinite(*args):
        def run(c):
            raise InfiniteVolumeError("sublevel set has infinite volume")
        return real(*args)[0], run

    def iterate(*args):
        raise AssertionError("the iteration ran from an infinite start")

    monkeypatch.setattr(solvers, "_descent_pass", infinite)
    monkeypatch.setattr(solvers, name, iterate)
    solve = solve_p2 if name == "_anderson" else solve_p1
    with pytest.raises(InfiniteVolumeError, match="initial iterate has infinite volume"):
        solve(2, 4)


@pytest.mark.parametrize("max_iters,converged,end", [(1, False, 1.0), (50, True, 2.0)])
def test_anderson_stops_unconverged_at_max_iters(max_iters, converged, end):
    # T(x) = project(-grad(x)) = x / 2 + 1, fixed point 2: one iteration moves
    # x from 0 to T(0) = 1 and stops there unconverged; fifty reach the point.
    # The trace reports x itself, so its last entry is the iterate returned
    anderson = sys.modules["ballrep.solvers"]._anderson

    def evaluate(x):
        return 1.0, -(0.5 * x + 1.0)

    x, trace, done = anderson(np.zeros(1), evaluate(np.zeros(1)), evaluate, lambda x: x,
                              lambda x, vol: float(x[0]), SolveConfig(max_iters=max_iters))
    assert done is converged
    assert x == pytest.approx([end], abs=1e-14)
    assert trace[-1][0] == x[0]
    assert len(trace) <= max_iters if converged else len(trace) == max_iters + 1


@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_unconverged_p2_traces_every_iterate(max_iters):
    # from a given start p2 iterates: stopped by max_iters, its trace holds
    # the start and each of the max_iters iterates, the one returned last
    start = ld_polynomial(3, 6, convention="multinomial")
    res = solve_p2(3, 6, start=start, config=SolveConfig(max_iters=max_iters))
    assert not res.converged
    assert len(res.iterations) == max_iters + 1


@pytest.mark.parametrize("gradient,evaluations,converged", [(-1e-12, 2, True), (-1.0, 3, False)])
def test_round_off_rejection_ends_the_descent(gradient, evaluations, converged):
    # the first trial reads the volume one ulp above the start's: when the
    # step's first-order gain is below the stop tolerance too, no shorter step
    # can gain more and the descent stops converged; a step that predicts a
    # real gain backtracks to the next trial, accepted here
    descend = sys.modules["ballrep.solvers"]._projected_gradient
    volumes, calls = iter([1.0, 1.0 + 2.0**-52, 0.5]), []

    def evaluate(x):
        calls.append(x)
        return next(volumes), np.array([gradient])

    _, _, done = descend(np.zeros(1), evaluate(np.zeros(1)), evaluate, lambda x: x,
                         lambda x, vol: vol, SolveConfig(max_iters=1))
    assert (len(calls), done) == (evaluations, converged)


def test_small_accepted_gains_do_not_end_the_descent():
    # three accepted steps in a row each gain 1e-12 of the volume: only a
    # line search that ends at round-off converges, so the fourth step is
    # taken and the descent stops unconverged at max_iters
    descend = sys.modules["ballrep.solvers"]._projected_gradient
    volumes, calls = iter([1.0, 1.0 - 1e-12, 1.0 - 2e-12, 1.0 - 3e-12, 0.5]), []

    def evaluate(x):
        calls.append(x)
        return next(volumes), np.array([-1e-9])

    _, trace, done = descend(np.zeros(1), evaluate(np.zeros(1)), evaluate, lambda x: x,
                             lambda x, vol: vol, SolveConfig(max_iters=4))
    assert (len(calls), len(trace), done) == (5, 5, False)


def test_each_iteration_starts_its_plain_trials_at_the_initial_step():
    # the first iteration accepts only t = 0.25 (two rejections); no step is
    # remembered, so the second iteration's first trial is x + 1.0 again
    solvers = sys.modules["ballrep.solvers"]
    volumes, calls = iter([1.0, 2.0, 2.0, 0.9, 0.8]), []

    def evaluate(x):
        calls.append(float(x[0]))
        return next(volumes), np.array([-1.0])

    solvers._projected_gradient(np.zeros(1), evaluate(np.zeros(1)), evaluate, lambda x: x,
                                lambda x, vol: vol, SolveConfig(max_iters=2))
    assert calls == [0.0, 1.0, 0.5, 0.25, 0.25 + solvers._INITIAL_STEP]


def _captured_oracle(monkeypatch, solve):
    """(start, evaluate, project) of a solve's iteration, which is not run."""
    solvers = sys.modules["ballrep.solvers"]

    def capture(state0, first, evaluate, project, report, cfg):
        raise _Captured(state0, evaluate, project)

    for name in ITERATIONS:
        monkeypatch.setattr(solvers, name, capture)
    with pytest.raises(_Captured) as caught:
        solve()
    return caught.value.args


def _reference_oracle(problem, n, d, q):
    """make(x), and the chain rule from make(x)'s stored coefficients to x."""
    basis = enumerate_indices(n, int(Fraction(d) * q))
    if problem == "p3":
        index = sys.modules["ballrep.polynomials"]._hankel_layout(n, d // 2)[2]
        return lambda mat: GramForm(n, d, mat).expand(), lambda grad: grad[index]
    if problem == "p2":
        root_w = np.sqrt([float(multinomial_coefficient(a)) for a in basis])
        return (lambda u: from_coefficient_vector(n, d, q, basis, u / root_w, MULTINOMIAL),
                lambda grad: grad / root_w)
    return lambda x: from_coefficient_vector(n, d, q, basis, x, MONOMIAL), lambda grad: grad


def _permutation_mean(values, basis):
    """The mean over every coordinate permutation sigma of values[sigma a, sigma b, ...],
    values being indexed by basis along each of its axes."""
    where = {a: i for i, a in enumerate(basis)}
    perms = [[where[tuple(a[i] for i in sigma)] for a in basis]
             for sigma in itertools.permutations(range(len(basis[0])))]
    return np.mean([values[np.ix_(*[p] * values.ndim)] for p in perms], axis=0)


def _reference_trial(problem, n, d, q, x, budget, averaged=False):
    """(volume, gradient in x) from volume and grad_volume, None if infinite.

    averaged: the gradient in the monomial coefficients is first averaged
    over every permutation of the coordinates, the gradient of the
    permutation-averaged rule at an invariant x.
    """
    make, pullback = _reference_oracle(problem, n, d, q)
    poly = make(x)
    try:
        vol, grad = volume(poly, budget=budget).value, grad_volume(poly, budget=budget)
    except InfiniteVolumeError:
        return None
    grad = np.array(list(grad.values()))
    if averaged:
        grad = _permutation_mean(grad, enumerate_indices(n, int(Fraction(d) * q)))
    return vol, pullback(grad)


DESIGN_CASES = [("p1", 2, 4, 1), ("p1", 3, 4, 1), ("p1", 3, 6, 1),
                ("p1", 3, Fraction(1, 2), 4), ("p2", 3, 4, 1), ("p3", 3, 4, 1)]


class TestSphereDesign:
    """The descent's trial oracle against volume and grad_volume at the same point."""

    @staticmethod
    def _oracle(monkeypatch, problem, n, d, q, cfg):
        if problem == "p3":
            return _captured_oracle(monkeypatch, lambda: solve_p3(n, d, config=cfg))
        solver = solve_p1 if problem == "p1" else solve_p2
        return _captured_oracle(monkeypatch, lambda: solver(n, d, q=q, config=cfg))

    @staticmethod
    def _check_trials(oracle, problem, n, d, q, budget, averaged):
        """Four noisy points near the start: evaluate against _reference_trial, to 1e-13."""
        x0, evaluate, project = oracle
        rng = np.random.default_rng(2024)
        # a descent from a sign-symmetric start reads only the even rows, and
        # its iterates keep the odd coordinates at 0, so the noise does too
        # (p3's projection masks them)
        odd = [q == 1 and any(a % 2 for a in alpha)
               for alpha in enumerate_indices(n, int(Fraction(d) * q))]
        for _ in range(4):
            noise = rng.uniform(-0.1, 0.1, size=x0.shape)
            if problem != "p3":
                noise[odd] = 0.0
            noise = noise + noise.T if problem == "p3" else noise
            if averaged:  # the iterates of an invariant start stay invariant, so the noise does too
                half = enumerate_indices(n, int(Fraction(d) * q) // x0.ndim)
                noise = _permutation_mean(noise, half)
            x = project(x0 + noise)
            want = _reference_trial(problem, n, d, q, x, budget, averaged)
            got = evaluate(x)
            assert want is not None and got is not None
            assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)
            assert np.abs(got[1] - want[1]).max() <= 1e-13 * np.abs(want[1]).max()

    @pytest.mark.parametrize("problem,n,d,q", DESIGN_CASES, ids=lambda v: str(v))
    def test_matches_moment_table_path(self, monkeypatch, problem, n, d, q):
        # every default start is invariant under the coordinate permutations,
        # so its trials read the moments averaged over their permutation orbits
        cfg = SolveConfig(seed=5)
        oracle = self._oracle(monkeypatch, problem, n, d, q, cfg)
        self._check_trials(oracle, problem, n, d, q, cfg.descent_budget, averaged=True)

    @pytest.mark.parametrize("problem,start,averaged", [
        ("p1", GeneralizedPolynomial(3, 6, 1, {(6, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 6): 1.01}),
         False),
        # I plus 0.05 where a + b is even: invariant, and sign-symmetric like
        # the default start, so the pass and the reference read one fold
        ("p3", GramForm(3, 6, np.eye(10) + 0.05 * np.array(
            [[not np.any(np.add(a, b) % 2) for b in enumerate_indices(3, 3)]
             for a in enumerate_indices(3, 3)])), True),
        ("p3", GramForm(3, 6, np.diag([1.0] * 9 + [1.1])), False),
    ], ids=["p1-axis-asymmetric", "p3-invariant", "p3-diagonal-asymmetric"])
    def test_given_start_decides_the_rule(self, monkeypatch, problem, start, averaged):
        # a given start reads orbit means only if every permutation of the
        # coordinates keeps it (p3: its Gram matrix, rows and columns together);
        # otherwise its trials read the moments of the rule as they are
        cfg = SolveConfig(seed=5)
        solve = solve_p3 if problem == "p3" else solve_p1
        oracle = _captured_oracle(monkeypatch, lambda: solve(3, 6, start=start, config=cfg))
        self._check_trials(oracle, problem, 3, 6, 1, cfg.descent_budget, averaged)

    @pytest.mark.parametrize("problem,n,d,q,x", [
        # the cone-boundary start 2 * x1**4: h vanishes at the x2 axis
        ("p1", 2, 4, 1, np.array([2.0, 0.0, 0.0, 0.0, 0.0])),
        # x1**4 - 3 x1**2 x2**2 + x2**4 is negative on the diagonal
        ("p1", 2, 4, 1, np.array([1.0, 0.0, -3.0, 0.0, 1.0])),
        # |x1|**(1/2) - 3 |x1 x2|**(1/4) + |x2|**(1/2) is negative where |x1| = |x2|
        ("p1", 3, Fraction(1, 2), 4, np.array([1.0, -3.0, 0.0, 1.0, 0.0, 0.0])),
        # |x1|**(1/2) + |x2|**(1/2) has no pure power of x3, so it vanishes on
        # the x3 axis, which the n = 3 grid misses
        pytest.param("p1", 3, Fraction(1, 2), 4, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
                     id="p1-3-1/2-4-axis"),
        ("p2", 2, 4, 1, np.array([1.0, 0.0, -2.0, 0.0, 1.0])),
        ("p3", 2, 4, 1, np.diag([1.0, -3.0, 1.0])),
    ], ids=lambda v: str(v) if not isinstance(v, np.ndarray) else "x")
    def test_none_exactly_where_the_spherical_pass_raises(self, monkeypatch, problem, n, d, q, x):
        cfg = SolveConfig()
        _, evaluate, _ = self._oracle(monkeypatch, problem, n, d, q, cfg)
        assert _reference_trial(problem, n, d, q, x, cfg.descent_budget) is None
        assert evaluate(x) is None

    def test_none_where_the_monte_carlo_pass_raises(self, monkeypatch):
        # -1000 (x1**4 + x2**4) is negative at every cone node, so the
        # trial's table and the descent's pass raise alike
        cfg = SolveConfig(backend="monte_carlo", budget=2000)
        _, evaluate, _ = self._oracle(monkeypatch, "p1", 2, 4, 1, cfg)
        x = np.array([-1000.0, 0.0, 0.0, 0.0, -1000.0])
        with pytest.raises(InfiniteVolumeError):
            moment_table(GeneralizedPolynomial(2, 4, 1, {(4, 0): -1000.0, (0, 4): -1000.0}),
                         backend=cfg.backend, budget=cfg.budget, seed=cfg.seed)
        assert evaluate(x) is None


@pytest.mark.parametrize("problem,n,d,q", [
    ("p1", 3, 6, 1), ("p1", 3, Fraction(1, 2), 4), ("p2", 3, 6, 1), ("p2", 2, Fraction(3, 2), 2),
    ("p3", 3, 6, 1),
], ids=lambda v: str(v))
def test_pullback_is_the_adjoint_of_coefficients(monkeypatch, problem, n, d, q):
    # the descent maps the volume gradient in the monomial coefficients to
    # the solver coordinates by pullback: <coefficients(x), y> = <x, pullback(y)>
    monkeypatch.setattr(sys.modules["ballrep.solvers"], "_descend", lambda *args, **kw: kw)
    kw = solve_p3(n, d) if problem == "p3" else (solve_p1 if problem == "p1" else solve_p2)(n, d, q=q)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.normal(size=np.shape(kw["default_start"]))
        y = rng.normal(size=count_indices(n, int(Fraction(d) * q)))
        left, right = np.vdot(kw["coefficients"](x), y), np.vdot(x, kw["pullback"](y))
        assert left == pytest.approx(right, rel=1e-13, abs=1e-13)


PAPER_CASES = [("p1", 2, 4, 1), ("p1", 3, 4, 1), ("p1", 3, 6, 1), ("p2", 2, 4, 1), ("p2", 3, 4, 1),
               ("p2", 3, 6, 1), ("p3", 2, 4, 1), ("p3", 3, 4, 1), ("p3", 3, 6, 1),
               ("p1", 3, Fraction(1, 2), 4)]


class TestSymmetricDescent:
    """A start that every coordinate permutation keeps descends on the permutation-averaged rule."""

    @pytest.mark.parametrize("problem,n,d,q", PAPER_CASES, ids=lambda v: str(v))
    def test_paper_cases_certify_to_round_off(self, problem, n, d, q):
        res = solve_p3(n, d) if problem == "p3" else (solve_p1 if problem == "p1" else solve_p2)(
            n, d, q=q)
        assert res.converged and res.certificate.passed
        assert max(res.certificate.residuals.values()) <= 1e-12

    @pytest.mark.parametrize("n,d,q,entries", [
        (3, 4, 1, 2), (3, 6, 1, 2), (3, Fraction(1, 2), 4, 4),
    ], ids=lambda v: str(v))
    def test_p1_coefficients_are_equal_within_each_orbit(self, n, d, q, entries):
        res = solve_p1(n, d, q=q)
        basis = enumerate_indices(n, int(Fraction(d) * q))
        coeffs = np.array([res.solution.terms.get(a, 0.0) for a in basis])
        where = {a: i for i, a in enumerate(basis)}
        for sigma in itertools.permutations(range(n)):
            permuted = [where[tuple(a[i] for i in sigma)] for a in basis]
            assert np.array_equal(coeffs, coeffs[permuted])
        # the optimum, the n axis powers; at q = 1 one descent step reaches it
        assert np.count_nonzero(coeffs) == n
        assert len(res.iterations) == entries

    def test_asymmetric_start_keeps_the_raw_rule(self):
        # x1**6 + x2**6 + 1.01 x3**6 is changed by a permutation, so its
        # descent reads the moments of the rule as they are; this is the solve
        # recorded before the orbit means were introduced, float for float
        start = GeneralizedPolynomial(3, 6, 1, {(6, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 6): 1.01})
        res = solve_p1(3, 6, start=start)
        nonzero = {a: c for a, c in res.solution.terms.items() if c != 0.0}
        assert nonzero == {(6, 0, 0): float.fromhex("0x1.000000854c46dp+0"),
                           (0, 6, 0): float.fromhex("0x1.000000854c46dp+0"),
                           (0, 0, 6): float.fromhex("0x1.fffffdeacee6fp-1")}
        assert res.objective == float.fromhex("0x1.8000000000009p+1")
        assert res.volume == float.fromhex("0x1.cd4a754ccb1fep+2")
        assert res.iterations == [(float.fromhex(a), float.fromhex(b)) for a, b in [
            ("0x1.8001170bb6358p+1", "0x1.cd4b1ce7c2215p+2"),
            ("0x1.80000aed5f2b4p+1", "0x1.cd4a7bdd01140p+2"),
            ("0x1.80000008fda77p+1", "0x1.cd4a755231968p+2"),
            ("0x1.80000008f5d4cp+1", "0x1.cd4a75522ce3bp+2"),
        ]]


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_solves.json").read_text())


class TestGoldenSolves:
    """The paper's ten cases at two solver seeds, against recorded results.

    tests/data/golden_solves.json was recorded with the solver that paid a
    separate volume pass and gradient pass per iterate (commit f7f1a44); the
    fused one-pass oracle must reproduce it to round-off.  The p2 entries
    were re-recorded with the Anderson fixed-point iteration, whose
    certificate residuals fell from 2e-7 to 7e-7 to below 1e-14.  The p1
    and p1q entries were re-recorded when p1 started from its closed-form
    dense point instead of the seeded perturbation of the optimum: that
    start is the same at every seed, the p1 traces fell from 6-24 to 3-5
    entries (p1q's rose from 51-52 to 68), and the p1 certificate residuals
    fell from up to 8e-6 to below 1e-7.  The entries whose trace changed
    when the descent began trying a Barzilai-Borwein step first were
    re-recorded, at both seeds: p1(3,4) and p1(3,6) 5 -> 4 entries, p3(2,4)
    4 -> 3, p3(3,6) 13 -> 7 and p1q 68 -> 14.  p1(2,4) (3 entries), p3(3,4)
    (2) and the p2 entries were kept and still match.  When p2 at q = 1
    began at its closed-form optimum (sum x_i**2)**(d/2), only the
    trace_length of its six entries was re-recorded, at both seeds: p2(2,4)
    and p2(3,4) 8 -> 1 entries, p2(3,6) 10 -> 1.  The start already passes
    the fixed-point test; solutions and objectives still match.  When the
    spherical passes of sign-symmetric inputs moved onto one orthant of the
    grid, p3(3,6) and p1q were re-recorded at both seeds: p3(3,6) moved by
    8.7e-11 relative (objective 2.3440363700300226 -> 2.344036370030016,
    still 7 entries), and p1q, whose |x|**(1/4) the full grid's 1e-16 plane
    coordinates had perturbed, by 2.7e-9 (objective 3.0155284432 ->
    3.0155284454, 14 -> 9 entries, still failing its certificate).  When a
    rejected trial at round-off began to end the descent, p3(3,6) was
    re-recorded at both seeds: its seventh entry was a step that left the
    volume unchanged and moved Q by 3.2e-11 relative (objective
    2.344036370030016 -> 2.3440363700300164, 7 -> 6 entries).  When the
    spherical passes of generalized inputs moved onto the lattice grid
    (Gauss-Legendre in y = |x|**(1/q) on the orthant), p1q was re-recorded
    at both seeds: it now reaches B_{1/2} (objective 3.0155284454 ->
    2.9999999999999996, 9 -> 5 entries) and its certificate passes.  When a
    descent from a permutation-invariant start began to read the orbit
    means of its moments (the permutation-averaged rule), the entries
    whose start is invariant and whose rule is not were re-recorded, at
    both seeds.  p1(3,4): 4 -> 2 entries, coefficients moved by at most
    3.5e-12, objective unchanged.  p1(3,6): 4 -> 2 entries, the three axis
    coefficients 1 + 3.2e-8, 1 + 3.2e-8, 1 - 6.5e-8 -> three equal
    1 + 4.4e-16 (largest move 6.5e-8), objective 3.000000000000012 ->
    3.0000000000000013.  p3(3,6): still 6 entries, Q moved by at most
    2.6e-11 relative, objective 2.3440363700300164 -> 2.3440363700300146.
    p1q: 5 -> 4 entries, coefficients moved by at most 8.3e-10, objective
    unchanged.  The other twelve entries were kept: each solve is still
    within 9.1e-15 relative of its record, at the same trace length.
    """

    @pytest.mark.parametrize(
        "case", GOLDEN,
        ids=[f"{c['problem']}-{c['n']}-{c['d']}-q{c['q']}-seed{c['seed']}" for c in GOLDEN],
    )
    def test_matches_recorded_solve(self, case):
        cfg = SolveConfig(seed=case["seed"])
        n, d = case["n"], Fraction(case["d"])
        if case["problem"] == "p3":
            res = solve_p3(n, int(d), config=cfg)
            got = np.asarray(res.solution.Q)
            want = np.array(case["solution"])
        else:
            solver = solve_p1 if case["problem"] == "p1" else solve_p2
            res = solver(n, d, q=case["q"], config=cfg)
            want = np.array([c for _, c in case["solution"]])
            got = np.array([res.solution.terms[tuple(a)] for a, _ in case["solution"]])
            assert len(res.solution.terms) == len(case["solution"])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert res.objective == pytest.approx(case["objective"], rel=1e-12, abs=0.0)
        assert len(res.iterations) == case["trace_length"]
        assert res.converged == case["converged"]
        assert res.certificate.verdict == case["verdict"]


def _count_oracle_work(monkeypatch, counted):
    """Budgets of all _estimate passes, and per trial the passes it made.

    A trial is one run of the descent's pass, the start's included.  Each
    per-call entry also holds the growth of every list in ``counted``.
    """
    solvers = sys.modules["ballrep.solvers"]
    volume_module = sys.modules["ballrep.volume"]
    passes = []
    real_estimate = volume_module._estimate

    def counting_estimate(g, alphas, backend, budget, seed):
        passes.append(budget)
        return real_estimate(g, alphas, backend, budget, seed)

    per_call = []

    def counting_descent(*args, real=solvers._descent_pass):
        live, run = real(*args)

        def counting_run(c):
            before = (len(passes), *map(len, counted))
            try:
                return run(c)
            finally:
                after = (len(passes), *map(len, counted))
                per_call.append(tuple(b - a for a, b in zip(before, after)))

        return live, counting_run

    monkeypatch.setattr(volume_module, "_estimate", counting_estimate)
    monkeypatch.setattr(solvers, "_descent_pass", counting_descent)
    return passes, per_call


def _count_kernel_calls(monkeypatch):
    """The row count of every monomial kernel call, in order."""
    volume_module = sys.modules["ballrep.volume"]
    calls = []
    real_monomials = volume_module.monomials

    def counting_monomials(base, exponents):
        calls.append(len(exponents))
        return real_monomials(base, exponents)

    monkeypatch.setattr(volume_module, "monomials", counting_monomials)
    return calls


class TestOnePassPerTrial:
    def test_p2_spherical_descent_reads_one_design_matrix(self, monkeypatch):
        kernel_calls = _count_kernel_calls(monkeypatch)
        passes, per_call = _count_oracle_work(monkeypatch, [kernel_calls])
        cfg = SolveConfig(seed=0)
        res = solve_p2(3, 4, config=cfg)
        assert res.converged
        assert len(per_call) >= len(res.iterations)
        # a trial is two products with P: no estimator pass, no kernel call
        assert per_call == [(0, 0)] * len(per_call)
        # outside the descent only the certificate's moment table remains
        assert passes == [cfg.certificate_budget]
        # P, the 6 all-even monomials of the 15 in the degree-4 slice, is
        # built once; the certificate's pass makes the only other kernel call
        assert kernel_calls[0] == 6
        assert len(kernel_calls) == 1 + len(passes)

    @pytest.mark.parametrize("problem,n,d,q,size", [
        ("p1", 3, 4, 1, 6), ("p1", 3, Fraction(1, 2), 4, 6), ("p3", 2, 4, 1, 3),
        ("p3", 3, 6, 1, 10),
    ], ids=lambda v: str(v))
    def test_descent_then_one_certificate_budget_pass(self, monkeypatch, problem, n, d, q, size):
        # the rescale to vol(B_d) and the certificate share one pass: its
        # volume gives the scale and homogeneity maps its moments
        kernel_calls = _count_kernel_calls(monkeypatch)
        passes, per_call = _count_oracle_work(monkeypatch, [kernel_calls])
        cfg = SolveConfig(seed=0)
        if problem == "p3":
            res = solve_p3(n, d, config=cfg)
        else:
            res = solve_p1(n, d, q=q, config=cfg)
        assert res.converged
        assert len(per_call) >= len(res.iterations)
        assert per_call == [(0, 0)] * len(per_call)
        assert passes == [cfg.certificate_budget]
        # P, the monomials of the degree-d slice that every sign flip keeps
        # (all of them when q > 1), is built once; the certificate's pass
        # makes the only other kernel call
        assert kernel_calls[0] == size
        assert len(kernel_calls) == 1 + len(passes)
        assert res.volume == pytest.approx(closed_form_ball_volume(n, d), rel=1e-12)

    @pytest.mark.parametrize("solve", [solve_p1, solve_p2], ids=["p1", "p2"])
    def test_certificate_pass_skips_the_odd_moments(self, monkeypatch, solve):
        # the solution stores its odd slice terms as exact zeros; they leave
        # {g <= 1} flip symmetric, so only the 10 all-even alphas of the 28 in
        # the degree-6 slice reach the backend
        volume_module = sys.modules["ballrep.volume"]
        real = volume_module._BACKENDS["spherical"]
        handed = []

        def counting(g, rows, live_rows, budget, seed):
            handed.append(len(live_rows))
            return real(g, rows, live_rows, budget, seed)

        monkeypatch.setitem(volume_module._BACKENDS, "spherical", counting)
        res = solve(3, 6)
        assert res.converged and res.certificate.passed
        assert len(res.solution.terms) == 28
        assert handed == [10]

    def test_p3_descent_needs_no_moment_matrix(self, monkeypatch):
        # the trials take their gradient from the design matrix and the
        # transposed Gram layout; the certificate reads its moment matrix
        # from the one degree-d moment table of the solve
        calls = {"moment_matrix": [], "moment_table": []}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name].append(kwargs.get("budget"))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in ("volume", "certificates", "solvers"):
            module = sys.modules[f"ballrep.{module}"]
            for name in calls:
                if hasattr(module, name):
                    counting(module, name)
        cfg = SolveConfig()
        res = solve_p3(2, 4, config=cfg)
        assert res.converged
        assert calls == {"moment_matrix": [], "moment_table": [cfg.certificate_budget]}


def _record_descent(monkeypatch):
    """(nodes, rows) of each pass a descent builds, and a copy of every trial point."""
    solvers, volume_module = sys.modules["ballrep.solvers"], sys.modules["ballrep.volume"]
    passes, trials = [], []
    real_descent, real_radial = solvers._descent_pass, volume_module._radial_pass

    def recording_radial(g, rows, *rest):
        nodes, run = real_radial(g, rows, *rest)
        passes.append((nodes, len(rows)))
        return nodes, run

    def recording_descent(*args):
        # only the descent's pass is recorded, not the certificate's query pass
        monkeypatch.setattr(volume_module, "_radial_pass", recording_radial)
        try:
            return real_descent(*args)
        finally:
            monkeypatch.setattr(volume_module, "_radial_pass", real_radial)

    def recording(real_iteration):
        def recording_iteration(state0, first, evaluate, *rest):
            def oracle(x):
                trials.append(np.array(x, copy=True))
                return evaluate(x)

            trials.append(np.array(state0, copy=True))  # the start, evaluated by _descend
            return real_iteration(state0, first, oracle, *rest)

        return recording_iteration

    monkeypatch.setattr(solvers, "_descent_pass", recording_descent)
    for name in ITERATIONS:
        monkeypatch.setattr(solvers, name, recording(getattr(solvers, name)))
    return passes, trials


def _odd_coordinates(problem, n, d):
    """Mask of the q = 1 solver coordinates that feed only coefficients with an odd exponent."""
    if problem == "p3":
        parity = np.array(sys.modules["ballrep.polynomials"]._hankel_layout(n, d // 2)[0]) % 2
        return (parity[:, None] != parity[None, :]).any(axis=2)
    return np.array([any(a % 2 for a in alpha) for alpha in enumerate_indices(n, d)])


class TestFoldedDescent:
    """A descent from a sign-symmetric start reads the even rows, on the orthant grid if spherical.

    Its odd moments are exact zeros, so is the gradient in the odd
    coordinates, and the descent's projection keeps those coordinates at
    exactly 0 in every trial.
    """

    @pytest.mark.parametrize("problem,n,d,rows",
                             [("p1", 3, 6, 10), ("p2", 3, 4, 6), ("p3", 3, 6, 10)])
    def test_default_start_folds_and_keeps_odd_coordinates_zero(self, monkeypatch, problem, n, d,
                                                                 rows):
        passes, trials = _record_descent(monkeypatch)
        res = {"p1": solve_p1, "p2": solve_p2, "p3": solve_p3}[problem](n, d)
        assert res.converged and res.certificate.passed
        # one pass, on the 272 orthant nodes of the 2048-node grid
        assert passes == [(272, rows)]
        odd = _odd_coordinates(problem, n, d)
        assert trials and all(not x[odd].any() for x in trials)

    def test_p1_start_with_odd_support_reads_half_the_grid(self, monkeypatch):
        passes, trials = _record_descent(monkeypatch)
        start = GeneralizedPolynomial(3, 6, 1, {**ld_polynomial(3, 6).terms, (3, 3, 0): 0.1})
        solve_p1(3, 6, start=start, config=SolveConfig(max_iters=3))
        # all 28 rows, each of even total degree, on the 1024 nodes of the half grid
        assert passes == [(1024, 28)]
        assert trials[0][_odd_coordinates("p1", 3, 6)].any()

    def test_p3_start_whose_odd_entries_cancel_is_masked(self, monkeypatch):
        # Q[(2,0,0), (0,1,1)] and Q[(1,1,0), (1,0,1)] both add into the
        # coefficient at (2,1,1) and cancel there: the expansion has even
        # support, so the descent folds, and the mask must zero both entries
        basis = list(sys.modules["ballrep.polynomials"]._hankel_layout(3, 2)[0])
        gram = 0.5 * np.eye(len(basis))
        for a, b, value in [((2, 0, 0), (0, 1, 1), 0.05), ((1, 1, 0), (1, 0, 1), -0.05)]:
            i, j = basis.index(a), basis.index(b)
            gram[i, j] = gram[j, i] = value
        start = GramForm(3, 4, gram)
        assert start.expand().sign_symmetric
        passes, trials = _record_descent(monkeypatch)
        solve_p3(3, 4, start=start)
        assert passes == [(272, 6)]
        odd = _odd_coordinates("p3", 3, 4)
        assert all(not x[odd].any() for x in trials)

    @pytest.mark.parametrize("seed", range(3))
    def test_monte_carlo_descent_folds_its_rows_not_its_nodes(self, monkeypatch, seed):
        # the cone nodes have no orthant, so all of them stay; the odd rows
        # go, and with them the sampling noise in the odd coefficients
        passes, trials = _record_descent(monkeypatch)
        res = solve_p2(3, 4, config=SolveConfig(backend="monte_carlo", budget=20_000, seed=seed))
        assert res.converged and res.certificate.passed
        assert passes == [(20_000, 6)]
        assert all(not x[_odd_coordinates("p2", 3, 4)].any() for x in trials)
        assert not [a for a, c in res.solution.terms.items() if c and any(e % 2 for e in a)]
