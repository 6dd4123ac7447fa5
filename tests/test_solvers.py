import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ballrep import (
    GeneralizedPolynomial,
    GramForm,
    InfiniteVolumeError,
    SolveConfig,
    closed_form_ball_volume,
    ld_polynomial,
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
        with pytest.raises(ValueError):
            scale_to_target_volume(ld_polynomial(2, 2), -1.0)


class TestSolveConfig:
    @pytest.mark.parametrize("field", ["budget"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_rejects_non_positive_budgets(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            SolveConfig(**{field: value})


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


class TestLineSearch:
    """_projected_gradient on a fake oracle, so every branch can be reached."""

    CENTER = np.array([0.5, 0.5])

    def evaluate(self, x, seed):
        # f = 50 |x - c|**2 + 1 has curvature 100: the unit step overshoots
        # by a factor 99 and lands where the fake reports an infinite volume
        if x[0] < -1.0:
            return None
        r = x - self.CENTER
        return 50.0 * float(r @ r) + 1.0, 100.0 * r

    def test_backtracks_past_infeasible_trials_and_converges(self):
        solvers = sys.modules["ballrep.solvers"]
        outcomes = []

        def counted(x, seed):
            out = self.evaluate(x, seed)
            outcomes.append(out)
            return out

        x, trace, converged = solvers._projected_gradient(
            np.array([2.0, 2.0]), counted, lambda x: x, lambda x, vol: vol, SolveConfig(),
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

        def only_start(x, seed):
            calls.append(x)
            return self.evaluate(x, seed) if len(calls) == 1 else None

        x, trace, converged = solvers._projected_gradient(
            np.array([2.0, 2.0]), only_start, lambda x: x, lambda x, vol: vol, SolveConfig(),
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

    def test_attached_certificate_passes(self):
        res = solve_p1(2, 4, config=SolveConfig(seed=11))
        assert res.certificate.passed
        assert res.certificate.kind == "p1_kkt"


class TestSolveP2:
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
        # Nelder-Mead alone accepted this seed's first perturbed start, whose
        # sphere minimum is about -0.023; the grid screen now rejects it
        res = solve_p2(3, 6, config=SolveConfig(seed=508841))
        assert res.converged
        assert res.certificate.passed


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

    def test_line_search_compares_on_common_samples(self, monkeypatch):
        # with one seed per solve, f(z) and f(x) share their samples, so few
        # trials are rejected: on average at most one per accepted step, plus
        # the passes of the start, the final rescaling and the certificate
        volume_module = sys.modules["ballrep.volume"]
        passes = []
        real_estimate = volume_module._estimate

        def counting_estimate(g, alphas, backend, budget, seed):
            passes.append(budget)
            return real_estimate(g, alphas, backend, budget, seed)

        monkeypatch.setattr(volume_module, "_estimate", counting_estimate)
        cfg = SolveConfig(backend="monte_carlo", budget=60_000, seed=1)
        res = solve_p1(2, 4, config=cfg)
        steps = len(res.iterations) - 1
        assert steps >= 1
        assert len(passes) <= 2 * steps + 3


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


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_solves.json").read_text())


class TestGoldenSolves:
    """The paper's ten cases at two solver seeds, against recorded results.

    tests/data/golden_solves.json was recorded with the solver that paid a
    separate volume pass and gradient pass per iterate (commit f7f1a44); the
    fused one-pass oracle must reproduce it to round-off.
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


class TestOnePassPerTrial:
    def test_p2_pays_one_estimator_pass_per_oracle_call(self, monkeypatch):
        solvers = sys.modules["ballrep.solvers"]
        volume_module = sys.modules["ballrep.volume"]
        passes = []
        real_estimate = volume_module._estimate

        def counting_estimate(g, alphas, backend, budget, seed):
            passes.append(budget)
            return real_estimate(g, alphas, backend, budget, seed)

        per_call = []
        real_descent = solvers._projected_gradient

        def counting_descent(state0, evaluate, *rest):
            def counted(x, seed):
                before = len(passes)
                out = evaluate(x, seed)
                per_call.append(len(passes) - before)
                return out

            return real_descent(state0, counted, *rest)

        monkeypatch.setattr(volume_module, "_estimate", counting_estimate)
        monkeypatch.setattr(solvers, "_projected_gradient", counting_descent)
        cfg = SolveConfig(seed=0)
        res = solve_p2(3, 4, config=cfg)
        assert res.converged
        # the start plus at least one line-search trial per accepted iterate
        assert len(per_call) >= len(res.iterations)
        assert per_call == [1] * len(per_call)
        # outside the descent only the certificate's moment table remains
        # (p2 rescales by its leading coefficient, without a volume pass)
        assert passes == [cfg.budget] * len(per_call) + [cfg.certificate_budget]

    def test_p3_descent_needs_no_moment_matrix(self, monkeypatch):
        # the trials take their gradient from the moment table and the
        # transposed Gram layout; only the certificate builds a moment matrix
        certificates = sys.modules["ballrep.certificates"]
        calls = []
        real_moment_matrix = certificates.moment_matrix

        def counting_moment_matrix(*args, **kwargs):
            calls.append(kwargs.get("budget"))
            return real_moment_matrix(*args, **kwargs)

        monkeypatch.setattr(certificates, "moment_matrix", counting_moment_matrix)
        cfg = SolveConfig()
        res = solve_p3(2, 4, config=cfg)
        assert res.converged
        assert calls == [cfg.certificate_budget]
