import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from ballrep import (
    Certificate,
    CertificatePreconditionError,
    GeneralizedPolynomial,
    GramForm,
    MomentCoverageError,
    MomentMatrix,
    MomentTable,
    VolumeEstimate,
    certify,
    certify_p1,
    certify_p2,
    certify_p3,
    closed_form_ball_moment,
    closed_form_ball_volume,
    enumerate_indices,
    ld_polynomial,
    minimal_trace_axis_gram,
    moment_matrix,
    moment_table,
    multinomial_coefficient,
    refute_ld_for_p3,
    scale_to_target_volume,
    solve_p3,
)


def closed_form_table(n, d, entries, volume_value):
    """Hand-built MomentTable with deterministic provenance."""
    est = VolumeEstimate(volume_value, 0.0, "closed_form", 0)
    return MomentTable(1, {a: (v, 0.0) for a, v in entries.items()}, est)


class TestCertifyP1:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 4), (3, 2)])
    def test_passes_on_axis_power(self, n, d):
        g = ld_polynomial(n, d)
        table = moment_table(g, budget=16384)
        cert = certify_p1(g, table, tol=1e-6)
        assert cert.passed
        assert cert.kind == "p1_kkt"
        # the dual at each axis power is 1 exactly by construction
        axis_key = ",".join(str(d if i == 0 else 0) for i in range(n))
        assert cert.duals["u"][axis_key] == pytest.approx(1.0)

    def test_default_tolerance_tracks_backend(self):
        g = ld_polynomial(2, 4)
        det = certify_p1(g, moment_table(g, budget=8192))
        assert det.tolerance == 1e-6
        sto = certify_p1(g, moment_table(g, backend="monte_carlo", budget=100_000))
        assert sto.tolerance == 1e-2

    def test_perturbed_candidate_fails_with_named_residual(self):
        bumped = GeneralizedPolynomial(
            2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 0.3 * 6.0}
        )
        candidate = scale_to_target_volume(
            bumped, closed_form_ball_volume(2, 4), budget=8192
        )
        cert = certify_p1(candidate, moment_table(candidate, budget=8192), tol=1e-6)
        assert not cert.passed
        assert cert.residuals["support_stationarity"] > 1e-2

    def test_generalized_candidate_passes(self):
        g = ld_polynomial(2, Fraction(1, 2), q=4)
        table = moment_table(g, budget=262144)
        cert = certify_p1(g, table, tol=1e-3)
        assert cert.passed

    def test_wrong_volume_is_precondition_error(self):
        g = ld_polynomial(2, 4).rescale(2.0)
        with pytest.raises(CertificatePreconditionError, match="volume"):
            certify_p1(g, moment_table(g, budget=4096), tol=1e-6)

    def test_missing_moments_rejected(self):
        g = ld_polynomial(2, 4)
        rho = closed_form_ball_volume(2, 4)
        table = closed_form_table(2, 4, {(4, 0): rho / 6}, rho)
        with pytest.raises(MomentCoverageError, match="missing"):
            certify_p1(g, table)

    def test_non_positive_axis_moment_is_precondition_error(self):
        rho = closed_form_ball_volume(2, 4)
        table = closed_form_table(2, 4, dict.fromkeys(enumerate_indices(2, 4), 0.0), rho)
        with pytest.raises(CertificatePreconditionError, match=r"axis moment at \(4, 0\) is 0"):
            certify_p1(ld_polynomial(2, 4), table)

    def test_lattice_mismatch_rejected(self):
        g = ld_polynomial(2, Fraction(1, 2), q=4)
        table = moment_table(ld_polynomial(2, Fraction(1, 2), q=2), budget=8192)
        with pytest.raises(MomentCoverageError, match="lattice"):
            certify_p1(g, table)

    def test_verdict_reproducible_from_inputs(self):
        g = ld_polynomial(2, 4)
        table = moment_table(g, budget=8192)
        assert certify_p1(g, table, tol=1e-6) == certify_p1(g, table, tol=1e-6)


class TestCertifyP2:
    def test_worked_example_closes(self):
        g = GeneralizedPolynomial(
            2, 4, 1,
            {(4, 0): 1.0, (3, 1): 0.0, (2, 2): 1.0 / 3.0, (1, 3): 0.0, (0, 4): 1.0},
            convention="multinomial",
        )
        # exact moments of the quartic disk representation: pi/8 and pi/24
        exact = closed_form_table(
            2, 4,
            {(4, 0): math.pi / 8, (3, 1): 0.0, (2, 2): math.pi / 24, (1, 3): 0.0,
             (0, 4): math.pi / 8},
            math.pi,
        )
        cert = certify_p2(g, exact, tol=1e-6)
        assert cert.passed
        assert cert.duals["l2_star"] == pytest.approx(8.0 / 3.0)
        assert cert.residuals["g(4,0)"] <= 1e-9
        assert cert.residuals["g(2,2)"] <= 1e-9
        # the six-decimal printed values close the same identity to ~1e-5
        printed = closed_form_table(
            2, 4,
            {(4, 0): 0.392699, (3, 1): 0.0, (2, 2): 0.130899, (1, 3): 0.0,
             (0, 4): 0.392699},
            3.1415926,
        )
        cert_printed = certify_p2(g, printed, tol=1e-5)
        assert cert_printed.passed
        assert cert_printed.residuals["max_coefficient"] <= 1e-5

    def test_generalized_q1_cubic_counts_every_coefficient(self):
        # a q = 1 polynomial of odd degree is generalized, evaluated at |x|:
        # every monomial is flip invariant, so the -0.1 coefficient breaks
        # positivity even though no exponent of the cubic is all even
        g = GeneralizedPolynomial(2, 3, 1, {(3, 0): 1.0, (2, 1): -0.1, (0, 3): 1.0},
                                  "multinomial")
        assert not g.is_classical
        cert = certify_p2(g, moment_table(g))
        assert cert.residuals["even_coefficient_positivity"] == pytest.approx(0.1)
        assert cert.verdict == "fail"

    def test_axis_power_fails_on_cross_residual(self):
        g = ld_polynomial(2, 4).to_convention("multinomial")
        cert = certify_p2(g, moment_table(g, budget=8192), tol=1e-6)
        assert not cert.passed
        assert cert.residuals["g(2,2)"] >= 0.1

    def test_dimension_three_closed_form(self):
        # (sum x_i^2)^2 at volume of the Euclidean ball: axis moment ratio 3/35,
        # cross ratio 1/35, both computed by spherical-coordinate integration
        terms = {}
        for i in range(3):
            terms[tuple(4 if j == i else 0 for j in range(3))] = 1.0
        for pair in ((2, 2, 0), (2, 0, 2), (0, 2, 2)):
            terms[pair] = 1.0 / 3.0
        g = GeneralizedPolynomial(3, 4, 1, terms, convention="multinomial")
        ball_volume = 4.0 * math.pi / 3.0
        entries = {}
        for alpha in [a for a in g.terms]:
            entries[alpha] = ball_volume * (3.0 / 35.0 if max(alpha) == 4 else 1.0 / 35.0)
        basis_all = moment_table(ld_polynomial(3, 4), budget=64).entries
        for alpha in basis_all:
            entries.setdefault(alpha, 0.0)
        table = closed_form_table(3, 4, entries, ball_volume)
        cert = certify_p2(g, table, tol=1e-9)
        assert cert.passed

    def test_residual_linear_in_coefficient_perturbation(self):
        g = GeneralizedPolynomial(
            2, 4, 1,
            {(4, 0): 1.0, (3, 1): 0.0, (2, 2): 1.0 / 3.0, (1, 3): 0.0, (0, 4): 1.0},
            convention="multinomial",
        )
        table = moment_table(g.to_convention("monomial"), budget=8192)
        base = certify_p2(g, table)
        delta = 1e-3
        bumped_terms = dict(g.terms)
        bumped_terms[(2, 2)] += delta
        bumped = GeneralizedPolynomial(2, 4, 1, bumped_terms, convention="multinomial")
        shifted = certify_p2(bumped, table)
        # moments and volume held fixed: the candidate norm feeds back into the
        # predicted coefficient, so the first-order slope of the (2,2) residual
        # is 1 - 2 c22 g22 (n+d)/n * m22/vol = 1/2 at this point, not 1
        m22 = table.value((2, 2))
        vol = table.normalization.value
        slope = 1.0 - 2.0 * 6.0 * (1.0 / 3.0) * 3.0 * m22 / vol
        change = shifted.residuals["g(2,2)"] - base.residuals["g(2,2)"]
        assert change == pytest.approx(delta * slope, rel=5e-3)
        # doubling delta doubles the response (linearity)
        bumped_terms[(2, 2)] = g.terms[(2, 2)] + 2 * delta
        doubled = certify_p2(
            GeneralizedPolynomial(2, 4, 1, bumped_terms, convention="multinomial"), table
        )
        change2 = doubled.residuals["g(2,2)"] - base.residuals["g(2,2)"]
        assert change2 == pytest.approx(2 * change, rel=2e-2)

    def test_reads_either_convention(self):
        # a q = 1 candidate is converted to the multinomial convention, as
        # certify("p2") and the solves already did for it
        multi = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 1.0 / 3.0, (0, 4): 1.0},
                                      convention="multinomial")
        mono = multi.to_convention("monomial")
        table = moment_table(mono, budget=1024)
        cert = certify_p2(multi, table)
        assert cert.passed
        assert certify_p2(mono, table) == cert

    def test_non_positive_volume_is_precondition_error(self):
        g = ld_polynomial(2, 4).to_convention("multinomial")
        table = closed_form_table(2, 4, dict.fromkeys(enumerate_indices(2, 4), 0.1), 0.0)
        with pytest.raises(CertificatePreconditionError, match="volume estimate 0 is not positive"):
            certify_p2(g, table)


class TestCertifyP3:
    def test_identity_with_closed_form_moments(self):
        n = 2
        rho = closed_form_ball_volume(n, 2)
        m = closed_form_ball_moment(n, 2)
        basis = ((1, 0), (0, 1))
        mm = MomentMatrix(
            basis, m * np.eye(n), np.zeros((n, n)), 1,
            VolumeEstimate(rho, 0.0, "closed_form", 0),
        )
        cert = certify_p3(GramForm(n, 2, np.eye(n)), mm, tol=1e-8)
        assert cert.passed
        assert cert.residuals["min_eigenvalue"] <= 1e-12
        assert cert.residuals["complementarity"] <= 1e-12

    def test_axis_power_gram_fails_at_degree_four(self):
        gram = minimal_trace_axis_gram(2, 4)
        mm = moment_matrix(gram.expand(), 2, budget=8192)
        cert = certify_p3(gram, mm, tol=1e-6)
        assert not cert.passed
        assert min(cert.duals["psi_spectrum"]) <= -0.01

    def test_wrong_volume_is_precondition_error(self):
        gram = GramForm(2, 2, 2.0 * np.eye(2))
        mm = moment_matrix(gram.expand(), 1, budget=2048)
        with pytest.raises(CertificatePreconditionError, match="volume"):
            certify_p3(gram, mm, tol=1e-6)

    def test_dimension_mismatch_rejected(self):
        gram = GramForm(2, 4, np.eye(3))
        mm = moment_matrix(ld_polynomial(2, 2), 1, budget=1024)
        with pytest.raises(ValueError, match="shape"):
            certify_p3(gram, mm)

    def test_basis_mismatch_rejected(self):
        # a 3 x 3 matrix over n = 3's degree-1 basis, at vol(B_4) of n = 2:
        # the shape and the volume fit GramForm(2, 4, I), the basis does not
        rho = closed_form_ball_volume(2, 4)
        mm = MomentMatrix(tuple(enumerate_indices(3, 1)), 0.1 * np.eye(3), np.zeros((3, 3)), 1,
                          VolumeEstimate(rho, 0.0, "closed_form", 0))
        with pytest.raises(MomentCoverageError, match="basis"):
            certify_p3(GramForm(2, 4, np.eye(3)), mm)

    def test_monotone_in_tolerance(self):
        # near-optimal candidate: passes at loose tolerances, fails at tight ones
        k = (math.pi / closed_form_ball_volume(2, 4)) ** 2
        q = k * np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        q[0, 0] *= 1.001  # small detuning
        gram = GramForm(2, 4, q)
        fixed = scale_to_target_volume(gram, closed_form_ball_volume(2, 4), budget=16384)
        mm = moment_matrix(fixed.expand(), 2, budget=16384)
        verdicts = []
        for tol in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1):
            verdicts.append(certify_p3(fixed, mm, tol=tol).passed)
        assert verdicts == sorted(verdicts)  # False ... False True ... True
        assert verdicts[-1] and not verdicts[0]


class TestRefutation:
    def test_degree_four_two_dimensional(self):
        report = refute_ld_for_p3(2, 4)
        assert not report.certificate.passed
        assert report.min_eigenvalue <= -0.01
        assert report.gram.trace == pytest.approx(2.0)

    def test_degree_four_three_dimensional(self):
        report = refute_ld_for_p3(3, 4, budget=32768)
        assert not report.certificate.passed
        assert report.min_eigenvalue < 0.0

    def test_degree_four_four_dimensional(self):
        # beyond the sphere grid: the moments of B_4 at n = 4 come in closed form
        report = refute_ld_for_p3(4, 4)
        assert not report.certificate.passed
        assert report.min_eigenvalue < -0.01
        assert report.certificate.residuals["volume"] <= 1e-14

    def test_quadratic_not_applicable(self):
        # every spelling of the degree 2 that Fraction reads is the one degree
        for d in (2, 2.0, "2", Fraction(2)):
            with pytest.raises(ValueError, match="not applicable"):
                refute_ld_for_p3(2, d)

    def test_one_dimension_not_applicable(self):
        # x**d is the only form of degree d, so no Gram form beats the axis power's
        for d in (4, 6):
            with pytest.raises(ValueError, match="not applicable at n = 1"):
                refute_ld_for_p3(1, d)

    def test_axis_gram_needs_an_even_degree(self):
        with pytest.raises(ValueError, match="even integer >= 2, got 3"):
            minimal_trace_axis_gram(2, 3)

    def test_corner_structure(self):
        # A has zero diagonal at the pure powers and a nonzero corner entry
        gram = minimal_trace_axis_gram(2, 4)
        mm = moment_matrix(gram.expand(), 2, budget=8192)
        n, d = 2, 4
        rho = closed_form_ball_volume(n, d)
        a_matrix = np.eye(3) - (n + d) * gram.trace / (n * rho) * mm.values
        assert a_matrix[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert a_matrix[2, 2] == pytest.approx(0.0, abs=1e-9)
        assert abs(a_matrix[0, 2]) > 0.1


class TestCertify:
    def test_each_problem_reads_its_own_moment_data(self):
        g = ld_polynomial(2, 4)
        table = moment_table(g, budget=8192)
        cert, est = certify("p1", g, "spherical", 8192, 0, None)
        assert (cert, est) == (certify_p1(g, table), table.normalization)
        # a monomial-convention q = 1 candidate is checked in the multinomial one
        cert, _ = certify("p2", g, "spherical", 8192, 0, 1e-6)
        assert cert == certify_p2(g.to_convention("multinomial"), table, 1e-6)
        gram = minimal_trace_axis_gram(2, 4)
        mm = moment_matrix(gram.expand(), 2, budget=8192)
        cert, est = certify("p3", gram, "spherical", 8192, 0, None)
        assert (cert, est) == (certify_p3(gram, mm), mm.normalization)

    @pytest.mark.parametrize("g", [
        ld_polynomial(2, 4),
        GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0}),
        GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (3, 1): 0.2, (2, 2): 1.5, (0, 4): 0.8}),
        GeneralizedPolynomial(3, 4, 1, {(4, 0, 0): 1.0, (2, 2, 0): 0.5, (1, 1, 2): -0.1,
                                        (0, 4, 0): 1.0, (0, 0, 4): 1.2}),
    ], ids=["axis", "disk-squared", "odd-term", "n3"])
    def test_p2_reads_a_q1_candidate_alike_in_either_convention(self, g):
        # p2 reads a q = 1 candidate in the multinomial convention, whichever it is stored in
        table = moment_table(g, budget=2048)
        cert = certify_p2(g, table, 1e-6)
        assert cert == certify_p2(g.to_convention("multinomial"), table, 1e-6)
        assert cert == certify("p2", g, "spherical", 2048, 0, 1e-6)[0]

    @pytest.mark.parametrize("make_gram,backend,budget", [
        (lambda: minimal_trace_axis_gram(2, 4), "spherical", None),
        (lambda: minimal_trace_axis_gram(3, 4), "spherical", None),
        (lambda: solve_p3(3, 6).solution, "spherical", 4096),
        (lambda: minimal_trace_axis_gram(2, 4), "monte_carlo", 5000),
    ], ids=["axis-2-4", "axis-3-4", "p3-3-6-solution", "axis-2-4-monte-carlo"])
    def test_p3_table_pass_equals_the_moment_matrix(self, make_gram, backend, budget):
        # the sums a + b of the degree-d/2 basis are the degree-d slice in its
        # canonical order, so the table pass is the matrix pass bit for bit
        gram = make_gram()
        mm = moment_matrix(gram.expand(), gram.degree // 2, backend=backend, budget=budget, seed=3)
        want = certify_p3(gram, mm)
        cert, est = certify("p3", gram, backend, budget, 3, None)
        assert est == mm.normalization
        assert cert == want  # verdict, residuals and duals, psi_spectrum included

    def test_hankel_sums_are_the_degree_slice(self):
        layout = sys.modules["ballrep.polynomials"]._hankel_layout
        for n in range(1, 6):
            for half in range(5):
                assert layout(n, half)[1] == tuple(enumerate_indices(n, 2 * half)), (n, half)

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            certify("p1q", ld_polynomial(2, 4), "spherical", 1024, 0, None)

    @pytest.mark.parametrize("problem,candidate,expected", [
        ("p3", ld_polynomial(2, 4), "GramForm"),
        ("p1", minimal_trace_axis_gram(2, 4), "GeneralizedPolynomial"),
        ("p2", minimal_trace_axis_gram(2, 4), "GeneralizedPolynomial"),
    ], ids=["p3-polynomial", "p1-gram", "p2-gram"])
    def test_wrong_candidate_type_rejected(self, problem, candidate, expected):
        with pytest.raises(ValueError, match=f"must be a {expected}"):
            certify(problem, candidate, "spherical", 1024, 0, None)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_tolerance(self, tol):
        g = ld_polynomial(2, 4)
        match = "tolerance must be finite and >= 0"
        with pytest.raises(ValueError, match=match):
            certify("p2", g, "spherical", 1024, 0, tol)
        with pytest.raises(ValueError, match=match):
            certify_p1(g, moment_table(g, budget=1024), tol)
        with pytest.raises(ValueError, match=match):
            certify_p3(minimal_trace_axis_gram(2, 4),
                       moment_matrix(g, 2, budget=1024), tol)

    def test_zero_tolerance_is_valid(self):
        cert, _ = certify("p2", ld_polynomial(2, 4), "spherical", 1024, 0, 0.0)
        assert cert.tolerance == 0.0

    def test_defaults_are_the_estimators(self):
        # certify used to need all six arguments; the default budget is 8192.
        # The quartic disk with its x1^2 x2^2 coefficient one ulp above 2 is no
        # exact ball power, so its default pass reads the sphere grid too
        disk = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0,
                                               (2, 2): float(np.nextafter(2.0, 3.0))})
        short = certify("p2", disk)
        assert short == certify("p2", disk, "spherical", 8192, 0, None)
        assert short[0].verdict == "pass" and short[1].samples_or_nodes > 0


class TestRescaledMoments:
    """The solve's homogeneity map against a fresh pass on the rescaled candidate."""

    @pytest.mark.parametrize("candidate", [
        GeneralizedPolynomial(3, Fraction(1, 2), 4, {
            (2, 0, 0): 0.9, (1, 1, 0): 0.3, (1, 0, 1): 0.2, (0, 2, 0): 1.1, (0, 0, 2): 1.0}),
        ld_polynomial(2, 4).to_convention("multinomial"),
        GramForm(2, 4, np.array([[1.0, 0.0, 0.2], [0.0, 0.5, 0.0], [0.2, 0.0, 0.8]])),
    ], ids=["p1q", "p2", "p3"])
    @pytest.mark.parametrize("k", [0.37, 2.9])
    def test_matches_a_pass_on_the_rescaled_candidate(self, candidate, k):
        # every problem's certificate pass is the degree-d moment table of the
        # candidate's polynomial, a Gram form's expansion for p3
        def table(obj):
            return moment_table(obj.expand() if isinstance(obj, GramForm) else obj, budget=4096)

        rescaled = sys.modules["ballrep.volume"]._rescaled_moments
        got = rescaled(table(candidate), k, candidate.degree)
        want = table(candidate.rescale(k))
        assert got.normalization.value == pytest.approx(want.normalization.value, rel=1e-14)
        assert got.normalization.std_error == want.normalization.std_error == 0.0
        assert list(got.entries) == list(want.entries)
        for a, (value, _) in want.entries.items():
            assert got.value(a) == pytest.approx(value, rel=1e-13, abs=0.0), a

    def test_errors_scale_like_their_moments(self):
        g = ld_polynomial(2, 4)
        table = moment_table(g, max_order=4, backend="monte_carlo", budget=5000, seed=1)
        k = 3.0
        got = sys.modules["ballrep.volume"]._rescaled_moments(table, k, 4)
        for a, (value, err) in table.entries.items():
            factor = k ** (-(2 + sum(a)) / 4)
            assert got.entries[a] == (value * factor, err * factor)
        assert got.normalization.std_error == table.normalization.std_error * k ** -0.5
        assert got.normalization.ess == table.normalization.ess

    @pytest.mark.parametrize("n,e,m,q", [(2, 2, 2, 1), (3, 4, 1, 1), (2, Fraction(1, 2), 2, 4)])
    @pytest.mark.parametrize("c", [0.37, 2.9])
    def test_a_scaled_ball_power_is_its_ball_rescaled(self, n, e, m, q, c):
        # the closed form of c (sum_i |x_i|**e)**m and the solve's map take
        # their factor from one place, so they agree bit for bit
        terms = {tuple(int(e * q) * b for b in beta): c * multinomial_coefficient(beta)
                 for beta in enumerate_indices(n, m)}
        g = GeneralizedPolynomial(n, e * m, q, terms)
        rescaled = sys.modules["ballrep.volume"]._rescaled_moments
        want = moment_table(g, max_order=e * m)
        got = rescaled(moment_table(ld_polynomial(n, e, q=q), max_order=e * m), c, e * m)
        assert want.normalization.samples_or_nodes == 0
        assert got == want


class TestCertificateObject:
    def test_verdict_matches_passed(self):
        cert = Certificate("p1_kkt", "pass", 1e-6, {}, {})
        assert cert.passed
        assert not Certificate("p1_kkt", "fail", 1e-6, {}, {}).passed
