import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballrep import (
    GeneralizedPolynomial,
    GramForm,
    coefficient_vector,
    count_indices,
    enumerate_indices,
    expand_gram,
    from_coefficient_vector,
    ld_polynomial,
    multinomial_coefficient,
    norms,
    serialize_polynomial,
    solve_p1,
)
from ballrep.polynomials import _flip_invariant


class TestEnumerateIndices:
    def test_quartic_order(self):
        assert enumerate_indices(2, 4) == [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]

    def test_single_variable(self):
        assert enumerate_indices(1, 2) == [(2,)]

    def test_lattice_numerators(self):
        # numerators for exponents (1/2,0), (1/4,1/4), (0,1/2) on the 1/4 lattice
        assert enumerate_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]

    @given(st.integers(1, 4), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_stars_and_bars(self, n, total):
        out = enumerate_indices(n, total)
        assert len(out) == count_indices(n, total) == math.comb(n - 1 + total, total)
        assert all(sum(a) == total for a in out)
        assert out == sorted(out, reverse=True)
        assert len(set(out)) == len(out)

    def test_returns_a_fresh_list(self):
        first = enumerate_indices(3, 2)
        first.append((9, 9, 9))
        assert enumerate_indices(3, 2) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
        ]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_indices(0, 2)
        with pytest.raises(ValueError):
            enumerate_indices(2, -1)


class TestMultinomialCoefficient:
    def test_cross_term_weight(self):
        assert multinomial_coefficient((2, 2)) == 6

    def test_pure_power(self):
        assert multinomial_coefficient((4, 0)) == 1

    def test_three_variables(self):
        # 4! / (1! 1! 2!)
        assert multinomial_coefficient((1, 1, 2)) == 12

    def test_equal_for_every_spelling_of_the_index(self):
        assert multinomial_coefficient([1, 1, 2]) == 12
        assert multinomial_coefficient(np.array([1, 1, 2])) == 12

    def test_rejects_negative_entries_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="negative"):
                multinomial_coefficient((3, -1))


class TestEvenSupport:
    def test_reads_only_the_nonzero_terms(self):
        # a stored zero coefficient on an odd exponent leaves {g <= 1} flip symmetric
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (3, 1): 0.0})
        assert g.has_even_support()
        assert not GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (3, 1): 1e-300}).has_even_support()
        assert ld_polynomial(2, 4).has_even_support()
        assert GeneralizedPolynomial(2, 4, 1, {}).has_even_support()

    @pytest.mark.parametrize("g", [
        ld_polynomial(2, 4),
        GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (3, 1): 0.0}),
        GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (3, 1): 0.2}),
        GeneralizedPolynomial(3, 6, 1, {(6, 0, 0): 1.0, (2, 2, 2): 0.5, (1, 1, 4): 0.1}),
        GeneralizedPolynomial(2, 3, 1, {(3, 0): 1.0, (2, 1): -0.1, (0, 3): 1.0}),
        ld_polynomial(3, Fraction(1, 2), q=4),
    ], ids=["B4", "zero-odd-term", "odd-term", "odd-sextic", "q1-cubic", "p1q"])
    def test_sign_symmetric_matches_every_sign_flip(self, g):
        x = np.random.default_rng(3).normal(size=(5, g.n))
        flips = np.array(np.meshgrid(*[[-1.0, 1.0]] * g.n)).reshape(g.n, -1).T
        same = all(np.array_equal(g.evaluate(x * f), g.evaluate(x)) for f in flips)
        assert g.sign_symmetric == same
        # the rule reads term by term: all of a generalized g, the all-even ones of a classical one
        rows = _flip_invariant(list(g.terms), g.is_classical)
        want = [not g.is_classical or all(a % 2 == 0 for a in alpha) for alpha in g.terms]
        assert rows.tolist() == want


class TestEvaluate:
    def test_axis_quartic(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0})
        assert g.evaluate([1.0, 1.0]) == pytest.approx(2.0)

    def test_square_roots(self):
        g = ld_polynomial(2, Fraction(1, 2), q=2)
        assert g.evaluate([4.0, 9.0]) == pytest.approx(5.0)

    def test_non_convex_quartic_at_ones(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
        assert g.evaluate([1.0, 1.0]) == pytest.approx(0.075)

    def test_zero_power_zero_is_one(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0})
        assert g.evaluate([0.0, 3.0]) == 0.0
        assert g.evaluate([2.0, 0.0]) == pytest.approx(16.0)
        gen = ld_polynomial(2, Fraction(1, 2), q=2)
        assert gen.evaluate([0.0, 4.0]) == pytest.approx(2.0)

    def test_batch_shape(self):
        g = ld_polynomial(2, 4)
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(g.evaluate(pts), [1.0, 1.0, 2.0])

    def test_even_support_sign_flip_invariance(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 0.7, (2, 2): -0.5})
        x = np.array([1.3, -0.4])
        assert g.evaluate(x) == pytest.approx(g.evaluate(np.abs(x)))

    def test_generalized_always_sign_invariant(self):
        g = GeneralizedPolynomial(2, Fraction(1, 2), 4, {(1, 1): 2.0, (2, 0): 1.0, (0, 2): 1.0})
        x = np.array([-0.7, 0.2])
        assert g.evaluate(x) == pytest.approx(g.evaluate(np.abs(x)))

    def test_multinomial_convention_weighting(self):
        # 6 * g22 * x^2 y^2 with g22 = 1/3 contributes 2 at (1, 1)
        g = GeneralizedPolynomial(
            2, 4, 1, {(4, 0): 1.0, (2, 2): 1.0 / 3.0, (0, 4): 1.0},
            convention="multinomial",
        )
        assert g.evaluate([1.0, 1.0]) == pytest.approx(4.0)
        assert g.monomial_coefficient((2, 2)) == pytest.approx(2.0)

    def test_classical_odd_power_signs(self):
        g = GeneralizedPolynomial(2, 4, 1, {(3, 1): 1.0})
        assert g.evaluate([2.0, -1.0]) == pytest.approx(-8.0)
        assert g([2.0, -1.0]) == g.evaluate([2.0, -1.0])


def _term_by_term(g, x):
    """Reference value and term-magnitude scale: one float power per term."""
    x = np.asarray(x, dtype=float)
    value = np.zeros(x.shape[:-1])
    scale = np.zeros(x.shape[:-1])
    for alpha, coeff in g.terms.items():
        if g.convention == "multinomial":
            coeff = coeff * multinomial_coefficient(alpha)
        if g.is_classical:
            term = coeff * np.prod(x ** np.asarray(alpha), axis=-1)
        else:
            term = coeff * np.prod(np.abs(x) ** (np.asarray(alpha) / g.q), axis=-1)
        value += term
        scale += np.abs(term)
    return value, scale


@st.composite
def _kernel_cases(draw):
    kind = draw(st.sampled_from(["classical", "multinomial", "q2", "q4"]))
    n = draw(st.integers(1, 3))
    if kind in ("classical", "multinomial"):
        q, total = 1, draw(st.sampled_from([2, 4, 6]))
    else:
        q, total = int(kind[1]), draw(st.integers(1, 8))
    basis = enumerate_indices(n, total)
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(basis), max_size=len(basis)))
    convention = "multinomial" if kind == "multinomial" else "monomial"
    g = GeneralizedPolynomial(n, Fraction(total, q), q, dict(zip(basis, coeffs)), convention)
    # exact zeros exercise 0**0; negative entries meet odd classical exponents
    coordinate = st.just(0.0) | st.floats(1e-3, 3.0).flatmap(lambda v: st.sampled_from([v, -v]))
    points = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=6))
    return g, np.array(points), draw(st.booleans())


class TestMonomialKernel:
    @given(_kernel_cases())
    # a subnormal coefficient: |x|**(1/q) round-off moves c * x by one subnormal spacing
    @example((GeneralizedPolynomial(1, 1, 2, {(2,): 5e-324}), np.array([[1.5]]), True))
    @settings(max_examples=300, deadline=None)
    def test_matches_term_by_term_reference(self, case):
        g, points, single = case
        if single:
            got = g.evaluate(points[0])
            assert isinstance(got, float)
            want, scale = _term_by_term(g, points[0])
        else:
            got = g.evaluate(points)
            assert got.shape == (len(points),)
            want, scale = _term_by_term(g, points)
        # no float result is relatively accurate below the subnormal spacing
        floor = np.finfo(float).smallest_subnormal * len(g.terms)
        assert np.all(np.abs(got - want) <= 1e-12 * scale + floor)

    @pytest.mark.parametrize("x", [[0.0, -2.0, 0.5], [-1.5, 0.0, 0.0], [-0.7, -1.1, 2.0]])
    def test_zero_and_negative_coordinates(self, x):
        g = GeneralizedPolynomial(
            3, 4, 1, {(3, 1, 0): 1.5, (1, 0, 3): -0.5, (0, 0, 4): 1.0, (1, 1, 2): 2.0}
        )
        want, scale = _term_by_term(g, x)
        assert abs(g.evaluate(x) - want) <= 1e-12 * scale
        np.testing.assert_allclose(g.evaluate(np.array([x, x])), [want, want], rtol=1e-12)

    def test_nested_batch_shape(self):
        g = ld_polynomial(2, Fraction(1, 2), q=4)
        pts = np.arange(24, dtype=float).reshape(3, 4, 2) - 11.0
        want, _ = _term_by_term(g, pts)
        np.testing.assert_allclose(g.evaluate(pts), want, rtol=1e-12)

    def test_kernel_data_leaves_fields_equality_and_serialization_alone(self):
        terms = {(4, 0): 1.0, (3, 1): 0.0, (2, 2): 0.5, (0, 4): 1.0}
        g = GeneralizedPolynomial(2, 4, 1, terms, "multinomial")
        reordered = GeneralizedPolynomial(2, 4, 1, dict(reversed(terms.items())), "multinomial")
        names = [f.name for f in dataclasses.fields(g)]
        assert names == ["n", "degree", "q", "terms", "convention"]
        assert g == reordered
        assert g != GeneralizedPolynomial(2, 4, 1, {**terms, (3, 1): 1e-3}, "multinomial")
        with pytest.raises(TypeError, match="unhashable"):
            hash(g)  # the terms mapping field has never been hashable
        assert repr(g) == (
            "GeneralizedPolynomial(n=2, degree=Fraction(4, 1), q=1, terms="
            "{(4, 0): 1.0, (3, 1): 0.0, (2, 2): 0.5, (0, 4): 1.0}, convention='multinomial')"
        )
        assert serialize_polynomial(g) == (
            '{"n": 2, "d": [4, 1], "q": 1, "convention": "multinomial", "terms": '
            '[{"alpha_times_q": [4, 0], "coeff": 1.0}, {"alpha_times_q": [3, 1], "coeff": 0.0}, '
            '{"alpha_times_q": [2, 2], "coeff": 0.5}, {"alpha_times_q": [0, 4], "coeff": 1.0}]}'
        )


    def test_terms_are_read_only_but_copyable(self):
        g = ld_polynomial(2, 4)
        copied = copy.deepcopy(g)
        assert copied == g and copied.terms is not g.terms
        assert pickle.loads(pickle.dumps(g)) == g
        solution = dataclasses.asdict(solve_p1(2, 4))["solution"]
        assert solution["n"] == 2 and set(solution["terms"]) == set(enumerate_indices(2, 4))
        for terms in (g.terms, copied.terms, solution["terms"]):
            with pytest.raises(TypeError, match="read-only"):
                terms[(4, 0)] = 1.0
            for change in (lambda: terms.update({(0, 4): 2.0}), lambda: terms.pop((4, 0)),
                           lambda: terms.clear(), lambda: terms.__delitem__((4, 0))):
                with pytest.raises(TypeError, match="read-only"):
                    change()
        assert g.terms == {(4, 0): 1.0, (0, 4): 1.0}


class TestRescale:
    def test_identity(self):
        g = ld_polynomial(2, 2)
        assert g.rescale(1.0) == g

    def test_doubles_l1_norm(self):
        g = ld_polynomial(2, 4)
        assert norms(g.rescale(2.0)).l1 == pytest.approx(4.0)

    def test_rejects_non_positive(self):
        for g in (ld_polynomial(2, 2), GramForm(2, 2, np.eye(2))):
            for bad in (0.0, -1.0):
                with pytest.raises(ValueError, match="scale factor must be positive"):
                    g.rescale(bad)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_coefficients(self, lam):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.2, (2, 2): -0.3, (0, 4): 0.8})
        x = np.array([0.7, -1.1])
        assert g.rescale(lam).evaluate(x) == pytest.approx(lam * g.evaluate(x), rel=1e-12)


class TestConventionConversion:
    def test_round_trip_is_involution(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 1.0 / 3.0, (0, 4): 0.25})
        back = g.to_convention("multinomial").to_convention("monomial")
        for key in g.terms:
            assert back.terms[key] == pytest.approx(g.terms[key], rel=1e-15)

    def test_values_agree_across_conventions(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0})
        x = np.array([0.3, 1.7])
        assert g.to_convention("multinomial").evaluate(x) == pytest.approx(g.evaluate(x))

    def test_rejects_generalized_lattice(self):
        g = ld_polynomial(2, Fraction(1, 2), q=2)
        with pytest.raises(ValueError):
            g.to_convention("multinomial")


class TestInvariantValidation:
    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            GeneralizedPolynomial(2, 4, 1, {(3, 0): 1.0})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedPolynomial(2, 4, 1, {(4, 0, 0): 1.0})

    def test_multinomial_requires_unit_lattice(self):
        with pytest.raises(ValueError):
            GeneralizedPolynomial(2, Fraction(1, 2), 2, {(1, 0): 1.0}, convention="multinomial")

    @pytest.mark.parametrize("make,message", [
        (lambda: GeneralizedPolynomial(0, 4, 1, {}), "dimension must be >= 1"),
        (lambda: GeneralizedPolynomial(2, 4, 0, {}), "lattice denominator must be >= 1"),
        (lambda: GeneralizedPolynomial(2, 0, 1, {}), "degree must be positive"),
        (lambda: GeneralizedPolynomial(2, -4, 1, {}), "degree must be positive"),
        (lambda: GeneralizedPolynomial(2, 4, 1, {}, convention="binomial"), "unknown convention"),
        (lambda: ld_polynomial(2, 4).to_convention("binomial"), "unknown convention"),
        (lambda: GeneralizedPolynomial(2, 4, 1, {(5, -1): 1.0}), "negative exponent numerator"),
        (lambda: ld_polynomial(2, 4).evaluate(np.ones(3)), "dimension 3, expected 2"),
        (lambda: ld_polynomial(2, Fraction(1, 3), q=2), "does not lie on the 1/2 lattice"),
        (lambda: GramForm(0, 2, np.eye(1)), "dimension must be >= 1"),
        (lambda: GramForm(2, 3, np.eye(2)), "even integer >= 2"),
        (lambda: from_coefficient_vector(2, 4, 1, enumerate_indices(2, 4), np.ones(4)),
         r"shape \(4,\), expected \(5,\)"),
    ], ids=["n", "q", "degree-zero", "degree-negative", "convention", "to-convention",
            "negative-numerator",
            "evaluate-dimension", "ld-off-lattice", "gram-n", "gram-odd-degree", "vector-shape"])
    def test_rejected_with_its_reason(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match=r"coefficient .* of exponent \(2, 2\) is not finite"):
            GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): value, (0, 4): 1.0})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_gram_entry_rejected(self, value):
        Q = np.eye(3)
        Q[1, 1] = value
        with pytest.raises(ValueError, match="not finite"):
            GramForm(2, 4, Q)


class TestNorms:
    def test_axis_power_norms(self):
        for n, d in ((2, 4), (3, 2), (4, 6)):
            report = norms(ld_polynomial(n, d))
            assert report.l0 == n
            assert report.l1 == pytest.approx(float(n))

    def test_weighted_l2_worked_example(self):
        g = GeneralizedPolynomial(
            2, 4, 1, {(4, 0): 1.0, (3, 1): 0.0, (2, 2): 1.0 / 3.0, (1, 3): 0.0, (0, 4): 1.0},
            convention="multinomial",
        )
        assert norms(g).l2_weighted_sq == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_zero_polynomial(self):
        report = norms(GeneralizedPolynomial(2, 4, 1, {}))
        assert (report.l0, report.l1, report.l2_weighted_sq) == (0, 0.0, 0.0)

    def test_generalized_l2_undefined(self):
        report = norms(ld_polynomial(2, Fraction(1, 2), q=2))
        assert report.l2_weighted_sq is None
        assert report.l1 == pytest.approx(2.0)

    def test_gram_trace_reported(self):
        gram = GramForm(2, 2, np.eye(2))
        report = norms(gram)
        assert report.trace == pytest.approx(2.0)
        assert report.l0 == 2


class TestGramExpansion:
    def test_identity_quadratic(self):
        gram = GramForm(2, 2, np.eye(2))
        assert gram.expand() == ld_polynomial(2, 2)

    def test_identity_quartic(self):
        gram = GramForm(2, 4, np.eye(3))
        expected = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 1.0, (0, 4): 1.0})
        assert gram.expand() == expected

    def test_square_of_sum(self):
        q = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        expanded = expand_gram(GramForm(2, 4, q))
        assert expanded.terms[(4, 0)] == pytest.approx(1.0)
        assert expanded.terms[(2, 2)] == pytest.approx(2.0)
        assert expanded.terms[(0, 4)] == pytest.approx(1.0)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
        left = expand_gram(GramForm(2, 4, a + b))
        ga, gb = expand_gram(GramForm(2, 4, a)), expand_gram(GramForm(2, 4, b))
        for key in left.terms:
            assert left.terms[key] == pytest.approx(
                ga.terms.get(key, 0.0) + gb.terms.get(key, 0.0), rel=1e-12, abs=1e-12
            )

    def test_against_symbolic_expansion(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(3, 3))
        q = 0.5 * (q + q.T)
        gram = GramForm(2, 4, q)
        # dehomogenized at x2 = 1 the basis x1**2, x1 x2, x2**2 reads x1**2, x1, 1,
        # and the coefficient of x1**a1 is the form's coefficient at (a1, 4 - a1)
        basis = [[0.0, 0.0, 1.0], [0.0, 1.0], [1.0]]
        reference = np.zeros(5)
        for i in range(3):
            for j in range(3):
                product = np.polynomial.polynomial.polymul(basis[i], basis[j])
                reference[: len(product)] += q[i, j] * product
        expanded = gram.expand()
        for (a1, a2), coeff in expanded.terms.items():
            assert a1 + a2 == 4
            assert coeff == pytest.approx(reference[a1], rel=1e-12, abs=1e-12)

    def test_gram_matches_polynomial_evaluation(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 3))
        gram = GramForm(2, 4, 0.5 * (q + q.T))
        pts = rng.normal(size=(10, 2))
        assert gram.basis == [(2, 0), (1, 1), (0, 2)]
        v = np.stack([pts[:, 0] ** 2, pts[:, 0] * pts[:, 1], pts[:, 1] ** 2], axis=-1)
        direct = np.einsum("ki,ij,kj->k", v, gram.Q, v)
        np.testing.assert_allclose(gram.expand().evaluate(pts), direct, rtol=1e-12)
        np.testing.assert_array_equal(gram.evaluate(pts), gram.expand().evaluate(pts))

    def test_rejects_asymmetric_matrix(self):
        q = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GramForm(2, 2, q)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            GramForm(2, 4, np.eye(2))


class TestCoefficientVectors:
    def test_round_trip(self):
        basis = enumerate_indices(2, 4)
        vec = np.array([1.0, 0.5, -0.25, 0.0, 2.0])
        g = from_coefficient_vector(2, 4, 1, basis, vec)
        np.testing.assert_array_equal(coefficient_vector(g, basis), vec)

    def test_support_cutoff(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (2, 2): 1e-9, (0, 4): 1.0})
        assert g.support(1e-6) == [(4, 0), (0, 4)]
        assert g.support() == [(4, 0), (2, 2), (0, 4)]
