import json
from fractions import Fraction

import numpy as np
import pytest

from ballrep import (
    GeneralizedPolynomial,
    GramForm,
    SchemaError,
    ld_polynomial,
    moment_rows_from_csv,
    moment_rows_to_csv,
    parse_candidate,
    parse_gram,
    parse_polynomial,
    polynomial_to_dict,
    serialize_gram,
    serialize_polynomial,
)


class TestPolynomialRoundTrip:
    def test_quartic_round_trip_exact(self):
        g = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
        assert parse_polynomial(serialize_polynomial(g)) == g

    def test_generalized_round_trip_preserves_lattice(self):
        g = ld_polynomial(2, Fraction(1, 2), q=2)
        back = parse_polynomial(serialize_polynomial(g))
        assert back == g
        assert back.q == 2
        assert back.degree == Fraction(1, 2)

    def test_coefficients_bit_identical(self):
        # awkward floats survive the repr round trip bit for bit
        values = [0.1, 1 / 3, 2.2250738585072014e-308, 1.7976931348623157e308]
        g = GeneralizedPolynomial(
            2, 4, 1, {a: v for a, v in zip([(4, 0), (3, 1), (2, 2), (1, 3)], values)}
        )
        back = parse_polynomial(serialize_polynomial(g))
        for key, coeff in g.terms.items():
            assert back.terms[key] == coeff

    def test_schema_shape(self):
        doc = polynomial_to_dict(ld_polynomial(2, 4))
        assert list(doc) == ["n", "d", "q", "convention", "terms"]
        assert doc["d"] == [4, 1]
        assert doc["terms"][0] == {"alpha_times_q": [4, 0], "coeff": 1.0}

    def test_canonical_term_order(self):
        g = GeneralizedPolynomial(2, 4, 1, {(0, 4): 1.0, (4, 0): 1.0, (2, 2): 0.5})
        doc = polynomial_to_dict(g)
        assert [tuple(t["alpha_times_q"]) for t in doc["terms"]] == [(4, 0), (2, 2), (0, 4)]


class TestPolynomialErrors:
    def test_degree_mismatch_names_field(self):
        doc = {
            "n": 2, "d": [4, 1], "q": 1, "convention": "monomial",
            "terms": [{"alpha_times_q": [3, 0], "coeff": 1.0}],
        }
        with pytest.raises(SchemaError, match="degree mismatch") as err:
            parse_polynomial(json.dumps(doc))
        assert "alpha_times_q" in str(err.value)

    def test_malformed_json(self):
        with pytest.raises(SchemaError, match="malformed"):
            parse_polynomial("{not json")

    @pytest.mark.parametrize("doc,field", [
        ([4, 0], "document"),
        ({"n": 2, "d": [4, 0], "q": 1, "convention": "monomial", "terms": []}, "d"),
        ({"n": 2, "d": [4, 1], "q": 1, "convention": "monomial", "terms": [[4, 0]]}, "terms[0]"),
    ], ids=["not-an-object", "zero-denominator", "term-not-an-object"])
    def test_rejected_with_its_field(self, doc, field):
        with pytest.raises(SchemaError) as err:
            parse_polynomial(json.dumps(doc))
        assert err.value.field == field

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="missing required field"):
            parse_polynomial(json.dumps({"n": 2}))

    def test_duplicate_exponent(self):
        doc = {
            "n": 2, "d": [4, 1], "q": 1, "convention": "monomial",
            "terms": [
                {"alpha_times_q": [4, 0], "coeff": 1.0},
                {"alpha_times_q": [4, 0], "coeff": 2.0},
            ],
        }
        with pytest.raises(SchemaError, match="duplicate"):
            parse_polynomial(json.dumps(doc))

    def test_unknown_convention(self):
        doc = {"n": 2, "d": [4, 1], "q": 1, "convention": "weird", "terms": []}
        with pytest.raises(SchemaError, match="convention"):
            parse_polynomial(json.dumps(doc))

    def test_negative_exponent(self):
        doc = {
            "n": 2, "d": [4, 1], "q": 1, "convention": "monomial",
            "terms": [{"alpha_times_q": [5, -1], "coeff": 1.0}],
        }
        with pytest.raises(SchemaError, match="non-negative"):
            parse_polynomial(json.dumps(doc))


def _set(*path):
    """Edit setting the entry at path (keys, then the new value) of a document."""
    *keys, last, value = path

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return edit


class TestBooleansAreNoNumbers:
    # a JSON true or false is a Python bool, an int subclass: read as 1 or 0
    # it would build a polynomial whose q is True, whose document (and with
    # it region_hash) differs from that of the same region with "q": 1
    @pytest.mark.parametrize("edit,field", [
        (_set("n", True), "n"),
        (_set("q", True), "q"),
        (_set("d", 1, True), "d"),
        (_set("d", 0, False), "d"),
        (_set("terms", 1, "alpha_times_q", 0, False), "terms[1].alpha_times_q"),
        (_set("terms", 0, "coeff", True), "terms[0].coeff"),
    ], ids=["n", "q", "d-denominator", "d-numerator", "alpha", "coeff"])
    def test_polynomial_field(self, edit, field):
        doc = polynomial_to_dict(ld_polynomial(2, 4))
        edit(doc)
        with pytest.raises(SchemaError) as err:
            parse_polynomial(json.dumps(doc))
        assert err.value.field == field

    @pytest.mark.parametrize("edit,field", [
        (_set("n", True), "n"),
        (_set("d", True), "d"),
        (_set("Q", 0, 0, True), "Q"),
    ], ids=["n", "d", "Q"])
    def test_gram_field(self, edit, field):
        doc = {"n": 1, "d": 2, "Q": [[1.0]]}
        edit(doc)
        with pytest.raises(SchemaError) as err:
            parse_gram(json.dumps(doc))
        assert err.value.field == field


class TestGramDocuments:
    def test_round_trip(self):
        gram = GramForm(2, 4, np.array([[1.0, 0.0, 0.7], [0.0, 0.2, 0.0], [0.7, 0.0, 1.0]]))
        assert parse_gram(serialize_gram(gram)) == gram

    def test_asymmetric_names_q_field(self):
        doc = {"n": 2, "d": 2, "Q": [[1.0, 0.5], [0.1, 1.0]]}
        with pytest.raises(SchemaError) as err:
            parse_gram(json.dumps(doc))
        assert err.value.field == "Q"

    def test_document_must_be_an_object(self):
        with pytest.raises(SchemaError) as err:
            parse_gram("[[1.0]]")
        assert err.value.field == "document"

    def test_ragged_matrix(self):
        doc = {"n": 2, "d": 2, "Q": [[1.0, 0.0], [0.0]]}
        with pytest.raises(SchemaError, match="square"):
            parse_gram(json.dumps(doc))

    def test_parse_candidate_dispatch(self):
        gram = GramForm(2, 2, np.eye(2))
        assert isinstance(parse_candidate(serialize_gram(gram)), GramForm)
        poly = ld_polynomial(2, 4)
        assert isinstance(parse_candidate(serialize_polynomial(poly)), GeneralizedPolynomial)


class TestMomentCsv:
    def test_round_trip(self):
        rows = [((0, 0), 3.141592653589793, 0.0), ((4, 0), 0.39269908169872414, 1e-06)]
        text = moment_rows_to_csv(rows)
        assert text.splitlines()[0] == "alpha_times_q;value;std_error"
        assert moment_rows_from_csv(text) == rows

    def test_header_required(self):
        with pytest.raises(SchemaError, match="header"):
            moment_rows_from_csv("alpha;value\n0,0;1.0\n")

    def test_bad_row(self):
        text = "alpha_times_q;value;std_error\n0,0;oops;0.0\n"
        with pytest.raises(SchemaError, match="line 2"):
            moment_rows_from_csv(text)
        with pytest.raises(SchemaError, match="line 3.*3 semicolon-separated fields"):
            moment_rows_from_csv("alpha_times_q;value;std_error\n0,0;1.0;0.0\n2,0;0.5\n")

    @pytest.mark.parametrize("row,message", [
        ("-1,2;0.5;0.0", "negative exponent numerator"),
        ("1,2;nan;0.0", "not finite"),
        ("1,2;0.5;inf", "not finite"),
        ("1,2;-inf;0.0", "not finite"),
        ("-1,2;nan;inf", "negative exponent numerator"),
        ("1,2;0.5;-0.5", "negative std_error -0.5"),
        ("1;0.5;0.0", "1 exponents, but line 2 has 2"),
        ("1,2,0;0.5;0.0", "3 exponents, but line 2 has 2"),
    ])
    def test_impossible_row(self, row, message):
        # float() reads nan and inf, and int() a minus sign, so these parsed before
        text = f"alpha_times_q;value;std_error\n0,0;1.0;0.0\n{row}\n"
        with pytest.raises(SchemaError, match=f"line 3: .*{message}"):
            moment_rows_from_csv(text)
