"""Canonical JSON and CSV schemas for polynomials, Gram forms and tables.

Polynomial documents:
    {"n": int, "d": [num, den], "q": int, "convention": "monomial"|"multinomial",
     "terms": [{"alpha_times_q": [int, ...], "coeff": float}, ...]}

Gram documents:
    {"n": int, "d": int, "Q": [[float, ...], ...]}
    with row/column order ``enumerate_indices(n, d // 2)``.

Moment tables are exchanged as semicolon CSV with header
``alpha_times_q;value;std_error``; the all-zeros index row carries the
volume.  Serialization is canonical: fixed field order, terms in the
canonical index order, floats via repr so that round trips are exact, so
``region_hash`` can name a region by a hash of its polynomial document.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .polynomials import (
    MONOMIAL,
    MULTINOMIAL,
    GeneralizedPolynomial,
    GramForm,
)


class SchemaError(ValueError):
    """A document violates the schema; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("document", f"malformed JSON: {exc}") from exc


def _is(value, kinds) -> bool:
    """isinstance(value, kinds), but JSON true and false (Python bools, so ints) are no numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _require(doc: dict, field: str, kinds, where: str = ""):
    label = f"{where}{field}"
    if field not in doc:
        raise SchemaError(label, "missing required field")
    value = doc[field]
    if not _is(value, kinds):
        raise SchemaError(label, f"expected {kinds}, got {type(value).__name__}")
    return value


# -- polynomials -------------------------------------------------------------


def polynomial_to_dict(g: GeneralizedPolynomial) -> dict:
    terms = [
        {"alpha_times_q": list(alpha), "coeff": g.terms[alpha]}
        for alpha in sorted(g.terms, reverse=True)
    ]
    return {
        "n": g.n,
        "d": [g.degree.numerator, g.degree.denominator],
        "q": g.q,
        "convention": g.convention,
        "terms": terms,
    }


def polynomial_from_dict(doc: dict) -> GeneralizedPolynomial:
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    n = _require(doc, "n", int)
    d_pair = _require(doc, "d", list)
    if len(d_pair) != 2 or not all(_is(v, int) for v in d_pair):
        raise SchemaError("d", "expected a [numerator, denominator] pair of integers")
    if d_pair[1] == 0:
        raise SchemaError("d", "zero denominator")
    degree = Fraction(d_pair[0], d_pair[1])
    q = _require(doc, "q", int)
    convention = _require(doc, "convention", str)
    if convention not in (MONOMIAL, MULTINOMIAL):
        raise SchemaError("convention", f"unknown convention {convention!r}")
    raw_terms = _require(doc, "terms", list)
    terms = {}
    for k, entry in enumerate(raw_terms):
        where = f"terms[{k}]."
        if not isinstance(entry, dict):
            raise SchemaError(f"terms[{k}]", "expected an object")
        alpha = _require(entry, "alpha_times_q", list, where)
        if not all(_is(a, int) and a >= 0 for a in alpha):
            raise SchemaError(where + "alpha_times_q", "expected non-negative integers")
        coeff = _require(entry, "coeff", (int, float), where)
        key = tuple(alpha)
        if key in terms:
            raise SchemaError(where + "alpha_times_q", f"duplicate exponent {key}")
        terms[key] = float(coeff)
    try:
        return GeneralizedPolynomial(n, degree, q, terms, convention)
    except ValueError as exc:
        message = str(exc)
        field = "terms" if "exponent" in message else "document"
        if "sums to" in message:
            raise SchemaError("terms.alpha_times_q", f"degree mismatch: {message}") from exc
        raise SchemaError(field, message) from exc


def serialize_polynomial(g: GeneralizedPolynomial) -> str:
    return json.dumps(polynomial_to_dict(g))


def parse_polynomial(text: str) -> GeneralizedPolynomial:
    return polynomial_from_dict(_load_json(text))


def region_hash(g: GeneralizedPolynomial) -> str:
    """Content hash of the defining polynomial (canonical JSON)."""
    import hashlib  # only `moments --format json` hashes; the other commands skip its import

    return hashlib.sha256(serialize_polynomial(g).encode()).hexdigest()[:16]


# -- Gram forms ---------------------------------------------------------------


def gram_to_dict(gram: GramForm) -> dict:
    return {
        "n": gram.n,
        "d": gram.degree,
        "Q": [[float(v) for v in row] for row in np.asarray(gram.Q)],
    }


def gram_from_dict(doc: dict) -> GramForm:
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    n = _require(doc, "n", int)
    degree = _require(doc, "d", int)
    rows = _require(doc, "Q", list)
    if not rows or not all(isinstance(r, list) and len(r) == len(rows) for r in rows):
        raise SchemaError("Q", "expected a square matrix of numbers")
    for r in rows:
        if not all(_is(v, (int, float)) for v in r):
            raise SchemaError("Q", "expected a square matrix of numbers")
    try:
        return GramForm(n, degree, np.array(rows, dtype=float))
    except ValueError as exc:
        raise SchemaError("Q", str(exc)) from exc


def serialize_gram(gram: GramForm) -> str:
    return json.dumps(gram_to_dict(gram))


def parse_gram(text: str) -> GramForm:
    return gram_from_dict(_load_json(text))


def parse_candidate(text: str) -> GeneralizedPolynomial | GramForm:
    """Parse either schema, dispatching on the presence of a Q field."""
    doc = _load_json(text)
    if isinstance(doc, dict) and "Q" in doc:
        return gram_from_dict(doc)
    return polynomial_from_dict(doc)


# -- moment table CSV ---------------------------------------------------------

MOMENT_CSV_HEADER = "alpha_times_q;value;std_error"


def moment_rows_to_csv(rows) -> str:
    """Rows are (alpha_numerators, value, std_error) triples."""
    lines = [MOMENT_CSV_HEADER]
    for alpha, value, err in rows:
        lines.append(f"{','.join(str(a) for a in alpha)};{float(value)!r};{float(err)!r}")
    return "\n".join(lines) + "\n"


def moment_rows_from_csv(text: str) -> list[tuple[tuple[int, ...], float, float]]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != MOMENT_CSV_HEADER:
        raise SchemaError("header", f"expected {MOMENT_CSV_HEADER!r}")
    rows = []
    for k, line in enumerate(lines[1:], start=2):
        parts = line.split(";")
        if len(parts) != 3:
            raise SchemaError(f"line {k}", "expected 3 semicolon-separated fields")
        try:
            alpha = tuple(int(a) for a in parts[0].split(","))
            value, error = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise SchemaError(f"line {k}", str(exc)) from exc
        if min(alpha) < 0:
            raise SchemaError(f"line {k}", f"negative exponent numerator in {alpha}")
        if not (math.isfinite(value) and math.isfinite(error)):
            raise SchemaError(f"line {k}", f"value {value} or std_error {error} is not finite")
        if error < 0:
            raise SchemaError(f"line {k}", f"negative std_error {error}")
        if rows and len(alpha) != len(rows[0][0]):
            width = len(rows[0][0])
            raise SchemaError(f"line {k}", f"{len(alpha)} exponents, but line 2 has {width}")
        rows.append((alpha, value, error))
    return rows
