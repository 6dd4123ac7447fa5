"""Sparse homogeneous and generalized polynomials on rational exponent lattices.

A polynomial of positive rational degree d in n variables is stored as a
sparse map from exponent numerators (integer tuples) to real coefficients.
All exponents share one lattice denominator q, so the exponent of x_i in a
term keyed by ``alpha`` is ``alpha[i] / q``.  Ordinary homogeneous
polynomials are the special case q = 1 with d an even integer; they are
evaluated with signed powers x**alpha.  Every other case is a generalized
polynomial evaluated with |x|**alpha, positively homogeneous of degree d.

Every evaluation goes through one monomial kernel, ``monomials``: integer
powers of one base per lattice (x when classical, |x|**(1/q) otherwise) over
an exponent matrix and coefficient vector precomputed at construction.  The
kernel builds a large call in cache-sized chunks of points.

Two coefficient conventions are supported.  In the monomial convention the
stored coefficient multiplies x**alpha directly.  In the multinomial
convention (q = 1 only) the stored coefficient g_alpha belongs to the term
c_alpha * g_alpha * x**alpha with c_alpha = d! / (alpha_1! ... alpha_n!),
the natural coordinates for the weighted norm sum(c_alpha * g_alpha**2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

MONOMIAL = "monomial"
MULTINOMIAL = "multinomial"

Exponent = tuple[int, ...]

_KERNEL_ENTRIES = 1 << 16  # most output entries (512 KB of float64) one kernel chunk builds


def enumerate_indices(n: int, total: int) -> list[Exponent]:
    """All length-n tuples of non-negative integers summing to ``total``.

    The order is graded lexicographic, descending on the numerators, e.g.
    (4,0) > (3,1) > (2,2) > (1,3) > (0,4).  This is the canonical basis
    order used everywhere (coefficient vectors, Gram matrices, CSV rows).
    On a lattice with denominator q the tuple ``alpha`` stands for the
    exponent vector ``alpha / q`` of total degree ``total / q``.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if total < 0:
        raise ValueError(f"total degree numerator must be >= 0, got {total}")
    return list(_indices(n, total))


@functools.lru_cache(maxsize=256)
def _indices(n: int, total: int) -> tuple[Exponent, ...]:
    if n == 1:
        return ((total,),)
    return tuple(
        (head,) + tail for head in range(total, -1, -1) for tail in _indices(n - 1, total - head)
    )


def count_indices(n: int, total: int) -> int:
    """Stars-and-bars count C(n - 1 + total, total) of enumerate_indices."""
    return math.comb(n - 1 + total, total)


def monomials(base, exponents) -> np.ndarray:
    """Monomials prod_i base[:, i] ** exponents[t, i], shape (T, N), at N points (N, n).

    The integer powers of each variable come from a power table built by
    repeated multiplication, so 0**0 = 1 and signed bases keep their signs;
    one table buffer serves every variable in turn.  A call whose T * N
    output entries pass _KERNEL_ENTRIES is built in chunks of points of at
    most that many entries each.  A whole call's power table and gathered
    rows would be temporaries of megabytes, fresh pages faulted in on every
    call and streamed through memory once per variable; a chunk's are small
    enough to stay in cache and for the allocator to reuse.  Each output
    column comes from the same multiplications whatever the chunk, so the
    chunking never shows in an answer.
    """
    base = np.asarray(base, dtype=float)
    step = max(1, _KERNEL_ENTRIES // max(1, len(exponents)))
    if len(base) <= step:
        return _monomial_chunk(base.T, exponents)
    out = np.empty((len(exponents), len(base)))
    for lo in range(0, len(base), step):
        out[:, lo : lo + step] = _monomial_chunk(base[lo : lo + step].T, exponents)
    return out


def _monomial_chunk(columns: np.ndarray, exponents) -> np.ndarray:
    """monomials at the points whose coordinates are the rows of ``columns`` (n, N)."""
    table = np.empty((int(exponents.max(initial=0)) + 1, columns.shape[1]))
    table[0] = 1.0
    for i, column in enumerate(columns):
        for p in range(1, len(table)):
            np.multiply(table[p - 1], column, out=table[p])
        if i == 0:
            out = table[exponents[:, 0]]
        else:
            out *= table[exponents[:, i]]
    return out


def _flip_invariant(alphas, classical: bool) -> np.ndarray:
    """Mask of the rows alpha of alphas whose monomial every sign flip x_i -> -x_i keeps.

    All of them for a generalized polynomial, which is evaluated at |x|; the
    all-even ones for a classical one.
    """
    return ~(np.asarray(alphas, dtype=np.intp) % 2).any(axis=-1) | (not classical)


def multinomial_coefficient(alpha: Iterable[int]) -> int:
    """c_alpha = (sum alpha)! / (alpha_1! ... alpha_n!) for integer exponents."""
    return _multinomial(tuple(alpha))


@functools.lru_cache(maxsize=64)
def _slice_weights(n: int, total: int, q: int) -> np.ndarray:
    """c_alpha if q = 1, else ones, over the degree-d slice (total = d * q) in canonical order."""
    weights = np.array([float(_multinomial(a)) if q == 1 else 1.0
                        for a in enumerate_indices(n, total)])
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=4096)
def _multinomial(alpha: tuple) -> int:
    parts = tuple(int(a) for a in alpha)
    if any(a < 0 for a in parts):
        raise ValueError(f"negative exponent in {parts}")
    out = math.factorial(sum(parts))
    for a in parts:
        out //= math.factorial(a)
    return out


@dataclass(frozen=True)
class NormReport:
    """Coefficient norms of one polynomial or Gram form.

    l0 and l1 are taken over monomial-convention coefficients,
    l2_weighted_sq is sum(c_alpha * g_alpha**2) over multinomial-convention
    coefficients (None when q != 1, where the weights are undefined), and
    trace is the Gram trace (None for plain polynomials).
    """

    l0: int
    l1: float
    l2_weighted_sq: float | None = None
    trace: float | None = None


class _Terms(dict):
    """A polynomial's terms: a dict that refuses changes, yet copies and pickles as one."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a polynomial's terms are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _Terms, (dict(self),)


@dataclass(frozen=True)
class GeneralizedPolynomial:
    """Finite sum of terms coeff * x**(alpha/q) with all alpha/q summing to d."""

    n: int
    degree: Fraction
    q: int = 1
    terms: Mapping[Exponent, float] = field(default_factory=dict)
    convention: str = MONOMIAL

    def __post_init__(self):
        degree = Fraction(self.degree)
        object.__setattr__(self, "degree", degree)
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.q < 1:
            raise ValueError(f"lattice denominator must be >= 1, got {self.q}")
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        if self.convention not in (MONOMIAL, MULTINOMIAL):
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.convention == MULTINOMIAL and self.q != 1:
            raise ValueError("multinomial convention is only defined for q = 1")
        target = degree * self.q
        if target.denominator != 1:
            raise ValueError(f"degree {degree} does not lie on the 1/{self.q} lattice")
        target = int(target)
        clean: dict[Exponent, float] = {}
        for alpha, coeff in self.terms.items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != self.n:
                raise ValueError(f"exponent {alpha} has length != n = {self.n}")
            if min(alpha) < 0:
                raise ValueError(f"negative exponent numerator in {alpha}")
            if sum(alpha) != target:
                raise ValueError(
                    f"exponent {alpha} sums to {sum(alpha)}, expected d*q = {target}"
                )
            clean[alpha] = float(coeff)
            if not math.isfinite(clean[alpha]):
                raise ValueError(f"coefficient {coeff} of exponent {alpha} is not finite")
        # read-only: instances are shared freely across workers
        object.__setattr__(self, "terms", _Terms(clean))
        # kernel data outside the dataclass fields: exponent matrix A and the
        # monomial-convention coefficients c of the nonzero terms, plus the
        # structure flags the moment backends ask for on every call
        keys = np.array(list(clean), dtype=np.intp).reshape(len(clean), self.n)
        values = np.fromiter(clean.values(), dtype=float, count=len(clean))
        live = values != 0.0
        exponents, coeffs = keys[live], values[live]
        if self.convention == MULTINOMIAL:
            coeffs *= [float(multinomial_coefficient(a)) for a in exponents.tolist()]
        for name, value in (("_exponents", exponents), ("_coeffs", coeffs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_classical", self.q == 1 and target % 2 == 0)
        object.__setattr__(self, "_even_support", not (exponents % 2).any())

    # -- structure ---------------------------------------------------------

    @property
    def is_classical(self) -> bool:
        """True when this is an ordinary homogeneous polynomial of even degree."""
        return self._classical

    @property
    def degree_float(self) -> float:
        return float(self.degree)

    def support(self, cutoff: float = 0.0) -> list[Exponent]:
        """Exponents whose coefficient magnitude exceeds ``cutoff``, canonical order."""
        keys = [a for a, c in self.terms.items() if abs(c) > cutoff]
        return sorted(keys, reverse=True)

    def has_even_support(self) -> bool:
        """True when every exponent numerator of a nonzero term is even.

        For classical polynomials this makes the sublevel set invariant
        under per-coordinate sign flips, which zeroes every moment with an
        odd exponent exactly; a stored zero coefficient does not break it.
        """
        return self._even_support

    @property
    def sign_symmetric(self) -> bool:
        """True when every sign flip x_i -> -x_i leaves g unchanged: each term is _flip_invariant.

        Every generalized polynomial is; a classical one needs even support.
        """
        return not self._classical or self._even_support

    # -- algebra -----------------------------------------------------------

    def monomial_coefficient(self, alpha: Exponent) -> float:
        """Coefficient of x**(alpha/q) in the monomial convention."""
        coeff = self.terms.get(tuple(alpha), 0.0)
        if self.convention == MULTINOMIAL:
            coeff *= multinomial_coefficient(alpha)
        return coeff

    def to_convention(self, convention: str) -> "GeneralizedPolynomial":
        if convention == self.convention:
            return self
        if self.q != 1:
            raise ValueError("convention changes are only defined for q = 1")
        if convention == MONOMIAL:
            terms = {a: c * multinomial_coefficient(a) for a, c in self.terms.items()}
        elif convention == MULTINOMIAL:
            terms = {a: c / multinomial_coefficient(a) for a, c in self.terms.items()}
        else:
            raise ValueError(f"unknown convention {convention!r}")
        return GeneralizedPolynomial(self.n, self.degree, self.q, terms, convention)

    def rescale(self, lam: float) -> "GeneralizedPolynomial":
        """Multiply every coefficient by lam > 0 (degree and lattice unchanged)."""
        if not lam > 0:
            raise ValueError(f"scale factor must be positive, got {lam}")
        terms = {a: lam * c for a, c in self.terms.items()}
        return GeneralizedPolynomial(self.n, self.degree, self.q, terms, self.convention)

    def lattice_base(self, x) -> np.ndarray:
        """x if classical, else |x|**(1/q): the base whose integer powers A give x**(A/q)."""
        return x if self._classical else np.abs(x) ** (1.0 / self.q)

    def evaluate(self, x) -> float | np.ndarray:
        """Evaluate at one point of shape (n,) or a batch of shape (..., n).

        Classical polynomials use signed powers, all other cases use
        |x|**alpha.  0**0 is taken to be 1, so boundary axes need no
        special casing.
        """
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1] != self.n:
            raise ValueError(f"point has dimension {arr.shape[-1]}, expected {self.n}")
        flat = arr.reshape(-1, self.n)
        out = self._coeffs @ monomials(self.lattice_base(flat), self._exponents)
        if arr.ndim == 1:
            return float(out[0])
        return out.reshape(arr.shape[:-1])

    def __call__(self, x):
        return self.evaluate(x)


def ld_polynomial(n: int, degree, q: int = 1, convention: str = MONOMIAL) -> GeneralizedPolynomial:
    """The axis-power polynomial sum_i |x_i|**d on the lattice with denominator q."""
    degree = Fraction(degree)
    total = int(degree * q)  # off the lattice, GeneralizedPolynomial raises before it reads a term
    terms: dict[Exponent, float] = {}
    for i in range(n):
        alpha = [0] * n
        alpha[i] = total
        terms[tuple(alpha)] = 1.0
    return GeneralizedPolynomial(n, degree, q, terms, convention)


def from_coefficient_vector(
    n: int,
    degree,
    q: int,
    basis: Iterable[Exponent],
    coefficients,
    convention: str = MONOMIAL,
) -> GeneralizedPolynomial:
    """Build a polynomial from an ordered basis and a coefficient vector."""
    basis = [tuple(a) for a in basis]
    vec = np.asarray(coefficients, dtype=float)
    if vec.shape != (len(basis),):
        raise ValueError(f"coefficient vector has shape {vec.shape}, expected ({len(basis)},)")
    terms = {a: float(c) for a, c in zip(basis, vec)}
    return GeneralizedPolynomial(n, Fraction(degree), q, terms, convention)


def coefficient_vector(g: GeneralizedPolynomial, basis: Iterable[Exponent]) -> np.ndarray:
    """Coefficients of g on an ordered basis (missing entries are 0)."""
    return np.array([g.terms.get(tuple(a), 0.0) for a in basis], dtype=float)


@dataclass(frozen=True, eq=False)
class GramForm:
    """Symmetric matrix Q defining g_Q(x) = v(x)^T Q v(x).

    v(x) is the vector of degree d/2 monomials ordered by
    ``enumerate_indices(n, d // 2)``, so g_Q is homogeneous of even degree d.
    """

    n: int
    degree: int
    Q: np.ndarray

    _SYMMETRY_RTOL = 1e-12

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.degree < 2 or self.degree % 2 != 0:
            raise ValueError(f"Gram degree must be an even integer >= 2, got {self.degree}")
        Q = np.array(self.Q, dtype=float)
        size = count_indices(self.n, self.degree // 2)
        if Q.shape != (size, size):
            raise ValueError(f"Q has shape {Q.shape}, expected ({size}, {size})")
        if not np.isfinite(Q).all():
            raise ValueError("Q has an entry that is not finite")
        scale = max(1.0, float(np.abs(Q).max()))
        if np.abs(Q - Q.T).max() > self._SYMMETRY_RTOL * scale:
            raise ValueError("Q is not symmetric within 1e-12 relative tolerance")
        Q = 0.5 * (Q + Q.T)
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)

    @property
    def basis(self) -> list[Exponent]:
        return enumerate_indices(self.n, self.degree // 2)

    @property
    def trace(self) -> float:
        return float(np.trace(self.Q))

    def rescale(self, lam: float) -> "GramForm":
        if not lam > 0:
            raise ValueError(f"scale factor must be positive, got {lam}")
        return GramForm(self.n, self.degree, lam * np.asarray(self.Q))

    def expand(self) -> GeneralizedPolynomial:
        return expand_gram(self)

    def evaluate(self, x) -> float | np.ndarray:
        return self.expand().evaluate(x)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GramForm)
            and self.n == other.n
            and self.degree == other.degree
            and np.array_equal(self.Q, other.Q)
        )


def expand_gram(gram: GramForm) -> GeneralizedPolynomial:
    """Expand v(x)^T Q v(x) into a monomial-convention polynomial.

    The coefficient of x**gamma is the sum of Q[a, b] over ordered index
    pairs with a + b = gamma.
    """
    _, gammas, index = _hankel_layout(gram.n, gram.degree // 2)
    coeffs = np.bincount(index.ravel(), weights=gram.Q.ravel(), minlength=len(gammas))
    terms = {gamma: c for gamma, c in zip(gammas, coeffs.tolist()) if c != 0.0}
    return GeneralizedPolynomial(gram.n, Fraction(gram.degree), 1, terms, MONOMIAL)


@functools.lru_cache(maxsize=64)
def _hankel_layout(n: int, half_degree: int):
    """Basis, distinct sums a + b (descending) and the (a, b) -> sum index matrix.

    The index matrix is the one Gram layout: it maps a Gram matrix onto the
    coefficients of its expansion, and a moment vector onto a moment matrix.
    """
    basis = tuple(enumerate_indices(n, half_degree))
    keys = [tuple(x + y for x, y in zip(a, b)) for a in basis for b in basis]
    gammas = sorted(set(keys), reverse=True)
    where = {key: i for i, key in enumerate(gammas)}
    index = np.array([where[key] for key in keys]).reshape(len(basis), len(basis))
    index.setflags(write=False)
    return basis, tuple(gammas), index


def norms(obj: GeneralizedPolynomial | GramForm) -> NormReport:
    """NormReport of a polynomial or a Gram form (see NormReport docs)."""
    if isinstance(obj, GramForm):
        report = norms(obj.expand())
        return NormReport(report.l0, report.l1, report.l2_weighted_sq, obj.trace)
    mono = obj.to_convention(MONOMIAL) if obj.q == 1 else obj
    values = list(mono.terms.values())
    l0 = sum(1 for c in values if c != 0.0)
    l1 = float(sum(abs(c) for c in values))
    l2 = None
    if obj.q == 1:
        multi = obj.to_convention(MULTINOMIAL)
        l2 = float(
            sum(multinomial_coefficient(a) * c * c for a, c in multi.terms.items())
        )
    return NormReport(l0, l1, l2, None)
