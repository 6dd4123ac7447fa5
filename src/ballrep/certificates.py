"""Checkable first-order optimality certificates for the extremal problems.

Each problem minimizes the volume of {g <= 1}, convex in solver coordinates
x that g's degree-d slice is linear in, over a ball {N(x) <= r}: N is the
coefficient l1 norm for p1 and p1q, the l2 norm of the whitened
coefficients (polynomials._p2_layout) for p2, the trace on the PSD cone for
p3.  _geometry is the one home of each problem's coordinates, norm and dual
norm N*, and the solvers read it too.  The volume gradient is -(n+d)/d Pm,
m the degree-d moments of g's ball and P, the pullback, the adjoint of the
coefficient map x -> c(x).  So x is optimal iff <Pm, x> = N*(Pm) N(x),
Fenchel-Young's equality, and one scalar decides all three problems:

    rho = N*(Pm) N(x) / <Pm, x> - 1 >= 0.

By Euler's identity <Pm, x> = <m, c(x)> is n/(n+d) vol on every radial
rule, so rho is scale free: a candidate may sit at any volume.  The
Frank-Wolfe gap is (n/d) vol rho, so by convexity the objective is within a
factor (1 - (n/d) rho)**(-d/n) of the optimum's on the same rule (squared
for p2, whose objective is N(x)**2).  p2's rho is second order in the angle
|x/N(x) - s|, s the maximizer of N*, so p2's verdict reads the angle; p3's
also needs Q in the PSD cone.

Each certificate is a pure function of (candidate, moment data, tolerance),
so a verdict is reproducible from its inputs.  certify makes one pass for
every problem, the moment_table of the candidate's polynomial (a GramForm
expanded), and _check runs the certificate against it; p3 reads its moment
matrix from that table.  A solve runs the same two, with volume's
homogeneity map, _rescaled_moments, between them.  A residual fails only
beyond the tolerance plus three of its standard errors, propagated to first
order from the table's (taken as independent): rho's gradient in m is
(N(x) c(s) - (1 + rho) c(x)) / <Pm, x>, and the angle moves by at most
|P dm| / N*(Pm).  Spherical and closed-form tables carry no error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jacobi import jacobi_eigh
from .polynomials import (
    MONOMIAL,
    GeneralizedPolynomial,
    GramForm,
    _check_even_degree,
    _check_integer,
    _hankel_layout,
    _p2_layout,
    _p2_vector,
    _real,
    coefficient_vector,
    enumerate_indices,
    from_coefficient_vector,
    ld_polynomial,
)
from .volume import (
    SPHERICAL,
    MomentMatrix,
    MomentTable,
    VolumeEstimate,
    _hankel_matrix,
    moment_table,
)

PASS = "pass"
FAIL = "fail"


class CertificatePreconditionError(ValueError):
    """The moment data cannot be the candidate's: <Pm, x> is not positive."""


class MomentCoverageError(ValueError):
    """The supplied moment data does not cover the required index set."""


@dataclass(frozen=True)
class Certificate:
    """Structured optimality verdict with residual magnitudes and duals.

    residuals holds ``gap``, the normalized duality gap rho floored at 0;
    p2 adds ``angle``, which its verdict reads, and p3 ``psd``,
    max(0, -lambda_min(Q)) / sum |lambda(Q)|.  duals holds
    ``objective_excess_bound``, the bound rho gives on objective / optimum
    - 1 on the certificate's rule (None at (n/d) rho >= 1, which bounds
    nothing), and p3 adds ``psi_spectrum``, the ascending spectrum of
    A = I - trace(Q) / <M, Q> M, whose minimum is -rho.

    ``ballrep certify`` prints these fields as they are, in this order,
    without a None-valued one, so every field must stay a plain JSON value
    (or a dataclass of them).
    """

    kind: str
    verdict: str
    tolerance: float
    residuals: dict[str, float]
    duals: dict[str, object]

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def _default_tol(backend: str, tol: float | None, name: str = "certificate tolerance") -> float:
    """tol as a float, or the backend's default for None; a finite real >= 0, never a bool."""
    if tol is None:
        return 1e-6 if backend == SPHERICAL else 1e-2
    out = _real(tol)
    if not 0 <= out < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    return out


@dataclass(frozen=True)
class _Geometry:
    """One problem's solver coordinates x, linear in the candidate.

    make(x) builds the candidate and coords(candidate) is its inverse;
    coefficients(x) is the monomial coefficient vector c(x) of the degree-d
    slice in canonical order, and pullback, its adjoint, maps the slice's
    moments m to Pm.  objective(x) = N(x)**power is the problem's objective,
    and dual(y) = (N*(y), s), s maximizing <y, s> over N(s) <= 1: the
    subgradient of N* at y.
    """

    make: Callable
    coords: Callable
    coefficients: Callable
    pullback: Callable
    objective: Callable
    power: int
    dual: Callable


def _geometry(problem: str, n: int, d, q: int = 1) -> _Geometry:
    """The geometry of p1 (p1q for q > 1), p2 or p3 at (n, d, q)."""
    total = int(d * q)
    if problem == "p3":
        _, _, index = _hankel_layout(n, total // 2)

        def top_eigenpair(mat):
            values, vectors = jacobi_eigh(mat)
            return max(0.0, float(values[-1])), np.outer(vectors[:, -1], vectors[:, -1])

        # expand_gram adds Q[a, b] into the coefficient at a + b, so its
        # transpose gathers the moment at a + b into entry (a, b)
        return _Geometry(make=lambda mat: GramForm(n, d, mat),
                         coords=lambda gram: np.asarray(gram.Q, dtype=float),
                         coefficients=lambda mat: np.bincount(index.ravel(), weights=mat.ravel()),
                         pullback=lambda m: m[index], objective=lambda mat: float(np.trace(mat)),
                         power=1, dual=top_eigenpair)
    basis = enumerate_indices(n, total)
    if problem == "p1":
        def l_inf(y):
            j = np.argmax(np.abs(y))
            return float(abs(y[j])), np.sign(y[j]) * (np.arange(len(y)) == j)

        return _Geometry(make=lambda vec: from_coefficient_vector(n, d, q, basis, vec, MONOMIAL),
                         coords=lambda g: coefficient_vector(g.to_convention(MONOMIAL), basis),
                         coefficients=lambda vec: vec, pullback=lambda m: m,
                         objective=lambda vec: float(np.abs(vec).sum()), power=1, dual=l_inf)
    weights, convention = _p2_layout(n, total, q)
    root_w = np.sqrt(weights)

    def l2(y):
        size = float(np.linalg.norm(y))
        return size, y / size

    # u = sqrt(w) a: the monomial coefficient w a is sqrt(w) u
    return _Geometry(make=lambda u: from_coefficient_vector(n, d, q, basis, u / root_w, convention),
                     coords=lambda g: _p2_vector(g)[0] * root_w,
                     coefficients=lambda u: u * root_w, pullback=lambda m: m * root_w,
                     objective=lambda u: float(np.dot(u, u)), power=2, dual=l2)


_KINDS = {"p1": "p1_kkt", "p2": "p2_moment", "p3": "p3_psd"}


def _gap_certificate(problem: str, candidate, m, sm, backend: str,
                     tol: float | None) -> Certificate:
    """The one check: candidate against the slice moments m of its ball, with errors sm."""
    tol = _default_tol(backend, tol)
    n, d = candidate.n, float(candidate.degree)
    geo = _geometry(problem, n, candidate.degree, getattr(candidate, "q", 1))
    x, y = geo.coords(candidate), geo.pullback(m)
    inner = float(np.vdot(y, x))  # <m, c(x)> = n/(n+d) vol, by Euler's identity
    if not inner > 0.0:
        raise CertificatePreconditionError(
            f"<Pm, x> = {inner:.6g} is not positive: these are not the moments of the "
            "candidate's ball")
    size = geo.objective(x) ** (1.0 / geo.power)
    dual, s = geo.dual(y)
    rho = dual * size / inner - 1.0
    slope = (size * geo.coefficients(s) - (1.0 + rho) * geo.coefficients(x)) / inner
    score, sigma = rho, float(np.linalg.norm(slope * sm))
    gap = max(0.0, rho)
    shrink = 1.0 - n / d * gap
    residuals = {"gap": gap}
    duals = {"objective_excess_bound":
             shrink ** (-geo.power * d / n) - 1.0 if shrink > 0.0 else None}
    if problem == "p2":  # the angle, first order where rho is second
        score = residuals["angle"] = float(np.linalg.norm(x / size - s))
        sigma = float(np.linalg.norm(geo.pullback(sm))) / dual
    failed = score > tol + 3.0 * sigma
    if problem == "p3":
        spectrum = jacobi_eigh(x)[0]
        residuals["psd"] = max(0.0, -float(spectrum[0])) / float(np.abs(spectrum).sum())
        duals["psi_spectrum"] = jacobi_eigh(np.eye(len(x)) - (size / inner) * y)[0].tolist()
        failed = failed or residuals["psd"] > tol
    return Certificate(_KINDS[problem], FAIL if failed else PASS, tol, residuals, duals)


def _degree_slice(g: GeneralizedPolynomial, moments: MomentTable):
    """(values, errors) of g's degree-d lattice slice in canonical order."""
    if moments.q != g.q:
        raise MomentCoverageError(
            f"moment table lattice q={moments.q} does not match candidate q={g.q}"
        )
    basis = enumerate_indices(g.n, int(g.degree * g.q))
    missing = [a for a in basis if a not in moments.entries]
    if missing:
        raise MomentCoverageError(f"missing moment entries, e.g. {missing[0]}")
    values, errors = np.array([moments.entries[a] for a in basis]).T
    return values, errors


def certify_p1(g: GeneralizedPolynomial, moments: MomentTable,
               tol: float | None = None) -> Certificate:
    """The l1 certificate of a p1 or p1q candidate against its ball's degree-d moments.

    N* is the max norm: g is optimal iff no moment exceeds max |m| and each
    nonzero coefficient sits where |m_alpha| attains it, with m_alpha's sign.
    """
    values, errors = _degree_slice(g, moments)
    return _gap_certificate("p1", g, values, errors, moments.normalization.backend, tol)


def certify_p2(g: GeneralizedPolynomial, moments: MomentTable,
               tol: float | None = None) -> Certificate:
    """The weighted l2 certificate of a candidate against its ball's degree-d moments.

    g is optimal iff its coefficients in p2's convention are proportional to
    the moments; a q = 1 candidate is read in the multinomial convention,
    whichever it is stored in.
    """
    values, errors = _degree_slice(g, moments)
    return _gap_certificate("p2", g, values, errors, moments.normalization.backend, tol)


def certify_p3(gram: GramForm, mm: MomentMatrix, tol: float | None = None) -> Certificate:
    """The Gram trace certificate of Q against its ball's moment matrix M.

    N* is max(0, lambda_max(M)): Q is optimal iff it is PSD and lives on the
    top eigenspace of M, that is iff A = I - trace(Q) / <M, Q> M is PSD with
    <Q, A> = 0.
    """
    if mm.basis != tuple(gram.basis):
        raise MomentCoverageError(f"moment matrix of shape {mm.values.shape} is not on Q's basis")
    index = _hankel_layout(gram.n, gram.degree // 2)[2].ravel()
    first = np.unique(index, return_index=True)[1]  # where M holds each moment of the slice
    return _gap_certificate("p3", gram, mm.values.ravel()[first],
                            mm.errors.ravel()[first], mm.normalization.backend, tol)


def _check_candidate(problem: str, candidate) -> None:
    """Raise ValueError unless candidate is a GramForm for p3, a polynomial otherwise."""
    expected = GramForm if problem == "p3" else GeneralizedPolynomial
    if not isinstance(candidate, expected):
        raise ValueError(f"{problem} candidates must be a {expected.__name__}")


def _check(problem: str, candidate, table: MomentTable, tol: float | None) -> Certificate:
    """The certificate of ``problem`` at candidate against its degree-d moment table.

    p3 reads the moment matrix over the degree-d/2 basis from the table.
    """
    if problem == "p3":
        return certify_p3(candidate, _hankel_matrix(table, candidate.degree // 2), tol)
    return (certify_p1 if problem == "p1" else certify_p2)(candidate, table, tol)


def certify(problem: str, candidate: GeneralizedPolynomial | GramForm, backend: str = SPHERICAL,
            budget: int | None = None, seed: int = 0,
            tol: float | None = None) -> tuple[Certificate, VolumeEstimate]:
    """Estimate the degree-d moments of candidate's ball, then check ``problem``.

    One pass for every problem: the default moment_table of candidate's
    polynomial (a GramForm expanded; backend, budget and seed default as in
    every estimator), then _check.  A solve makes the same pass and check,
    with volume's homogeneity map _rescaled_moments between them.  Returns the
    certificate and the volume estimate of the one pass.
    """
    if problem not in ("p1", "p2", "p3"):
        raise ValueError(f"unknown problem {problem!r}; choose p1, p2 or p3")
    _check_candidate(problem, candidate)
    tol = _default_tol(backend, tol)  # rejects a bad input before the moment pass
    table = moment_table(candidate.expand(), backend=backend, budget=budget, seed=seed)
    return _check(problem, candidate, table, tol), table.normalization


@dataclass(frozen=True)
class RefutationReport:
    """Outcome of testing the axis-power Gram form against the trace certificate."""

    gram: GramForm
    certificate: Certificate
    min_eigenvalue: float


def minimal_trace_axis_gram(n: int, d: int) -> GramForm:
    """The minimal-trace Gram form of sum_i x_i**d: diagonal, trace n.

    The only PSD representations of the axis-power polynomial put weight 1
    on each pure power x_i**(d/2) and adjust off-diagonal pairs against the
    middle diagonal; trace is minimized by the plain diagonal.
    """
    d = _check_even_degree(d, "the axis-power Gram form")
    diag = coefficient_vector(ld_polynomial(n, d // 2), enumerate_indices(n, d // 2))
    return GramForm(n, d, np.diag(diag))


def refute_ld_for_p3(
    n: int,
    d: int,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
    tol: float | None = None,
) -> RefutationReport:
    """Show the axis-power ball cannot minimize the Gram trace for n >= 2 and d >= 4.

    Builds the minimal-trace Gram of sum_i x_i**d, runs the trace
    certificate against the moment matrix of B_d, and reports the negative
    eigenvalue that witnesses the failure: the cross moment puts a nonzero
    off-diagonal entry next to a zero diagonal in A.
    """
    if _check_even_degree(d, "the axis-power Gram form") == 2:
        raise ValueError(
            "not applicable at d = 2: the quadratic identity Gram satisfies the "
            "trace certificate, so there is nothing to refute"
        )
    if _check_integer(n, "dimension", 1) == 1:
        raise ValueError("not applicable at n = 1: x**d is the only form of degree d")
    gram = minimal_trace_axis_gram(n, d)
    certificate, _ = certify("p3", gram, backend, budget, seed, tol)
    spectrum = certificate.duals["psi_spectrum"]
    return RefutationReport(gram, certificate, float(min(spectrum)))
