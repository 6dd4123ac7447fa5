"""Checkable first-order optimality certificates for the extremal problems.

Each certificate is a pure function of (candidate, moment data, tolerance):
it never re-estimates moments, so a verdict is reproducible from its
inputs.  All three optimality systems are statements about the degree-d
moments of the candidate's own ball, so certify(problem, candidate, ...)
makes one pass for every problem: the moment_table of the candidate's
polynomial (a GramForm expanded), and _check runs the certificate against
it; p3 reads its moment matrix from that table, as the sums a + b of the
degree-d/2 basis are the degree-d slice.  A solve runs the same two, with
volume's homogeneity map, _rescaled_moments, between them, so one pass both
brings every solution to its reporting normalization and checks it; this
module scales nothing.
Stochastic moment errors are propagated; a residual only counts as a
violation when it exceeds the tolerance plus three combined standard
errors, otherwise sampling noise would flip verdicts.  A ratio m / m1 of
moments with standard errors sm, sm1 has, to first order, the standard
error hypot(sm, |m| sm1 / |m1|) / |m1|.

* l1 problem: the explicit dual construction from the optimality system.
  With s_alpha = moment(alpha) / moment(d*e_1), the multipliers
  u = max(s, 0), v = max(-s, 0), psi = 1 - |s| are feasible iff every
  |s_alpha| <= 1 (moment dominance), and complementarity forces
  sign(g_alpha) * s_alpha = 1 on the support.
* weighted l2 problem: the coefficient proportionality, in p2's coordinates
  (polynomials._p2_vector), g_alpha = l2 * (n+d)/n * moment(alpha) / volume,
  invariant under rescaling of the candidate, so no volume normalization is needed.
* Gram trace problem: A = I - (n+d) trace(Q) / (n rho_d) * M must be
  positive semidefinite and orthogonal to Q, at volume rho_d exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import jacobi_eigh
from .polynomials import (
    MONOMIAL,
    GeneralizedPolynomial,
    GramForm,
    _check_even_degree,
    _check_integer,
    _flip_invariant,
    _p2_vector,
    _real,
    coefficient_vector,
    enumerate_indices,
    ld_polynomial,
)
from .volume import (
    SPHERICAL,
    MomentMatrix,
    MomentTable,
    VolumeEstimate,
    _hankel_matrix,
    closed_form_ball_volume,
    moment_table,
)

PASS = "pass"
FAIL = "fail"


class CertificatePreconditionError(ValueError):
    """The candidate violates a certificate precondition (e.g. wrong volume)."""


class MomentCoverageError(ValueError):
    """The supplied moment data does not cover the required index set."""


@dataclass(frozen=True)
class Certificate:
    """Structured optimality verdict with residual magnitudes and duals.

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


def _ratio_error(m, sm, m1, sm1):
    """Standard error of m / m1 by first-order propagation, for m1 != 0."""
    return np.hypot(sm, np.abs(m) * sm1 / abs(m1)) / abs(m1)


def _degree_slice(g: GeneralizedPolynomial, moments: MomentTable):
    """(basis, values, errors) of g's degree-d lattice slice in canonical order."""
    if moments.q != g.q:
        raise MomentCoverageError(
            f"moment table lattice q={moments.q} does not match candidate q={g.q}"
        )
    basis = enumerate_indices(g.n, int(g.degree * g.q))
    missing = [a for a in basis if a not in moments.entries]
    if missing:
        raise MomentCoverageError(f"missing moment entries, e.g. {missing[0]}")
    values, errors = np.array([moments.entries[a] for a in basis]).T
    return basis, values, errors


def _ball_volume_residual(n: int, d, est, tol: float) -> tuple[float, float]:
    """(vol(B_d), relative volume residual); raises unless est is at vol(B_d)."""
    rho = closed_form_ball_volume(n, d)
    volume_residual = abs(est.value - rho) / rho
    if volume_residual > tol + 3.0 * est.std_error / rho:
        raise CertificatePreconditionError(
            f"candidate volume {est.value:.6g} is not at vol(B_d) = {rho:.6g} "
            f"within tolerance {tol:g}"
        )
    return rho, volume_residual


def certify_p1(
    g: GeneralizedPolynomial,
    moments: MomentTable,
    tol: float | None = None,
) -> Certificate:
    """Check the l1 optimality system at a candidate normalized to vol(B_d).

    Requires moments for the full degree-d lattice slice of g's index set
    and a volume estimate at vol(B_d) within tolerance.
    """
    tol = _default_tol(moments.normalization.backend, tol)
    basis, values, errors = _degree_slice(g, moments)
    _, volume_residual = _ball_volume_residual(g.n, g.degree, moments.normalization, tol)

    # d * e_1 leads the canonical order
    m1, sm1 = values[0], errors[0]
    if not m1 > 0.0:
        raise CertificatePreconditionError(
            f"axis moment at {basis[0]} is {m1:.6g}, expected positive"
        )
    coeffs = coefficient_vector(g.to_convention(MONOMIAL), basis)
    support = np.abs(coeffs) > tol * np.abs(coeffs).max()

    theta = (g.degree_float / (g.n + g.degree_float)) / m1
    ratios = values / m1
    err = _ratio_error(values, errors, m1, sm1)
    excess = np.abs(ratios) - 1.0
    c, r = coeffs[support], ratios[support]
    gap = np.abs(np.sign(c) * r - 1.0)
    slack = np.abs(c) * np.maximum(0.0, 1.0 - np.abs(r))
    failed = (
        np.any(excess > tol + 3.0 * err)
        or np.any(gap > tol + 3.0 * err[support])
        or np.any(slack > tol + 3.0 * np.abs(c) * err[support])
    )
    residuals = {
        "volume": volume_residual,
        "dominance": max(0.0, float(excess.max())),
        "support_stationarity": float(gap.max(initial=0.0)),
        "complementary_slackness": float(slack.max(initial=0.0)),
    }
    keys = [",".join(map(str, a)) for a in basis]
    duals = {
        "theta": theta,
        "u": dict(zip(keys, np.maximum(0.0, ratios).tolist())),
        "v": dict(zip(keys, np.maximum(0.0, -ratios).tolist())),
        "psi": dict(zip(keys, (1.0 - np.abs(ratios)).tolist())),
    }
    return Certificate("p1_kkt", FAIL if failed else PASS, tol, residuals, duals)


def certify_p2(
    g: GeneralizedPolynomial,
    moments: MomentTable,
    tol: float | None = None,
) -> Certificate:
    """Check the weighted l2 proportionality at a candidate in either convention.

    A q = 1 candidate is read in the multinomial convention (_p2_vector).  The
    characterization is scale invariant (both sides scale linearly in the
    candidate), so the candidate may sit at any volume; the moments must
    simply belong to its own sublevel set.
    """
    tol = _default_tol(moments.normalization.backend, tol)
    basis, values, errors = _degree_slice(g, moments)

    vol = moments.normalization.value
    vol_err = moments.normalization.std_error
    if not vol > 0.0:
        raise CertificatePreconditionError(f"volume estimate {vol:.6g} is not positive")

    coeffs, weights, _ = _p2_vector(g)
    l2_sq = float(weights @ coeffs**2)
    factor = l2_sq * (g.n + g.degree_float) / g.n

    gap = np.abs(coeffs - factor * values / vol)
    allowance = tol + 3.0 * factor * _ratio_error(values, errors, vol, vol_err)
    residuals = {f"g({','.join(map(str, a))})": r for a, r in zip(basis, gap.tolist())}
    residuals["max_coefficient"] = float(gap.max())

    # strict positivity of the flip-invariant coefficients accompanies any optimum
    invariant = _flip_invariant(basis, g.is_classical)
    positivity = float(np.max(-coeffs[invariant], initial=-np.inf))
    residuals["even_coefficient_positivity"] = max(0.0, positivity)
    failed = np.any(gap > allowance) or positivity >= 0.0

    duals = {
        "l2_star": l2_sq,
        "lambda_star": 4.0 * l2_sq * g.degree_float / (g.n * vol),
    }
    return Certificate("p2_moment", FAIL if failed else PASS, tol, residuals, duals)


def certify_p3(
    gram: GramForm,
    mm: MomentMatrix,
    tol: float | None = None,
) -> Certificate:
    """Check the trace-optimality matrix condition at volume vol(B_d).

    Forms A = I - (n+d) trace(Q) / (n rho_d) * M and verifies that A is
    positive semidefinite with <Q, A> = 0, the first-order system of the
    trace-minimization problem.
    """
    tol = _default_tol(mm.normalization.backend, tol)
    if mm.basis != tuple(gram.basis):
        raise MomentCoverageError(f"moment matrix of shape {mm.values.shape} is not on Q's basis")
    n, d = gram.n, float(gram.degree)
    rho, volume_residual = _ball_volume_residual(n, gram.degree, mm.normalization, tol)

    trace = gram.trace
    scale = (n + d) * trace / (n * rho)
    a_matrix = np.eye(len(mm.basis)) - scale * mm.values
    eigenvalues, _ = jacobi_eigh(a_matrix)
    min_eig = float(eigenvalues[0])
    eig_allowance = 3.0 * scale * float(np.linalg.norm(mm.errors))

    inner = float(np.tensordot(gram.Q, a_matrix))
    per_trace = max(1.0, abs(trace))
    compl = abs(inner) / per_trace
    compl_allowance = 3.0 * scale * float(np.linalg.norm(gram.Q * mm.errors)) / per_trace

    ok = (min_eig >= -(tol + eig_allowance)) and (compl <= tol + compl_allowance)
    residuals = {
        "volume": volume_residual,
        "min_eigenvalue": max(0.0, -min_eig),
        "complementarity": compl,
    }
    duals = {
        "lambda": d * trace / (n * rho),
        "psi_spectrum": [float(v) for v in eigenvalues],
    }
    return Certificate("p3_psd", PASS if ok else FAIL, tol, residuals, duals)


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
