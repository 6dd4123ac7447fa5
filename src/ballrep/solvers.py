"""Projected-gradient solvers for the extremal representation problems.

All three problems are solved in the "minimize volume subject to a norm
ball" orientation, which by positive homogeneity of the volume functional
has the same solution ray as the original norm-minimization problems:
projections onto the l1 ball, the weighted l2 ball and the PSD trace ball
are cheap and exact, whereas a volume constraint is expensive.  After
convergence the iterate is rescaled to its reporting normalization and the
matching optimality certificate is attached.

Because scaling a feasible iterate up to the norm boundary strictly
decreases volume, every accepted step is saturated onto the boundary;
iterates that leave the feasible cone (the backend detects a non-positive
sphere value) are rejected and the step halved.

The volume and its gradient, -(n + d)/d times the degree-d moments, come
from the same sphere quadrature, so each trial point costs one estimator
pass: a moment table for p1 and p2, a moment matrix for p3.  The gradient
of the accepted point is carried into the next iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .certificates import Certificate, certify_p1, certify_p2, certify_p3
from .polynomials import (
    MONOMIAL,
    MULTINOMIAL,
    GeneralizedPolynomial,
    GramForm,
    enumerate_indices,
    from_coefficient_vector,
    multinomial_coefficient,
)
from .projections import project_l1_ball, project_psd_trace
from .volume import (
    SPHERICAL,
    InfiniteVolumeError,
    closed_form_ball_volume,
    finite_volume_test,
    grad_volume,  # noqa: F401  (unused; perfbench/selftest.py checks it is bound here)
    gradient_vector,
    moment_matrix,
    moment_table,
    volume,
)

_MAX_BACKTRACKS = 48
_NOISE_MAGNITUDE = 0.2


@dataclass(frozen=True)
class SolveConfig:
    """Iteration and estimation knobs shared by the three solvers."""

    max_iters: int = 400
    initial_step: float = 1.0
    step_shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    tol_objective: float = 1e-10
    budget: int = 2048
    seed: int = 0
    backend: str = SPHERICAL
    cert_tol: float = 1e-2
    cert_budget: int | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("initial_step", "step_shrink", "sufficient_decrease", "tol_objective"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.step_shrink < 1:
            raise ValueError("step_shrink must be < 1")

    @property
    def certificate_budget(self) -> int:
        return self.cert_budget if self.cert_budget is not None else 4 * self.budget


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: normalized solution, objective, trace and certificate.

    iterations holds (equivalent objective, volume) pairs per accepted
    iterate, where the equivalent objective is the norm the iterate would
    have after rescaling to the target volume; it is non-increasing.
    """

    problem: str
    solution: GeneralizedPolynomial | GramForm
    objective: float
    volume: float
    iterations: list[tuple[float, float]] = field(default_factory=list)
    certificate: Certificate | None = None
    converged: bool = False


def scale_to_target_volume(
    obj: GeneralizedPolynomial | GramForm,
    target: float,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
):
    """Rescale coefficients so the sublevel-set volume equals ``target``.

    Uses k * g with k = (vol(g) / target)**(d/n); homogeneity of the
    volume functional makes this exact up to the volume estimate itself.
    """
    if not target > 0:
        raise ValueError(f"target volume must be positive, got {target}")
    poly = obj.expand() if isinstance(obj, GramForm) else obj
    est = volume(poly, backend=backend, budget=budget, seed=seed)
    if not (math.isfinite(est.value) and est.value > 0):
        raise InfiniteVolumeError(f"volume estimate {est.value} is not usable")
    k = (est.value / target) ** (float(poly.degree) / poly.n)
    return obj.rescale(k)


def _iteration_seed(seed: int, iteration: int) -> int:
    return max(0, int(seed)) * 1_000_003 + iteration


def _projected_gradient(state0, evaluate, project, report, cfg: SolveConfig):
    """Monotone projected-gradient descent of the volume functional.

    The problem geometry comes in three callables: ``evaluate(x, seed)``
    returns (volume, gradient) at x from one estimator pass, or None when x
    lies outside the feasible cone; ``project`` maps onto the norm ball
    (with boundary saturation); ``report(x, volume)`` gives the equivalent
    objective.  Each trial point of the line search is evaluated once, and
    the accepted point's gradient, taken with that iteration's seed, drives
    the next iteration.  Returns the final state, the iteration trace and
    the convergence flag.
    """
    x = state0
    start = evaluate(x, _iteration_seed(cfg.seed, 0))
    if start is None:
        raise InfiniteVolumeError("initial iterate has infinite volume")
    fx, grad = start
    trace = [(report(x, fx), fx)]
    step = cfg.initial_step
    converged = False
    streak = 0
    for it in range(1, cfg.max_iters + 1):
        seed_it = _iteration_seed(cfg.seed, it)
        t = step
        accepted = False
        stalled = False
        for _ in range(_MAX_BACKTRACKS):
            z = project(x - t * grad)
            dx = z - x
            move = float(np.sqrt(np.vdot(dx, dx).real))
            if move <= 1e-14 * (1.0 + float(np.sqrt(np.vdot(x, x).real))):
                stalled = True
                break
            trial = evaluate(z, seed_it)
            decrease = cfg.sufficient_decrease * float(np.vdot(grad, dx).real)
            if trial is not None and trial[0] <= fx + min(0.0, decrease):
                accepted = True
                break
            t *= cfg.step_shrink
        if stalled:
            converged = True
            break
        if not accepted:
            break
        fz, grad = trial
        rel_change = abs(fx - fz) / max(abs(fz), 1e-300)
        x, fx = z, fz
        trace.append((report(x, fx), fx))
        streak = streak + 1 if rel_change <= cfg.tol_objective else 0
        if streak >= 3:
            converged = True
            break
        step = min(cfg.initial_step, 2.0 * t)
    return x, fx, trace, converged


def _table_oracle(poly: GeneralizedPolynomial, cfg: SolveConfig, seed: int):
    """(volume, gradient in basis order) of poly from one moment table, or None.

    The table's default alphas are the degree-d slice in the canonical
    order, which is the order the coefficient vectors use.
    """
    try:
        table = moment_table(poly, backend=cfg.backend, budget=cfg.budget, seed=seed)
    except InfiniteVolumeError:
        return None
    return table.normalization.value, gradient_vector(poly, table.entries)


def _feasible_perturbed_start(base_vec, project, make_poly, seed) -> np.ndarray:
    """Default start: the axis-power coefficients plus seeded noise.

    Noise magnitude 0.2 keeps the start interior but far enough from the
    optimum to make convergence a real test; if a draw leaves the feasible
    cone the noise is halved until the sphere minimum is positive.
    """
    rng = np.random.default_rng([max(0, int(seed)), 404])
    noise = rng.uniform(-_NOISE_MAGNITUDE, _NOISE_MAGNITUDE, size=base_vec.shape)
    for _ in range(30):
        vec = project(base_vec + noise)
        verdict = finite_volume_test(make_poly(vec), restarts=6, seed=seed)
        if verdict.finite_volume:
            return vec
        noise *= 0.5
    return project(base_vec)


def _validate_lattice(problem: str, d: Fraction, q: int, half_lattice: bool):
    if q < 1:
        raise ValueError(f"lattice denominator must be >= 1, got {q}")
    if q == 1:
        if d.denominator != 1 or int(d) % 2 != 0 or d < 2:
            raise ValueError(
                f"{problem} with q = 1 needs an even integer degree >= 2, got {d}"
            )
        return
    need = d * q / 2 if half_lattice else d * q
    if need.denominator != 1:
        grain = "q/2" if half_lattice else "q"
        raise ValueError(
            f"{problem} needs d * {grain} to be an integer so that the exponent "
            f"lattice closes under the moment pairing; got d = {d}, q = {q}"
        )


def solve_p1(
    n: int,
    d,
    q: int = 1,
    start: GeneralizedPolynomial | None = None,
    config: SolveConfig | None = None,
) -> SolveResult:
    """Minimize the coefficient l1 norm at fixed sublevel-set volume vol(B_d).

    Solved as projected-gradient descent of the volume over the l1 ball of
    radius n, then rescaled so the volume equals vol(B_d).  The optimum is
    the axis-power polynomial sum_i |x_i|**d with l1 norm n; the returned
    certificate checks the dual system at the reported solution.
    """
    cfg = config or SolveConfig()
    d = Fraction(d)
    _validate_lattice("the l1 problem", d, q, half_lattice=True)
    basis = enumerate_indices(n, int(d * q))

    def make_poly(vec):
        return from_coefficient_vector(n, d, q, basis, vec, MONOMIAL)

    def project(vec):
        w = project_l1_ball(vec, float(n))
        total = float(np.abs(w).sum())
        return w * (n / total) if total > 0 else w

    if start is not None:
        if start.n != n or start.degree != d or start.q != q:
            raise ValueError("start polynomial does not match (n, d, q)")
        mono = start.to_convention(MONOMIAL) if start.q == 1 else start
        x0 = project(np.array([mono.terms.get(a, 0.0) for a in basis]))
    else:
        # axis-power coefficients: the entries whose whole mass d*q sits in one slot
        base = np.array([1.0 if max(a) == int(d * q) else 0.0 for a in basis])
        x0 = _feasible_perturbed_start(base, project, make_poly, cfg.seed)

    rho = closed_form_ball_volume(n, d)

    def evaluate(vec, seed):
        return _table_oracle(make_poly(vec), cfg, seed)

    def report(vec, vol):
        return float(np.abs(vec).sum()) * (vol / rho) ** (float(d) / n)

    x, _, trace, converged = _projected_gradient(x0, evaluate, project, report, cfg)

    solution = scale_to_target_volume(
        make_poly(x), rho, backend=cfg.backend,
        budget=cfg.certificate_budget, seed=cfg.seed,
    )
    table = moment_table(
        solution, backend=cfg.backend, budget=cfg.certificate_budget, seed=cfg.seed
    )
    certificate = certify_p1(solution, table, tol=cfg.cert_tol)
    return SolveResult(
        problem="p1" if q == 1 else "p1q",
        solution=solution,
        objective=float(sum(abs(c) for c in solution.terms.values())),
        volume=table.normalization.value,
        iterations=trace,
        certificate=certificate,
        converged=converged,
    )


def solve_p2(
    n: int,
    d,
    q: int = 1,
    start: GeneralizedPolynomial | None = None,
    config: SolveConfig | None = None,
) -> SolveResult:
    """Minimize the weighted l2 coefficient norm at fixed sublevel-set volume.

    Works in whitened coordinates u = sqrt(c_alpha) * g_alpha where the
    constraint is a plain Euclidean ball, so radial projection is exact.
    The reported solution is normalized so the leading coefficient (at the
    exponent d*e_1, multinomial convention) equals 1, the normalization in
    which the degree-4 optimum is exactly (sum x_i**2)**2; the attached
    proportionality certificate is scale invariant.
    """
    cfg = config or SolveConfig()
    d = Fraction(d)
    _validate_lattice("the weighted l2 problem", d, q, half_lattice=False)
    basis = enumerate_indices(n, int(d * q))
    convention = MULTINOMIAL if q == 1 else MONOMIAL
    weights = np.array(
        [float(multinomial_coefficient(a)) if q == 1 else 1.0 for a in basis]
    )
    root_w = np.sqrt(weights)

    def make_poly(u_vec):
        return from_coefficient_vector(n, d, q, basis, u_vec / root_w, convention)

    radius = math.sqrt(float(n))

    def project(u_vec):
        norm = float(np.linalg.norm(u_vec))
        return u_vec * (radius / norm) if norm > 0 else u_vec

    if start is not None:
        if start.n != n or start.degree != d or start.q != q:
            raise ValueError("start polynomial does not match (n, d, q)")
        aligned = start.to_convention(convention) if start.q == 1 else start
        coeffs = np.array([aligned.terms.get(a, 0.0) for a in basis])
        x0 = project(coeffs * root_w)
    else:
        base = np.zeros(len(basis))
        for i in range(n):
            axis = tuple(int(d * q) if j == i else 0 for j in range(n))
            base[basis.index(axis)] = 1.0
        base *= root_w
        x0 = _feasible_perturbed_start(base, project, make_poly, cfg.seed)

    def evaluate(u_vec, seed):
        # the gradient must be taken in the whitened coordinates:
        # d f / d u_alpha = (1 / sqrt(c_alpha)) * d f / d g_alpha
        out = _table_oracle(make_poly(u_vec), cfg, seed)
        return None if out is None else (out[0], out[1] / root_w)

    rho = closed_form_ball_volume(n, d)

    def report(u_vec, vol):
        k = (vol / rho) ** (float(d) / n)
        return float(np.dot(u_vec, u_vec)) * k**2.0

    x, _, trace, converged = _projected_gradient(x0, evaluate, project, report, cfg)

    raw = make_poly(x)
    lead = basis[0]  # d * e_1 comes first in the canonical order
    lead_coeff = raw.terms.get(lead, 0.0)
    if not lead_coeff > 0:
        raise RuntimeError(
            f"solver left the positive cone: leading coefficient {lead_coeff:.6g}"
        )
    solution = raw.rescale(1.0 / lead_coeff)
    table = moment_table(
        solution, backend=cfg.backend, budget=cfg.certificate_budget, seed=cfg.seed
    )
    certificate = certify_p2(solution, table, tol=cfg.cert_tol)
    objective = float(np.dot(weights, np.array([solution.terms.get(a, 0.0) for a in basis]) ** 2))
    return SolveResult(
        problem="p2",
        solution=solution,
        objective=objective,
        volume=table.normalization.value,
        iterations=trace,
        certificate=certificate,
        converged=converged,
    )


def solve_p3(
    n: int,
    d: int,
    start: GramForm | None = None,
    config: SolveConfig | None = None,
) -> SolveResult:
    """Minimize the Gram trace at fixed sublevel-set volume vol(B_d).

    Projected-gradient descent of the volume of g_Q over the spectahedron
    {Q >= 0, trace Q <= n}; the gradient at Q is -(n+d)/d times the moment
    matrix of its sublevel set.  The result is rescaled to volume vol(B_d)
    and checked against the PSD trace certificate.
    """
    cfg = config or SolveConfig()
    if d % 2 != 0 or d < 2:
        raise ValueError(f"the Gram trace problem needs an even degree >= 2, got {d}")
    basis = enumerate_indices(n, d // 2)
    size = len(basis)

    def project(Q):
        P = project_psd_trace(Q, float(n))
        tr = float(np.trace(P))
        return P * (n / tr) if tr > 0 else P

    def evaluate(Q, seed):
        try:
            mm = moment_matrix(
                GramForm(n, d, Q).expand(), d // 2, backend=cfg.backend,
                budget=cfg.budget, seed=seed,
            )
        except InfiniteVolumeError:
            return None
        return mm.normalization.value, -(n + d) / d * mm.values

    def report(Q, vol):
        return float(np.trace(Q)) * (vol / rho) ** (d / n)

    rho = closed_form_ball_volume(n, d)
    if start is not None:
        if start.n != n or start.degree != d:
            raise ValueError("start Gram form does not match (n, d)")
        Q0 = project(np.asarray(start.Q, dtype=float))
    else:
        Q0 = (float(n) / size) * np.eye(size)

    Q, _, trace_log, converged = _projected_gradient(Q0, evaluate, project, report, cfg)

    gram = GramForm(n, d, Q)
    solution = scale_to_target_volume(
        gram, rho, backend=cfg.backend, budget=cfg.certificate_budget, seed=cfg.seed
    )
    mm = moment_matrix(
        solution.expand(), d // 2, backend=cfg.backend,
        budget=cfg.certificate_budget, seed=cfg.seed,
    )
    certificate = certify_p3(solution, mm, tol=cfg.cert_tol)
    return SolveResult(
        problem="p3",
        solution=solution,
        objective=solution.trace,
        volume=mm.normalization.value,
        iterations=trace_log,
        certificate=certificate,
        converged=converged,
    )
