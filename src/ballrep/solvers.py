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
iterates that leave the feasible cone (the backend finds a sphere value at
or below the gate's tolerance) are rejected and the step halved.

One solve path, _descend, serves the three problems, and each solve_pX
passes only its geometry.  The coefficients are linear in the solver
coordinates: the coefficients themselves for p1, whitened coefficients for
p2, the Gram matrix Q for p3.  One moment table over the degree-d slice
gives a trial's volume and its gradient, -(n + d)/d times the degree-d
moments, which the transposed linear map pulls back to the solver
coordinates.  Every pass of a solve uses the same seed, so the Monte Carlo
line search compares like with like.  The objective is the problem's norm
of the normalized solver coordinates, as in the iteration trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .certificates import Certificate, certify
from .polynomials import (
    MONOMIAL,
    MULTINOMIAL,
    GeneralizedPolynomial,
    GramForm,
    _hankel_layout,
    _slice_weights,
    coefficient_vector,
    enumerate_indices,
    from_coefficient_vector,
    ld_polynomial,
)
from .projections import project_l1_ball, project_psd_trace
from .volume import (
    SPHERICAL,
    InfiniteVolumeError,
    _finite_or_raise,
    closed_form_ball_volume,
    finite_volume_test,
    grad_volume,  # noqa: F401  (unused; perfbench/selftest.py checks it is bound here)
    gradient_vector,
    moment_table,
    volume,
)

# Armijo line search: the first trial step, its shrink factor per
# backtrack, and the sufficient-decrease fraction of the linear prediction
_INITIAL_STEP = 1.0
_STEP_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4
_MAX_BACKTRACKS = 48
# converged: the volume's relative change stays within this for 3 steps
_TOL_OBJECTIVE = 1e-10
_NOISE_MAGNITUDE = 0.2


@dataclass(frozen=True)
class SolveConfig:
    """Iteration and estimation knobs shared by the three solvers.

    A solve stops after max_iters iterations, when a projected step no
    longer moves, or once the volume's relative change stays within 1e-10
    for three accepted steps in a row.  Each descent pass of ``backend``
    uses budget and seed; the final rescaling and the certificate's moments
    use the certificate budget, 4 * budget, and its check uses cert_tol.
    """

    max_iters: int = 400
    budget: int = 2048
    seed: int = 0
    backend: str = SPHERICAL
    cert_tol: float = 1e-2

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    @property
    def certificate_budget(self) -> int:
        return 4 * self.budget


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


def _projected_gradient(state0, evaluate, project, report, cfg: SolveConfig):
    """Monotone projected-gradient descent of the volume functional.

    The problem geometry comes in three callables: ``evaluate(x, seed)``
    returns (volume, gradient) at x from one estimator pass, or None when x
    lies outside the feasible cone; ``project`` maps onto the norm ball
    (with boundary saturation); ``report(x, volume)`` gives the equivalent
    objective.  Each trial point of the line search is evaluated once, and
    the accepted point's gradient drives the next iteration.  Every pass
    uses cfg.seed, so a Monte Carlo Armijo test compares f(z) and f(x) on
    the same samples (common random numbers); the deterministic backends
    ignore the seed.  Returns the final state, the iteration trace and the
    convergence flag.
    """
    x = state0
    start = evaluate(x, cfg.seed)
    if start is None:
        raise InfiniteVolumeError("initial iterate has infinite volume")
    fx, grad = start
    trace = [(report(x, fx), fx)]
    step = _INITIAL_STEP
    converged = False
    streak = 0
    for _ in range(cfg.max_iters):
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
            trial = evaluate(z, cfg.seed)
            decrease = _SUFFICIENT_DECREASE * float(np.vdot(grad, dx).real)
            if trial is not None and trial[0] <= fx + min(0.0, decrease):
                accepted = True
                break
            t *= _STEP_SHRINK
        if stalled:
            converged = True
            break
        if not accepted:
            break
        fz, grad = trial
        rel_change = abs(fx - fz) / max(abs(fz), 1e-300)
        x, fx = z, fz
        trace.append((report(x, fx), fx))
        streak = streak + 1 if rel_change <= _TOL_OBJECTIVE else 0
        if streak >= 3:
            converged = True
            break
        step = min(_INITIAL_STEP, 2.0 * t)
    return x, trace, converged


def _descend(problem, n, d, q, start, cfg: SolveConfig, *, make, coords, pullback,
             project, norm, default_start, normalize=None) -> SolveResult:
    """Start, descend, normalize and certify one problem.

    make(x) builds the polynomial or Gram form from the solver coordinates
    x, linearly; coords is its inverse and pullback its transpose, from the
    gradient in the coefficients of the degree-d slice, in canonical order,
    to a gradient in x.  A given start is projected onto the ball and must
    pass the feasibility gate, as default starts do; a trial costs one
    moment table over the slice.  The final iterate goes through normalize,
    by default a rescaling to vol(B_d) at the certificate budget.  The
    objective, like each trace entry, is norm of the normalized solver
    coordinates.
    """
    def polynomial(x):
        poly = make(x)
        return poly.expand() if isinstance(poly, GramForm) else poly

    if start is None:
        x0 = default_start()
    elif (start.n, start.degree, getattr(start, "q", 1)) != (n, d, q):
        raise ValueError(f"start does not match (n, d, q) = ({n}, {d}, {q})")
    else:
        x0 = project(coords(start))
        # the gate that screens default starts also screens a given one
        verdict = finite_volume_test(polynomial(x0), restarts=6, seed=cfg.seed)
        _finite_or_raise(verdict, "initial iterate")
    rho = closed_form_ball_volume(n, d)

    def evaluate(x, seed):
        poly = polynomial(x)
        try:
            table = moment_table(poly, backend=cfg.backend, budget=cfg.budget, seed=seed)
        except InfiniteVolumeError:
            return None
        return table.normalization.value, pullback(gradient_vector(poly, table.entries))

    def report(x, vol):
        return norm(x * (vol / rho) ** (float(d) / n))

    x, trace, converged = _projected_gradient(x0, evaluate, project, report, cfg)
    if normalize is not None:
        solution = normalize(make(x))
    else:
        solution = scale_to_target_volume(
            make(x), rho, backend=cfg.backend, budget=cfg.certificate_budget, seed=cfg.seed
        )
    certificate, est = certify(
        problem, solution, cfg.backend, cfg.certificate_budget, cfg.seed, cfg.cert_tol
    )
    return SolveResult(
        problem="p1q" if problem == "p1" and q != 1 else problem,
        solution=solution,
        objective=norm(coords(solution)),
        volume=est.value,
        iterations=trace,
        certificate=certificate,
        converged=converged,
    )


def _ball_boundary(ball, size, radius: float):
    """Project with ball(x, radius) onto {size <= radius}, then scale onto its boundary."""

    def project(x):
        w = ball(x, radius)
        s = size(w)
        return w * (radius / s) if s > 0 else w

    return project


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

    def make(vec):
        return from_coefficient_vector(n, d, q, basis, vec, MONOMIAL)

    def l1(vec):
        return float(np.abs(vec).sum())

    project = _ball_boundary(project_l1_ball, l1, float(n))
    base = coefficient_vector(ld_polynomial(n, d, q), basis)
    return _descend(
        "p1", n, d, q, start, cfg, make=make,
        coords=lambda g: coefficient_vector(g.to_convention(MONOMIAL), basis),
        pullback=lambda grad: grad, project=project, norm=l1,
        default_start=lambda: _feasible_perturbed_start(base, project, make, cfg.seed),
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
    root_w = np.sqrt(_slice_weights(n, int(d * q), q))

    def make(u_vec):
        return from_coefficient_vector(n, d, q, basis, u_vec / root_w, convention)

    def lead_to_one(g):
        lead = g.terms[basis[0]]  # d * e_1 comes first in the canonical order
        if not lead > 0:
            raise RuntimeError(f"solver left the positive cone: leading coefficient {lead:.6g}")
        return g.rescale(1.0 / lead)

    project = _ball_boundary(lambda u_vec, radius: u_vec, np.linalg.norm, math.sqrt(float(n)))
    base = coefficient_vector(ld_polynomial(n, d, q), basis) * root_w
    # whitened coordinates: d f / d u_alpha = (d f / d g_alpha) / sqrt(c_alpha)
    return _descend(
        "p2", n, d, q, start, cfg, make=make,
        coords=lambda g: coefficient_vector(g.to_convention(convention), basis) * root_w,
        pullback=lambda grad: grad / root_w, project=project,
        norm=lambda u_vec: float(np.dot(u_vec, u_vec)),
        default_start=lambda: _feasible_perturbed_start(base, project, make, cfg.seed),
        normalize=lead_to_one,
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
    basis, _, index = _hankel_layout(n, d // 2)

    # expand_gram adds Q[a, b] into the coefficient at a + b, so its
    # transpose gathers the coefficient gradient at a + b into entry (a, b);
    # index numbers the sums in the canonical order of the degree-d slice
    return _descend(
        "p3", n, d, 1, start, cfg, make=lambda mat: GramForm(n, d, mat),
        coords=lambda gram: np.asarray(gram.Q, dtype=float),
        pullback=lambda grad: grad[index],
        project=_ball_boundary(project_psd_trace, np.trace, float(n)),
        norm=lambda mat: float(np.trace(mat)),
        default_start=lambda: (float(n) / len(basis)) * np.eye(len(basis)),
    )
