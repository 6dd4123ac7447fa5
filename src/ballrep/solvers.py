"""Solvers for the extremal representation problems.

All three problems are solved in the "minimize volume subject to a norm
ball" orientation, which by positive homogeneity of the volume functional
has the same solution ray as the original norm-minimization problems:
projections onto the l1 ball, the weighted l2 ball and the PSD trace ball
are cheap and exact, whereas a volume constraint is expensive.  After
convergence the iterate is rescaled to its reporting normalization and the
matching optimality certificate is attached.  One pass at the certificate
budget, the degree-d moment table of the final iterate, does both for every
problem: homogeneity maps its moments to those of the rescaled ball.

p1/p1q and p3 descend by projected gradient, saturating each accepted step
onto the norm boundary (scaling up strictly decreases volume).  After an
accepted step the first trial is the Barzilai-Borwein step s.s / s.y, from
the move s and the change y of the gradient, when s.y > 0; the plain trial
steps follow, halving at rejected or infeasible iterates (a sphere value at
or below the gate's tolerance).  p2's optimum, whose weighted coefficients
are proportional to the degree-d moments of its own ball, is a fixed point
of T(u) = project(-grad(u)), which an Anderson iteration finds, line-search
free.  For q = 1 that optimum is known: it is unique and invariant under
every orthogonal change of variables, so it is (sum x_i**2)**(d/2), and the
iteration starts there.  It then only checks the start on the solve's own
rule, and the certificate pass still decides; from a given start, or from
B_d when q > 1, it iterates.

One solve path, _descend, serves the three problems, and each solve_pX
passes only its geometry and its iteration.  The monomial coefficients of
the degree-d slice are linear in the solver coordinates: the coefficients
themselves for p1, for p2 the whitened coefficients sqrt(w) * a of
polynomials._p2_vector, the Gram matrix Q for p3.
A trial reads its volume and the slice's moments m from one run of the
pass volume._descent_pass builds once, on the nodes, fold and rows a query
of the start as given reads; its gradient in the solver coordinates is
pullback(-(n + d)/d m), pullback being the adjoint of that linear map.
Moments that vanish by symmetry at the start are exact zeros, and every
projection keeps the coordinates that feed only those at 0.  So a Monte
Carlo solve minimizes one sample-average volume, deterministic given its
seed, and every trial of its line search reads the same nodes; the grid
oracle is a query cross-check, no solve backend.  The problems and their
unique optima are invariant under permuting the coordinates, the nodes are
not: from a start every permutation keeps (as every default one), m becomes
its orbit means, the moments of the permutation-averaged rule, whose volume
on an invariant iterate is the rule's own.
The objective is the problem's norm of the normalized solver coordinates,
as in the trace.
Default starts are feasible by construction, so no default solve calls the
feasibility gate and a spherical solve does not depend on its seed; only a
caller's start, outside input, is gated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .certificates import Certificate, _check, _check_candidate, _default_tol
from .polynomials import (
    MONOMIAL,
    GeneralizedPolynomial,
    GramForm,
    _check_even_degree,
    _check_integer,
    _check_positive,
    _check_rational,
    _flip_invariant,
    _hankel_layout,
    _p2_vector,
    _permutation_orbits,
    coefficient_vector,
    enumerate_indices,
    from_coefficient_vector,
    ld_polynomial,
    multinomial_coefficient,
)
from .projections import project_l1_ball, project_psd_trace
from .volume import (
    DEFAULT_BUDGETS,
    MONTE_CARLO,
    SPHERICAL,
    InfiniteVolumeError,
    _finite_or_raise,
    _descent_pass,
    _rescaled_moments,
    closed_form_ball_volume,
    finite_volume_test,
    grad_volume,  # noqa: F401  (unused; perfbench/selftest.py checks it is bound here)
    moment_table,
    volume,
)

# Armijo line search: the first plain trial step of every iteration (a
# Barzilai-Borwein trial, when there is one, goes before it), its shrink
# factor per backtrack, and the sufficient-decrease fraction of the linear
# prediction
_INITIAL_STEP = 1.0
_STEP_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4
_MAX_BACKTRACKS = 48
# converged: a rejected trial's relative volume change and first-order
# prediction are both within this (see _projected_gradient)
_TOL_OBJECTIVE = 1e-10
_ANDERSON_MEMORY = 4  # residual differences the p2 fixed-point iteration mixes


@dataclass(frozen=True)
class SolveConfig:
    """Iteration and estimation knobs shared by the three solvers.

    A solve stops after max_iters iterations, or earlier: p1 and p3 when a
    projected step no longer moves or a rejected trial's relative volume
    change and its first-order prediction are both within 1e-10, p2 once
    |T(u) - u|_inf <= 1e-14 (1 + |u|_inf).  backend is spherical or
    monte_carlo; the descent's pass, built once per solve, reads the nodes
    a query of the start reads at descent_budget (a classical start's sphere
    grid, a generalized one's lattice grid, or the cone nodes of seed),
    averaged over the coordinate permutations from an invariant start;
    one pass at 4 * descent_budget gives the final rescaling and the
    certificate's moments, checked at cert_tol.  descent_budget is budget,
    or for None DEFAULT_BUDGETS[backend] // 4 (2048 spherical, 50000 Monte
    Carlo), so that pass is a default certify()'s; None stays None, so
    dataclasses.replace to another backend reads its default.  max_iters
    and budget are integers >= 1, seed one >= 0 and cert_tol a tolerance,
    each by the package's one rule; seed is read only by Monte Carlo and,
    for n >= 4, the gate on a given start.
    """

    max_iters: int = 400
    budget: int | None = None
    seed: int = 0
    backend: str = SPHERICAL
    cert_tol: float = 1e-2

    def __post_init__(self):
        _check_integer(self.max_iters, "max_iters", 1)
        _check_integer(self.seed, "seed", 0)
        if self.backend not in (SPHERICAL, MONTE_CARLO):
            raise ValueError(f"a solve runs on the {SPHERICAL!r} or {MONTE_CARLO!r} backend, "
                             f"got {self.backend!r}")
        if self.budget is not None:
            _check_integer(self.budget, "budget", 1)
        _default_tol(self.backend, self.cert_tol, "cert_tol")

    @property
    def descent_budget(self) -> int:
        return DEFAULT_BUDGETS[self.backend] // 4 if self.budget is None else self.budget

    @property
    def certificate_budget(self) -> int:
        return 4 * self.descent_budget


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: normalized solution, objective, trace and certificate.

    iterations holds (equivalent objective, volume) pairs per accepted
    iterate: the norm the iterate would have at the target volume, which the
    p1/p3 descents (not p2's fixed-point iteration) keep non-increasing.

    ``ballrep solve`` prints these fields as they are, in this order,
    without a None-valued one and with the solution in the polynomial or
    Gram schema; every other field must stay a plain JSON value (or a
    dataclass of them).
    """

    problem: str
    objective: float
    volume: float
    solution: GeneralizedPolynomial | GramForm
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
    target = _check_positive(target, "target volume")
    vol = volume(obj.expand(), backend=backend, budget=budget, seed=seed).value
    return obj.rescale(_target_scale(vol, target, obj.degree, obj.n))


def _target_scale(vol: float, target: float, d, n: int) -> float:
    """k = (vol / target)**(d/n): k * g has volume target if g has volume vol, by homogeneity."""
    if not (math.isfinite(vol) and vol > 0):
        raise InfiniteVolumeError(f"volume estimate {vol} is not usable")
    return (vol / target) ** (float(d) / n)


def _projected_gradient(state0, first, evaluate, project, report, cfg: SolveConfig):
    """Monotone projected-gradient descent of the volume functional.

    The descent starts at state0, whose (volume, gradient) first _descend
    has evaluated and checked.  The problem geometry comes in three
    callables: ``evaluate(x)`` returns (volume, gradient) at x from one run
    of the solve's radial pass, or None when x lies outside the feasible
    cone; ``project`` maps onto the norm ball (with boundary saturation);
    ``report(x, volume)`` gives the equivalent objective.  Each trial point
    of the line search is evaluated once, and the accepted point's gradient
    drives the next iteration.  The first trial after an accepted move s
    with gradient change y is the BB1 step s.s / s.y (Barzilai & Borwein
    1988) when s.y > 0; if it is rejected, or there is none, the trials are
    _INITIAL_STEP halved after each rejection, whatever step the last
    iteration took.  ``evaluate`` reads one fixed set of nodes, so the
    Armijo test compares f(z) and f(x) on the same nodes.
    Converged, only where the line search ends at round-off: the step no
    longer moves, or a rejected trial's volume change and its first-order
    prediction vdot(grad, z - x) are both within _TOL_OBJECTIVE (relative).
    Returns the final state, the iteration trace and the convergence flag.
    """
    x, (fx, grad) = state0, first
    trace = [(report(x, fx), fx)]
    plain = [_INITIAL_STEP * _STEP_SHRINK**k for k in range(_MAX_BACKTRACKS)]
    bb = []  # the BB1 trial step after a move with positive curvature
    for _ in range(cfg.max_iters):
        for t in bb + plain:
            z = project(x - t * grad)
            dx = z - x
            move = float(np.sqrt(np.vdot(dx, dx).real))
            if move <= 1e-14 * (1.0 + float(np.sqrt(np.vdot(x, x).real))):
                return x, trace, True  # the step no longer moves
            trial = evaluate(z)
            if trial is None:
                continue
            slope = float(np.vdot(grad, dx).real)  # the volume's first-order change
            if trial[0] <= fx + min(0.0, _SUFFICIENT_DECREASE * slope):
                break
            if max(trial[0] - fx, -slope) <= _TOL_OBJECTIVE * fx:
                return x, trace, True  # a shorter step cannot gain more than the stop tolerance
        else:
            break  # every trial was infeasible or rejected
        curvature = float(np.vdot(dx, trial[1] - grad).real)  # s.y: s = dx, y the gradient change
        bb = [float(np.vdot(dx, dx).real) / curvature] if curvature > 0 else []
        x, (fx, grad) = z, trial
        trace.append((report(x, fx), fx))
    return x, trace, False


def _anderson(state0, first, evaluate, project, report, cfg: SolveConfig):
    """Safeguarded Anderson iteration on p2's stationarity map T(x) = project(-grad(x)).

    The next point mixes T over the last _ANDERSON_MEMORY residual differences
    (type II, Walker & Ni 2011).  If it leaves the feasible cone the plain
    step T(x) replaces it; for even d that step is feasible (-grad is a
    positive combination of d-th powers of linear forms), so if it is not,
    the solve stops unconverged.  Converged: |T(x) - x|_inf <= 1e-14 (1 + |x|_inf).
    Arguments, the checked start's (volume, gradient) first among them, and
    return value are those of _projected_gradient.
    """
    x, out = state0, first
    trace, history = [(report(x, out[0]), out[0])], []  # history: the latest (T(x), T(x) - x)
    for _ in range(cfg.max_iters):
        tx = project(-out[1])
        if np.abs(tx - x).max() <= 1e-14 * (1.0 + np.abs(x).max()):
            return x, trace, True
        history = history[-_ANDERSON_MEMORY:] + [(tx, tx - x)]
        z = tx
        if len(history) > 1:
            d_step, d_residual = np.diff(history, axis=0).transpose(1, 2, 0)
            z = project(tx - d_step @ np.linalg.lstsq(d_residual, tx - x, rcond=None)[0])
        out = evaluate(z)
        if out is None and z is not tx:
            z, out = tx, evaluate(tx)
        if out is None:
            return x, trace, False
        x = z
        trace.append((report(x, out[0]), out[0]))
    return x, trace, False


def _descend(problem, n, d, q, start, cfg: SolveConfig, *, iterate, make, coords, coefficients,
             pullback, projection, norm, default_start, scale=None) -> SolveResult:
    """Start, iterate, normalize and certify one problem.

    make(x) builds the polynomial or Gram form from the solver coordinates
    x, linearly; coords is its inverse, coefficients(x) the monomial
    coefficients of the degree-d slice in canonical order, and pullback, the
    adjoint of coefficients, maps a gradient in those coefficients to one in
    x; a trial is None where its pass raises InfiniteVolumeError.  Every
    trial runs the one _descent_pass of the start as given (default_start,
    or the caller's start before projection), and projection(x) becomes
    keep * projection(x), keep = pullback(live) != 0 marking the coordinates
    that feed a live coefficient.  From a start that every coordinate
    permutation keeps (each entry equal to its orbit's first; p3: Q, rows and
    columns together), a trial's moments are their orbit means.  A given
    start is projected so and must pass the feasibility gate; the array
    default_start is feasible by construction.  Either start is checked
    once, here: its trial, first, is None only at infinite volume, which
    raises, and iterate(x0, first, evaluate, project, report, cfg) starts
    from it.  Every solve ends alike: one moment_table pass at the
    certificate budget on solution = make(x), one factor k (scale(solution),
    or else the scale to vol(B_d) from the pass), then solution.rescale(k)
    and the pass's moments mapped to its ball.  The objective, like each
    trace entry, is norm of the normalized coordinates.
    """
    if start is not None:
        _check_candidate(problem, start)
        if (start.n, start.degree, getattr(start, "q", 1)) != (n, d, q):
            raise ValueError(f"start does not match (n, d, q) = ({n}, {d}, {q})")
    # the start as given decides the fold and the orbit means: a projection may round
    basis = np.array(enumerate_indices(n, int(d * q)), dtype=np.intp)
    given = (make(default_start) if start is None else start).expand()
    live, run = _descent_pass(given, basis, cfg.backend, cfg.descent_budget, cfg.seed)
    x_given = np.asarray(default_start if start is None else coords(start))
    at, first = _permutation_orbits(n, int(d * q) // x_given.ndim, x_given.ndim)
    symmetric = (x_given.ravel() == x_given.flat[first][at]).all()
    orbit, _ = _permutation_orbits(n, int(d * q))
    keep = pullback(live) != 0  # the coordinates that feed a live coefficient; the rest stay 0

    def project(x):
        return keep * projection(x)

    x0 = default_start if start is None else project(coords(start))
    if start is not None:  # outside input: only the gate can tell whether its volume is finite
        _finite_or_raise(finite_volume_test(make(x0).expand(), seed=cfg.seed), "initial iterate")
    rho = closed_form_ball_volume(n, d)
    factor = -(n + float(d)) / float(d)  # the volume gradient over the slice's moments

    def evaluate(x):
        try:
            vol, moments = run(coefficients(x)[live])
        except InfiniteVolumeError:
            return None
        m = np.zeros(len(live))
        m[live] = moments
        if symmetric:  # the moments of the permutation-averaged rule
            m = (np.bincount(orbit, m) / np.bincount(orbit))[orbit]
        return vol, pullback(factor * m)

    def report(x, vol):
        return norm(x * _target_scale(vol, rho, d, n))

    first = evaluate(x0)  # the start's one check on the solve's own pass
    if first is None:
        raise InfiniteVolumeError("initial iterate has infinite volume")
    x, trace, converged = iterate(x0, first, evaluate, project, report, cfg)
    del evaluate, run  # frees the descent pass's P before the certificate-budget pass
    solution = make(x)
    table = moment_table(solution.expand(), backend=cfg.backend,
                         budget=cfg.certificate_budget, seed=cfg.seed)
    k = _target_scale(table.normalization.value, rho, d, n) if scale is None else scale(solution)
    solution, table = solution.rescale(k), _rescaled_moments(table, k, d)
    return SolveResult(
        problem="p1q" if problem == "p1" and q != 1 else problem,
        solution=solution,
        objective=norm(coords(solution)),
        volume=table.normalization.value,
        iterations=trace,
        certificate=_check(problem, solution, table, cfg.cert_tol),
        converged=converged,
    )


def _ball_boundary(ball, size, radius: float):
    """Project with ball(x, radius) onto {size <= radius}, then scale onto its boundary."""

    def project(x):
        w = ball(x, radius)
        s = size(w)
        return w * (radius / s) if s > 0 else w

    return project


def _validate_lattice(problem: str, d, q, half_lattice: bool) -> tuple[Fraction, int]:
    d, q = _check_rational(d, "degree", positive=True), _check_integer(q, "lattice denominator", 1)
    if q == 1:
        _check_even_degree(d, f"{problem} with q = 1")
    elif (d * q / 2 if half_lattice else d * q).denominator != 1:
        grain = "q/2" if half_lattice else "q"
        raise ValueError(f"{problem} needs d * {grain} to be an integer so that the exponent "
                         f"lattice closes under the moment pairing; got d = {d}, q = {q}")
    return d, q


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
    the axis-power polynomial sum_i |x_i|**d with l1 norm n, and the dense
    default start needs no gate call; the returned certificate checks the
    dual system at the reported solution.
    """
    cfg = config or SolveConfig()
    d, q = _validate_lattice("the l1 problem", d, q, half_lattice=True)
    basis = enumerate_indices(n, int(d * q))

    def l1(vec):
        return float(np.abs(vec).sum())

    # s_alpha = 1 on the monomials >= 0 on all of R^n (all when q > 1, as g
    # is evaluated at |x|; the all-even ones when q = 1).  n s / sum(s) is on
    # the l1 sphere with terms >= 0 and n pure powers > 0, so g >= (n / sum(s))
    # sum_i |x_i|**d > 0 off the origin: finite volume by construction, yet
    # dense, so the descent still has to find the sparse optimum
    s = _flip_invariant(basis, q == 1).astype(float)
    return _descend(
        "p1", n, d, q, start, cfg, iterate=_projected_gradient,
        make=lambda vec: from_coefficient_vector(n, d, q, basis, vec, MONOMIAL),
        coords=lambda g: coefficient_vector(g.to_convention(MONOMIAL), basis),
        coefficients=lambda vec: vec, pullback=lambda grad: grad,
        projection=_ball_boundary(project_l1_ball, l1, float(n)), norm=l1,
        default_start=n * s / s.sum(),
    )


def solve_p2(
    n: int,
    d,
    q: int = 1,
    start: GeneralizedPolynomial | None = None,
    config: SolveConfig | None = None,
) -> SolveResult:
    """Minimize the weighted l2 coefficient norm at fixed sublevel-set volume.

    Works in whitened coordinates u = sqrt(c_alpha) * g_alpha, where the
    constraint is a plain Euclidean ball, and solves u = project(-grad(u))
    by _anderson, with no gate call, from the projected coefficients of
    (sum x_i**2)**(d/2) for q = 1 and of B_d for q > 1.  The solution is
    scaled to leading coefficient 1 (at d*e_1, multinomial convention),
    where the q = 1 optimum is exactly (sum x_i**2)**(d/2) at every even d;
    the moments of the certificate pass at the unscaled solution follow by
    homogeneity, and the proportionality certificate is scale invariant.
    """
    cfg = config or SolveConfig()
    d, q = _validate_lattice("the weighted l2 problem", d, q, half_lattice=False)
    basis = enumerate_indices(n, int(d * q))
    # for q = 1 the optimum is unique, and like the weighted norm and the
    # volume invariant under x -> Ux for orthogonal U: so it is a multiple of
    # (sum x_i**2)**(d/2), whose monomial coefficient at 2 beta is (d/2)! / beta!
    if q == 1:
        terms = {tuple(2 * b for b in beta): float(multinomial_coefficient(beta))
                 for beta in enumerate_indices(n, int(d) // 2)}
        ball = GeneralizedPolynomial(n, d, 1, terms)
    else:
        ball = ld_polynomial(n, d, q)
    coeffs, weights, convention = _p2_vector(ball)
    root_w = np.sqrt(weights)
    project = _ball_boundary(lambda u_vec, radius: u_vec, np.linalg.norm, math.sqrt(float(n)))
    # the monomial coefficient at alpha is c_alpha * u_alpha / sqrt(c_alpha) = sqrt(c_alpha) u_alpha
    return _descend(
        "p2", n, d, q, start, cfg, iterate=_anderson,
        make=lambda u_vec: from_coefficient_vector(n, d, q, basis, u_vec / root_w, convention),
        coords=lambda g: _p2_vector(g)[0] * root_w,
        coefficients=lambda u_vec: u_vec * root_w, pullback=lambda grad: grad * root_w,
        projection=project, norm=lambda u_vec: float(np.dot(u_vec, u_vec)),
        # to leading coefficient 1: d * e_1 comes first in the canonical order, and the
        # certificate pass has already rejected an axis coefficient <= 1e-9 max |c|
        default_start=project(coeffs * root_w), scale=lambda g: 1.0 / g.terms[basis[0]],
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
    d = _check_even_degree(d, "the Gram trace problem")
    basis, _, index = _hankel_layout(n, d // 2)

    # expand_gram adds Q[a, b] into the coefficient at a + b, so its
    # transpose gathers the coefficient gradient at a + b into entry (a, b);
    # index numbers the sums in the canonical order of the degree-d slice
    return _descend(
        "p3", n, d, 1, start, cfg, make=lambda mat: GramForm(n, d, mat),
        coords=lambda gram: np.asarray(gram.Q, dtype=float),
        coefficients=lambda mat: np.bincount(index.ravel(), weights=mat.ravel()),
        pullback=lambda grad: grad[index], iterate=_projected_gradient,
        projection=_ball_boundary(project_psd_trace, np.trace, float(n)),
        norm=lambda mat: float(np.trace(mat)),
        default_start=(float(n) / len(basis)) * np.eye(len(basis)),
    )
