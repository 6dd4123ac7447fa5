"""Volumes and moments of polynomial sublevel sets G = {x : g(x) <= 1}.

For a positively homogeneous g of degree d the Lebesgue volume and the
moments of G have two equivalent expressions that the backends exploit:

* an exponential integral over all of R^n,
      integral_G x^alpha dx
        = Gamma(1 + (n + |alpha|)/d)^-1 * integral x^alpha exp(-g(x)) dx,
  which drives the importance-sampling backend, and
* a radial reduction over the unit sphere,
      integral_G x^alpha dx
        = (n + |alpha|)^-1 * integral_S theta^alpha h(theta)^-(n+|alpha|)/d dsigma,
  with h the restriction of g to the sphere, which drives the deterministic
  spherical backend (periodic trapezoid for n = 2, product Gauss-Legendre
  for n = 3).  Sphere grids are cached read-only per (n, budget).  A pass
  makes one monomial kernel call whose rows are g's own exponents, which
  give h, followed by the requested alphas they miss; the moments sharing
  k = n + |alpha| read one contiguous block of those rows against one
  radial weight w * h**(-k/d).  The volume and the degree-d moments (and
  with them the volume gradient) thus come from the same pass.
Every backend lays out its kernel rows the same way and makes one kernel
call per pass (spherical), per sample batch (Monte Carlo) or per grid slice
(grid oracle), and returns only plain numbers and arrays aligned with the
alphas it was given.  The dispatcher _estimate builds every answer: it gives
each distinct alpha one entry (the all-zeros alpha reads the volume, moments
that vanish by symmetry read exact zeros, a backend estimates only the
rest) and turns the backend's numbers into the VolumeEstimate and the
moment entries.

A slow grid indicator oracle provides an independent cross-check.  All
estimates carry a standard error: zero for the spherical backend,
statistical for Monte Carlo, and a boundary-cell bound for the grid.
Infinite volume has one tolerance, _GATE_TOLERANCE: the feasibility gate
and the spherical pass both reject a sphere minimum at or below it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import (
    Exponent,
    GeneralizedPolynomial,
    _hankel_layout,
    _slice_weights,
    enumerate_indices,
    monomials,
)

SPHERICAL = "spherical"
MONTE_CARLO = "monte_carlo"
GRID_ORACLE = "grid_oracle"
CLOSED_FORM = "closed_form"

DEFAULT_BUDGETS = {SPHERICAL: 8192, MONTE_CARLO: 200_000, GRID_ORACLE: 1_000_000}

_MC_BATCH = 1 << 16
_GRID_CACHE_SIZE = 8  # sphere grids kept; an n = 3, budget 32768 grid is 1 MB
_GATE_BUDGET = 2048  # sphere grid screened by the n = 3 feasibility gate
_GATE_ZOOM_DIMS = 3  # most tangent directions one gate zoom level spans
_GATE_TOLERANCE = 1e-9  # a sphere minimum at or below this counts as infinite volume
_HANKEL_SIGMAS = 3.0  # standard errors the Hankel diagonal bound allows


class InfiniteVolumeError(ValueError):
    """The sublevel set is (or looks) of infinite Lebesgue volume."""

    def __init__(self, message: str, sphere_minimum: float | None = None):
        super().__init__(message)
        self.sphere_minimum = sphere_minimum


class EffectiveSampleSizeWarning(UserWarning):
    """Importance weights are heavy-tailed; the input is near infeasibility."""


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume value with uncertainty and provenance.

    std_error is 0 for the spherical backend, a statistical standard error
    for Monte Carlo, and a boundary-cell discretization bound for the grid
    oracle.  ess is the effective sample size (Monte Carlo only).
    """

    value: float
    std_error: float
    backend: str
    samples_or_nodes: int
    ess: float | None = None


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the sphere-minimum heuristic for finite volume.

    finite_volume = False is a proof (a strictly negative direction was
    found); finite_volume = True is a belief, not a proof.
    """

    finite_volume: bool
    sphere_minimum: float


@dataclass(frozen=True)
class MomentTable:
    """Moments of one sublevel set, keyed by exponent numerators over q."""

    q: int
    entries: dict[Exponent, tuple[float, float]]
    normalization: VolumeEstimate

    def value(self, alpha: Exponent) -> float:
        return self.entries[tuple(alpha)][0]

    def error(self, alpha: Exponent) -> float:
        return self.entries[tuple(alpha)][1]

    def rows(self):
        """(alpha, value, std_error) triples in canonical order, volume row first."""
        out = []
        for alpha in sorted(self.entries, key=lambda a: (sum(a), tuple(-x for x in a))):
            v, e = self.entries[alpha]
            out.append((alpha, v, e))
        return out


@dataclass(frozen=True)
class MomentMatrix:
    """Matrix of moments M[a, b] = moment(g, a + b) over an ordered basis."""

    basis: tuple[Exponent, ...]
    values: np.ndarray
    errors: np.ndarray
    q: int
    normalization: VolumeEstimate


# -- closed forms -------------------------------------------------------------


def closed_form_ball_volume(n: int, d) -> float:
    """Volume of {x : sum |x_i|**d <= 1}: 2^n Gamma(1/d)^n / (n d^(n-1) Gamma(n/d))."""
    d = float(Fraction(d)) if not isinstance(d, float) else d
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not d > 0:
        raise ValueError(f"degree must be positive, got {d}")
    log_vol = (
        n * math.log(2.0)
        + n * math.lgamma(1.0 / d)
        - math.log(n)
        - (n - 1) * math.log(d)
        - math.lgamma(n / d)
    )
    if log_vol > 709.0:
        raise OverflowError(
            f"ball volume overflows double precision for n={n}, d={d} "
            f"(log volume {log_vol:.1f})"
        )
    if log_vol < -745.0:
        raise OverflowError(
            f"ball volume underflows double precision for n={n}, d={d} "
            f"(log volume {log_vol:.1f})"
        )
    return math.exp(log_vol)


def closed_form_ball_moment(n: int, d) -> float:
    """integral over the d-ball of |x_i|**d, for any axis i: its volume / (n + d)."""
    d = float(Fraction(d)) if not isinstance(d, float) else d
    return closed_form_ball_volume(n, d) / (n + d)


# -- symmetry zeros -----------------------------------------------------------


def _symmetry_zero(g: GeneralizedPolynomial, alpha: Exponent) -> bool:
    """True when integral_G x^alpha vanishes exactly by symmetry.

    Classical (even-degree) polynomials give centrally symmetric G, killing
    every moment of odd total degree; when additionally every stored
    exponent is even, G is invariant under per-coordinate sign flips and
    any alpha with an odd component vanishes.  _estimate returns such
    moments as exact zeros and never hands them to a backend.
    """
    if not g.is_classical:
        return False
    if sum(alpha) % 2 == 1:
        return True
    return g.has_even_support() and any(a % 2 == 1 for a in alpha)


# -- spherical backend --------------------------------------------------------


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _sphere_grid(n: int, budget: int):
    """Quadrature directions and weights on the unit sphere S^(n-1), read-only."""
    if n == 2:
        nodes = max(16, int(budget))
        nodes -= nodes % 4  # multiple of 4 keeps coordinate symmetries exact
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        weights = np.full(nodes, 2.0 * math.pi / nodes)
    elif n == 3:
        half = max(4, int(round(math.sqrt(max(budget, 32) / 2.0))))
        azim = 2 * half
        u, wu = np.polynomial.legendre.leggauss(half)  # u = cos(polar angle)
        psi = 2.0 * math.pi * np.arange(azim) / azim
        s = np.sqrt(1.0 - u**2)
        dirs = np.empty((half, azim, 3))
        dirs[..., 0] = s[:, None] * np.cos(psi)[None, :]
        dirs[..., 1] = s[:, None] * np.sin(psi)[None, :]
        dirs[..., 2] = u[:, None]
        dirs = dirs.reshape(-1, 3)
        weights = np.repeat(wu * (2.0 * math.pi / azim), azim)
    else:
        raise ValueError(f"spherical backend supports n in {{2, 3}}, got {n}")
    for arr in (dirs, weights):
        arr.setflags(write=False)
    return dirs, weights


def _kernel_rows(g: GeneralizedPolynomial, live):
    """Exponent rows of a pass's one kernel call, and the row of each live alpha.

    g's own exponents come first, so g is ``g._coeffs @ P[:len(g._exponents)]``
    on the kernel output P; the live alphas they miss follow, grouped by
    total degree with g's own degree leading, so the alphas of one total
    degree (one k) occupy one contiguous block of rows.
    """
    rows = g._exponents
    row = {alpha: i for i, alpha in enumerate(map(tuple, rows.tolist()))}
    total = int(g.degree * g.q)
    extra = sorted(
        (a for a in live if a not in row),
        key=lambda a: (sum(a) != total, sum(a)),
    )
    row.update((a, len(rows) + i) for i, a in enumerate(extra))
    if extra:
        rows = np.vstack([rows, np.array(extra, dtype=np.intp)])
    return rows, [row[a] for a in live]


def _spherical_estimate(g: GeneralizedPolynomial, live, budget: int, seed: int):
    n, d = g.n, g.degree_float
    dirs, w = _sphere_grid(n, budget)
    rows, live_rows = _kernel_rows(g, live)
    P = monomials(g.lattice_base(dirs), rows)
    h = g._coeffs @ P[: len(g._exponents)]
    hmin = float(h.min())
    if hmin <= _GATE_TOLERANCE:
        raise InfiniteVolumeError(
            f"sublevel set has infinite volume (sphere minimum {hmin:.6g})",
            sphere_minimum=hmin,
        )
    vol = np.dot(w, h ** (-n / d)) / n
    degrees = [sum(a) for a in live]
    moments = np.empty(len(rows))
    for degree in set(degrees):
        # the alphas of one total degree share k and one block of kernel rows;
        # moments[r] is the moment of kernel row r once its block is done
        at = [r for r, t in zip(live_rows, degrees) if t == degree]
        lo, hi = min(at), max(at)
        k = n + degree / g.q
        moments[lo : hi + 1] = P[lo : hi + 1] @ (w * h ** (-k / d)) / k
    return vol, 0.0, moments[live_rows], np.zeros(len(live)), len(w), None


# -- Monte Carlo backend ------------------------------------------------------


def _reference_ratio_minimum(g: GeneralizedPolynomial, seed: int) -> float:
    """Seeded probe of min over directions of g / sum |x_i|^d.

    Both functions are positively homogeneous of the same degree, so the
    ratio is constant along rays and can be evaluated at raw samples; axis
    and diagonal directions (where cross terms bite) are always included.
    """
    n, d = g.n, g.degree_float
    rng = np.random.default_rng([max(0, int(seed)), 131071])
    t = rng.gamma(1.0 / d, 1.0, size=(4096, n))
    x = t ** (1.0 / d) * (rng.integers(0, 2, size=(4096, n)) * 2 - 1)
    ratios = np.asarray(g.evaluate(x), dtype=float) / t.sum(axis=1)
    probes = np.vstack([np.ones(n), -np.ones(n), np.eye(n), -np.eye(n)])
    ratios = np.append(ratios, g.evaluate(probes) / np.sum(np.abs(probes) ** d, axis=1))
    return float(ratios.min())


def _mc_estimate(g: GeneralizedPolynomial, live, budget: int, seed: int):
    """Importance sampling with reference density proportional to exp(-sum |x_i|^d).

    Coordinates are drawn via |x_i|^d ~ Gamma(1/d) with random signs; the
    sample stream is split per batch index so results depend only on
    (seed, budget), not on how batches are scheduled.

    The reference only dominates exp(-2g) when g is at least about half of
    sum |x_i|^d in every direction; otherwise the weights are heavy-tailed
    and the plain estimator has infinite variance.  In that case the
    estimator is applied to the rescaled input tau * g and mapped back
    exactly through homogeneity, f(g) = tau**(n/d) f(tau g), which keeps
    the reference family fixed while taming the weights.
    """
    n, d = g.n, g.degree_float
    ratio_min = _reference_ratio_minimum(g, seed)
    tau = 1.0
    if 0.0 < ratio_min < 0.75:
        tau = min(0.75 / ratio_min, 1e6)
        g = g.rescale(tau)
    log_zref = n * (math.log(2.0) + math.lgamma(1.0 + 1.0 / d))
    # row 0 sums the weights themselves, for the volume; row 1 + i sums live[i]
    sums = np.zeros(len(live) + 1)
    sums2 = np.zeros(len(live) + 1)
    rows, live_rows = _kernel_rows(g, live)
    n_batches = (budget + _MC_BATCH - 1) // _MC_BATCH
    for b in range(n_batches):
        size = min(_MC_BATCH, budget - b * _MC_BATCH)
        rng = np.random.default_rng([max(0, int(seed)), b])
        t = rng.gamma(1.0 / d, 1.0, size=(size, n))
        x = t ** (1.0 / d)
        x *= rng.integers(0, 2, size=(size, n)) * 2 - 1
        P = monomials(g.lattice_base(x), rows)
        excess = g._coeffs @ P[: len(g._exponents)] - t.sum(axis=1)
        if np.min(excess) < -700.0:
            raise InfiniteVolumeError(
                "importance weights overflow: the integrand exp(-g) is not "
                "dominated by the axis-power reference density"
            )
        w = np.exp(-excess)
        sums[0] += w.sum()
        sums2[0] += (w * w).sum()
        fw = P[live_rows]
        fw *= w
        sums[1:] += fw.sum(axis=1)
        fw *= fw
        sums2[1:] += fw.sum(axis=1)
    ess = float(sums[0] ** 2 / sums2[0]) if sums2[0] > 0 else 0.0
    if ess < 0.01 * budget:
        warnings.warn(
            f"effective sample size {ess:.1f} below 1% of budget {budget}; "
            "the polynomial is near the feasibility boundary",
            EffectiveSampleSizeWarning,
            stacklevel=3,
        )
    mean = sums / budget
    se = np.sqrt(np.maximum(0.0, sums2 / budget - mean * mean) / max(1, budget - 1))
    # map the tempered estimates back through f(g) = tau**(k/d) f(tau g), with
    # k = n for the volume and k = n + |alpha| for each moment
    ks = [n] + [n + sum(a) / g.q for a in live]
    c = np.array([math.exp(log_zref - math.lgamma(1.0 + k / d)) * tau ** (k / d) for k in ks])
    value, err = c * mean, c * se
    return value[0], err[0], value[1:], err[1:], budget, ess


# -- grid oracle --------------------------------------------------------------


def _grid_estimate(g: GeneralizedPolynomial, live, budget: int, seed: int):
    """Indicator integration of g(x) <= 1 on a uniform cell grid.

    Intentionally simple and slow; the bounding half-width comes from the
    sphere minimum.  One jittered sample per cell makes the estimator
    unbiased (plain cell centers are systematically off along boundary
    stretches that run parallel to the grid), so the boundary-cell count
    gives an honest standard error: each boundary cell is a Bernoulli
    trial worth at most half a cell.
    """
    n, d = g.n, g.degree_float
    if n not in (2, 3):
        raise ValueError(f"grid oracle supports n in {{2, 3}}, got {n}")
    hmin = _finite_or_raise(finite_volume_test(g, seed=seed), "sublevel set")
    half_width = hmin ** (-1.0 / d)
    m = max(8, int(budget ** (1.0 / n)))
    step = 2.0 * half_width / m
    corners = -half_width + step * np.arange(m)
    cell = step**n
    sums = np.zeros(len(live))
    fmax = np.zeros(len(live))
    rows, live_rows = _kernel_rows(g, live)
    inside_mask = np.empty((m,) * n, dtype=bool)
    tail = np.stack(np.meshgrid(*([corners] * (n - 1)), indexing="ij"), axis=-1)
    tail = tail.reshape(-1, n - 1)
    for i0 in range(m):
        # per-slice stream keeps results independent of slicing order
        rng = np.random.default_rng([max(0, int(seed)), 515, i0])
        pts = np.concatenate([np.full((tail.shape[0], 1), corners[i0]), tail], axis=1)
        pts = pts + step * rng.random(pts.shape)
        P = monomials(g.lattice_base(pts), rows)
        inside = g._coeffs @ P[: len(g._exponents)] <= 1.0
        inside_mask[i0] = inside.reshape(inside_mask.shape[1:])
        if inside.any() and live:
            f = P[live_rows].compress(inside, axis=1)
            sums += f.sum(axis=1)
            fmax = np.maximum(fmax, np.abs(f).max(axis=1))
    count = int(np.count_nonzero(inside_mask))
    crossings = 0
    for ax in range(n):
        crossings += int(np.count_nonzero(np.diff(inside_mask, axis=ax)))
    sigma = 0.5 * cell * math.sqrt(max(1, crossings))
    return count * cell, sigma, sums * cell, sigma * fmax, m**n, None


# -- dispatch -----------------------------------------------------------------

# each backend maps (g, live, budget, seed) to the volume and its error, the
# live moments' values and errors as arrays aligned with live, the node or
# sample count and the ESS (None outside Monte Carlo)
_BACKENDS = {
    SPHERICAL: _spherical_estimate,
    MONTE_CARLO: _mc_estimate,
    GRID_ORACLE: _grid_estimate,
}


def _estimate(g, alphas, backend: str, budget: int | None, seed: int):
    """(volume, moments) of one backend pass, one entry per distinct alpha in order.

    The all-zeros alpha reads the volume and moments that vanish by symmetry
    read exact zeros; only the remaining live alphas reach the backend, and
    its plain numbers become the VolumeEstimate and the moment entries here.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}")
    budget = DEFAULT_BUDGETS[backend] if budget is None else int(budget)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    moments = {tuple(a): (0.0, 0.0) for a in alphas}
    live = [a for a in moments if any(a) and not _symmetry_zero(g, a)]
    vol, vol_err, values, errors, nodes, ess = _BACKENDS[backend](g, live, budget, seed)
    moments.update(zip(live, zip(values.tolist(), errors.tolist())))
    est = VolumeEstimate(float(vol), float(vol_err), backend, nodes, ess)
    if (0,) * g.n in moments:
        moments[(0,) * g.n] = (est.value, est.std_error)
    return est, moments


def volume(
    g: GeneralizedPolynomial,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
) -> VolumeEstimate:
    """Estimate vol({x : g(x) <= 1}).

    Deterministic backends are bit-reproducible; the Monte Carlo backend is
    reproducible given (seed, budget).  Callers are expected to have run
    finite_volume_test first; an infeasible input raises
    InfiniteVolumeError where the backend can detect it.
    """
    est, _ = _estimate(g, [], backend, budget, seed)
    return est


def moment(
    g: GeneralizedPolynomial,
    alpha,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """(value, std_error) of integral_G x^alpha dx.

    alpha is a tuple of exponent numerators over g's lattice denominator.
    Classical inputs integrate the signed monomial, generalized inputs the
    absolute one; Gamma normalization follows 1 + (n + |alpha|)/d.
    """
    _, moments = _estimate(g, [tuple(alpha)], backend, budget, seed)
    return moments[tuple(alpha)]


def moment_table(
    g: GeneralizedPolynomial,
    alphas=None,
    max_order=None,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
) -> MomentTable:
    """Estimate a batch of moments with one shared pass (shared samples).

    By default the table covers the degree-d lattice slice (the index set
    of g's own coefficients).  With max_order it covers every lattice
    multi-index of total degree <= max_order, including the all-zeros
    volume row.
    """
    if alphas is None:
        if max_order is not None:
            if Fraction(max_order) < 0:
                raise ValueError(f"max_order must be >= 0, got {max_order}")
            top = int(Fraction(max_order) * g.q)
            alphas = [
                a
                for k in range(top + 1)
                for a in enumerate_indices(g.n, k)
            ]
        else:
            alphas = enumerate_indices(g.n, int(g.degree * g.q))
    est, moments = _estimate(g, alphas, backend, budget, seed)
    return MomentTable(g.q, moments, est)


def grad_volume(
    g: GeneralizedPolynomial,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
) -> dict[Exponent, float]:
    """Gradient of the volume functional at g, keyed by exponent numerators.

    Components cover the full degree-d lattice slice in the canonical index
    order.  The component at alpha is -(n + d)/d times the alpha moment of
    G; in the multinomial convention the chain rule through the stored
    coefficient multiplies by c_alpha.
    """
    basis = enumerate_indices(g.n, int(g.degree * g.q))
    _, moments = _estimate(g, basis, backend, budget, seed)
    return dict(zip(basis, gradient_vector(g, moments).tolist()))


def gradient_vector(g: GeneralizedPolynomial, moments) -> np.ndarray:
    """grad_volume at g as an array in the canonical order of the degree-d slice.

    ``moments`` maps every alpha of that slice to (value, std_error), as the
    entries of g's default MomentTable do, so a caller holding that table
    takes the volume and the gradient from one pass.
    """
    basis = enumerate_indices(g.n, int(g.degree * g.q))
    factor = -(g.n + g.degree_float) / g.degree_float
    if g.convention == "multinomial":
        factor = factor * _slice_weights(g.n, int(g.degree * g.q), g.q)
    return factor * np.array([moments[a][0] for a in basis])


def moment_matrix(
    g: GeneralizedPolynomial,
    half_degree: int | None = None,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
) -> MomentMatrix:
    """Moment matrix M[a, b] = moment(g, a + b) over the half-degree basis.

    half_degree counts exponent numerators (so d*q/2 by default, which must
    be an integer).  Each distinct a + b is estimated once and mirrored, so
    M is symmetric by construction.
    """
    if half_degree is None:
        twice = g.degree * g.q
        if twice.denominator != 1 or int(twice) % 2 != 0:
            raise ValueError(
                f"d*q = {twice} is odd; pass half_degree explicitly"
            )
        half_degree = int(twice) // 2
    basis, gammas, index = _hankel_layout(g.n, int(half_degree))
    est, moments = _estimate(g, gammas, backend, budget, seed)
    table = np.array([moments[key] for key in gammas])
    return MomentMatrix(basis, table[index, 0], table[index, 1], g.q, est)


def euler_residual(
    g: GeneralizedPolynomial,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
) -> float:
    """integral_G g dx minus n/(n+d) * vol(G), from one shared pass.

    Homogeneity forces this to vanish; the shared pass makes the two
    estimates correlate so the residual is a sharp self-test.
    """
    support = list(g.terms)
    est, moments = _estimate(g, support, backend, budget, seed)
    integral_g = sum(g.monomial_coefficient(a) * moments[tuple(a)][0] for a in support)
    n, d = g.n, g.degree_float
    return integral_g - n / (n + d) * est.value


def finite_volume_test(
    g: GeneralizedPolynomial,
    restarts: int = 8,
    seed: int = 0,
) -> FeasibilityVerdict:
    """Minimum of g over the unit sphere by a scan and a batched zoom search.

    The exact axes +-e_i always count.  n = 2 scans 2048 angles, then zooms
    in on the `restarts` best: each level evaluates 9 angles across [-h, h]
    around every candidate in one batch, keeps the best and divides h by 4,
    from one scan step down to 1e-13.  n >= 3 starts from the axes, the
    diagonal and seeded random directions (for n = 3 also from the best
    nodes of a cached sphere grid) and zooms in tangent coordinates: each
    level tries a 5**k stencil of radius r around every candidate, projects
    it back onto the sphere, keeps the best and shrinks r from 0.5 down to
    1e-10.  For n <= 4 the stencil spans the whole tangent space (k = n - 1)
    and r halves each level; above that it spans a seeded random
    3-dimensional tangent subspace (k = 3), so its size stays bounded, and r
    halves once every (n - 1)/3 levels.  The search uses no derivatives, so
    the kinks of generalized inputs do not stall it.

    Every tried point is a unit direction and counts towards the minimum,
    so a strictly negative minimum proves infinite volume (g is negative on
    an open cone).  finite_volume = True only means no negative direction
    was found; minima at exactly zero are reported as infeasible because
    the sublevel set is then unbounded along the minimizing direction.
    """
    n = g.n
    # the scan's cos and sin miss the axes by round-off, which |x|**(1/q) inflates
    smin = float(np.min(g.evaluate(np.vstack([np.eye(n), -np.eye(n)]))))
    if n == 1:
        return FeasibilityVerdict(smin > _GATE_TOLERANCE, smin)
    if n == 2:
        step = 2.0 * math.pi / 2048
        theta = step * np.arange(2048)
        values = np.asarray(g.evaluate(np.stack([np.cos(theta), np.sin(theta)], -1)))
        smin = min(smin, float(values.min()))
        best = theta[np.argsort(values)[: max(1, restarts)]]
        h = step
        while h >= 1e-13:
            trial = best[:, None] + h * np.linspace(-1.0, 1.0, 9)
            values = g.evaluate(np.stack([np.cos(trial), np.sin(trial)], -1))
            smin = min(smin, float(values.min()))
            best = trial[np.arange(len(trial)), values.argmin(axis=1)]
            h /= 4.0
        return FeasibilityVerdict(smin > _GATE_TOLERANCE, smin)

    count = max(restarts, n + 1)
    rng = np.random.default_rng([max(0, int(seed)), 911])
    starts = [np.eye(n)[i] for i in range(n)]
    starts.append(np.full(n, 1.0 / math.sqrt(n)))
    while len(starts) < count:
        v = rng.normal(size=n)
        starts.append(v / np.linalg.norm(v))
    best = np.array(starts)
    if n == 3:
        # every grid node is a unit direction, so a negative grid value is proof
        nodes = _sphere_grid(3, _GATE_BUDGET)[0]
        values = g.evaluate(nodes)
        smin = min(smin, float(values.min()))
        best = np.vstack([best, nodes[np.argsort(values)[: max(1, restarts)]]])
    k = min(n - 1, _GATE_ZOOM_DIMS)
    axis = np.linspace(-1.0, 1.0, 5)
    stencil = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), -1).reshape(-1, k)
    rows = np.arange(len(best))
    r = 0.5
    while r >= 1e-10:
        # Q of [v, M] is orthogonal with first column +-v even when v is an
        # axis, so its other k columns span a tangent subspace at v
        spread = np.eye(n)[:, :k] if k == n - 1 else rng.normal(size=(len(best), n, k))
        frame = np.concatenate(
            [best[:, :, None], np.broadcast_to(spread, (len(best), n, k))], axis=2
        )
        tangent = np.linalg.qr(frame)[0][:, :, 1:]
        trial = best[:, None, :] + r * stencil @ tangent.transpose(0, 2, 1)
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
        values = g.evaluate(trial)
        smin = min(smin, float(values.min()))
        best = trial[rows, values.argmin(axis=1)]
        r /= 2.0 ** (k / (n - 1))
    return FeasibilityVerdict(smin > _GATE_TOLERANCE, smin)


def _finite_or_raise(verdict: FeasibilityVerdict, what: str) -> float:
    """The verdict's sphere minimum; InfiniteVolumeError naming ``what`` if it is infinite."""
    if not verdict.finite_volume:
        raise InfiniteVolumeError(
            f"{what} has infinite volume (sphere minimum {verdict.sphere_minimum:.6g})",
            sphere_minimum=verdict.sphere_minimum,
        )
    return verdict.sphere_minimum


def hankel_diag_bound_check(mm: MomentMatrix) -> bool:
    """Check |M[a, b]| <= max axis moment, up to three combined standard errors.

    The axis moments are the diagonal entries at the pure powers
    (d*q/2) * e_i; for the ball B_d they dominate every other moment, a
    structural consequence of M being positive semidefinite Hankel.
    """
    basis = list(mm.basis)
    half = sum(basis[0])
    bound = -math.inf
    bound_err = 0.0
    n = len(basis[0])
    for i in range(n):
        pure = tuple(half if j == i else 0 for j in range(n))
        k = basis.index(pure)
        if mm.values[k, k] > bound:
            bound = float(mm.values[k, k])
            bound_err = float(mm.errors[k, k])
    excess = np.abs(mm.values) - bound
    allowance = _HANKEL_SIGMAS * np.hypot(mm.errors, bound_err)
    return bool((excess <= allowance).all())
