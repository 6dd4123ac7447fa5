"""Volumes and moments of polynomial sublevel sets G = {x : g(x) <= 1}.

For a positively homogeneous g of degree d every answer comes from one
radial reduction: for any star-shaped sphere S about the origin with its
cone measure sigma,
      integral_G x^alpha dx
        = (n + |alpha|)^-1 * integral_S theta^alpha h(theta)^-(n+|alpha|)/d dsigma,
with h the restriction of g to S.  The deterministic spherical backend
takes, for a classical g, S the unit sphere and a quadrature rule on it
(periodic trapezoid for n = 2, product Gauss-Legendre for n = 3), cached
read-only per (n, budget, orthant).  No pass reads the whole rule.  A
sign-symmetric classical input (GeneralizedPolynomial.sign_symmetric)
reads its nodes in one orthant, each weighted by its sign orbit (1/4 of
them at n = 2, 1/8 at n = 3); any other is even, g(-x) = g(x), and reads
those of azimuth in [0, pi), each weighted for its antipode too: queries,
descents and the feasibility gate alike, for the whole rule's answers up
to round-off.  Every pass but the gate's moves that half grid into G's
isotropic position (_isotropic_grid), where G's second moments are a
multiple of the identity: the same node count, exact for ellipsoids.  A
generalized g, g(x) = p(y) at y = |x|**(1/q), integrates in y on the third
node source, _lattice_grid: Gauss-Legendre on the orthant of the unit
sphere, where the kinks of |x|**(1/q) never show, so it converges
spectrally.  Monte Carlo takes S the unit sphere too: random directions
(normalized normal draws) moved into G's isotropic position by the same
map, each weighted by its Jacobian, with B_d's integrand at the same nodes
as a regression control variate of known mean (_mc_estimate), so B_d, a
scaled B_d and an ellipsoid's volume come out exact.  One function,
_radial_pass, checks the spherical reach (n in {2, 3}), picks the nodes,
their fold and their kernel base, and makes one monomial kernel call P on
given rows; _radial reads h from P's leading rows, rejects infinite volume
and gives the radial factors, and the moments sharing k = n + |alpha| come
from one contiguous run of rows (_k_runs) against one radial weight w *
h**(-k/d).  A query's rows are g's own exponents, then the requested
alphas they miss, so the volume and the degree-d moments (and with them
the volume gradient) come from the same pass; a solve asks _descent_pass
for one pass on the degree-d slice, whose rows drop the moments that
vanish by symmetry at its start, and runs it at every trial.  _estimate
lays out a query's rows once, for any backend.  _radial_pass makes one
kernel call; Monte Carlo queries and the grid oracle make one per block of
at most _BLOCK points (the grid's blocks are whole slices, at least one),
which bounds the memory of a block's samples and kernel output, and their
random streams do not depend on the block.  Monte Carlo nodes come in
batches of _MC_BATCH, each from its own stream; a query takes its blocks
in order as the batches arrive, while a worker thread of its own, joined
before it returns or raises, draws the next _DRAW_AHEAD batches
(_cone_batches) and does their node-only work (_mc_nodes: the isotropic
move, the Jacobians and B_d's radial factors), so the caller runs only g's
kernel and the sums; that saves time only where the process has a CPU to
spare for the thread.  Its answers do not depend on where a batch was
drawn, its nodes in memory are those of the batches in flight, and an
infeasible input raises at its pilot (_mc_map) or its first bad block,
before the later batches are drawn.  The kernel keeps its own working set
small, whatever the backend: it builds a large call in chunks of points
(polynomials._KERNEL_ENTRIES).  Every backend returns only plain numbers
and arrays aligned with the alphas it was given.  The dispatcher _estimate
builds every answer: it gives each distinct alpha one entry (the all-zeros
alpha reads the volume, moments that vanish by symmetry read exact zeros,
a backend estimates only the rest) and turns the backend's numbers into
the VolumeEstimate and the moment entries.

Homogeneity, {k g <= 1} = k**(-1/d) {g <= 1}, has one home too:
_homogeneity_factor, by which _rescaled_moments maps a solve's table to its
rescaled ball.  A spherical query given no budget on a scaled ball power
c (sum_i |x_i|**e)**m (_ball_power), whose G is c**(-1/d) B_e, reads no
nodes: every answer is B_e's by Dirichlet's formula times that factor, at
any n, and the gate's minimum is exact.

A slow grid indicator oracle cross-checks volume and moment queries; no
solve reads it.  All estimates carry a standard error: zero for the
spherical backend, statistical for Monte Carlo, and a boundary-cell bound
for the grid.  Infinite volume has one rule, _volume_verdict: the
feasibility gate and both radial backends reject a minimum of g over their
nodes, exact axes included, at or below _GATE_TOLERANCE max |c_alpha|,
which scales with g.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .polynomials import (
    MULTINOMIAL,
    Exponent,
    GeneralizedPolynomial,
    _check_alphas,
    _check_even_degree,
    _check_integer,
    _check_rational,
    _flip_invariant,
    _hankel_layout,
    _multinomial,
    _slice_weights,
    enumerate_indices,
    monomials,
)

SPHERICAL = "spherical"
MONTE_CARLO = "monte_carlo"
GRID_ORACLE = "grid_oracle"

DEFAULT_BUDGETS = {SPHERICAL: 8192, MONTE_CARLO: 200_000, GRID_ORACLE: 1_000_000}

_MC_BATCH = 1 << 16  # samples per Monte Carlo stream
# Monte Carlo batches drawn ahead of the one in use, on a worker thread; at 1
# the thread, done with batch 1, would idle while the caller runs batch 0's kernel
_DRAW_AHEAD = 2
# extra stream words of the Monte Carlo draws: a query's batch b reads [seed, b], a
# descent's [seed, b, 1], a pilot's [seed, 0, 2]; no two passes share a node
_DESCENT_STREAM, _PILOT_STREAM = (1,), (2,)
_BLOCK = 1 << 13  # most points per Monte Carlo or grid kernel call; bounds a block's memory
assert _MC_BATCH % _BLOCK == 0  # so a Monte Carlo block never spans two batches
_GRID_CACHE_SIZE = 8  # sphere grids kept; at n = 3, budget 32768 a half grid is 0.5 MB, an orthant 1/4
_LATTICE_NODES = 64  # most Gauss-Legendre nodes per angle of a lattice grid (64**2 at n = 3)
_GATE_BUDGET = 2048  # sphere grid (n <= 3) or random directions (n >= 4) the gate and a pilot scan
_GATE_RESTARTS = 8  # best scan nodes zoomed besides the axes and the diagonal
_GATE_ZOOM_DIMS = 3  # most chart axes one gate zoom level spans
_GATE_TOLERANCE = 1e-9  # a sphere minimum at or below this times max |c_alpha| is infinite volume


class InfiniteVolumeError(ValueError):
    """The sublevel set is (or looks) of infinite Lebesgue volume.

    sphere_minimum is the least value of g that _volume_verdict saw, exact
    axes included.  From the feasibility gate it is g's minimum found on the
    unit sphere; from a pass, g's least value at that pass's nodes, which
    are unit vectors on the sphere grids and in Monte Carlo, its pilot's
    included; lattice nodes are unit vectors in y = |x|**(1/q), so |x| <= 1
    there.
    """

    def __init__(self, message: str, sphere_minimum: float | None = None):
        super().__init__(message)
        self.sphere_minimum = sphere_minimum


class EffectiveSampleSizeWarning(UserWarning):
    """Monte Carlo's volume samples are heavy-tailed past their control; the input is near infeasibility."""


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume value with uncertainty and provenance.

    std_error is 0 for the spherical backend, a statistical standard error
    for Monte Carlo, and a boundary-cell discretization bound for the grid
    oracle.  samples_or_nodes counts the points evaluated: for a spherical
    pass on a classical input the orthant's nodes (sign-symmetric input) or
    the half grid's (any other), on a generalized input the lattice grid's,
    and 0 for a closed form (a scaled ball power queried with no budget).
    ess is the effective sample size (Monte Carlo only), budget mean**2 /
    (mean**2 + var) of the volume's samples after their control variate:
    the budget itself where the control fits exactly (B_d, a scaled B_d, an
    ellipsoid).

    ``ballrep volume`` and the normalization of a ``ballrep moments`` JSON
    document print these fields as they are, in this order, without a
    None-valued one, so every field must stay a plain JSON value (or a
    dataclass of them).
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


def _homogeneity_factor(k: float, n: int, total, q: int, degree) -> float:
    """Moment of {k g <= 1} = k**(-1/d) {g <= 1} over g's, for numerators (over q) summing to total."""
    return k ** (-(n + total / q) / float(degree))


def _rescaled_moments(table: MomentTable, k: float, degree) -> MomentTable:
    """k * g's moment table from g's, exact: every value and error, the volume's too, times its factor."""
    n = len(next(iter(table.entries)))
    f = {a: _homogeneity_factor(k, n, sum(a), table.q, degree) for a in table.entries}
    entries = {a: (v * f[a], e * f[a]) for a, (v, e) in table.entries.items()}
    est, f0 = table.normalization, _homogeneity_factor(k, n, 0, table.q, degree)
    est = replace(est, value=est.value * f0, std_error=est.std_error * f0)
    return replace(table, entries=entries, normalization=est)


@dataclass(frozen=True)
class MomentMatrix:
    """Matrix of moments M[a, b] = moment(g, a + b) over an ordered basis."""

    basis: tuple[Exponent, ...]
    values: np.ndarray
    errors: np.ndarray
    q: int
    normalization: VolumeEstimate


# -- closed forms -------------------------------------------------------------


def _ball_moment(n: int, d, alpha, q: int = 1) -> float:
    """integral over B_d of prod |x_i|**(alpha_i / q), by Dirichlet's formula

    2^n prod Gamma((a_i + 1)/d) / (d^n Gamma(1 + (n + |a|)/d)), a = alpha / q.
    """
    d = float(d)
    a = [float(ai) / q for ai in alpha]
    log_value = (
        n * math.log(2.0 / d)
        + sum(math.lgamma((ai + 1.0) / d) for ai in a)
        - math.lgamma(1.0 + (n + sum(a)) / d)
    )
    if not -745.0 <= log_value <= 709.0:
        raise OverflowError(
            f"closed form {'overflows' if log_value > 0 else 'underflows'} double "
            f"precision for n={n}, d={d} (log value {log_value:.1f})"
        )
    return math.exp(log_value)


def closed_form_ball_volume(n: int, d) -> float:
    """Volume of {x : sum |x_i|**d <= 1}: 2^n Gamma(1/d)^n / (d^n Gamma(1 + n/d))."""
    n, d = _check_integer(n, "dimension", 1), _check_rational(d, "degree", positive=True)
    return _ball_moment(n, d, [0] * n)


def closed_form_ball_moment(n: int, d) -> float:
    """integral over the d-ball of |x_i|**d, for any axis i: its volume / (n + d)."""
    d, n = _check_rational(d, "degree", positive=True), _check_integer(n, "dimension", 1)
    return _ball_moment(n, d, [d] + [0] * (n - 1))


def _ball_power(g: GeneralizedPolynomial):
    """(c, e) if g = c (sum_i |x_i|**e)**m exactly, c > 0 and m = d/e an integer; else None.

    For a divisor m of d*q, step = d*q/m (even if g is classical): g's rows
    are step times the C(n - 1 + m, m) multi-indices beta of total m, and each
    monomial coefficient is c times beta's multinomial, with no tolerance.
    No m past len(rows) can match: C(n - 1 + m, m) >= m + 1 at n >= 2, and
    at n = 1 every m gives the answer of m = 1.
    """
    rows, total = g._exponents, int(g.degree * g.q)
    for m in range(1, min(total, len(rows)) + 1):
        step = total // m
        if (total % m or len(rows) != math.comb(g.n - 1 + m, m)
                or g.is_classical and step % 2 or (rows % step).any()):
            continue
        c = g._coeffs / [_multinomial(beta) for beta in map(tuple, (rows // step).tolist())]
        if c[0] > 0 and (c == c[0]).all():
            return float(c[0]), Fraction(step, g.q)
    return None


def _ball_power_estimate(g: GeneralizedPolynomial, live, c: float, e):
    """A backend's numbers for g = c (sum_i |x_i|**e)**m: B_e's, each times its _homogeneity_factor."""
    values = [_homogeneity_factor(c, g.n, sum(a), g.q, g.degree) * _ball_moment(g.n, e, a, g.q)
              for a in [(0,) * g.n] + live]
    return values[0], 0.0, np.array(values[1:]), np.zeros(len(live)), 0, None


# -- symmetry zeros -----------------------------------------------------------


def _symmetry_zero(g: GeneralizedPolynomial, alphas) -> np.ndarray:
    """Mask of the alphas whose integral_G x^alpha vanishes exactly by symmetry.

    Classical (even-degree) polynomials give centrally symmetric G, killing
    every moment of odd total degree; when additionally every stored
    exponent is even, G is invariant under per-coordinate sign flips and
    every alpha that is not _flip_invariant vanishes.  _estimate and
    _descent_pass return such moments as exact zeros, never computed.
    """
    if not (g.is_classical and len(alphas)):
        return np.zeros(len(alphas), dtype=bool)
    if g._even_support:  # an odd total degree has an odd exponent: flip invariance decides
        return ~_flip_invariant(alphas, True)
    return np.asarray(alphas).sum(axis=1) % 2 == 1


# -- spherical backend --------------------------------------------------------


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _sphere_grid(n: int, budget: int, orthant: bool):
    """Quadrature directions and weights on the unit sphere S^(n-1), read-only.

    n = 2 takes the periodic trapezoid rule on N = max(16, budget) angles,
    less N mod 4; n = 3 the product of Gauss-Legendre in u = cos(polar
    angle) at half = round(sqrt(budget / 2)) nodes and the trapezoid rule on
    2 half azimuths; only a part of that rule is built.  Without orthant,
    the nodes of azimuth in [0, pi), at twice their weight for their
    antipodes: an integrand even under x -> -x integrates as on the whole
    rule, up to round-off, at half the nodes.  With orthant, the nodes with
    every coordinate >= 0 (angles j = 0..N/4; u >= 0 times azimuths in [0,
    pi/2]) at their sign orbit's weight, 2**(nonzero coordinates) times
    their own: an integrand unchanged by every flip x_i -> -x_i integrates
    so at 1/4 (n = 2) or 1/8 (n = 3) of the nodes.  Nodes on a coordinate
    plane have exact zeros there.  Cached per (n, budget, orthant), passed
    positionally: a keyword would give the same grid a second cache entry.
    n is 2 or 3: _radial_pass checks that reach, and the gate keeps to it.
    """

    def circle(count):  # cos and sin of count equal azimuths: those in [0, pi/2], or in [0, pi)
        k = np.arange(count // 4 + 1 if orthant else count // 2)
        angle = 2.0 * math.pi * k / count
        cos = np.cos(angle)
        cos[4 * k == count] = 0.0  # cos(pi/2) is 6e-17
        return cos, np.sin(angle)

    if n == 2:
        nodes = max(16, int(budget))
        nodes -= nodes % 4  # multiple of 4 keeps coordinate symmetries exact
        dirs = np.stack(circle(nodes), axis=-1)
        weights = np.full(len(dirs), 2.0 * math.pi / nodes)
    else:  # n == 3
        half = max(4, int(round(math.sqrt(max(budget, 32) / 2.0))))
        azim = 2 * half
        u, wu = np.polynomial.legendre.leggauss(half)  # u = cos(polar angle)
        if orthant:  # leggauss's nodes ascend and mirror exactly, an odd half's middle one is 0.0
            u, wu = u[half // 2 :], wu[half // 2 :]
        cos, sin = circle(azim)
        s = np.sqrt(1.0 - u**2)
        dirs = np.empty((len(u), len(cos), 3))
        dirs[..., 0] = s[:, None] * cos[None, :]
        dirs[..., 1] = s[:, None] * sin[None, :]
        dirs[..., 2] = u[:, None]
        dirs = dirs.reshape(-1, 3)
        weights = np.repeat(wu * (2.0 * math.pi / azim), len(cos))
    weights *= 2.0 ** np.count_nonzero(dirs, axis=1) if orthant else 2.0
    for arr in (dirs, weights):
        arr.setflags(write=False)
    return dirs, weights


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _lattice_grid(n: int, q: int, budget: int):
    """Nodes of the unit sphere's nonnegative orthant and weights for a generalized g, read-only.

    In y = |x|**(1/q), dx = q**n prod y_i**(q - 1) dy on each of the 2**n
    orthants, so the nodes are the kernel's base and the weights carry
    2**n q**(n - 1) prod y_i**(q - 1).  The integrand is then analytic on the
    closed orthant, so tensor Gauss-Legendre in the n - 1 hyperspherical
    angles on [0, pi/2], m = (budget / 2**n)**(1/(n - 1)) nodes each (at most
    _LATTICE_NODES: leggauss(m) builds an m x m matrix), converges spectrally.
    Its one caller, _radial_pass, checks the spherical backend's reach first.
    """
    m = min(_LATTICE_NODES, max(2, round((budget / 2**n) ** (1.0 / (n - 1)))))
    x, wx = np.polynomial.legendre.leggauss(m)
    idx = np.indices((m,) * (n - 1)).reshape(n - 1, -1).T
    angles, weights = math.pi / 4 * (x[idx] + 1.0), np.prod(math.pi / 4 * wx[idx], axis=1)
    dirs = np.ones((len(idx), n))
    for j in range(n - 1):  # theta_j = cos(phi_j) prod_{i<j} sin(phi_i); dsigma has sin(phi_j)**(n-2-j)
        dirs[:, j] *= np.cos(angles[:, j])
        dirs[:, j + 1 :] *= np.sin(angles[:, j])[:, None]
        weights *= np.sin(angles[:, j]) ** (n - 2 - j)
    weights *= 2.0**n * q ** (n - 1) * np.prod(dirs ** (q - 1), axis=1)
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


def _axis_rows(rows, n: int):
    """g's pure-power rows, once per pass: (index, initial) for _volume_verdict.

    index lists the rows nonzero at exactly one coordinate.  On the axes
    +-e_i, which sphere grids miss, g is the coefficient of its pure power
    of x_i, or 0 if it has none: initial is inf if every axis has its row,
    else 0.
    """
    index = np.flatnonzero(np.count_nonzero(rows, axis=1) == 1)
    return index, np.inf if len(index) == n else 0.0


def _volume_verdict(c, axes, values) -> FeasibilityVerdict:
    """Finite volume or not, and g's least value seen, exact axes included.

    c holds g's monomial coefficients on its exponent rows, axes is their
    _axis_rows, values is g at the points seen.  The one rule of the
    feasibility gate and every radial pass: a minimum not above
    _GATE_TOLERANCE max |c|, which scales with g, is infinite volume.
    """
    index, initial = axes
    smin = min(float(np.min(values)), float(c[index].min(initial=initial)))
    return FeasibilityVerdict(smin > _GATE_TOLERANCE * float(np.abs(c).max(initial=0.0)), smin)


def _radial(c, P, axes, d: float, ks):
    """The radial factors h**(-k/d) at P's nodes, one array per k of ks.

    h = c @ P[:len(c)] is g at the nodes, for the monomial coefficients c on
    the leading rows of P's exponent rows, whose _axis_rows are axes; where
    _volume_verdict finds infinite volume on them, it raises
    InfiniteVolumeError.  A node of weight w adds w h**(-k/d) / k times its
    monomial to every moment of k = n + |alpha|, the volume's k being n.
    """
    h = c @ P[: len(c)]
    _finite_or_raise(_volume_verdict(c, axes, h), "sublevel set")
    return [h ** (-k / d) for k in ks]


def _isotropic_map(g: GeneralizedPolynomial, pilot, weights):
    """The map A of determinant 1 that moves G into its isotropic position.

    A = M**(1/2) / det(M)**(1/(2n)) for M = sum w theta theta^T
    h(theta)**(-(n+2)/d) on the pilot nodes theta of weights w, (n + 2)
    times G's second-moment matrix, g read through its lattice_base.  In
    the position A**-1 G its second moments are a multiple of the identity;
    on an ellipsoid {x^T Q x <= 1}, A Q A is a multiple of I.
    """
    n, rows = g.n, g._exponents
    P = monomials(g.lattice_base(pilot), rows)
    [f] = _radial(g._coeffs, P, _axis_rows(rows, n), g.degree_float, [n + 2])
    lam, v = np.linalg.eigh((pilot.T * (weights * f)) @ pilot)
    if not 0.0 < math.prod(lam.tolist()) < math.inf:  # det(M) beyond the float range
        lam = np.ldexp(lam, -math.frexp(lam[-1])[1])  # eigh of M 2**e: lam 2**e, the same v
    return (v * np.sqrt(lam / math.prod(lam) ** (1.0 / n))) @ v.T


def _isotropic_move(A, dirs):
    """Unit directions dirs (N, n) moved to y = A theta / |A theta|, and the Jacobians |A theta|**-n.

    theta -> A theta / |A theta| has Jacobian |A theta|**-n on the sphere
    (det A = 1), so a node of weight w moves to y at weight w |A theta|**-n.
    y is the transpose of a C-contiguous (n, N) array, as the kernel reads it.
    """
    y = A @ dirs.T
    s = 1.0 / np.sqrt(np.einsum("ij,ij->j", y, y))
    y *= s
    return y.T, s ** dirs.shape[1]


def _isotropic_grid(g: GeneralizedPolynomial, dirs, w):
    """The half grid (dirs, w) moved into G's isotropic position, its pilot the gate's half grid.

    Every moment's integrand on an ellipsoid is then a polynomial, which
    the grid integrates exactly.
    """
    y, jacobian = _isotropic_move(_isotropic_map(g, *_sphere_grid(g.n, _GATE_BUDGET, False)), dirs)
    return y, w * jacobian


def _k_runs(rows, n: int, q: int):
    """(lo, hi, k) for each run rows[lo:hi] of one total degree t, k = n + t/q their moments' k."""
    total = rows.sum(axis=1).tolist()
    edges = [i for i in range(len(total) + 1) if i in (0, len(total)) or total[i] != total[i - 1]]
    return [(lo, hi, n + total[lo] / q) for lo, hi in zip(edges, edges[1:])]


def _radial_pass(g: GeneralizedPolynomial, rows, backend, budget, seed, wanted=None):
    """The radial formula on the nodes of backend, built once for g: (nodes, run).

    The spherical backend's reach, n in {2, 3}, is checked here only.  Each
    node source gives the kernel's base and weights: the sphere grid of
    budget for a classical g (its orthant if sign-symmetric, else its half,
    moved into G's isotropic position once per pass, so every trial of a
    descent reads the same nodes; the rows _symmetry_zero keeps share that
    symmetry), the lattice grid of (q, budget) for any other, or on Monte
    Carlo the budget random directions of (seed, budget) on the descent's
    own streams (_DESCENT_STREAM), moved into g's isotropic position
    (_mc_nodes), each of weight |S^(n-1)| / budget times its Jacobian.
    P, the monomials of rows at the base, serves every run.  run(c), c the
    coefficients on the leading rows, returns the volume w.h**(-n/d)/n and
    every row's moment at its run's k, in the runs holding a row index of
    wanted (None: all; the rest unset).
    """
    n, d = g.n, g.degree_float
    if backend == SPHERICAL and n not in (2, 3):
        raise ValueError(f"spherical backend supports n in {{2, 3}}, got {n}")
    if backend != SPHERICAL:
        work = functools.partial(_mc_nodes, g, _mc_map(g, seed), [])
        with contextlib.closing(_cone_batches(n, budget, seed, _DESCENT_STREAM, work)) as batches:
            base, w = (np.concatenate(part) for part in zip(*batches))
        w *= _sphere_area(n) / budget
    elif not g.is_classical:
        base, w = _lattice_grid(n, g.q, budget)
    elif g.sign_symmetric:
        base, w = _sphere_grid(n, budget, True)
    else:
        base, w = _isotropic_grid(g, *_sphere_grid(n, budget, False))
    P = monomials(base, rows)
    runs = [(lo, hi, k) for lo, hi, k in _k_runs(rows, n, g.q)
            if wanted is None or any(lo <= i < hi for i in wanted)]
    ks = [n] + [k for _, _, k in runs]
    axes = functools.cache(lambda lead: _axis_rows(rows[:lead], n))  # one c length per pass

    def run(c):
        radial, *factors = _radial(c, P, axes(len(c)), d, ks)
        moments = np.empty(len(rows))
        for (lo, hi, k), f in zip(runs, factors):
            moments[lo:hi] = P[lo:hi] @ (w * f) / k
        return float(np.dot(w, radial) / n), moments

    return len(w), run


def _descent_pass(g: GeneralizedPolynomial, basis, backend: str, budget: int, seed: int):
    """A descent's one pass on the degree-d slice basis from its start g: (live, run).

    Its rows are the alphas live of basis that do not vanish by symmetry at g
    (_symmetry_zero, as for every query); run(c[live]) gives their moments.
    """
    live = ~_symmetry_zero(g, basis)
    return live, _radial_pass(g, basis[live], backend, budget, seed)[1]


def _spherical_estimate(g: GeneralizedPolynomial, rows, live_rows, budget: int, seed: int):
    nodes, run = _radial_pass(g, rows, SPHERICAL, budget, seed, live_rows)
    vol, moments = run(g._coeffs)
    return vol, 0.0, moments[live_rows], np.zeros(len(live_rows)), nodes, None


# -- Monte Carlo backend ------------------------------------------------------


def _sphere_area(n: int) -> float:
    """|S^(n-1)| = 2 pi**(n/2) / Gamma(n/2), the total of the sphere's surface measure."""
    return 2.0 * math.exp(n / 2 * math.log(math.pi) - math.lgamma(n / 2))


def _cone_batch(n: int, budget: int, seed: int, b: int, stream=()):
    """Batch b of the budget random unit directions of seed: its nodes b _MC_BATCH onwards.

    Normalized standard normal draws (Marsaglia, Ann. Math. Stat. 1972), so
    uniform on the unit sphere, from the batch's own stream default_rng([seed,
    b, *stream]): a query's batches read stream (), a descent's
    _DESCENT_STREAM, a pilot's _PILOT_STREAM.  So they depend only on (seed,
    budget, stream), not on who draws them.  The draw is coordinate-major:
    the directions are the transpose of a C-contiguous (n, size) array, whose
    rows the norms, the isotropic move and the kernel read contiguously.
    """
    size = min(_MC_BATCH, budget - b * _MC_BATCH)
    z = np.random.default_rng([seed, b, *stream]).standard_normal((n, size))
    z /= np.sqrt(np.einsum("ij,ij->j", z, z))
    return z.T


def _cone_batches(n: int, budget: int, seed: int, stream, work):
    """work(batch) of each _cone_batch of (n, budget, seed, stream), in order.

    work does a batch's node-only work where the batch is drawn.  Batch 0
    is drawn inline; while the caller holds batch b, batches b + 1 to b +
    _DRAW_AHEAD are drawn on a worker thread that the draw starts at its
    first submission, so a one-batch draw starts none.  However the draw
    ends (its last batch, an error, or the caller closing it early), the
    pending draws are cancelled and the thread is joined, so none outlives
    the draw.  Every batch has its own stream, so where it is drawn does not
    show in its nodes.  The first draw in a process imports concurrent.futures.
    """
    from concurrent.futures import ThreadPoolExecutor

    def draw(b):
        return work(_cone_batch(n, budget, seed, b, stream))

    count = -(-budget // _MC_BATCH)
    pool = ThreadPoolExecutor(1, thread_name_prefix="ballrep-draw")
    ahead = collections.deque()  # futures of batches b + 1, b + 2, ...
    try:
        for b in range(count):
            mine = ahead.popleft() if ahead else None
            while len(ahead) < _DRAW_AHEAD and b + 1 + len(ahead) < count:
                ahead.append(pool.submit(draw, b + 1 + len(ahead)))
            yield draw(b) if mine is None else mine.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _mc_map(g: GeneralizedPolynomial, seed: int):
    """The _isotropic_map of g for Monte Carlo, from a pilot that no pass's nodes are.

    At n in {2, 3} the pilot is the gate's half grid moved by the sphere
    grid's own map (_isotropic_grid): the same M, integrated where its
    integrand is nearly polynomial, so an ellipsoid's map is exact to
    round-off (on the unmoved half grid, a rotated ellipsoid of condition
    100 at n = 3 kept a relative error of 1e-6 in its 20000-node volume).
    Else _GATE_BUDGET random directions of seed on the pilot's own stream,
    equally weighted (A does not depend on the weights' scale).
    """
    n = g.n
    if n in (2, 3):
        return _isotropic_map(g, *_isotropic_grid(g, *_sphere_grid(n, _GATE_BUDGET, False)))
    return _isotropic_map(g, _cone_batch(n, _GATE_BUDGET, seed, 0, _PILOT_STREAM),
                          np.ones(_GATE_BUDGET))


def _mc_nodes(g: GeneralizedPolynomial, A, ks, theta):
    """The node-only work of a Monte Carlo batch theta: (base, w) or, given ks, (base, w, controls).

    The directions move into G's isotropic position, y = A theta / |A
    theta| (_isotropic_move); base is the kernel's base at y (g's
    lattice_base), w the Jacobian |A theta|**-n.  controls[i] is w
    h_B**(-ks[i]/d), h_B = sum_i |y_i|**d the l_d ball's g at y: the radial
    factors of B_d's moments of k = ks[i].
    """
    y, w = _isotropic_move(A, theta)
    base = g.lattice_base(y)
    if not len(ks):
        return base, w
    d = g.degree_float
    h_ball = ((y.T * y.T) ** (d / 2)).sum(axis=0)  # (n, N) rows; a square at d = 4
    return base, w, w * h_ball ** (-np.asarray(ks)[:, None] / d)


def _mc_estimate(g: GeneralizedPolynomial, rows, live_rows, budget: int, seed: int):
    """The radial formula on random directions in G's isotropic position, with B_d as control.

    A node y of the _cone_batches draw, moved by _mc_map, gives each answer
    the sample f = y^alpha R_k, R_k = w h**(-k/d) with w its Jacobian; the
    answer is |S^(n-1)| / k times their mean.  The control c = y^alpha C_k,
    C_k = w h_B**(-k/d) (_mc_nodes), is that sample for B_d, of exact mean k
    _ball_moment / |S^(n-1)| (0 for a classical alpha with an odd entry).
    The estimate is the regression estimator mean(f) - beta (mean(c) - E c),
    beta = cov(f, c) / var(c) per answer (Owen, Monte Carlo theory, methods
    and examples, ch. 8), its standard error that of the residuals, of
    budget - 2 degrees of freedom (at budget 2 the plain mean stands).  On
    B_d, a scaled B_d and an ellipsoid's volume the residuals vanish: the
    answer is exact, its standard error round-off.  The ESS, budget
    mean**2 / (mean**2 + var) of the volume, warns below 1% of the budget.
    The kernel, the radial factors and the sums run over _BLOCK-node
    blocks, in order as the batches arrive, so the nodes in memory are
    those of the batches in flight, and each block raises on infinite
    volume before the later batches are drawn.  The sums are of c and of
    D_k = R_k - beta0_k C_k times the monomial, beta0_k the slope of R_k on
    C_k through the origin in the first block, so a fit of B_d or a scaled
    B_d (R_k = lambda C_k) leaves D at round-off, where no variance cancels
    away, even where both are constant (the Euclidean ball); the final beta
    corrects beta0.  A moment's sums are one matrix product per k run
    (_k_runs), as in _radial_pass.  The volume's are centred at their
    first-block means, and its beta0 is the centred slope, so an
    ellipsoid's constant samples leave round-off too; they stay within
    range at any scale of g.  The block size changes results only at
    round-off, through the summation order.
    """
    n, d = g.n, g.degree_float
    runs = [(lo, hi, k) for lo, hi, k in _k_runs(rows, n, g.q)
            if any(lo <= i < hi for i in live_rows)]
    ks = [n] + [k for _, _, k in runs]
    # answer 0 is the volume, 1 + i that of rows[live_rows[i]]; ks[k_of] their k
    k_of = np.r_[0, np.searchsorted([lo for lo, _, _ in runs], live_rows, side="right")]
    k_answer = np.array(ks)[k_of]
    axes = _axis_rows(g._exponents, n)
    fit = budget > 2
    work = functools.partial(_mc_nodes, g, _mc_map(g, seed), ks)
    beta0 = None
    # sums of c, D, c c, c D and D D: the volume's centred, every run row's
    volume_sums, row_sums = 0.0, np.zeros((len(rows), 5))
    with contextlib.closing(_cone_batches(n, budget, seed, (), work)) as batches:
        for base, w, controls in batches:
            for lo in range(0, len(w), _BLOCK):
                block = slice(lo, lo + _BLOCK)
                P = monomials(base[block], rows)
                D = np.array(_radial(g._coeffs, P, axes, d, ks))
                D *= w[block]  # R_k
                C = controls[:, block]
                if beta0 is None:  # the first block fits beta0 and the volume's centres
                    beta0 = _slope(np.einsum("ij,ij->i", D, C), np.einsum("ij,ij->i", C, C), fit)
                    Rc, Cc = D[0] - D[0].mean(), C[0] - C[0].mean()
                    beta0[0] = _slope(Rc @ Cc, Cc @ Cc, fit)
                    centre = C[0].mean(), D[0].mean() - beta0[0] * C[0].mean()
                D -= beta0[:, None] * C  # D_k
                c, r = C[0] - centre[0], D[0] - centre[1]
                volume_sums = volume_sums + np.array([c.sum(), r.sum(), c @ c, c @ r, r @ r])
                for (lo_run, hi_run, _), c, r in zip(runs, C[1:], D[1:]):
                    M = P[lo_run:hi_run]
                    row_sums[lo_run:hi_run] += np.hstack([M @ np.stack([c, r]).T,
                                                          (M * M) @ np.stack([c * c, c * r, r * r]).T])
    mean_c, mean_d, cc, cd, dd = np.vstack([volume_sums, row_sums[live_rows]]).T / budget
    var_c, cov, var_d = cc - mean_c * mean_c, cd - mean_c * mean_d, dd - mean_d * mean_d
    mean_c[0] += centre[0]  # the volume's sums are centred
    mean_d[0] += centre[1]
    exact = k_answer * [  # E c, from B_d's moments
        0.0 if g.is_classical and any(a % 2 for a in alpha) else _ball_moment(n, g.degree, alpha, g.q)
        for alpha in [(0,) * n] + rows[live_rows].tolist()] / _sphere_area(n)
    gamma = _slope(cov, var_c, fit)  # beta - beta0
    mean = beta0[k_of] * exact + mean_d - gamma * (mean_c - exact)
    var = np.maximum(0.0, var_d - gamma * cov)
    ess = budget * mean[0] ** 2 / (mean[0] ** 2 + var[0])
    if ess < 0.01 * budget:
        level, frame = 1, sys._getframe()  # warn at the first caller outside ballrep
        while frame and frame.f_globals.get("__name__", "").partition(".")[0] == "ballrep":
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"effective sample size {ess:.1f} below 1% of budget {budget}; "
            "the polynomial is near the feasibility boundary",
            EffectiveSampleSizeWarning,
            stacklevel=level,
        )
    scale = _sphere_area(n) / k_answer
    value, err = scale * mean, scale * np.sqrt(var / (budget - 1 - fit))
    return value[0], err[0], value[1:], err[1:], budget, float(ess)


def _slope(cov, var, fit: bool):
    """cov / var where var > 0 and fit, else 0: a regression slope per row."""
    return np.divide(cov, var, out=np.zeros_like(cov), where=fit & (var > 0))


# -- grid oracle --------------------------------------------------------------


def _grid_estimate(g: GeneralizedPolynomial, rows, live_rows, budget: int, seed: int):
    """Indicator integration of g(x) <= 1 on a uniform cell grid.

    Intentionally simple and slow; the bounding half-width comes from the
    sphere minimum.  One jittered sample per cell makes the estimator
    unbiased (plain cell centers are systematically off along boundary
    stretches that run parallel to the grid), so the boundary-cell count
    gives an honest standard error: each boundary cell is a Bernoulli
    trial worth at most half a cell.

    The side is the exact integer n-th root of the budget (at least 8).  One
    stream, default_rng([seed, 515]), jitters the cells in row-major order
    and the moment sums are taken per slice, so a result depends only on
    (g, budget, seed), not on how many slices one kernel call covers.
    """
    n, d = g.n, g.degree_float
    if n not in (2, 3):
        raise ValueError(f"grid oracle supports n in {{2, 3}}, got {n}")
    hmin = _finite_or_raise(finite_volume_test(g, seed=seed), "sublevel set")
    half_width = hmin ** (-1.0 / d)
    m = round(budget ** (1.0 / n))
    m -= m**n > budget  # the exact integer root: m**n <= budget < (m + 1)**n
    m = max(8, m)
    step = 2.0 * half_width / m
    corners = -half_width + step * np.arange(m)
    cell = step**n
    tail = np.stack(np.meshgrid(*([corners] * (n - 1)), indexing="ij"), axis=-1)
    tail = tail.reshape(-1, n - 1)
    per = max(1, _BLOCK // len(tail))  # whole slices per kernel call
    inside_mask = np.empty(m**n, dtype=bool)
    slice_sums = np.zeros((len(live_rows), m))
    fmax = np.zeros(len(live_rows))
    rng = np.random.default_rng([seed, 515])
    for i0 in range(0, m, per):
        i1 = min(m, i0 + per)
        pts = np.empty((i1 - i0, len(tail), n))
        pts[..., 0] = corners[i0:i1, None]
        pts[..., 1:] = tail
        pts = pts.reshape(-1, n)
        pts += step * rng.random(pts.shape)  # row-major cell order, whatever the block
        P = monomials(g.lattice_base(pts), rows)
        inside = g._coeffs @ P[: len(g._exponents)] <= 1.0
        inside_mask[i0 * len(tail) : i1 * len(tail)] = inside
        if inside.any() and live_rows:
            f = P[live_rows] * inside
            # per-slice sums, so the totals do not depend on the block either
            slice_sums[:, i0:i1] = f.reshape(len(live_rows), i1 - i0, -1).sum(axis=2)
            fmax = np.maximum(fmax, np.abs(f).max(axis=1))
    inside_mask = inside_mask.reshape((m,) * n)
    sums = slice_sums.sum(axis=1)
    count = int(np.count_nonzero(inside_mask))
    crossings = 0
    for ax in range(n):
        crossings += int(np.count_nonzero(np.diff(inside_mask, axis=ax)))
    sigma = 0.5 * cell * math.sqrt(max(1, crossings))
    return count * cell, sigma, sums * cell, sigma * fmax, m**n, None


# -- dispatch -----------------------------------------------------------------

# each backend maps (g, rows, live_rows, budget, seed), a query's _kernel_rows
# between, to the volume and its error, the live moments' values and errors
# aligned with live_rows, the node or sample count and the ESS (or None)
_BACKENDS = {
    SPHERICAL: _spherical_estimate,
    MONTE_CARLO: _mc_estimate,
    GRID_ORACLE: _grid_estimate,
}


def _estimate(g, alphas, backend: str, budget: int | None, seed: int):
    """(volume, moments) of one backend pass, one entry per distinct alpha in order.

    The all-zeros alpha reads the volume and moments that vanish by symmetry
    read exact zeros; the rest reach the backend as the query's one row
    layout, _kernel_rows, and its numbers become the answers here.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}")
    ball = _ball_power(g) if backend == SPHERICAL and budget is None else None
    least = 2 if backend == MONTE_CARLO else 1  # a standard error needs two samples
    budget = DEFAULT_BUDGETS[backend] if budget is None else _check_integer(budget, "budget", least)
    seed = _check_integer(seed, "seed", 0)
    moments = dict.fromkeys(_check_alphas(alphas, g.n), (0.0, 0.0))
    zero = _symmetry_zero(g, list(moments))
    live = [a for a, z in zip(moments, zero) if any(a) and not z]
    vol, vol_err, values, errors, nodes, ess = (
        _ball_power_estimate(g, live, *ball) if ball
        else _BACKENDS[backend](g, *_kernel_rows(g, live), budget, seed))
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
    _, moments = _estimate(g, [alpha], backend, budget, seed)
    [entry] = moments.values()
    return entry


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
    volume row.  alphas and max_order are exclusive.
    A moment's last bits depend on which requested rows share its k run
    (_radial_pass sums a run in one matrix-vector product), so tables of
    different alpha lists agree to round-off, not bit for bit.
    """
    if alphas is not None and max_order is not None:
        raise ValueError("give alphas or max_order, not both")
    if alphas is None:
        if max_order is not None:
            max_order = _check_rational(max_order, "max_order")
            if max_order < 0:
                raise ValueError(f"max_order must be >= 0, got {max_order}")
            top = int(max_order * g.q)
            alphas = [a for k in range(top + 1) for a in enumerate_indices(g.n, k)]
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
    total = int(g.degree * g.q)
    basis = enumerate_indices(g.n, total)
    _, moments = _estimate(g, basis, backend, budget, seed)
    factor = -(g.n + g.degree_float) / g.degree_float
    if g.convention == MULTINOMIAL:
        factor = factor * _slice_weights(g.n, total, g.q)
    grad = factor * np.array([moments[a][0] for a in basis])
    return dict(zip(basis, grad.tolist()))


def moment_matrix(
    g: GeneralizedPolynomial,
    half_degree: int | None = None,
    backend: str = SPHERICAL,
    budget: int | None = None,
    seed: int = 0,
) -> MomentMatrix:
    """Moment matrix M[a, b] = moment(g, a + b) over the half-degree basis.

    half_degree counts exponent numerators (so d*q/2 by default, which must
    be an integer).  Each distinct a + b is estimated once and mirrored by
    _hankel_matrix, so M is symmetric by construction.
    """
    if half_degree is None:
        half_degree = _check_even_degree(g.degree * g.q, "the default half_degree, d*q/2,") // 2
    half_degree = _check_integer(half_degree, "half_degree", 0)
    _, gammas, _ = _hankel_layout(g.n, half_degree)
    est, moments = _estimate(g, gammas, backend, budget, seed)
    return _hankel_matrix(MomentTable(g.q, moments, est), half_degree)


def _hankel_matrix(table: MomentTable, half_degree: int) -> MomentMatrix:
    """M[a, b] = moment(a + b) over the half-degree basis, from a table holding each a + b.

    At half_degree = d*q/2 the sums are g's degree-d slice, so g's default table gives M.
    """
    n = len(next(iter(table.entries)))
    basis, gammas, index = _hankel_layout(n, half_degree)
    values = np.array([table.entries[gamma] for gamma in gammas])
    return MomentMatrix(basis, values[index, 0], values[index, 1], table.q, table.normalization)


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


def finite_volume_test(g: GeneralizedPolynomial, seed: int = 0) -> FeasibilityVerdict:
    """Minimum of g over the unit sphere by a scan and a batched zoom search.

    One rule for every n >= 2.  The scan evaluates _GATE_BUDGET unit
    directions: the sphere grid for n <= 3 (its orthant if g is
    sign_symmetric, else its half), for n >= 4 the uniform random directions
    of (_GATE_BUDGET, seed), one _cone_batch, the only reader of `seed`.
    The candidates are the n axes, the diagonal and the _GATE_RESTARTS best
    scan nodes.  Each zoom level lays a 5**k stencil of radius r on every
    candidate v in the fixed chart of every axis but j = argmax |v_j| (|v_j|
    >= 1/sqrt(n) bounds its distortion), projects the trials onto the sphere
    and keeps the best.  k = min(n - 1, _GATE_ZOOM_DIMS): above n = 4 a
    level zooms k of the chart's n - 1 axes, the next level the next k, and
    r halves once per n - 1 axes zoomed, from 0.5 down to 1e-10.  No
    derivatives, so the kinks of generalized inputs do not stall it.

    The exact axes +-e_i and every tried point are unit directions and
    count, so a strictly negative minimum proves infinite volume (g < 0 on
    an open cone).  finite_volume = True only means no negative direction
    was found; a minimum at zero is infeasible, the set being unbounded
    along it, and so is any other that _volume_verdict, the rule of every
    radial pass too, rejects.  A scaled ball power c (sum_i |x_i|**e)**m
    (_ball_power) skips the search: its minimum is c n**((1 - e/2) m) for
    e >= 2 (the diagonal) and c for e <= 2 (the axes), exactly, and
    finite_volume = True a proof.
    """
    n, seed = g.n, _check_integer(seed, "seed", 0)
    smin = math.inf  # g's least value seen off the axes, which at n = 1 are the whole sphere
    if n > 1 and (ball := _ball_power(g)):
        c, e = ball
        smin = c * (n ** (1.0 - e / 2) if e >= 2 else 1.0) ** int(g.degree / e)
    elif n > 1:
        if n <= 3:
            nodes = _sphere_grid(n, _GATE_BUDGET, g.sign_symmetric)[0]
        else:
            nodes = _cone_batch(n, _GATE_BUDGET, seed, 0)  # _GATE_BUDGET < _MC_BATCH
        values = g.evaluate(nodes)
        smin = min(smin, float(values.min()))
        diagonal = np.full((1, n), 1.0 / math.sqrt(n))
        best = np.concatenate([np.eye(n), diagonal, nodes[np.argsort(values)[:_GATE_RESTARTS]]])
        k = min(n - 1, _GATE_ZOOM_DIMS)
        axis = np.linspace(-1.0, 1.0, 5)
        stencil = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), -1).reshape(-1, k)
        charts = np.stack([np.delete(np.eye(n), j, axis=1) for j in range(n)])  # [j]: all axes but x_j
        rows, cols = np.arange(len(best)), np.arange(k)
        r = 0.5
        while r >= 1e-10:
            frame = charts[np.abs(best).argmax(axis=1)][:, :, cols]
            cols = (cols + k) % (n - 1)
            trial = best[:, None, :] + r * stencil @ frame.transpose(0, 2, 1)
            trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
            values = g.evaluate(trial)
            smin = min(smin, float(values.min()))
            best = trial[rows, values.argmin(axis=1)]
            r /= 2.0 ** (k / (n - 1))
    return _volume_verdict(g._coeffs, _axis_rows(g._exponents, n), smin)


def _finite_or_raise(verdict: FeasibilityVerdict, what: str) -> float:
    """The verdict's sphere minimum; InfiniteVolumeError naming ``what`` if it is infinite."""
    if not verdict.finite_volume:
        raise InfiniteVolumeError(
            f"{what} has infinite volume (sphere minimum {verdict.sphere_minimum:.6g})",
            sphere_minimum=verdict.sphere_minimum,
        )
    return verdict.sphere_minimum
