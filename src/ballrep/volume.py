"""Volumes and moments of polynomial sublevel sets G = {x : g(x) <= 1}.

For a positively homogeneous g of degree d every answer comes from one
radial reduction: for any star-shaped sphere S about the origin with its
cone measure sigma,
      integral_G x^alpha dx
        = (n + |alpha|)^-1 * integral_S theta^alpha h(theta)^-(n+|alpha|)/d dsigma,
with h the restriction of g to S.  The deterministic spherical backend
takes S the unit sphere and a quadrature rule on it (periodic trapezoid for
n = 2, product Gauss-Legendre for n = 3), cached read-only per (n, budget,
orthant).  A sign-symmetric input (GeneralizedPolynomial.sign_symmetric)
reads only the rule's nodes in one orthant, each weighted by its sign
orbit: 1/4 (n = 2) or 1/8 (n = 3) of the nodes, for the same answers up to
round-off; only classical inputs with odd terms read the full grid, in
queries, descents and the feasibility gate alike.  Monte Carlo takes S
the unit l_d sphere and random nodes of its cone measure, of total
n vol(B_d), so on B_d itself h = 1 at every node.  One function,
_radial_pass, picks the nodes and their fold and makes one monomial kernel
call P on given rows; _radial reads h from P's leading rows, rejects
infinite volume and gives the radial factors, and the moments sharing
k = n + |alpha| come from one contiguous block of rows against one radial
weight w * h**(-k/d).  A query's rows are g's own exponents, then the
requested alphas they miss, so the volume and the degree-d moments (and
with them the volume gradient) come from the same pass; a solve asks
_descent_pass for one pass on the degree-d slice, whose rows drop the
moments that vanish by symmetry at its start, and runs it at every trial.
Every backend lays out its kernel rows the same way.  _radial_pass makes
one kernel call; Monte Carlo queries and the grid oracle make one per block
of at most _BLOCK points (the grid's blocks are whole slices, at least one),
which bounds the memory of a block's samples and kernel output, and their
random streams do not depend on the block.  Monte Carlo nodes come in
batches of _MC_BATCH, each from its own stream; a query takes its blocks
in order as the batches arrive, while a worker thread draws the next
_DRAW_AHEAD batches (_cone_batches); that saves time only where the
process has a CPU to spare for the thread.  Its answers do not depend on
where a batch was drawn, its nodes in memory are those of the batches in
flight, and an infeasible input raises at its first bad block, before the
later batches are drawn.  The kernel keeps its own working set small,
whatever the backend: it builds a large call in chunks of points
(polynomials._KERNEL_ENTRIES).  Every backend returns only plain numbers
and arrays aligned with the alphas it was given.  The dispatcher _estimate
builds every answer: it gives each distinct alpha one entry (the all-zeros
alpha reads the volume, moments that vanish by symmetry read exact zeros, a
backend estimates only the rest) and turns the backend's numbers into the
VolumeEstimate and the moment entries.

A slow grid indicator oracle cross-checks volume and moment queries; no
solve reads it.  All estimates carry a standard error: zero for the
spherical backend, statistical for Monte Carlo, and a boundary-cell bound
for the grid.  Infinite volume has one tolerance, _GATE_TOLERANCE: the
feasibility gate and both radial backends reject a minimum of g over their
nodes, exact axes included, at or below it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import operator
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import (
    Exponent,
    GeneralizedPolynomial,
    _flip_invariant,
    _hankel_layout,
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
_BLOCK = 1 << 13  # most points per Monte Carlo or grid kernel call; bounds a block's memory
assert _MC_BATCH % _BLOCK == 0  # so a Monte Carlo block never spans two batches
# sphere grids kept, a full grid and its orthant counted apart; an n = 3,
# budget 32768 full grid is 1 MB, its orthant an eighth of that
_GRID_CACHE_SIZE = 8
_GATE_BUDGET = 2048  # sphere grid (n <= 3) or cone nodes (n >= 4) the gate scans
_GATE_RESTARTS = 8  # best scan nodes zoomed besides the axes and the diagonal
_GATE_ZOOM_DIMS = 3  # most chart axes one gate zoom level spans
_GATE_TOLERANCE = 1e-9  # a sphere minimum at or below this counts as infinite volume
_HANKEL_SIGMAS = 3.0  # standard errors the Hankel diagonal bound allows


class InfiniteVolumeError(ValueError):
    """The sublevel set is (or looks) of infinite Lebesgue volume."""

    def __init__(self, message: str, sphere_minimum: float | None = None):
        super().__init__(message)
        self.sphere_minimum = sphere_minimum


class EffectiveSampleSizeWarning(UserWarning):
    """Monte Carlo's radial weights h**(-n/d) are heavy-tailed; the input is near infeasibility."""


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume value with uncertainty and provenance.

    std_error is 0 for the spherical backend, a statistical standard error
    for Monte Carlo, and a boundary-cell discretization bound for the grid
    oracle.  samples_or_nodes counts the points evaluated: the orthant's
    nodes for a sign-symmetric spherical pass.  ess is the effective sample
    size (Monte Carlo only).

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
    d = float(Fraction(d)) if not isinstance(d, float) else d
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not d > 0:
        raise ValueError(f"degree must be positive, got {d}")
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
    return _ball_moment(n, d, [0] * n)


def closed_form_ball_moment(n: int, d) -> float:
    """integral over the d-ball of |x_i|**d, for any axis i: its volume / (n + d)."""
    return _ball_moment(n, d, [float(Fraction(d))] + [0.0] * (n - 1))


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
    if g.has_even_support():  # an odd total degree has an odd exponent: flip invariance decides
        return ~_flip_invariant(alphas, True)
    return np.asarray(alphas).sum(axis=1) % 2 == 1


# -- spherical backend --------------------------------------------------------


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _sphere_grid(n: int, budget: int, orthant: bool):
    """Quadrature directions and weights on the unit sphere S^(n-1), read-only.

    n = 2 takes the periodic trapezoid rule on N = max(16, budget) angles,
    less N mod 4; n = 3 the product of Gauss-Legendre in u = cos(polar
    angle) at half = round(sqrt(budget / 2)) nodes and the trapezoid rule on
    2 half azimuths.  With orthant the nodes of that rule with every
    coordinate >= 0 are built directly: the angles j = 0..N/4 (n = 2), the
    nodes u >= 0 times the azimuths in [0, pi/2] (n = 3).  A node on a
    coordinate plane gets exact zeros there, and it carries the weight of
    its whole sign orbit, 2**(nonzero coordinates) times its own.  So an
    integrand unchanged by every sign flip x_i -> -x_i integrates as on the
    full grid, up to round-off, at 1/4 (n = 2) or 1/8 (n = 3) of the nodes.
    Cached per (n, budget, orthant); callers pass all three positionally,
    since a keyword would give the same grid a second cache entry.
    """

    def circle(count):  # cos and sin of count equal azimuths, or of those in [0, pi/2]
        k = np.arange(count // 4 + 1 if orthant else count)
        angle = 2.0 * math.pi * k / count
        cos = np.cos(angle)
        if orthant:
            cos[4 * k == count] = 0.0  # cos(pi/2) is 6e-17
        return cos, np.sin(angle)

    if n == 2:
        nodes = max(16, int(budget))
        nodes -= nodes % 4  # multiple of 4 keeps coordinate symmetries exact
        dirs = np.stack(circle(nodes), axis=-1)
        weights = np.full(len(dirs), 2.0 * math.pi / nodes)
    elif n == 3:
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
    else:
        raise ValueError(f"spherical backend supports n in {{2, 3}}, got {n}")
    if orthant:
        weights *= 2.0 ** np.count_nonzero(dirs, axis=1)
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


def _axis_minimum(coeffs: np.ndarray, pure: np.ndarray, n: int) -> float:
    """min of g on the axes +-e_i, which sphere grids miss: its pure powers' coefficients, or 0."""
    values = coeffs[pure]
    return float(values.min(initial=np.inf if len(values) == n else 0.0))


def _radial(c, P, pure, n: int, d: float, ks):
    """The radial factors h**(-k/d) at P's nodes, one array per k of ks.

    h = c @ P[:len(c)] is g at the nodes, for the monomial coefficients c on
    P's leading rows; where h or an exact axis value (pure marks P's
    pure-power rows) is <= _GATE_TOLERANCE, it raises InfiniteVolumeError.
    A node of weight w adds w h**(-k/d) / k times its monomial to every
    moment of k = n + |alpha|, the volume's k being n.
    """
    h = c @ P[: len(c)]
    hmin = min(float(h.min()), _axis_minimum(c, pure[: len(c)], n))
    if hmin <= _GATE_TOLERANCE:
        raise InfiniteVolumeError(
            f"sublevel set has infinite volume (sphere minimum {hmin:.6g})",
            sphere_minimum=hmin,
        )
    return [h ** (-k / d) for k in ks]


def _radial_pass(g: GeneralizedPolynomial, rows, blocks, size, backend, budget, seed):
    """The radial formula on the nodes of backend, built once for g: (nodes, run).

    The nodes are the sphere grid of budget (one orthant of it for a
    sign-symmetric g, whose rows _symmetry_zero keeps flip invariant) or the
    Monte Carlo cone nodes of (budget, seed); P, the monomials of rows at
    them, serves every run.  run(c), c the coefficients on the leading rows,
    returns the volume w.h**(-n/d)/n and size moments, 0 but where a block
    (lo, hi, k, at) puts its rows' moments P[lo:hi] (w h**(-k/d)) / k.
    """
    n, d = g.n, g.degree_float
    dirs, w = (_sphere_grid(n, budget, g.sign_symmetric) if backend == SPHERICAL
               else _cone_nodes(n, d, budget, seed))
    P = monomials(g.lattice_base(dirs), rows)
    pure = np.count_nonzero(rows, axis=1) == 1
    ks = [n] + [block[2] for block in blocks]

    def run(c):
        radial, *factors = _radial(c, P, pure, n, d, ks)
        moments = np.zeros(size)
        for (lo, hi, k, at), f in zip(blocks, factors):
            moments[at] = P[lo:hi] @ (w * f) / k
        return float(np.dot(w, radial) / n), moments

    return len(w), run


def _descent_pass(g: GeneralizedPolynomial, basis, backend: str, budget: int, seed: int):
    """A descent's one pass on the degree-d slice basis from its start g: (live, run).

    Its rows, one block at k = n + d, are the alphas live of basis that do
    not vanish by symmetry at g (_symmetry_zero, as for every query), and
    run(c[live]) gives the slice's moments, exact zeros off live.
    """
    live = ~_symmetry_zero(g, basis)
    block = (0, int(live.sum()), g.n + g.degree_float, live)
    _, run = _radial_pass(g, basis[live], [block], len(basis), backend, budget, seed)
    return live, run


def _spherical_estimate(g: GeneralizedPolynomial, live, budget: int, seed: int):
    rows, live_rows = _kernel_rows(g, live)
    # the alphas of one total degree share k and one contiguous block of kernel rows
    at = {}
    for r, alpha in zip(live_rows, live):
        at.setdefault(sum(alpha), []).append(r)
    blocks = [(min(rs), max(rs) + 1, g.n + t / g.q, slice(min(rs), max(rs) + 1))
              for t, rs in at.items()]
    nodes, run = _radial_pass(g, rows, blocks, len(rows), SPHERICAL, budget, seed)
    vol, moments = run(g._coeffs)  # moments[r]: the moment of kernel row r
    return vol, 0.0, moments[live_rows], np.zeros(len(live)), nodes, None


# -- Monte Carlo backend ------------------------------------------------------


def _cone_batch(n: int, d: float, budget: int, seed: int, b: int):
    """Batch b of _cone_nodes(n, d, budget, seed): its nodes b _MC_BATCH onwards.

    |x_i|^d = t_i ~ Gamma(1/d) with random signs, from the batch's own
    stream default_rng([seed, b]); theta = x / (sum_i t_i)**(1/d).
    """
    size = min(_MC_BATCH, budget - b * _MC_BATCH)
    rng = np.random.default_rng([seed, b])
    t = rng.gamma(1.0 / d, 1.0, size=(size, n))
    # t @ ones sums a row in a fraction of the time of t.sum(axis=1)
    theta = t / (t @ np.ones(n))[:, None]
    np.power(theta, 1.0 / d, out=theta)
    theta *= rng.integers(0, 2, size=(size, n)) * 2 - 1
    return theta


def _cone_batches(n: int, d: float, budget: int, seed: int):
    """The batches of _cone_nodes(n, d, budget, seed), in order.

    Batch 0 is drawn inline; while the caller holds batch b, batches b + 1
    to b + _DRAW_AHEAD are drawn on the process's draw thread (_draw_pool),
    and the draws still pending when the caller stops early are cancelled.
    Every batch has its own stream, so where it is drawn does not show in
    its nodes.
    """
    count = -(-budget // _MC_BATCH)
    ahead = collections.deque()  # futures of batches b + 1, b + 2, ...
    try:
        for b in range(count):
            mine = ahead.popleft() if ahead else None
            while len(ahead) < _DRAW_AHEAD and b + 1 + len(ahead) < count:
                later = b + 1 + len(ahead)
                ahead.append(_draw_pool(os.getpid()).submit(_cone_batch, n, d, budget, seed, later))
            yield _cone_batch(n, d, budget, seed, b) if mine is None else mine.result()
    finally:
        for future in ahead:
            future.cancel()


@functools.lru_cache(maxsize=None)
def _draw_pool(pid: int):
    """The worker thread that draws Monte Carlo batches ahead in process pid.

    Keyed by os.getpid(), as a forked child has none of its parent's threads.
    It is made at the first multi-batch draw and lives as long as the
    process, idle between queries; so a process forked after that runs with
    a thread alive, which Python 3.12+ reports as a DeprecationWarning
    ("This process ... is multi-threaded, use of fork() may lead to
    deadlocks"), an error under -W error.  The child itself draws on a
    thread of its own.
    """
    # only a multi-batch draw needs it; it costs about 8 ms at import
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="ballrep-draw")


def _cone_nodes(n: int, d: float, budget: int, seed: int):
    """budget random nodes of the cone measure on the l_d unit sphere, and their equal weights.

    The nodes are the _cone_batches of _MC_BATCH samples each, batch b
    from the stream default_rng([seed, b]), so they depend only on (seed,
    budget).  They follow the cone measure of B_d, whose total is
    n vol(B_d); every node weighs n vol(B_d) / budget.
    """
    dirs = np.concatenate(list(_cone_batches(n, d, budget, seed)))
    return dirs, np.full(budget, n * closed_form_ball_volume(n, d) / budget)


def _mc_estimate(g: GeneralizedPolynomial, live, budget: int, seed: int):
    """The spherical pass's radial formula on random nodes, _cone_nodes(n, d, budget, seed).

    As in _radial_pass, an answer is the sum over the nodes of w h**(-k/d) / k
    times the node's monomial; the weights are equal, so it is budget times
    the mean of those terms, and its standard error comes from their second
    moments.
    The kernel, the radial factors and the sums run over _BLOCK-node blocks,
    cut in order from each batch of _cone_batches as it is drawn, so the
    nodes in memory are those of the batches in flight, and an infeasible
    input raises before the later batches are drawn.  The block size changes
    results only at round-off, through the summation order; the sums are
    centred at the first block's means, so the variance does not cancel away
    (on B_d, where h = 1 at every node, it is round-off).
    A node where g is <= _GATE_TOLERANCE counts as infinite volume, as in
    the spherical pass, and raises.  The ESS is that of the volume's
    weights h**(-n/d); below 1% of the budget it warns.
    """
    n, d = g.n, g.degree_float
    rows, live_rows = _kernel_rows(g, live)
    pure = np.count_nonzero(rows, axis=1) == 1
    # sample row 0 is the volume's, row 1 + i that of live[i]
    ks, k_of = np.unique([n] + [n + sum(a) / g.q for a in live], return_inverse=True)
    sums = sums2 = 0.0
    centre = None
    with contextlib.closing(_cone_batches(n, d, budget, seed)) as batches:
        for batch in batches:
            for lo in range(0, len(batch), _BLOCK):
                P = monomials(g.lattice_base(batch[lo : lo + _BLOCK]), rows)
                samples = np.array(_radial(g._coeffs, P, pure, n, d, ks))[k_of]
                samples[1:] *= P[live_rows]
                if centre is None:
                    centre = samples.mean(axis=1)
                samples -= centre[:, None]
                sums = sums + samples.sum(axis=1)
                sums2 = sums2 + np.einsum("ij,ij->i", samples, samples)
    mean = sums / budget
    var = np.maximum(0.0, sums2 / budget - mean * mean)
    mean += centre
    ess = budget / (1.0 + var[0] / mean[0] ** 2)
    if ess < 0.01 * budget:
        warnings.warn(
            f"effective sample size {ess:.1f} below 1% of budget {budget}; "
            "the polynomial is near the feasibility boundary",
            EffectiveSampleSizeWarning,
            stacklevel=3,
        )
    # the same pairwise sum as that of _cone_nodes's budget equal weights, without their array
    weights = np.broadcast_to(n * closed_form_ball_volume(n, d) / budget, budget).sum()
    scale = weights / ks[k_of]
    value, err = scale * mean, scale * np.sqrt(var / max(1, budget - 1))
    return value[0], err[0], value[1:], err[1:], budget, float(ess)


# -- grid oracle --------------------------------------------------------------


def _grid_estimate(g: GeneralizedPolynomial, live, budget: int, seed: int):
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
    rows, live_rows = _kernel_rows(g, live)
    tail = np.stack(np.meshgrid(*([corners] * (n - 1)), indexing="ij"), axis=-1)
    tail = tail.reshape(-1, n - 1)
    per = max(1, _BLOCK // len(tail))  # whole slices per kernel call
    inside_mask = np.empty(m**n, dtype=bool)
    slice_sums = np.zeros((len(live), m))
    fmax = np.zeros(len(live))
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
        if inside.any() and live:
            f = P[live_rows] * inside
            # per-slice sums, so the totals do not depend on the block either
            slice_sums[:, i0:i1] = f.reshape(len(live), i1 - i0, -1).sum(axis=2)
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

# each backend maps (g, live, budget, seed) to the volume and its error, the
# live moments' values and errors as arrays aligned with live, the node or
# sample count and the ESS (None outside Monte Carlo)
_BACKENDS = {
    SPHERICAL: _spherical_estimate,
    MONTE_CARLO: _mc_estimate,
    GRID_ORACLE: _grid_estimate,
}


def _check_integer(value, name: str, least: int) -> int:
    """value as an int >= least; a bool or a fractional value is rejected, not aliased or truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError  # operator.index(True) is 1
        out = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if out < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return out


def _check_alpha(alpha, n: int) -> Exponent:
    """alpha as a tuple of n ints >= 0; ValueError naming it otherwise (a bool is no integer)."""
    try:
        out = tuple(_check_integer(a, "entry", 0) for a in alpha)
    except (TypeError, ValueError):
        out = None
    if out is None or len(out) != n:
        raise ValueError(f"alpha must be {n} non-negative integers, got {alpha!r}")
    return out


def _estimate(g, alphas, backend: str, budget: int | None, seed: int):
    """(volume, moments) of one backend pass, one entry per distinct alpha in order.

    The all-zeros alpha reads the volume and moments that vanish by symmetry
    read exact zeros; only the remaining live alphas reach the backend, and
    its plain numbers become the VolumeEstimate and the moment entries here.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}")
    budget = DEFAULT_BUDGETS[backend] if budget is None else _check_integer(budget, "budget", 1)
    seed = _check_integer(seed, "seed", 0)
    moments = {_check_alpha(a, g.n): (0.0, 0.0) for a in alphas}
    zero = _symmetry_zero(g, list(moments))
    live = [a for a, z in zip(moments, zero) if any(a) and not z]
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
    total = int(g.degree * g.q)
    basis = enumerate_indices(g.n, total)
    _, moments = _estimate(g, basis, backend, budget, seed)
    factor = -(g.n + g.degree_float) / g.degree_float
    if g.convention == "multinomial":
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
        twice = g.degree * g.q
        if twice.denominator != 1 or int(twice) % 2 != 0:
            raise ValueError(
                f"d*q = {twice} is odd; pass half_degree explicitly"
            )
        half_degree = int(twice) // 2
    _, gammas, _ = _hankel_layout(g.n, int(half_degree))
    est, moments = _estimate(g, gammas, backend, budget, seed)
    return _hankel_matrix(MomentTable(g.q, moments, est), int(half_degree))


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
    directions: the sphere grid for n <= 3 (one orthant of it when g is
    sign_symmetric), the uniform cone nodes _cone_nodes(n, 2, _GATE_BUDGET,
    seed) for n >= 4, the only reader of `seed`.  The candidates are the n
    axes, the diagonal and the _GATE_RESTARTS best scan nodes.  Each zoom
    level lays a 5**k stencil of radius r on every candidate v in the fixed
    chart of every axis but j = argmax |v_j| (|v_j| >= 1/sqrt(n) bounds its
    distortion), projects the trials onto the sphere and keeps the best.
    k = min(n - 1, _GATE_ZOOM_DIMS): above n = 4 a level zooms k of the
    chart's n - 1 axes, the next level the next k, and r halves once per
    n - 1 axes zoomed, from 0.5 down to 1e-10.  No derivatives, so the kinks
    of generalized inputs do not stall it.

    The exact axes +-e_i and every tried point are unit directions and
    count, so a strictly negative minimum proves infinite volume (g < 0 on
    an open cone).  finite_volume = True only means no negative direction
    was found; a minimum at zero is infeasible, the set being unbounded
    along it.
    """
    n, seed = g.n, _check_integer(seed, "seed", 0)
    smin = _axis_minimum(g._coeffs, np.count_nonzero(g._exponents, axis=1) == 1, n)
    if n == 1:
        return FeasibilityVerdict(smin > _GATE_TOLERANCE, smin)
    if n <= 3:
        nodes = _sphere_grid(n, _GATE_BUDGET, g.sign_symmetric)[0]
    else:
        nodes = _cone_nodes(n, 2.0, _GATE_BUDGET, seed)[0]
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
        frame = charts[np.abs(best).argmax(axis=1)]
        if k < n - 1:
            frame = frame[:, :, cols]
            cols = (cols + k) % (n - 1)
        trial = best[:, None, :] + r * stencil @ frame.transpose(0, 2, 1)
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
