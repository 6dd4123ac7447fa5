"""Euclidean projections onto the solver feasible sets.

All three are exact: the sort-based simplex projection (and the l1 ball
projection built on it by sign symmetry), radial scaling for weighted l2
balls, and eigenvalue clipping plus a trace-simplex shift for the
intersection of the PSD cone with a trace ball, which is the exact
Frobenius projection because the set is unitarily invariant.
"""

from __future__ import annotations

import numpy as np

from .jacobi import jacobi_eigh
from .polynomials import _check_positive, _float_array


def _check_vector(v) -> np.ndarray:
    """v as a float array; ValueError unless it is a non-empty 1-D array of finite numbers."""
    v = _float_array(v)
    if v.ndim != 1 or not v.size or not np.isfinite(v).all():
        raise ValueError(f"v must be a non-empty 1-D array of finite numbers, got {v!r}")
    return v


def project_simplex(v, total: float) -> np.ndarray:
    """Project onto {x >= 0, sum x = total} (sort-based)."""
    total = _check_positive(total, "simplex total")
    v = _check_vector(v)
    # stable descending sort keeps ties in canonical index order
    dropping = np.sort(v, kind="stable")[::-1]
    cumulative = np.cumsum(dropping) - total
    counts = np.arange(1, v.size + 1)
    feasible = dropping - cumulative / counts > 0
    rho = int(np.nonzero(feasible)[0][-1])
    shift = cumulative[rho] / (rho + 1)
    return np.maximum(v - shift, 0.0)


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Project onto {x : sum |x_i| <= radius}."""
    radius = _check_positive(radius, "l1 radius", finite=False)
    v = _check_vector(v)
    if np.abs(v).sum() <= radius:
        return v.copy()
    magnitudes = project_simplex(np.abs(v), radius)
    return np.sign(v) * magnitudes


def project_weighted_l2_ball(v, weights, radius_sq: float) -> np.ndarray:
    """Project onto {x : sum w_i x_i^2 <= r^2}, exact radial scaling.

    Radial scaling is the true projection in the weighted inner product
    <x, y> = sum w_i x_i y_i, which is the geometry the solver works in.
    """
    radius_sq = _check_positive(radius_sq, "squared radius", finite=False)
    v, w = _check_vector(v), _float_array(weights)
    if w.shape != v.shape or not ((0 < w) & (w < np.inf)).all():
        raise ValueError(f"weights must be {v.size} positive finite numbers, got {weights!r}")
    norm_sq = float(np.dot(w, v * v))
    if norm_sq <= radius_sq:
        return v.copy()
    return v * np.sqrt(radius_sq / norm_sq)


def project_psd_trace(matrix, trace_bound: float) -> np.ndarray:
    """Project a symmetric matrix onto {X >= 0, trace X <= bound} (Frobenius).

    Eigenvalues are clipped at zero and, if their sum still exceeds the
    bound, shifted by the simplex projection; applied in the eigenbasis
    this is the exact projection onto the intersection.
    """
    trace_bound = _check_positive(trace_bound, "trace bound", finite=False)
    eigenvalues, vectors = jacobi_eigh(matrix)
    clipped = np.maximum(eigenvalues, 0.0)
    if clipped.sum() > trace_bound:
        clipped = project_simplex(eigenvalues, trace_bound)
    return (vectors * clipped) @ vectors.T
