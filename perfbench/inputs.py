"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and the standard library: the generator
never calls into ballrep, so the truth it records (for example which side
of the infinite-volume boundary a polynomial lies on) is independent of
the code under test.  A polynomial is a dict {exponent tuple: coefficient}
in the monomial convention, with q = 1 and an even degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPHERE_MARGIN = 0.02  # |sphere minimum| of every random gate input
NOISE_SCALE = 0.5  # coefficient scale of the random part, relative to |x|**d


def exponents(n: int, total: int) -> list[tuple[int, ...]]:
    """All n-tuples of non-negative integers summing to total."""
    if n == 1:
        return [(total,)]
    return [
        (head,) + tail
        for head in range(total, -1, -1)
        for tail in exponents(n - 1, total - head)
    ]


def euclidean_power(n: int, d: int) -> dict[tuple[int, ...], float]:
    """Monomial coefficients of (sum x_i**2)**(d/2), which is 1 on the sphere."""
    k = d // 2
    out = {}
    for beta in exponents(n, k):
        coeff = math.factorial(k)
        for b in beta:
            coeff //= math.factorial(b)
        out[tuple(2 * b for b in beta)] = float(coeff)
    return out


def evaluate(terms: dict, x: np.ndarray) -> np.ndarray:
    """Signed evaluation of sum c_a x**a at points x of shape (N, n)."""
    x = np.asarray(x, dtype=float)
    top = max(max(a) for a in terms)
    powers = np.ones((top + 1,) + x.shape)
    for k in range(1, top + 1):
        powers[k] = powers[k - 1] * x
    out = np.zeros(x.shape[0])
    for alpha, coeff in terms.items():
        term = np.full(x.shape[0], coeff)
        for i, a in enumerate(alpha):
            if a:
                term *= powers[a, :, i]
        out += term
    return out


def _directions(n: int, angles: np.ndarray) -> np.ndarray:
    if n == 2:
        return np.stack([np.cos(angles[:, 0]), np.sin(angles[:, 0])], axis=-1)
    polar, azim = angles[:, 0], angles[:, 1]
    return np.stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)],
        axis=-1,
    )


def sphere_minimum(terms: dict, n: int) -> tuple[float, np.ndarray]:
    """Minimum of an even-degree polynomial on the unit sphere, n in {2, 3}.

    A fine angle grid over a half sphere (even degree makes h(-x) = h(x))
    followed by two rounds of local grids around the best points.  The
    result is an upper bound on the true minimum, tight to about 1e-7 for
    the inputs made here.
    """
    if n == 2:
        axes = [np.linspace(0.0, math.pi, 4096, endpoint=False)]
    elif n == 3:
        axes = [
            np.linspace(0.0, 0.5 * math.pi, 192),
            np.linspace(0.0, 2.0 * math.pi, 768, endpoint=False),
        ]
    else:
        raise ValueError(f"sphere_minimum supports n in {{2, 3}}, got {n}")
    steps = [a[1] - a[0] for a in axes]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    values = evaluate(terms, _directions(n, grid))
    best = grid[np.argsort(values)[:8]]
    for _ in range(2):
        local = np.linspace(-1.0, 1.0, 21)
        offsets = np.stack(
            np.meshgrid(*([local] * len(axes)), indexing="ij"), axis=-1
        ).reshape(-1, len(axes)) * np.asarray(steps)
        candidates = (best[:, None, :] + offsets[None, :, :]).reshape(-1, len(axes))
        cand_values = evaluate(terms, _directions(n, candidates))
        order = np.argsort(cand_values)
        best = candidates[order[:8]]
        steps = [s / 10.0 for s in steps]
    point = _directions(n, best[:1])[0]
    return float(evaluate(terms, point[None, :])[0]), point


@dataclass(frozen=True)
class GateInput:
    """A dense random polynomial shifted to a known sphere minimum."""

    n: int
    d: int
    terms: dict
    sphere_min: float  # the benchmark's own fine-grid minimum after the shift

    @property
    def finite(self) -> bool:
        return self.sphere_min > 0.0


def random_gate_input(rng: np.random.Generator, n: int, d: int, sign: int) -> GateInput:
    """|x|**d plus dense noise, shifted so the sphere minimum is sign * 0.02."""
    base = euclidean_power(n, d)
    terms = {a: base.get(a, 0.0) + NOISE_SCALE * rng.normal() for a in exponents(n, d)}
    low, _ = sphere_minimum(terms, n)
    shift = sign * SPHERE_MARGIN - low
    terms = {a: c + shift * base.get(a, 0.0) for a, c in terms.items()}
    shifted, _ = sphere_minimum(terms, n)
    return GateInput(n, d, terms, shifted)
