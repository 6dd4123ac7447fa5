"""Shared helpers: seeded feasible-polynomial generators and error-aware checks."""

from __future__ import annotations

import math

import numpy as np

from ballrep import GeneralizedPolynomial, finite_volume_test
from ballrep.volume import _ball_moment


def random_feasible_quartic(rng: np.random.Generator, margin: float = 0.05) -> GeneralizedPolynomial:
    """A random n=2 quartic with full support and sphere minimum above margin."""
    for _ in range(200):
        axis = rng.uniform(0.6, 1.8, size=2)
        cross = rng.uniform(-0.4, 0.4, size=3)
        g = GeneralizedPolynomial(
            2,
            4,
            1,
            {
                (4, 0): axis[0],
                (3, 1): cross[0],
                (2, 2): cross[1],
                (1, 3): cross[2],
                (0, 4): axis[1],
            },
        )
        if finite_volume_test(g).sphere_minimum > margin:
            return g
    raise RuntimeError("could not draw a feasible quartic")


def agree(value_a, err_a, value_b, err_b, sigmas: float = 3.0, floor: float = 0.0) -> bool:
    """Combined-standard-error comparison used for backend cross-checks.

    The floor covers deterministic round-off when both sides report a zero
    standard error (e.g. two exact backends on the same input).
    """
    scale = max(1.0, abs(value_a), abs(value_b))
    allowance = sigmas * math.hypot(err_a, err_b) + max(floor, 1e-12) * scale
    return abs(value_a - value_b) <= allowance


def dirichlet_error(g: GeneralizedPolynomial, mm) -> float:
    """Largest relative error of the moment matrix mm of the ball power g = ld_polynomial(n, d, q).

    Each entry M[a, b] is held against Dirichlet's formula for the moment
    a + b of B_d; for a classical g an entry with an odd exponent must be an
    exact 0, and any other value counts as an infinite error.
    """
    worst = 0.0
    for i, a in enumerate(mm.basis):
        for j, b in enumerate(mm.basis):
            gamma = [x + y for x, y in zip(a, b)]
            got = float(mm.values[i, j])
            if g.is_classical and any(x % 2 for x in gamma):
                worst = max(worst, 0.0 if got == 0.0 else math.inf)
            else:
                want = _ball_moment(g.n, g.degree, gamma, g.q)
                worst = max(worst, abs(got - want) / want)
    return worst
