"""Gamma-function values as `closed_form_ball_volume` evaluates them.

vol{sum |x_i|^d <= 1} = 2^n Gamma(1/d)^n / (n d^(n-1) Gamma(n/d)) is assembled
from `math.lgamma`; these cases pin Gamma at known values through it.
"""

import math

import pytest

from ballrep import closed_form_ball_volume


def test_gamma_half_is_sqrt_pi():
    # area of the unit disk: 4 Gamma(1/2)^2 / (2 * 2 * Gamma(1)) = pi
    assert closed_form_ball_volume(2, 2) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("k", range(1, 21))
def test_gamma_matches_factorials(k):
    # cross-polytope: 2^k Gamma(1)^k / (k Gamma(k)) = 2^k / k!
    assert closed_form_ball_volume(k, 1) == pytest.approx(
        2.0**k / math.factorial(k), rel=1e-12
    )


@pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.9, 1.5, 3.7, 8.0, 12.34, 41.5, 120.0])
def test_gamma_matches_reference(x):
    # n = 2, d = 2/x: 4 Gamma(x/2)^2 / (2 (2/x) Gamma(x)) = x Gamma(x/2)^2 / Gamma(x)
    reference = x * math.gamma(x / 2.0) ** 2 / math.gamma(x)
    assert closed_form_ball_volume(2, 2.0 / x) == pytest.approx(reference, rel=1e-12)


def test_log_gamma_rejects_non_positive():
    # a non-positive degree would put Gamma(1/d) at a non-positive argument
    with pytest.raises(ValueError):
        closed_form_ball_volume(2, 0.0)
    with pytest.raises(ValueError):
        closed_form_ball_volume(2, -2.5)
