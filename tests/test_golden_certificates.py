"""Certificates on fixed inputs against verdicts, residuals and duals on record."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ballrep import (
    GeneralizedPolynomial,
    GramForm,
    certify_p1,
    certify_p2,
    certify_p3,
    ld_polynomial,
    moment_matrix,
    moment_table,
    refute_ld_for_p3,
    solve_p1,
)


def _disk4():
    """(x_1^2 + x_2^2)^2 in the multinomial convention."""
    terms = {(4, 0): 1.0, (2, 2): 1.0 / 3.0, (0, 4): 1.0}
    return GeneralizedPolynomial(2, 4, 1, terms, convention="multinomial")


def _p1q_certificate():
    """The p1 certificate of the p1q(3, 1/2, q=4) solution."""
    g = solve_p1(3, Fraction(1, 2), q=4).solution
    return certify_p1(g, moment_table(g, budget=8192), tol=1e-2)


GOLDEN_CASES = {
    "p1-ld-2-4-monte-carlo": lambda: certify_p1(
        ld_polynomial(2, 4),
        moment_table(ld_polynomial(2, 4), backend="monte_carlo", budget=100_000, seed=0),
    ),
    "p1q-3-1/2-q4-solution": _p1q_certificate,
    "p2-ld-2-4-spherical": lambda: certify_p2(
        ld_polynomial(2, 4).to_convention("multinomial"),
        moment_table(ld_polynomial(2, 4), budget=8192),
        tol=1e-6,
    ),
    "p2-disk-4-monte-carlo": lambda: certify_p2(
        _disk4(), moment_table(_disk4(), backend="monte_carlo", budget=20_000, seed=0)
    ),
    "p3-identity-2-2-spherical": lambda: certify_p3(
        GramForm(2, 2, np.eye(2)), moment_matrix(ld_polynomial(2, 2), 1, budget=2048)
    ),
    "refute-ld-2-4": lambda: refute_ld_for_p3(2, 4).certificate,
}

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_certificates.json").read_text()
)


def _assert_matches(got, want, where):
    """Same keys and structure; numbers to 1e-12 of the largest in their container."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        numbers = [v for v in want.values() if isinstance(v, float)]
        scale = max(map(abs, numbers), default=0.0)
        for key, value in want.items():
            if isinstance(value, float):
                assert abs(got[key] - value) <= 1e-12 * scale, f"{where}.{key}"
            else:
                _assert_matches(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape, where
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), where
    else:
        assert got == want, where


class TestGoldenCertificates:
    """Verdicts, residuals and duals against tests/data/golden_certificates.json.

    The file was recorded at commit b1b0e33, before the certificates moved to
    array arithmetic.  The two Monte Carlo cases were re-recorded when Monte
    Carlo moved to the radial formula on cone-measure nodes: their largest
    residuals fell from 0.0139 to 0.00093 (p1) and from 0.0374 to 0.0054
    (p2), below the tolerance 1e-2, so their verdicts no longer hinge on the
    propagated moment errors.  The p1q entry follows
    the solver and was re-recorded whenever its solution moved, last when
    the descent began with Barzilai-Borwein trials (objective 3.0155282 ->
    3.0155284, still failing at support stationarity 0.0272), and again
    when sign-symmetric inputs moved onto one orthant of the sphere grid
    (dominance 1.8e-9 -> 0, the duals of the x1 <-> x2 pair now equal).
    That move also re-recorded the p3 identity's volume residual,
    1.4e-15 -> 5.7e-16, a round-off change.  When generalized inputs moved
    onto the lattice grid, the p1q solution reached B_{1/2} and its entry
    was re-recorded: the verdict went fail -> pass, support stationarity
    0.0272 -> 1.2e-9 and complementary slackness 0.0282 -> 0.  When a
    descent from a permutation-invariant start began to read orbit-averaged
    moments, the p1q solution's three coefficients became equal and its
    entry was re-recorded: dominance and support stationarity 1.2e-9 ->
    2.2e-16, theta 5.625000004651 -> 5.625000000000009, and the duals of
    the three axes (and of the three cross terms) now agree to round-off.
    When Monte Carlo moved to Euclidean directions in G's isotropic position
    with B_d's integrand as a regression control variate, both Monte Carlo
    cases were re-recorded: on B_4 every moment is exact, so p1's residuals
    fell to 0 (dominance and support stationarity 0.00093 -> 0, theta
    1.0792060 -> 1.0787052, the spherical value), and on the disk, whose
    volume is exact, p2's largest residual fell from 0.0054 to 0.0017.
    When the three optimality systems gave way to the one normalized duality
    gap rho, every entry was re-recorded with the same verdict: residuals
    gap (p2 adds angle, p3 psd) and duals objective_excess_bound (p3 keeps
    psi_spectrum).  rho is 0 on both p1 entries; 0.2753 with angle 0.6571
    on p2's axis power, whose cross residual read 0.4569; 4.0e-8 with angle
    2.8e-4 on the Monte Carlo disk (largest coefficient residual 0.0017);
    0 on the p3 identity; 0.4569 on the refutation, A's spectrum unchanged
    to round-off.
    """

    @pytest.mark.parametrize("name", list(GOLDEN_CASES))
    def test_matches_recorded_certificate(self, name):
        cert = GOLDEN_CASES[name]()
        want = GOLDEN[name]
        assert cert.verdict == want["verdict"]
        _assert_matches(cert.residuals, want["residuals"], "residuals")
        _assert_matches(cert.duals, want["duals"], "duals")
