"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ballrep import (
    MULTINOMIAL,
    GeneralizedPolynomial,
    GramForm,
    MomentMatrix,
    SolveConfig,
    VolumeEstimate,
    certify,
    certify_p2,
    certify_p3,
    closed_form_ball_moment,
    closed_form_ball_volume,
    enumerate_indices,
    euler_residual,
    grad_volume,
    ld_polynomial,
    moment,
    moment_table,
    moment_matrix,
    multinomial_coefficient,
    refute_ld_for_p3,
    solve_p1,
    solve_p2,
    solve_p3,
    volume,
)
from conftest import agree, dirichlet_error, random_feasible_quartic

DISK4 = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0})


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_closed_form_oracle():
    t0 = time.perf_counter()
    errs = [
        abs(closed_form_ball_volume(2, 2) - math.pi),
        abs(closed_form_ball_volume(2, 1) - 2.0),
        abs(closed_form_ball_volume(2, Fraction(1, 2)) - 2.0 / 3.0),
    ]
    elapsed = time.perf_counter() - t0
    _report(
        1,
        max(errs) <= 1e-12 and elapsed < 0.1,
        f"max closed-form error {max(errs):.2e} in {elapsed * 1e3:.2f} ms",
    )


def test_criterion_02_paper_example_reproduction():
    t0 = time.perf_counter()
    vol = volume(DISK4, budget=4096).value
    m40 = moment(DISK4, (4, 0), budget=4096)[0]
    m22 = moment(DISK4, (2, 2), budget=4096)[0]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(vol - 3.1415926) <= 1e-6
        and abs(m40 - 0.392699) <= 1e-5
        and abs(m22 - 0.130899) <= 1e-5
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"vol {vol:.7f}, m40 {m40:.6f}, m22 {m22:.6f} in {elapsed * 1e3:.0f} ms",
    )


def test_criterion_03_moment_ratio():
    worst = 0.0
    for n, d in ((2, 2), (2, 4)):
        g = ld_polynomial(n, d)
        ratio = (
            moment(g, tuple(d if i == 0 else 0 for i in range(n)), budget=8192)[0]
            / volume(g, budget=8192).value
        )
        worst = max(worst, abs(ratio - 1.0 / (n + d)))
    ok_spherical = worst <= 1e-6
    worst_mc = 0.0
    for n, d in ((3, 2), (3, 4)):
        g = ld_polynomial(n, d)
        axis = tuple(d if i == 0 else 0 for i in range(n))
        m = moment(g, axis, backend="monte_carlo", budget=1_000_000, seed=0)[0]
        v = volume(g, backend="monte_carlo", budget=1_000_000, seed=0).value
        worst_mc = max(worst_mc, abs(m / v - 1.0 / (n + d)))
    ok_mc = worst_mc <= 1e-3
    _report(
        3,
        ok_spherical and ok_mc,
        f"spherical dev {worst:.2e} (tol 1e-6), monte carlo dev {worst_mc:.2e} (tol 1e-3)",
    )


def test_criterion_04_euler_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        g = random_feasible_quartic(rng)
        vol = volume(g, budget=4096).value
        worst = max(worst, abs(euler_residual(g, budget=4096)) / vol)
    _report(4, worst <= 1e-6, f"worst relative Euler residual {worst:.2e} over 20 quartics")


def test_criterion_04_certificates_at_known_optima():
    # the Euler identity holds for every g; these residuals vanish only at an optimum:
    # sum x_i**d for p1, and for p2 (sum x_i**2)**(d/2), whose multinomial-convention
    # coefficient at alpha = 2 beta is multinomial(beta) / multinomial(alpha)
    worst = 0.0
    for n in (2, 3):
        for d in (4, 6):
            euclidean = {
                alpha: multinomial_coefficient([a // 2 for a in alpha])
                / multinomial_coefficient(alpha)
                for alpha in enumerate_indices(n, d) if not any(a % 2 for a in alpha)
            }
            optima = (("p1", ld_polynomial(n, d)),
                      ("p2", GeneralizedPolynomial(n, d, 1, euclidean, MULTINOMIAL)))
            for problem, g in optima:
                cert, _ = certify(problem, g, "spherical", None, 0, None)
                worst = max(worst, *(abs(r) for r in cert.residuals.values()))
    _report(4, worst <= 1e-12,
            f"worst p1/p2 certificate residual {worst:.2e} at n in (2, 3), d in (4, 6)")


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(515)
    eps = 1e-4
    worst = 0.0
    for _ in range(10):
        g = random_feasible_quartic(rng)
        grads = grad_volume(g, budget=4096)
        for alpha, got in grads.items():
            plus, minus = dict(g.terms), dict(g.terms)
            plus[alpha] = plus.get(alpha, 0.0) + eps
            minus[alpha] = minus.get(alpha, 0.0) - eps
            fd = (
                volume(GeneralizedPolynomial(2, 4, 1, plus), budget=4096).value
                - volume(GeneralizedPolynomial(2, 4, 1, minus), budget=4096).value
            ) / (2 * eps)
            rel = abs(got - fd) / max(abs(got), abs(fd), 1e-9)
            worst = max(worst, rel)
    _report(5, worst <= 1e-4, f"worst relative gradient deviation {worst:.2e} over 10 quartics")


def test_criterion_06_p1_recovery():
    t0 = time.perf_counter()
    target = {(4, 0): 1.0, (3, 1): 0.0, (2, 2): 0.0, (1, 3): 0.0, (0, 4): 1.0}
    solutions = []
    coeff_dev = obj_dev = 0.0
    converged = True
    for seed in range(5):
        res = solve_p1(2, 4, config=SolveConfig(seed=seed))
        converged &= res.converged
        solutions.append(res.solution)
        coeff_dev = max(
            coeff_dev,
            max(abs(res.solution.terms.get(a, 0.0) - v) for a, v in target.items()),
        )
        obj_dev = max(obj_dev, abs(res.objective - 2.0))
    pair_dev = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            pair_dev = max(
                pair_dev,
                max(
                    abs(solutions[i].terms.get(a, 0.0) - solutions[j].terms.get(a, 0.0))
                    for a in target
                ),
            )
    elapsed = time.perf_counter() - t0
    ok = converged and coeff_dev <= 1e-2 and obj_dev <= 1e-2 and pair_dev <= 2e-2 and elapsed < 60.0
    _report(
        6,
        ok,
        f"coeff dev {coeff_dev:.2e}, objective dev {obj_dev:.2e}, "
        f"pairwise {pair_dev:.2e}, {elapsed:.1f} s for 5 seeds",
    )


def test_criterion_07_p2_recovery():
    res = solve_p2(2, 4)
    g40 = res.solution.terms.get((4, 0), 0.0)
    g22 = res.solution.terms.get((2, 2), 0.0)
    cert_resid = res.certificate.residuals["angle"]
    axis = ld_polynomial(2, 4).to_convention("multinomial")
    axis_cert = certify_p2(axis, moment_table(axis, budget=8192))
    ok = (
        abs(g40 - 1.0) <= 2e-2
        and abs(g22 - 1.0 / 3.0) <= 2e-2
        and res.certificate.passed
        and cert_resid <= 1e-2
        and not axis_cert.passed
        and axis_cert.residuals["angle"] >= 0.1
    )
    _report(
        7,
        ok,
        f"g40 {g40:.4f}, g22 {g22:.4f}, cert residual {cert_resid:.2e}, "
        f"axis-power angle {axis_cert.residuals['angle']:.3f}",
    )


def test_criterion_08_p3_certificate():
    n = 2
    rho2 = closed_form_ball_volume(n, 2)
    mm = MomentMatrix(
        ((1, 0), (0, 1)),
        closed_form_ball_moment(n, 2) * np.eye(n),
        np.zeros((n, n)),
        1,
        VolumeEstimate(rho2, 0.0, "closed_form", 0),
    )
    cert_d2 = certify_p3(GramForm(n, 2, np.eye(n)), mm, tol=1e-8)
    residual_norm = max(abs(v) for v in cert_d2.duals["psi_spectrum"])
    report = refute_ld_for_p3(2, 4)
    res = solve_p3(2, 4)
    ok = (
        cert_d2.passed
        and residual_norm <= 1e-8
        and report.min_eigenvalue <= -0.01
        and res.certificate.passed
        and res.certificate.tolerance == 1e-2
        and res.objective < 2.0
    )
    _report(
        8,
        ok,
        f"d=2 residual matrix norm {residual_norm:.1e}, refutation eigenvalue "
        f"{report.min_eigenvalue:.3f}, solved trace {res.objective:.4f}",
    )


def test_criterion_09_generalized_case():
    half = Fraction(1, 2)
    b_half = ld_polynomial(2, half, q=4)
    sph = volume(b_half, budget=65536)
    grid = volume(b_half, backend="grid_oracle", budget=1_400_000, seed=3)
    vol_ok = abs(sph.value - 2.0 / 3.0) <= 1e-3 and abs(grid.value - 2.0 / 3.0) <= 1e-3
    res = solve_p1(2, half, q=4, config=SolveConfig(budget=16384))
    target = {(2, 0): 1.0, (1, 1): 0.0, (0, 2): 1.0}
    solve_dev = max(abs(res.solution.terms.get(a, 0.0) - v) for a, v in target.items())
    fine = ld_polynomial(2, half, q=8)
    table = moment_table(fine, budget=262144)
    moments = [table.value(a) for a in table.entries]
    matrix_err = dirichlet_error(fine, moment_matrix(fine, budget=262144))
    ok = (
        vol_ok
        and solve_dev <= 1e-2
        and len(moments) == 5
        and all(v > 0 for v in moments)
        and matrix_err <= 1e-12
    )
    _report(
        9,
        ok,
        f"vol errs {abs(sph.value - 2 / 3):.1e}/{abs(grid.value - 2 / 3):.1e}, "
        f"solve dev {solve_dev:.2e}, {len(moments)} positive moments, "
        f"moment matrix err {matrix_err:.1e}",
    )


def test_criterion_10_functional_properties():
    fig1_quartic = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -1.925})
    fig1_sextic = GeneralizedPolynomial(2, 6, 1, {(6, 0): 1.0, (0, 6): 1.0, (3, 3): -1.925})
    rng = np.random.default_rng(99)

    homogeneity_dev = 0.0
    for g in (DISK4, fig1_quartic, ld_polynomial(2, 4)):
        base = volume(g, budget=8192).value
        for lam in (0.5, 2.0):
            scaled = volume(g.rescale(lam), budget=8192).value
            expected = lam ** (-g.n / g.degree_float) * base
            homogeneity_dev = max(homogeneity_dev, abs(scaled - expected) / expected)
    ok_hom = homogeneity_dev <= 1e-6

    margin_ok = True
    for _ in range(20):
        g, h = random_feasible_quartic(rng), random_feasible_quartic(rng)
        mid = GeneralizedPolynomial(
            2, 4, 1,
            {a: 0.5 * (g.terms.get(a, 0.0) + h.terms.get(a, 0.0))
             for a in set(g.terms) | set(h.terms)},
        )
        fmid = volume(mid, budget=4096).value
        favg = 0.5 * (volume(g, budget=4096).value + volume(h, budget=4096).value)
        margin_ok &= fmid < favg

    roster = [ld_polynomial(2, 2), DISK4, ld_polynomial(2, 4), fig1_quartic, fig1_sextic]
    roster.extend(random_feasible_quartic(rng) for _ in range(2))
    agree_ok = True
    for g in roster:
        sph = volume(g, budget=16384)
        mc = volume(g, backend="monte_carlo", budget=400_000, seed=5)
        grid = volume(g, backend="grid_oracle", budget=1_000_000, seed=5)
        agree_ok &= agree(sph.value, sph.std_error, mc.value, mc.std_error)
        agree_ok &= agree(sph.value, sph.std_error, grid.value, grid.std_error)
        agree_ok &= agree(mc.value, mc.std_error, grid.value, grid.std_error)
    _report(
        10,
        ok_hom and margin_ok and agree_ok,
        f"homogeneity dev {homogeneity_dev:.2e}, midpoint convexity {margin_ok}, "
        f"3-sigma backend agreement {agree_ok}",
    )
