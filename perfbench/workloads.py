"""The three benchmark workloads: item lists, the calls they make, and checks.

A workload turns (seed, pass index) into a list of items.  Each item has
``call``, which runs ballrep and returns its raw output, and ``check``,
which compares that output with a reference and returns an ``Outcome``.
Calls are timed; checks run after the timed passes, so references (closed
forms, a high-budget spherical estimate) never count as work.

Tolerances come from what the code claims: a spherical result passes
within 3 * std_error + 1e-8 relative, a Monte Carlo or grid result within
4 * std_error, a certificate must pass, and a solve's objective must match
its known optimum within the solver's certificate tolerance.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import inputs

MC_BUDGET = 200_000
REFERENCE_BUDGET = 32_768
SPHERICAL_RTOL = 1e-8


def lib(name: str):
    """A ballrep submodule (``ballrep.volume`` the module, not the function)."""
    return importlib.import_module("ballrep." + name)


@dataclass
class Outcome:
    ok: bool
    rel_err: float | None = None
    cert_residual: float | None = None
    note: str = ""


@dataclass
class Item:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    meta: dict = field(default_factory=dict)


# -- references of the benchmark's own ------------------------------------------


def ball_volume(n: int, d) -> float:
    """vol{x : sum |x_i|**d <= 1} = 2^n Gamma(1/d)^n / (n d^(n-1) Gamma(n/d))."""
    d = float(d)
    return math.exp(n * math.log(2.0) + n * math.lgamma(1.0 / d) - math.log(n)
                    - (n - 1) * math.log(d) - math.lgamma(n / d))


def ball_axis_moment(n: int, d) -> float:
    """Integral of |x_1|**d over the d-ball: its volume / (n + d)."""
    return ball_volume(n, d) / (n + float(d))


def disk_moment(a: int, b: int) -> float:
    """Integral of x**a y**b over the unit disk."""
    if a % 2 or b % 2:
        return 0.0
    return 2.0 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2) / (
        (a + b + 2) * math.gamma((a + b + 2) / 2))


def euclidean_p2_solution(n: int) -> dict:
    """(sum x_i**2)**2 in the multinomial convention, leading coefficient 1."""
    out = {}
    for alpha, coeff in inputs.euclidean_power(n, 4).items():
        multinomial = math.factorial(4)
        for a in alpha:
            multinomial //= math.factorial(a)
        out[alpha] = coeff / multinomial
    return out


def axis_terms(n: int, d, q: int) -> dict:
    total = int(Fraction(d) * q)
    return {tuple(total if j == i else 0 for j in range(n)): 1.0 for i in range(n)}


def within(value, ref, std_error, sigmas, scale=None) -> bool:
    """|value - ref| <= sigmas * std_error + 1e-8 * scale (scale defaults to |ref|)."""
    scale = abs(ref) if scale is None else scale
    return abs(value - ref) <= sigmas * std_error + SPHERICAL_RTOL * scale


def cert_residual(cert) -> float:
    return max(float(v) for v in cert.residuals.values())


def _sub_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k, 77]).generate_state(1)[0] % 1_000_000)


# -- paper-solves ----------------------------------------------------------------

PAPER_CASES = [("p1", 2, 4), ("p1", 3, 4), ("p1", 3, 6),
               ("p2", 2, 4), ("p2", 3, 4), ("p2", 3, 6),
               ("p3", 2, 4), ("p3", 3, 4), ("p3", 3, 6),
               ("p1q", 3, Fraction(1, 2))]


def _solve_item(problem: str, n: int, d, solver_seed: int) -> Item:
    S = lib("solvers")

    def call():
        cfg = S.SolveConfig(seed=solver_seed)
        if problem == "p1q":
            return S.solve_p1(n, d, q=4, config=cfg)
        return getattr(S, "solve_" + problem)(n, d, config=cfg)

    def check(result) -> Outcome:
        cfg = S.SolveConfig(seed=solver_seed)
        residual = cert_residual(result.certificate)
        ok = result.certificate.passed and result.converged
        rel = None
        if problem in ("p1", "p1q"):
            rel = abs(result.objective - n) / n
            ok = ok and rel <= cfg.cert_tol
        elif problem == "p2" and d == 4:
            ref = euclidean_p2_solution(n)
            got = result.solution.terms
            diff = max(abs(got.get(a, 0.0) - c) for a, c in ref.items())
            rel = diff / max(abs(c) for c in ref.values())
            ok = ok and diff <= cfg.cert_tol
        note = f"cert={result.certificate.verdict} converged={result.converged}"
        return Outcome(ok, rel, residual, note)

    return Item(f"{problem}({n},{d})", call, check)


def paper_solves(seed: int, k: int) -> list[Item]:
    solver_seed = _sub_seed(seed, k)
    return [_solve_item(p, n, d, solver_seed) for p, n, d in PAPER_CASES]


def paper_solves_warmup(seed: int) -> Item:
    return _solve_item("p3", 2, 4, _sub_seed(seed, 10_000))


# -- engine-queries --------------------------------------------------------------

BALL_CASES = [(n, d, q) for n in (2, 3) for d, q in (
    (4, 1), (6, 1), (Fraction(1, 2), 4), (1, 1), (Fraction(3, 2), 2))]
# four log-uniform budget bins over [4096, 32768], one per finite random input
BUDGET_EDGES = np.exp(np.linspace(math.log(4096), math.log(32768), 5))


def _split(table) -> tuple[dict, dict]:
    """(values, std_errors) of a MomentTable, keyed by exponent."""
    return ({a: v for a, (v, _) in table.entries.items()},
            {a: e for a, (_, e) in table.entries.items()})


def _table_error(values: dict, errors: dict, ref: dict, sigmas: float):
    """Norm-wise relative error of a moment table and whether it is within tolerance."""
    scale = max(abs(v) for v in ref.values())
    diff = max(abs(values[a] - ref[a]) for a in ref)
    ok = all(within(values[a], ref[a], errors[a], sigmas, scale) for a in ref)
    return diff / scale, ok


def _random_query(key: str, gi: inputs.GateInput, gate_seed: int, estimate: str | None,
                  budget: int, with_mc: bool) -> Item:
    V, P = lib("volume"), lib("polynomials")
    g = P.GeneralizedPolynomial(gi.n, gi.d, 1, gi.terms)
    refs = {}

    def reference(kind):
        if kind not in refs:
            make = V.moment_matrix if kind == "matrix" else V.moment_table
            refs[kind] = make(g, budget=REFERENCE_BUDGET)
        return refs[kind]

    def call():
        verdict = V.finite_volume_test(g, seed=gate_seed)
        out = {"finite": verdict.finite_volume}
        if verdict.finite_volume:
            if estimate == "matrix":
                out["sph"] = V.moment_matrix(g, budget=budget)
            else:
                out["sph"] = V.moment_table(g, budget=budget)
            if with_mc:
                out["mc"] = V.moment_table(g, backend=V.MONTE_CARLO, budget=MC_BUDGET,
                                           seed=gate_seed)
        return out

    def check(out) -> Outcome:
        if out["finite"] != gi.finite:
            return Outcome(False, note=f"gate said finite={out['finite']}")
        if not gi.finite:
            return Outcome(True, note="rejected")
        rels, ok = [], True
        if estimate == "matrix":
            ref = reference("matrix")
            scale = float(np.abs(ref.values).max())
            diff = float(np.abs(out["sph"].values - ref.values).max())
            rels.append(diff / scale)
            ok &= bool(np.all(np.abs(out["sph"].values - ref.values)
                              <= 3.0 * out["sph"].errors + SPHERICAL_RTOL * scale))
        else:
            ref = reference("table")
            rel, good = _table_error(*_split(out["sph"]), _split(ref)[0], 3.0)
            rels.append(rel)
            ok &= good
        if with_mc:
            ref = reference("table")
            mc = out["mc"]
            rel, good = _table_error(*_split(mc), _split(ref)[0], 4.0)
            vol_ref = ref.normalization.value
            ok &= good and within(mc.normalization.value, vol_ref,
                                  mc.normalization.std_error, 4.0)
            rels.append(abs(mc.normalization.value - vol_ref) / vol_ref)
        return Outcome(ok, max(rels), None, f"{estimate} budget={budget} mc={with_mc}")

    return Item(f"random-{key}", call, check,
                {"budget": budget, "terms": gi.terms})


def _ball_query(n: int, d, q: int, gate_seed: int) -> Item:
    V, P, C = lib("volume"), lib("polynomials"), lib("certificates")
    g = P.GeneralizedPolynomial(n, Fraction(d), q, axis_terms(n, d, q))
    certify = Fraction(d) != Fraction(1, 2)

    def call():
        verdict = V.finite_volume_test(g, seed=gate_seed)
        out = {"finite": verdict.finite_volume}
        if verdict.finite_volume:
            out["table"] = table = V.moment_table(g)
            if certify:
                out["cert"] = C.certify_p1(g, table, tol=1e-2)
        return out

    def check(out) -> Outcome:
        if not out["finite"]:
            return Outcome(False, note="gate rejected a ball")
        table = out["table"]
        axis = tuple(int(Fraction(d) * q) if i == 0 else 0 for i in range(n))
        vol, vol_se = table.normalization.value, table.normalization.std_error
        mom, mom_se = table.entries[axis]
        vol_ref, mom_ref = ball_volume(n, d), ball_axis_moment(n, d)
        ok = within(vol, vol_ref, vol_se, 3.0) and within(mom, mom_ref, mom_se, 3.0)
        rel = max(abs(vol - vol_ref) / vol_ref, abs(mom - mom_ref) / mom_ref)
        residual = None
        if certify:
            ok = ok and out["cert"].passed
            residual = cert_residual(out["cert"])
        return Outcome(ok, rel, residual, f"rel={rel:.2e}")

    return Item(f"ball({n},{d})", call, check)


def _grid_query(gate_seed: int) -> Item:
    V, P = lib("volume"), lib("polynomials")
    g = P.GeneralizedPolynomial(2, 4, 1, axis_terms(2, 4, 1))

    def call():
        verdict = V.finite_volume_test(g, seed=gate_seed)
        return V.volume(g, backend=V.GRID_ORACLE, seed=gate_seed) if verdict.finite_volume else None

    def check(est) -> Outcome:
        if est is None:
            return Outcome(False, note="gate rejected a ball")
        ref = ball_volume(2, 4)
        ok = abs(est.value - ref) <= 4.0 * est.std_error
        return Outcome(ok, abs(est.value - ref) / ref, None, "grid")

    return Item("grid(2,4)", call, check)


def engine_queries(seed: int, k: int) -> list[Item]:
    """One pass: 8 random gate queries, 10 closed-form balls, 1 grid volume.

    The random inputs cover n in {2, 3} x d in {4, 6} x {finite, infinite}.
    Each finite one gets a spherical table or matrix at a log-uniform budget
    from one of four bins over [4096, 32768], one bin from each half per
    dimension, so spherical passes rarely share a grid; the two n = 2 finite
    inputs also get a Monte Carlo table.
    """
    rng = np.random.default_rng([seed, k, 1])
    gate_seed = int(rng.integers(1 << 20))
    items = []
    finite_keys = [(n, d) for n in (2, 3) for d in (4, 6)]
    # each dimension gets one budget from the lower two bins and one from the upper two
    bins = {}
    for n in (2, 3):
        bins[(n, 4)], bins[(n, 6)] = rng.permutation(
            [int(rng.integers(0, 2)), int(rng.integers(2, 4))])
    for n, d in finite_keys:
        for sign in (1, -1):
            gi = inputs.random_gate_input(rng, n, d, sign)
            key = f"{n}-{d}-{'fin' if sign > 0 else 'inf'}"
            b = bins[(n, d)]
            budget = int(math.exp(rng.uniform(math.log(BUDGET_EDGES[b]),
                                              math.log(BUDGET_EDGES[b + 1]))))
            estimate = "matrix" if rng.random() < 0.5 else "table"
            items.append(_random_query(key, gi, gate_seed, estimate if sign > 0 else None,
                                       budget, with_mc=(sign > 0 and n == 2)))
    items += [_ball_query(n, d, q, gate_seed) for n, d, q in BALL_CASES]
    items.append(_grid_query(gate_seed))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def engine_queries_warmup(seed: int) -> Item:
    return _ball_query(2, 4, 1, seed)


# -- cli-cold --------------------------------------------------------------------


def _poly_doc(n: int, d, q: int, terms: dict, convention: str = "monomial") -> dict:
    d = Fraction(d)
    return {"n": n, "d": [d.numerator, d.denominator], "q": q, "convention": convention,
            "terms": [{"alpha_times_q": list(a), "coeff": c} for a, c in sorted(terms.items())]}


def write_cli_inputs(directory: str, seed: int) -> dict[str, str]:
    """Write the CLI input files for one seed; return their paths by name."""
    rng = np.random.default_rng([seed, 2])
    infeasible = inputs.random_gate_input(rng, 2, 4, -1)
    docs = {
        "disk": _poly_doc(2, 4, 1, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0}),
        "infeasible": _poly_doc(2, 4, 1, infeasible.terms),
        "p2_candidate": _poly_doc(2, 4, 1, euclidean_p2_solution(2), "multinomial"),
        "ball_half": _poly_doc(2, Fraction(1, 2), 4, axis_terms(2, Fraction(1, 2), 4)),
        "ball_three_halves": _poly_doc(2, Fraction(3, 2), 2, axis_terms(2, Fraction(3, 2), 2)),
    }
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, f"{name}-s{seed}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    proc = subprocess.run([sys.executable, "-m", "ballrep.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return CliRun(proc.returncode, proc.stdout, proc.stderr)


def _cli_item(name: str, argv: list[str], expect_code: int, check_doc) -> Item:
    def check(run: CliRun) -> Outcome:
        if run.code != expect_code:
            return Outcome(False, note=f"exit {run.code}, expected {expect_code}: "
                                       f"{run.stderr.strip()[-200:]}")
        return check_doc(run)

    return Item(name, lambda: run_cli(argv), check, {"argv": argv})


def _check_volume(ref: float):
    def check(run: CliRun) -> Outcome:
        doc = json.loads(run.stdout)
        rel = abs(doc["value"] - ref) / ref
        return Outcome(within(doc["value"], ref, doc["std_error"], 3.0), rel,
                       note=f"rel={rel:.2e} std_error={doc['std_error']:.2e}")
    return check


def _check_disk_moments(run: CliRun) -> Outcome:
    doc = json.loads(run.stdout)
    values = {tuple(r["alpha_times_q"]): r["value"] for r in doc["rows"]}
    errors = {tuple(r["alpha_times_q"]): r["std_error"] for r in doc["rows"]}
    ref = {a: disk_moment(*a) for a in values}
    if len(values) != 15:  # every (a, b) with a + b <= 4
        return Outcome(False, note=f"{len(values)} rows")
    rel, ok = _table_error(values, errors, ref, 3.0)
    return Outcome(ok, rel)


def _check_certificate(run: CliRun) -> Outcome:
    doc = json.loads(run.stdout)
    residual = max(float(v) for v in doc["residuals"].values())
    return Outcome(doc["verdict"] == "pass", None, residual)


def _check_solve(run: CliRun) -> Outcome:
    doc = json.loads(run.stdout)
    cert = doc["certificate"]
    residual = max(float(v) for v in cert["residuals"].values())
    return Outcome(cert["verdict"] == "pass" and doc["converged"], None, residual)


def _check_ball_table(run: CliRun) -> Outcome:
    lines = run.stdout.strip().splitlines()
    rows = [line.split(";") for line in lines[1:]]
    if lines[0] != "n;d;volume;axis_moment" or len(rows) != 4:
        return Outcome(False, note="unexpected table shape")
    rel = 0.0
    ok = True
    for n, d, vol, mom in rows:
        vol_ref, mom_ref = ball_volume(int(n), Fraction(d)), ball_axis_moment(int(n), Fraction(d))
        rel = max(rel, abs(float(vol) - vol_ref) / vol_ref, abs(float(mom) - mom_ref) / mom_ref)
        ok &= within(float(vol), vol_ref, 0.0, 0.0) and within(float(mom), mom_ref, 0.0, 0.0)
    return Outcome(ok, rel)


def _check_infeasible(run: CliRun) -> Outcome:
    return Outcome("infinite volume" in run.stderr and not run.stdout.strip())


def cli_cold(paths: dict[str, str], seed: int) -> list[Item]:
    s = str(seed)
    return [
        _cli_item("volume disk", ["volume", paths["disk"], "--seed", s], 0,
                  _check_volume(math.pi)),
        _cli_item("moments disk", ["moments", paths["disk"], "--max-order", "4",
                                   "--format", "json", "--seed", s], 0, _check_disk_moments),
        _cli_item("solve p3 (2,4)", ["solve", "p3", "--n", "2", "--d", "4", "--seed", s], 0,
                  _check_solve),
        _cli_item("certify p2", ["certify", "p2", paths["p2_candidate"], "--seed", s], 0,
                  _check_certificate),
        _cli_item("ball-table", ["ball-table", "--n-range", "2:3", "--d-list", "4,1/2"], 0,
                  _check_ball_table),
        _cli_item("volume infeasible", ["volume", paths["infeasible"], "--seed", s], 3,
                  _check_infeasible),
        _cli_item("volume ball(2,1/2)", ["volume", paths["ball_half"], "--seed", s], 0,
                  _check_volume(ball_volume(2, Fraction(1, 2)))),
        _cli_item("certify p1 ball(2,3/2)", ["certify", "p1", paths["ball_three_halves"],
                                             "--seed", s], 0, _check_certificate),
    ]


def cli_cold_warmup(paths: dict[str, str], seed: int) -> Item:
    return cli_cold(paths, seed)[4]
