"""Command-line interface: volumes, moments, solves, certificates, tables.

JSON results go to standard output; CSV tables go to --out when given
(standard output otherwise).  Exit codes partition outcomes: 0 ok,
2 input error, 3 infeasible input, 4 solver did not converge,
5 certificate failed.  Runs are deterministic for a fixed invocation and
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .certificates import CertificatePreconditionError, MomentCoverageError, certify
from .polynomials import GeneralizedPolynomial, GramForm
from .serialize import (
    SchemaError,
    gram_to_dict,
    moment_rows_to_csv,
    parse_candidate,
    parse_polynomial,
    polynomial_to_dict,
    region_hash,
)
from .solvers import SolveConfig, solve_p1, solve_p2, solve_p3
from .volume import (
    DEFAULT_BUDGETS,
    GRID_ORACLE,
    InfiniteVolumeError,
    MONTE_CARLO,
    SPHERICAL,
    _finite_or_raise,
    closed_form_ball_moment,
    closed_form_ball_volume,
    finite_volume_test,
    moment_table,
    volume,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_UNCONVERGED = 4
EXIT_CERTIFICATE = 5

_BACKEND_ALIASES = {
    "spherical": SPHERICAL,
    "mc": MONTE_CARLO,
    "monte_carlo": MONTE_CARLO,
    "grid": GRID_ORACLE,
    "grid_oracle": GRID_ORACLE,
}


def certificate_to_dict(cert) -> dict:
    return {
        "kind": cert.kind,
        "verdict": cert.verdict,
        "tolerance": cert.tolerance,
        "residuals": cert.residuals,
        "duals": cert.duals,
    }


def solve_result_to_dict(result) -> dict:
    solution = result.solution
    solution_doc = (
        gram_to_dict(solution)
        if isinstance(solution, GramForm)
        else polynomial_to_dict(solution)
    )
    return {
        "problem": result.problem,
        "objective": result.objective,
        "volume": result.volume,
        "solution": solution_doc,
        "iterations": [[obj, vol] for obj, vol in result.iterations],
        "certificate": certificate_to_dict(result.certificate),
        "converged": result.converged,
    }


def _emit_json(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2)
    print(text)
    if out:
        Path(out).write_text(text + "\n")


def _emit_csv(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError("d", f"not a rational number: {text!r}") from exc


def _read(path: str, parse):
    """parse(text) of the file at path; an unreadable file is a SchemaError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError("file", str(exc)) from exc
    return parse(text)


def _gate(g: GeneralizedPolynomial, args):
    """Run the feasibility gate unless --force; infinite volume raises (exit 3)."""
    if not args.force:
        _finite_or_raise(finite_volume_test(g, seed=args.seed), "sublevel set")


# -- subcommands ---------------------------------------------------------------


def cmd_volume(args) -> int:
    g = _read(args.poly, parse_polynomial)
    _gate(g, args)
    est = volume(g, backend=args.backend, budget=args.budget, seed=args.seed)
    doc = {
        "value": est.value,
        "std_error": est.std_error,
        "backend": est.backend,
        "samples_or_nodes": est.samples_or_nodes,
    }
    if est.ess is not None:
        doc["ess"] = est.ess
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_moments(args) -> int:
    g = _read(args.poly, parse_polynomial)
    _gate(g, args)
    order = _parse_fraction(args.max_order)
    table = moment_table(
        g, max_order=order, backend=args.backend, budget=args.budget, seed=args.seed
    )
    if args.format == "json":
        doc = {
            "q": table.q,
            "region": region_hash(g),
            "rows": [
                {"alpha_times_q": list(a), "value": v, "std_error": e}
                for a, v, e in table.rows()
            ],
        }
        _emit_json(doc, args.out)
    else:
        _emit_csv(moment_rows_to_csv(table.rows()), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    d = _parse_fraction(args.d)
    # options left out keep SolveConfig's defaults; --budget has a per-backend one
    given = {"max_iters": args.max_iters, "cert_tol": args.tol}
    config = SolveConfig(
        budget=DEFAULT_BUDGETS[args.backend] if args.budget is None else args.budget,
        seed=args.seed,
        backend=args.backend,
        **{name: value for name, value in given.items() if value is not None},
    )
    start = None
    if args.start:
        start = _read(args.start, parse_candidate)
    if args.problem in ("p1", "p1q"):
        if args.problem == "p1q" and args.q == 1:
            raise SchemaError("q", "p1q needs a lattice denominator q > 1")
        result = solve_p1(args.n, d, q=args.q, start=start, config=config)
    elif args.problem == "p2":
        result = solve_p2(args.n, d, q=args.q, start=start, config=config)
    else:
        if d.denominator != 1:
            raise SchemaError("d", "the Gram trace problem needs an integer degree")
        if args.q != 1:
            raise SchemaError("q", "the Gram trace problem has no lattice denominator q > 1")
        result = solve_p3(args.n, int(d), start=start, config=config)
    _emit_json(solve_result_to_dict(result), args.out)
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def cmd_certify(args) -> int:
    candidate = _read(args.candidate, parse_candidate)
    if args.problem == "p3" and not isinstance(candidate, GramForm):
        raise SchemaError("document", "p3 candidates use the Gram schema")
    if args.problem != "p3" and isinstance(candidate, GramForm):
        raise SchemaError("document", "p1/p2 candidates use the polynomial schema")
    cert, _ = certify(args.problem, candidate, args.backend, args.budget, args.seed, args.tol)
    _emit_json(certificate_to_dict(cert), args.out)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def cmd_ball_table(args) -> int:
    try:
        lo, hi = (int(v) for v in args.n_range.split(":"))
    except ValueError as exc:
        raise SchemaError("n-range", f"expected LO:HI, got {args.n_range!r}") from exc
    if lo < 1 or hi < lo:
        raise SchemaError("n-range", f"invalid range {args.n_range!r}")
    degrees = [_parse_fraction(part) for part in args.d_list.split(",")]
    lines = ["n;d;volume;axis_moment"]
    for n in range(lo, hi + 1):
        for d in degrees:
            vol = closed_form_ball_volume(n, d)
            mom = closed_form_ball_moment(n, d)
            lines.append(f"{n};{d};{vol!r};{mom!r}")
    _emit_csv("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_boundary(args) -> int:
    g = _read(args.poly, parse_polynomial)
    if g.n != 2:
        print("boundary sampling is only defined for n = 2", file=sys.stderr)
        return EXIT_INPUT
    count = args.count
    if count < 1:
        raise SchemaError("count", f"must be >= 1, got {count}")
    theta = 2.0 * math.pi * np.arange(count) / count
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    h = np.asarray(g.evaluate(dirs), dtype=float)
    lines = ["x1;x2"]
    d = g.degree_float
    for k in range(count):
        if h[k] <= 0.0:
            continue  # the ray never crosses the boundary
        r = float(h[k]) ** (-1.0 / d)
        lines.append(f"{float(r * dirs[k, 0])!r};{float(r * dirs[k, 1])!r}")
    _emit_csv("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--backend", choices=sorted(_BACKEND_ALIASES), default="spherical",
                        help="volume/moment estimator")
    parser.add_argument("--budget", type=int, default=None,
                        help="nodes or samples for the backend")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for stochastic backends (default 0)")
    parser.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballrep",
        description="Sublevel-set volumes, moments and extremal ball representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="volume of a polynomial sublevel set")
    p.add_argument("poly", help="polynomial JSON file")
    p.add_argument("--force", action="store_true",
                   help="skip the finite-volume feasibility gate")
    _add_common(p)
    p.set_defaults(handler=cmd_volume)

    p = sub.add_parser("moments", help="moment table of a sublevel set")
    p.add_argument("poly", help="polynomial JSON file")
    p.add_argument("--max-order", required=True,
                   help="largest total degree, e.g. 4 or 1/2")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--force", action="store_true",
                   help="skip the finite-volume feasibility gate")
    _add_common(p)
    p.set_defaults(handler=cmd_moments)

    p = sub.add_parser("solve", help="solve an extremal representation problem")
    p.add_argument("problem", choices=("p1", "p1q", "p2", "p3"))
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--d", required=True, help="degree, e.g. 4 or 1/2")
    p.add_argument("--q", type=int, default=1, help="exponent lattice denominator")
    p.add_argument("--start", default=None, help="optional start candidate file")
    p.add_argument("--max-iters", type=int, default=None, help="iteration limit")
    p.add_argument("--tol", type=float, default=None, help="certificate tolerance override")
    _add_common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("certify", help="run an optimality certificate on a candidate")
    p.add_argument("problem", choices=("p1", "p2", "p3"))
    p.add_argument("candidate", help="polynomial or Gram JSON file")
    p.add_argument("--tol", type=float, default=None, help="certificate tolerance override")
    _add_common(p)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("ball-table", help="closed-form ball volumes and moments")
    p.add_argument("--n-range", required=True, help="dimension range LO:HI")
    p.add_argument("--d-list", required=True, help="comma-separated degrees")
    p.add_argument("--out", default=None, help="write output to this path")
    p.set_defaults(handler=cmd_ball_table)

    p = sub.add_parser("boundary", help="sample boundary points of a sublevel set (n = 2)")
    p.add_argument("poly", help="polynomial JSON file")
    p.add_argument("--count", type=int, default=360, help="number of rays")
    p.add_argument("--out", default=None, help="write output to this path")
    p.set_defaults(handler=cmd_boundary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "backend"):
        args.backend = _BACKEND_ALIASES[args.backend]
    try:
        return args.handler(args)
    except (SchemaError, MomentCoverageError, CertificatePreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfiniteVolumeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
