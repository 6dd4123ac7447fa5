"""Command-line interface: volumes, moments, solves, certificates, tables.

JSON results go to standard output; CSV tables go to --out when given
(standard output otherwise).  A JSON result is its dataclass's own fields
in field order (``VolumeEstimate``, ``Certificate``, ``SolveResult``), with
None-valued fields left out and a solution in the polynomial or Gram
schema.  Exit codes partition outcomes: 0 ok, 2 input error, 3 infeasible
input, 4 solver did not converge, 5 certificate failed; a --out path that
cannot be written is an input error.  Runs are deterministic for a fixed
invocation and seed.

``run()`` is the process entry, behind both ``python -m ballrep.cli`` and
the ``ballrep`` console script; ``main(argv)`` is the in-process call.  By
the time ``run()`` starts, the package is imported, and what the import
built lives as long as the process, so ``run()`` freezes it
(``gc.freeze()``): no later collection walks it, the interpreter's
shutdown collections included.  A closed standard output (``ballrep ... |
head -1``) exits 1 with nothing on standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .certificates import certify
from .polynomials import GeneralizedPolynomial, GramForm, _check_rational
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


def _document(result) -> dict:
    """The result dataclass as a JSON object, without its None-valued fields."""
    return {name: value for name, value in asdict(result).items() if value is not None}


def _write(out: str, text: str):
    """Write text to the --out path; an unwritable path is a SchemaError."""
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise SchemaError("out", str(exc)) from exc


def _emit_json(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2)
    if out:  # before printing, so a failed write prints nothing
        _write(out, text + "\n")
    print(text)


def _emit_csv(text: str, out: str | None):
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _read(path: str, parse):
    """parse(text) of the file at path; an unreadable file is a SchemaError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError("file", str(exc)) from exc
    return parse(text)


def _gate(g: GeneralizedPolynomial, args):
    """Run the feasibility gate, which the grid backend runs itself; infinite volume raises (exit 3)."""
    if args.backend != GRID_ORACLE:
        _finite_or_raise(finite_volume_test(g, seed=args.seed), "sublevel set")


# -- subcommands ---------------------------------------------------------------


def cmd_volume(args) -> int:
    g = _read(args.poly, parse_polynomial)
    _gate(g, args)
    est = volume(g, backend=args.backend, budget=args.budget, seed=args.seed)
    _emit_json(_document(est), args.out)
    return EXIT_OK


def cmd_moments(args) -> int:
    g = _read(args.poly, parse_polynomial)
    _gate(g, args)
    order = _check_rational(args.max_order, "--max-order")
    table = moment_table(
        g, max_order=order, backend=args.backend, budget=args.budget, seed=args.seed
    )
    if args.format == "json":
        doc = {
            "q": table.q,
            "region": region_hash(g),
            "normalization": _document(table.normalization),
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
    d = _check_rational(args.d, "--d")
    # options left out keep SolveConfig's defaults
    given = {"max_iters": args.max_iters, "budget": args.budget, "cert_tol": args.tol}
    config = SolveConfig(seed=args.seed, backend=args.backend,
                         **{name: value for name, value in given.items() if value is not None})
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
        if args.q != 1:
            raise SchemaError("q", "the Gram trace problem has no lattice denominator q > 1")
        result = solve_p3(args.n, d, start=start, config=config)
    to_dict = gram_to_dict if isinstance(result.solution, GramForm) else polynomial_to_dict
    _emit_json(_document(replace(result, solution=to_dict(result.solution))), args.out)
    if not result.certificate.passed:  # a failed certificate outranks convergence
        return EXIT_CERTIFICATE
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def cmd_certify(args) -> int:
    candidate = _read(args.candidate, parse_candidate)
    cert, _ = certify(args.problem, candidate, args.backend, args.budget, args.seed, args.tol)
    _emit_json(_document(cert), args.out)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def cmd_ball_table(args) -> int:
    try:
        lo, hi = (int(v) for v in args.n_range.split(":"))
    except ValueError as exc:
        raise SchemaError("n-range", f"expected LO:HI, got {args.n_range!r}") from exc
    if lo < 1 or hi < lo:
        raise SchemaError("n-range", f"invalid range {args.n_range!r}")
    degrees = [_check_rational(part, "--d-list") for part in args.d_list.split(",")]
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
        raise SchemaError("n", f"boundary sampling is only defined for n = 2, got {g.n}")
    count = args.count
    if count < 1:
        raise SchemaError("count", f"must be >= 1, got {count}")
    theta = 2.0 * math.pi * np.arange(count) / count
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    h = g.evaluate(dirs)
    keep = h > 0.0  # a ray with h <= 0 never crosses the boundary
    points = dirs[keep] * h[keep, None] ** (-1.0 / g.degree_float)
    lines = ["x1;x2"] + [f"{x!r};{y!r}" for x, y in points.tolist()]
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
    _add_common(p)
    p.set_defaults(handler=cmd_volume)

    p = sub.add_parser("moments", help="moment table of a sublevel set")
    p.add_argument("poly", help="polynomial JSON file")
    p.add_argument("--max-order", required=True,
                   help="largest total degree, e.g. 4 or 1/2")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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
    except InfiniteVolumeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """The ``ballrep`` process: freeze the imported heap, run ``main()``, flush."""
    gc.freeze()
    try:
        try:
            return main()
        finally:  # also when argparse exits, after --help or a usage error
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output; the interpreter flushes it once
        # more at exit, so point it at devnull (Python's note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(run())
