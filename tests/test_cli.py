import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ballrep
from ballrep import (
    Certificate,
    GeneralizedPolynomial,
    SolveResult,
    VolumeEstimate,
    closed_form_ball_volume,
    ld_polynomial,
    minimal_trace_axis_gram,
    region_hash,
    serialize_gram,
    serialize_polynomial,
)
from ballrep.cli import main

DISK4 = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0})
INFEASIBLE = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -2.1})
SRC = str(Path(ballrep.__file__).resolve().parents[1])


def package_env() -> dict:
    """The environment of a child interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=package_env(), capture_output=True,
                          text=True, timeout=120)


def field_names(cls, omit=()):
    """A JSON result prints its dataclass's fields in order; None-valued ones are left out."""
    return [f.name for f in fields(cls) if f.name not in omit]


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk4.json"
    path.write_text(serialize_polynomial(DISK4))
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(serialize_polynomial(INFEASIBLE))
    return str(path)


class TestVolumeCommand:
    def test_reports_pi(self, disk_file, capsys):
        assert main(["volume", disk_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(math.pi, abs=1e-6)
        assert doc["backend"] == "spherical"
        assert doc["std_error"] == 0.0
        assert list(doc) == field_names(VolumeEstimate, omit=("ess",))

    def test_infeasible_exit_code_and_message(self, infeasible_file, capsys):
        assert main(["volume", infeasible_file]) == 3
        err = capsys.readouterr().err
        assert "infinite volume" in err
        assert "sphere minimum" in err
        assert "-0.025" in err

    def test_a_small_scaled_ball_is_finite(self, tmp_path, capsys):
        # sum x_i**4 / 1e10 has sphere minimum 5e-11, below the old absolute
        # tolerance 1e-9; the tolerance scales with the coefficients, so the
        # volume is that of B_4 times 1e5, as homogeneity says
        path = tmp_path / "small-ball.json"
        path.write_text(serialize_polynomial(ld_polynomial(2, 4).rescale(1e-10)))
        assert main(["volume", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(1e5 * closed_form_ball_volume(2, 4), rel=1e-12)

    @pytest.mark.parametrize("backend", ["spherical", "mc", "grid"])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_is_an_input_error(self, disk_file, capsys, backend, budget):
        assert main(["volume", disk_file, "--backend", backend, "--budget", budget]) == 2
        assert f"budget must be >= {2 if backend == 'mc' else 1}" in capsys.readouterr().err

    def test_negative_seed_is_an_input_error(self, disk_file, capsys):
        assert main(["volume", disk_file, "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["volume"], ["moments", "--max-order", "2"]])
    def test_the_gate_cannot_be_skipped(self, disk_file, capsys, command):
        # no --force: an unknown option is a usage error, exit 2
        with pytest.raises(SystemExit) as caught:
            main([command[0], disk_file, *command[1:], "--force"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_coefficient_is_an_input_error(self, tmp_path, capsys, value):
        # Python's json reads both; before the check, Infinity gave volume 0.0 with exit 0
        path = tmp_path / "non-finite.json"
        path.write_text(serialize_polynomial(DISK4).replace("2.0", value))
        assert main(["volume", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_overflowing_multinomial_coefficient_is_an_input_error(self, tmp_path, capsys):
        # 1e308 is finite, but stored times its multinomial 6 it is not
        terms = {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 1e308}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "n": 2, "d": [4, 1], "q": 1, "convention": "multinomial",
            "terms": [{"alpha_times_q": list(a), "coeff": c} for a, c in terms.items()]}))
        assert main(["volume", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_gram_entry_is_an_input_error(self, tmp_path, capsys, value):
        path = tmp_path / "non-finite-gram.json"
        path.write_text('{"n": 2, "d": 2, "Q": [[1, 0], [0, %s]]}' % value)
        assert main(["certify", "p3", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_boolean_lattice_denominator_is_an_input_error(self, tmp_path, capsys):
        doc = json.loads(serialize_polynomial(DISK4))
        doc["q"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main(["volume", str(path)]) == 2
        assert "q:" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2}')
        assert main(["volume", str(path)]) == 2
        assert "d" in capsys.readouterr().err

    def test_deterministic_output(self, disk_file, capsys):
        main(["volume", disk_file, "--backend", "mc", "--budget", "20000", "--seed", "7"])
        first = capsys.readouterr().out
        main(["volume", disk_file, "--backend", "mc", "--budget", "20000", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second
        assert list(json.loads(first)) == field_names(VolumeEstimate)

    @pytest.mark.parametrize("command", [["volume"], ["moments", "--max-order", "2"]])
    def test_tol_is_not_an_option(self, disk_file, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + [disk_file, "--tol", "5"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_out_file_mirror(self, disk_file, tmp_path, capsys):
        out = tmp_path / "vol.json"
        main(["volume", disk_file, "--out", str(out)])
        printed = capsys.readouterr().out
        assert out.read_text().strip() == printed.strip()


class TestMomentsCommand:
    def test_csv_rows(self, disk_file, capsys):
        assert main(["moments", disk_file, "--max-order", "4", "--budget", "2048"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha_times_q;value;std_error"
        table = {row.split(";")[0]: float(row.split(";")[1]) for row in lines[1:]}
        assert table["4,0"] == pytest.approx(0.392699, abs=1e-5)
        assert table["2,2"] == pytest.approx(0.130899, abs=1e-5)
        assert table["0,0"] == pytest.approx(math.pi, abs=1e-6)
        assert table["3,1"] == 0.0
        assert table["1,0"] == 0.0

    def test_csv_out_file_holds_the_printed_rows(self, disk_file, tmp_path, capsys):
        assert main(["moments", disk_file, "--max-order", "2"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "moments.csv"
        assert main(["moments", disk_file, "--max-order", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_json_format(self, disk_file, capsys):
        assert main(["moments", disk_file, "--max-order", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["q", "region", "normalization", "rows"]
        assert doc["q"] == 1
        assert doc["region"] == region_hash(DISK4)
        rows = {tuple(r["alpha_times_q"]): r["value"] for r in doc["rows"]}
        assert rows[(2, 0)] == pytest.approx(math.pi / 4, rel=1e-6)
        # the normalization says which pass produced the table
        normalization = doc["normalization"]
        assert list(normalization) == field_names(VolumeEstimate, omit=("ess",))
        assert normalization["backend"] == "spherical"
        assert normalization["value"] == rows[(0, 0)]

    def test_json_normalization_of_a_monte_carlo_table(self, disk_file, capsys):
        args = ["moments", disk_file, "--max-order", "2", "--format", "json",
                "--backend", "mc", "--budget", "20000", "--seed", "3"]
        assert main(args) == 0
        normalization = json.loads(capsys.readouterr().out)["normalization"]
        assert list(normalization) == field_names(VolumeEstimate)
        assert normalization["backend"] == "monte_carlo"
        assert normalization["samples_or_nodes"] == 20000

    def test_generalized_order(self, tmp_path, capsys):
        path = tmp_path / "b12.json"
        path.write_text(serialize_polynomial(ld_polynomial(2, Fraction(1, 2), q=8)))
        assert main(
            ["moments", str(path), "--max-order", "1/2", "--budget", "65536"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        top = [row for row in lines[1:] if sum(int(v) for v in row.split(";")[0].split(",")) == 4]
        assert len(top) == 5
        assert all(float(row.split(";")[1]) > 0 for row in top)

    def test_negative_order_is_an_input_error(self, disk_file, capsys):
        assert main(["moments", disk_file, "--max-order", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_order must be >= 0" in captured.err


class TestSolveCommand:
    def test_p1_json_document(self, capsys):
        code = main(["solve", "p1", "--n", "2", "--d", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["problem"] == "p1"
        assert doc["converged"] is True
        assert doc["objective"] == pytest.approx(2.0, abs=1e-2)
        assert doc["certificate"]["verdict"] == "pass"
        assert list(doc) == field_names(SolveResult)
        assert list(doc["certificate"]) == field_names(Certificate)
        coeffs = {tuple(t["alpha_times_q"]): t["coeff"] for t in doc["solution"]["terms"]}
        assert coeffs[(4, 0)] == pytest.approx(1.0, abs=1e-2)
        assert isinstance(doc["iterations"], list) and len(doc["iterations"]) >= 2

    def test_p2_solution_values(self, capsys):
        code = main(["solve", "p2", "--n", "2", "--d", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        coeffs = {tuple(t["alpha_times_q"]): t["coeff"] for t in doc["solution"]["terms"]}
        assert coeffs[(4, 0)] == pytest.approx(1.0, abs=2e-2)
        assert coeffs[(2, 2)] == pytest.approx(1.0 / 3.0, abs=2e-2)

    def test_p3_gram_document(self, capsys):
        code = main(["solve", "p3", "--n", "2", "--d", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["problem"] == "p3"
        q = np.array(doc["solution"]["Q"])
        assert q.shape == (3, 3)
        assert np.trace(q) < 2.0 - 0.01

    def test_p1q_requires_lattice(self, capsys):
        assert main(["solve", "p1q", "--n", "2", "--d", "1/2"]) == 2
        assert "q" in capsys.readouterr().err

    def test_p3_rejects_lattice(self, capsys):
        assert main(["solve", "p3", "--n", "2", "--d", "4", "--q", "2"]) == 2
        err = capsys.readouterr()
        assert "q" in err.err and err.out == ""

    def test_p1q_generalized(self, capsys):
        code = main(
            ["solve", "p1q", "--n", "2", "--d", "1/2", "--q", "4", "--budget", "16384"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["problem"] == "p1q"
        coeffs = {tuple(t["alpha_times_q"]): t["coeff"] for t in doc["solution"]["terms"]}
        assert coeffs[(2, 0)] == pytest.approx(1.0, abs=1e-2)

    def test_start_file_reaches_the_solver(self, tmp_path, capsys, monkeypatch):
        start = GeneralizedPolynomial(
            2, 4, 1, {(4, 0): 0.8, (3, 1): 0.1, (2, 2): 0.4, (1, 3): -0.1, (0, 4): 1.2}
        )
        path = tmp_path / "start.json"
        path.write_text(serialize_polynomial(start))
        cli = sys.modules["ballrep.cli"]
        seen = []
        real_solve = cli.solve_p1

        def recording_solve(*args, **kwargs):
            seen.append(kwargs["start"])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_p1", recording_solve)
        code = main(["solve", "p1", "--n", "2", "--d", "4", "--start", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert seen == [start]
        from_library = ballrep.solve_p1(2, 4, start=start, config=ballrep.SolveConfig())
        assert doc["iterations"] == [list(entry) for entry in from_library.iterations]

    @pytest.mark.parametrize("problem,n,options,config", [
        ("p1", 3, [], {}),
        ("p3", 2, [], {}),
        ("p2", 3, ["--backend", "mc", "--seed", "1"], {"backend": "monte_carlo", "seed": 1}),
    ])
    def test_default_budget_is_the_library_default(self, capsys, problem, n, options, config):
        # with no --budget the command prints the document of the library's solve
        cli = sys.modules["ballrep.cli"]
        code = main(["solve", problem, "--n", str(n), "--d", "4", *options])
        doc = json.loads(capsys.readouterr().out)
        res = getattr(ballrep, f"solve_{problem}")(n, 4, config=ballrep.SolveConfig(**config))
        to_dict = ballrep.gram_to_dict if problem == "p3" else ballrep.polynomial_to_dict
        expected = cli._document(dataclasses.replace(res, solution=to_dict(res.solution)))
        assert code == 0
        assert doc == json.loads(json.dumps(expected))

    def test_infeasible_start_exit_code(self, tmp_path, capsys):
        # the l1 projection of this start is 2 x1**4, of infinite volume
        start = GeneralizedPolynomial(2, 4, 1, {(4, 0): 4.0, (3, 1): 0.5, (0, 4): 0.2})
        path = tmp_path / "start.json"
        path.write_text(serialize_polynomial(start))
        assert main(["solve", "p1", "--n", "2", "--d", "4", "--start", str(path)]) == 3
        assert "initial iterate has infinite volume" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,start,expected", [
        ("p1", "gram", "GeneralizedPolynomial"),
        ("p2", "gram", "GeneralizedPolynomial"),
        ("p3", "polynomial", "GramForm"),
    ])
    def test_wrong_schema_start_is_an_input_error(self, tmp_path, capsys, problem, start, expected):
        path = tmp_path / "start.json"
        path.write_text(serialize_gram(minimal_trace_axis_gram(2, 4)) if start == "gram"
                        else serialize_polynomial(ld_polynomial(2, 4)))
        assert main(["solve", problem, "--n", "2", "--d", "4", "--start", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"must be a {expected}" in captured.err and captured.out == ""

    def test_unconverged_exit_code(self, capsys):
        # two iterations do not converge (p3 (3, 6) takes six trace entries),
        # but the iterate they reach certifies; p1 (3, 6) now converges at
        # its first iteration
        assert main(["solve", "p3", "--n", "3", "--d", "6", "--max-iters", "2"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert not doc["converged"] and doc["certificate"]["verdict"] == "pass"

    @pytest.mark.parametrize("options,converged", [
        (["--n", "2", "--d", "4", "--max-iters", "1"], False),
        # from the default start, invariant under permutations, the descent
        # reads orbit-averaged moments and certifies; from this start it reads
        # the raw cone nodes of seed 0, as every descent did before
        (["--n", "4", "--d", "4", "--backend", "mc", "--budget", "2048", "--seed", "0",
          "--start", "AXIS"], True),
    ], ids=["unconverged", "converged-mc"])
    def test_failed_certificate_exit_code(self, tmp_path, capsys, options, converged):
        # a failed certificate exits 5, whether or not the solve converged
        axis = tmp_path / "axis.json"  # x1**4 + x2**4 + x3**4 + 1.01 x4**4
        terms = {(4, 0, 0, 0): 1.0, (0, 4, 0, 0): 1.0, (0, 0, 4, 0): 1.0, (0, 0, 0, 4): 1.01}
        axis.write_text(serialize_polynomial(GeneralizedPolynomial(4, 4, 1, terms)))
        options = [str(axis) if option == "AXIS" else option for option in options]
        assert main(["solve", "p1", *options]) == 5
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] == converged and doc["certificate"]["verdict"] == "fail"

    def test_grid_backend_is_an_input_error(self, capsys):
        # the grid oracle cross-checks queries; a solve would descend on a
        # 1,000,000-cell grid per trial, so it is refused before any pass
        assert main(["solve", "p2", "--n", "2", "--d", "4", "--backend", "grid"]) == 2
        captured = capsys.readouterr()
        assert "'spherical' or 'monte_carlo'" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_an_input_error(self, capsys, tol):
        assert main(["solve", "p1", "--n", "2", "--d", "4", "--tol", tol]) == 2
        assert "cert_tol must be finite and >= 0" in capsys.readouterr().err


class TestCertifyCommand:
    def test_p1_pass(self, tmp_path, capsys):
        path = tmp_path / "axis.json"
        path.write_text(serialize_polynomial(ld_polynomial(2, 4)))
        assert main(["certify", "p1", str(path), "--budget", "8192"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["kind"] == "p1_kkt"
        assert list(doc) == field_names(Certificate)

    def test_p2_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "axis.json"
        path.write_text(serialize_polynomial(ld_polynomial(2, 4)))
        assert main(["certify", "p2", str(path), "--budget", "8192"]) == 5
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"]["g(2,2)"] >= 0.1

    def test_p3_diagonal_gram_fails(self, tmp_path, capsys):
        path = tmp_path / "gram.json"
        path.write_text(serialize_gram(minimal_trace_axis_gram(2, 4)))
        assert main(["certify", "p3", str(path), "--budget", "8192"]) == 5

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_an_input_error(self, disk_file, capsys, tol):
        assert main(["certify", "p2", disk_file, "--tol", tol]) == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    def test_zero_tolerance_is_valid(self, disk_file, capsys):
        assert main(["certify", "p2", disk_file, "--tol", "0"]) in (0, 5)
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0

    def test_p3_needs_gram_schema(self, tmp_path, capsys):
        path = tmp_path / "axis.json"
        path.write_text(serialize_polynomial(ld_polynomial(2, 4)))
        assert main(["certify", "p3", str(path)]) == 2


@pytest.mark.parametrize("argv,message", [
    (["solve", "p1", "--n", "2", "--d", "x/y"], "error: --d must be a number, got 'x/y'\n"),
    (["volume", "MISSING"], "file: "),
    (["ball-table", "--n-range", "2-3", "--d-list", "2"], "n-range: expected LO:HI, got '2-3'"),
    (["solve", "p3", "--n", "2", "--d", "1/2"],
     "error: the Gram trace problem needs an even degree, an even integer >= 2, got 1/2"),
    (["moments", "DISK", "--max-order", "x"], "error: --max-order must be a number, got 'x'\n"),
    (["ball-table", "--n-range", "2:2", "--d-list", "4,zz"],
     "error: --d-list must be a number, got 'zz'\n"),
    (["volume", "DISK", "--out", "UNWRITABLE"], "error: out: "),
    (["ball-table", "--n-range", "2:2", "--d-list", "4", "--out", "UNWRITABLE"], "error: out: "),
], ids=["non-rational-d", "unreadable-file", "n-range-dash", "p3-fractional-d",
        "non-rational-max-order", "non-rational-d-list", "unwritable-json-out",
        "unwritable-csv-out"])
def test_input_error_exit_code(tmp_path, capsys, disk_file, argv, message):
    paths = {"MISSING": str(tmp_path / "missing.json"), "DISK": disk_file,
             "UNWRITABLE": str(tmp_path / "missing" / "out")}
    assert main([paths.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert not out


class TestBallTableCommand:
    def test_values(self, capsys):
        assert main(["ball-table", "--n-range", "2:2", "--d-list", "2,1/2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n;d;volume;axis_moment"
        rows = {line.split(";")[1]: line.split(";") for line in lines[1:]}
        assert float(rows["2"][2]) == pytest.approx(math.pi, abs=1e-12)
        assert float(rows["1/2"][2]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert float(rows["2"][3]) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_bad_range(self, capsys):
        assert main(["ball-table", "--n-range", "4:2", "--d-list", "2"]) == 2


class TestBoundaryCommand:
    def test_points_lie_on_boundary(self, tmp_path, capsys):
        path = tmp_path / "b12.json"
        poly = ld_polynomial(2, Fraction(1, 2), q=2)
        path.write_text(serialize_polynomial(poly))
        assert main(["boundary", str(path), "--count", "257"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x1;x2"
        assert len(lines) == 258
        for line in lines[1:]:
            x1, x2 = (float(v) for v in line.split(";"))
            assert abs(poly.evaluate([x1, x2]) - 1.0) <= 1e-9

    def test_skips_infeasible_rays(self, infeasible_file, capsys):
        assert main(["boundary", infeasible_file, "--count", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert 1 < len(lines) < 101  # rays through the negative cone are dropped

    def test_dimension_guard(self, tmp_path, capsys):
        path = tmp_path / "ball3.json"
        path.write_text(serialize_polynomial(ld_polynomial(3, 2)))
        assert main(["boundary", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n: boundary sampling is only defined for n = 2, got 3\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_count_is_an_input_error(self, disk_file, capsys, count):
        assert main(["boundary", disk_file, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "count: must be >= 1" in captured.err


class TestDeterminism:
    def test_solve_byte_identical(self, capsys):
        main(["solve", "p1", "--n", "2", "--d", "4", "--seed", "5"])
        first = capsys.readouterr().out
        main(["solve", "p1", "--n", "2", "--d", "4", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_moments_byte_identical(self, disk_file, capsys):
        args = ["moments", disk_file, "--max-order", "4", "--backend", "grid",
                "--budget", "250000", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestImportFootprint:
    def test_cli_import_loads_no_scipy(self):
        # the first multi-batch Monte Carlo draw imports concurrent.futures, and
        # only `moments --format json` hashes; a cold command pays for neither
        code = (
            "import sys, ballrep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('concurrent.futures', 'hashlib')))"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# records the freeze count after the command has run, at interpreter exit
FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    "sys.argv = ['ballrep', 'ball-table', '--n-range', '2:2', '--d-list', '4']\n"
)

COLD_COMMANDS = {
    "volume disk": ["volume", "DISK", "--seed", "1"],
    "moments disk": ["moments", "DISK", "--max-order", "4", "--format", "json", "--seed", "1"],
    "solve p3": ["solve", "p3", "--n", "2", "--d", "4", "--seed", "1"],
    "certify p2": ["certify", "p2", "DISK", "--seed", "1"],
    "ball-table": ["ball-table", "--n-range", "2:3", "--d-list", "4,1/2"],
    "volume infeasible": ["volume", "INFEASIBLE", "--seed", "1"],
    "volume ball(2,1/2)": ["volume", "BALL_HALF", "--seed", "1"],
    "certify p1 ball(2,3/2)": ["certify", "p1", "BALL_THREE_HALVES", "--seed", "1"],
}


@pytest.fixture
def cold_inputs(tmp_path, disk_file, infeasible_file):
    paths = {"DISK": disk_file, "INFEASIBLE": infeasible_file}
    for name, poly in [("BALL_HALF", ld_polynomial(2, Fraction(1, 2), q=4)),
                       ("BALL_THREE_HALVES", ld_polynomial(2, Fraction(3, 2), q=2))]:
        path = tmp_path / f"{name.lower()}.json"
        path.write_text(serialize_polynomial(poly))
        paths[name] = str(path)
    return paths


class TestProcessEntry:
    def frozen(self, proc) -> int:
        assert proc.returncode == 0, proc.stderr
        label, count = proc.stdout.splitlines()[-1].split()
        assert label == "frozen"
        return int(count)

    def test_main_module_freezes(self):
        run = "import runpy\nrunpy.run_module('ballrep.cli', run_name='__main__', alter_sys=True)\n"
        assert self.frozen(run_python("-c", FREEZE_PROBE + run)) > 0

    def test_console_script_target_freezes(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]")[1]
        module, name = re.search(r'^ballrep = "([\w.]+):(\w+)"$', scripts, re.M).groups()
        # what the generated console script does with its target
        run = f"from {module} import {name}\nsys.exit({name}())\n"
        assert self.frozen(run_python("-c", FREEZE_PROBE + run)) > 0

    @pytest.mark.parametrize("argv", [
        ["volume", "DISK"],
        ["moments", "DISK", "--max-order", "2"],
        ["solve", "p3", "--n", "2", "--d", "4"],
        ["certify", "p2", "DISK"],
        ["ball-table", "--n-range", "2:2", "--d-list", "4"],
        ["boundary", "DISK", "--count", "8"],
    ], ids=lambda argv: argv[0])
    def test_main_does_not_freeze(self, disk_file, capsys, argv):
        before = gc.get_freeze_count()
        assert main([disk_file if a == "DISK" else a for a in argv]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("name", list(COLD_COMMANDS))
    def test_process_matches_in_process(self, cold_inputs, capsys, name):
        argv = [cold_inputs.get(a, a) for a in COLD_COMMANDS[name]]
        code = main(argv)
        captured = capsys.readouterr()
        proc = run_python("-m", "ballrep.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    @pytest.mark.parametrize("argv,unbuffered", [
        (["moments", "DISK", "--max-order", "4", "--format", "json"], True),
        (["moments", "DISK", "--max-order", "4", "--format", "json"], False),
        (["--help"], False),
    ], ids=["print", "final-flush", "help"])
    def test_closed_stdout_exits_1_quietly(self, disk_file, argv, unbuffered):
        # the read end is closed before the child starts, so its first write
        # fails: in print() when unbuffered, else in the entry's final flush,
        # which also runs when argparse exits after --help
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [disk_file if a == "DISK" else a for a in argv]
        try:
            proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "ballrep.cli",
                                   *argv], stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")
