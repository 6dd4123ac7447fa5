import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ballrep
from ballrep import (
    GeneralizedPolynomial,
    ld_polynomial,
    minimal_trace_axis_gram,
    region_hash,
    serialize_gram,
    serialize_polynomial,
)
from ballrep.cli import main

DISK4 = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0})
INFEASIBLE = GeneralizedPolynomial(2, 4, 1, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -2.1})


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

    def test_infeasible_exit_code_and_message(self, infeasible_file, capsys):
        assert main(["volume", infeasible_file]) == 3
        err = capsys.readouterr().err
        assert "infinite volume" in err
        assert "sphere minimum" in err
        assert "-0.025" in err

    @pytest.mark.parametrize("backend", ["spherical", "mc", "grid"])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_is_an_input_error(self, disk_file, capsys, backend, budget):
        assert main(["volume", disk_file, "--backend", backend, "--budget", budget]) == 2
        assert "budget must be >= 1" in capsys.readouterr().err

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

    def test_json_format(self, disk_file, capsys):
        assert main(["moments", disk_file, "--max-order", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == 1
        assert doc["region"] == region_hash(DISK4)
        rows = {tuple(r["alpha_times_q"]): r["value"] for r in doc["rows"]}
        assert rows[(2, 0)] == pytest.approx(math.pi / 4, rel=1e-6)

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
        config = ballrep.SolveConfig(budget=cli.DEFAULT_BUDGETS["spherical"])
        from_library = ballrep.solve_p1(2, 4, start=start, config=config)
        assert doc["iterations"] == [list(entry) for entry in from_library.iterations]

    def test_infeasible_start_exit_code(self, tmp_path, capsys):
        # the l1 projection of this start is 2 x1**4, of infinite volume
        start = GeneralizedPolynomial(2, 4, 1, {(4, 0): 4.0, (3, 1): 0.5, (0, 4): 0.2})
        path = tmp_path / "start.json"
        path.write_text(serialize_polynomial(start))
        assert main(["solve", "p1", "--n", "2", "--d", "4", "--start", str(path)]) == 3
        assert "initial iterate has infinite volume" in capsys.readouterr().err

    def test_unconverged_exit_code(self, capsys):
        assert main(["solve", "p1", "--n", "2", "--d", "4", "--max-iters", "1"]) == 4


class TestCertifyCommand:
    def test_p1_pass(self, tmp_path, capsys):
        path = tmp_path / "axis.json"
        path.write_text(serialize_polynomial(ld_polynomial(2, 4)))
        assert main(["certify", "p1", str(path), "--budget", "8192"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["kind"] == "p1_kkt"

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

    def test_p3_needs_gram_schema(self, tmp_path, capsys):
        path = tmp_path / "axis.json"
        path.write_text(serialize_polynomial(ld_polynomial(2, 4)))
        assert main(["certify", "p3", str(path)]) == 2


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
        src = str(Path(ballrep.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, ballrep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"
