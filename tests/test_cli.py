import csv
import json
import math

import pytest

import gneumann as gn
from gneumann import fileio
from gneumann.cli import main


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    return tmp_path


def _flags(d: dict) -> list[str]:
    out = []
    for k, v in d.items():
        out.append(f"--{k}")
        if v is not None:
            out.append(str(v))
    return out


def test_solve_p3_fixture(p3_files, capsys):
    out = p3_files / "run"
    rc = main(["solve"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "out": out,
    }))
    assert rc == 0
    u, boundary = fileio.read_solution_csv(out / "solution.csv")
    assert u["1"] == pytest.approx(1.0, abs=1e-12)
    assert u["2"] == pytest.approx(0.0, abs=1e-12)
    assert u["3"] == pytest.approx(-1.0, abs=1e-12)
    assert set(boundary) == {"1", "3"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "direct"
    assert summary["residual_interior"] <= 1e-10
    assert summary["residual_boundary"] <= 1e-10
    assert abs(summary["compatibility_sum"]) <= 1e-12


@pytest.mark.parametrize("method", ["green", "heat-integral"])
def test_solve_other_methods(p3_files, method):
    out = p3_files / f"run_{method}"
    rc = main(["solve"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "method": method,
        "out": out,
    }))
    assert rc == 0
    u, _ = fileio.read_solution_csv(out / "solution.csv")
    assert u["1"] == pytest.approx(1.0, abs=1e-9)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == method
    if method == "heat-integral":
        assert summary["T_truncation"] > 0


def test_solve_round_trip_residuals(p3_files, p3_closure, p3_phi):
    out = p3_files / "rt"
    assert main(["solve"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "out": out,
    })) == 0
    u, _ = fileio.read_solution_csv(out / "solution.csv")
    sol = gn.NeumannSolution(u=u, method="direct", residual_interior=0.0,
                             residual_boundary=0.0, centering=0.0)
    report = gn.verify_solution(p3_closure, sol, p3_phi, tol=1e-9)
    assert report.passed


def test_solve_incompatible_data_fails_with_code(p3_files, capsys):
    (p3_files / "bad_phi.tsv").write_text("1\t1.0\n3\t1.0\n")
    rc = main(["solve"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "bad_phi.tsv",
        "out": p3_files / "bad",
    }))
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "IncompatibleData"
    assert err["message"]


def test_solve_project_flag_centers_data(p3_files):
    (p3_files / "bad_phi.tsv").write_text("1\t1.0\n3\t1.0\n")
    out = p3_files / "projected"
    rc = main(["solve"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "bad_phi.tsv",
        "out": out,
        "project": None,
    }))
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "warning" in summary
    assert summary["projected_shift"] == pytest.approx(1.0)
    u, _ = fileio.read_solution_csv(out / "solution.csv")
    assert all(abs(v) <= 1e-12 for v in u.values.values())  # projected phi is zero


def test_solve_boundary_measure_mode(p3_files):
    (p3_files / "boundary.tsv").write_text("1\n3\n")
    (p3_files / "mu.tsv").write_text("1\t2.0\n3\t2.0\n")
    out = p3_files / "royden"
    rc = main(["solve"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "boundary": p3_files / "boundary.tsv",
        "mu": p3_files / "mu.tsv",
        "phi": p3_files / "phi.tsv",
        "out": out,
    }))
    assert rc == 0
    u, _ = fileio.read_solution_csv(out / "solution.csv")
    assert u["1"] == pytest.approx(2.0, abs=1e-10)
    assert u["3"] == pytest.approx(-2.0, abs=1e-10)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "boundary-measure"


def test_solve_requires_exactly_one_mode(p3_files, capsys):
    (p3_files / "boundary.tsv").write_text("1\n3\n")
    (p3_files / "mu.tsv").write_text("1\t2.0\n3\t2.0\n")
    rc = main(["solve"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "boundary": p3_files / "boundary.tsv",
        "mu": p3_files / "mu.tsv",
        "phi": p3_files / "phi.tsv",
        "out": p3_files / "x",
    }))
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["code"] == "InputError"


def test_simulate_writes_estimate_with_z_score(p3_files):
    out = p3_files / "sim"
    rc = main(["simulate"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "start": "1",
        "T": 5.0,
        "N": 2000,
        "seed": 7,
        "out": out,
    }))
    assert rc == 0
    est = json.loads((out / "estimate.json").read_text())
    assert est["N"] == 2000 and est["seed"] == 7 and est["start"] == "1"
    assert est["stderr"] > 0
    assert abs(est["z_score"]) <= 3
    assert est["analytic_reference"] == pytest.approx(1 - math.exp(-5.0), abs=1e-9)


def test_simulate_deterministic_bytes(p3_files):
    args = lambda out: ["simulate"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "start": "1", "T": 3.0, "N": 500, "seed": 42,
        "out": out,
    })
    assert main(args(p3_files / "s1")) == 0
    assert main(args(p3_files / "s2")) == 0
    b1 = (p3_files / "s1" / "estimate.json").read_bytes()
    b2 = (p3_files / "s2" / "estimate.json").read_bytes()
    assert b1 == b2


def test_simulate_dump_paths(p3_files):
    out = p3_files / "dump"
    rc = main(["simulate"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "start": "2", "T": 2.0, "N": 3, "seed": 5,
        "out": out,
        "dump-paths": None,
    }))
    assert rc == 0
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "path_id,step,state,holding_time"
    assert {row.split(",")[0] for row in lines[1:]} == {"0", "1", "2"}
    first = lines[1].split(",")
    assert first[2] == "2"  # every path starts at the start vertex


def test_dump_paths_quotes_state_ids(tmp_path):
    # ids are split at tabs only, so a comma or a quote is part of the id
    (tmp_path / "graph.tsv").write_text('a,b\tq"x\t1.0\nq"x\tc\t1.0\n')
    (tmp_path / "measure.tsv").write_text('a,b\t1.0\nq"x\t1.0\nc\t1.0\n')
    (tmp_path / "interior.tsv").write_text('q"x\n')
    (tmp_path / "phi.tsv").write_text("a,b\t1.0\nc\t-1.0\n")
    out = tmp_path / "dump"
    rc = main(["simulate"] + _flags({
        "graph": tmp_path / "graph.tsv",
        "measure": tmp_path / "measure.tsv",
        "interior": tmp_path / "interior.tsv",
        "phi": tmp_path / "phi.tsv",
        "start": "a,b", "T": 2.0, "N": 20, "seed": 5,
        "out": out,
        "dump-paths": None,
    }))
    assert rc == 0
    with open(out / "paths.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_id", "step", "state", "holding_time"]
    assert all(len(row) == 4 for row in rows)
    assert {row[2] for row in rows[1:]} == {"a,b", 'q"x', "c"}
    assert all(row[2] == "a,b" for row in rows[1:] if row[1] == "0")


def test_simulate_boundary_measure_mode(p3_files):
    (p3_files / "boundary.tsv").write_text("1\n3\n")
    (p3_files / "mu.tsv").write_text("1\t2.0\n3\t2.0\n")
    out = p3_files / "sim4"
    rc = main(["simulate"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "boundary": p3_files / "boundary.tsv",
        "mu": p3_files / "mu.tsv",
        "phi": p3_files / "phi.tsv",
        "start": "1", "T": 5.0, "N": 2000, "seed": 3,
        "out": out,
    }))
    assert rc == 0
    est = json.loads((out / "estimate.json").read_text())
    # the boundary-measure target here is twice the vertex-boundary one
    assert abs(est["z_score"]) <= 3
    assert est["analytic_reference"] == pytest.approx(2 * (1 - math.exp(-5.0)), abs=1e-9)


def test_kernel_command(p3_files, two_vertex):
    (p3_files / "edge.tsv").write_text("1\t2\t1.0\n")
    (p3_files / "m2.tsv").write_text("1\t1.0\n2\t1.0\n")
    out = p3_files / "kernels"
    rc = main(["kernel"] + _flags({
        "graph": p3_files / "edge.tsv",
        "measure": p3_files / "m2.tsv",
        "times": "0.5,1",
        "out": out,
    }))
    assert rc == 0
    heat = (out / "heat_t0.5.csv").read_text().strip().splitlines()
    assert heat[0] == ",1,2"
    p11 = float(heat[1].split(",")[1])
    assert p11 == pytest.approx(0.5 * (1 + math.exp(-1)), abs=1e-12)
    green = (out / "green.csv").read_text().strip().splitlines()
    assert float(green[1].split(",")[1]) == pytest.approx(0.25, abs=1e-12)
    assert (out / "heat_t1.csv").exists()
    assert (out / "spectrum.csv").exists()


def test_kernel_requires_times(p3_files, capsys):
    rc = main(["kernel"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "out": p3_files / "nope",
    }))
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["code"] == "InputError"


def test_verify_two_vertex_fixture(p3_files):
    (p3_files / "edge.tsv").write_text("1\t2\t1.0\n")
    (p3_files / "m2.tsv").write_text("1\t1.0\n2\t1.0\n")
    (p3_files / "int2.tsv").write_text("1\n")
    out = p3_files / "verify"
    rc = main(["verify"] + _flags({
        "graph": p3_files / "edge.tsv",
        "measure": p3_files / "m2.tsv",
        "interior": p3_files / "int2.tsv",
        "out": out,
    }))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    for suite in ["gauss_green", "chapman_kolmogorov", "stochastic_completeness",
                  "heat_equation", "mixing", "ultracontractivity", "cross_method"]:
        assert report["suites"][suite]["passed"], suite
    assert report["green_kernel"]["1"]["1"] == pytest.approx(0.25, abs=1e-12)


def test_verify_p3(p3_files):
    out = p3_files / "verify3"
    rc = main(["verify"] + _flags({
        "graph": p3_files / "graph.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "out": out,
    }))
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["passed"]


def test_config_file_with_flag_override(p3_files):
    config = {
        "graph": str(p3_files / "graph.tsv"),
        "measure": str(p3_files / "measure.tsv"),
        "interior": str(p3_files / "interior.tsv"),
        "phi": str(p3_files / "phi.tsv"),
        "method": "direct",
        "out": str(p3_files / "from_config"),
    }
    (p3_files / "config.json").write_text(json.dumps(config))
    out = p3_files / "overridden"
    rc = main(["solve", "--config", str(p3_files / "config.json"),
               "--method", "green", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "green"  # flag beats config
    assert not (p3_files / "from_config").exists()


def test_missing_file_yields_error_json(p3_files, capsys):
    rc = main(["solve"] + _flags({
        "graph": p3_files / "nonexistent.tsv",
        "measure": p3_files / "measure.tsv",
        "interior": p3_files / "interior.tsv",
        "phi": p3_files / "phi.tsv",
        "out": p3_files / "x",
    }))
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "InputError"


def test_disconnected_closure_error_code(p3_files, capsys):
    (p3_files / "p4.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n3\t4\t1.0\n")
    (p3_files / "m4.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n4\t1.0\n")
    (p3_files / "ends.tsv").write_text("1\n4\n")
    (p3_files / "phi23.tsv").write_text("2\t1.0\n3\t-1.0\n")
    rc = main(["solve"] + _flags({
        "graph": p3_files / "p4.tsv",
        "measure": p3_files / "m4.tsv",
        "interior": p3_files / "ends.tsv",
        "phi": p3_files / "phi23.tsv",
        "out": p3_files / "x",
    }))
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["code"] == "DisconnectedClosure"
