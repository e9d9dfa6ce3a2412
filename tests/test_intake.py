"""One problem intake for both boundary modes: ``solve`` and ``simulate``
load the problem the same way, and the solve core and the Monte Carlo
estimator check boundary data with the same routine."""

import json

import pytest

import gneumann as gn
from gneumann import fileio
from gneumann.cli import main
from gneumann.errors import DomainMismatchError
from gneumann.fixtures import path_graph


@pytest.fixture
def measure_files(tmp_path):
    """P3 with a designated boundary {1, 3} carrying mu = 2 at each end."""
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "boundary.tsv").write_text("1\n3\n")
    (tmp_path / "mu.tsv").write_text("1\t2.0\n3\t2.0\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    return tmp_path


def _measure_flags(d) -> list[str]:
    return ["--graph", str(d / "graph.tsv"), "--measure", str(d / "measure.tsv"),
            "--boundary", str(d / "boundary.tsv"), "--mu", str(d / "mu.tsv"),
            "--phi", str(d / "phi.tsv"), "--out", str(d / "out")]


@pytest.mark.parametrize("command", [
    ["solve"],
    ["simulate", "--start", "2", "--T", "1", "--N", "10"],
])
def test_boundary_vertex_outside_graph_same_error_in_both_commands(measure_files, capsys, command):
    (measure_files / "boundary.tsv").write_text("1\n9\n")
    (measure_files / "mu.tsv").write_text("1\t2.0\n9\t2.0\n")
    (measure_files / "phi.tsv").write_text("1\t1.0\n9\t-1.0\n")
    assert main(command + _measure_flags(measure_files)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "DomainMismatch"
    assert err["message"] == "boundary vertex '9' not in graph"


def _solution(d) -> dict:
    return fileio.read_solution_csv(d / "out" / "solution.csv")[0].values


@pytest.mark.parametrize("method", ["green", "heat-integral"])
def test_boundary_measure_mode_solves_by_every_method(measure_files, method):
    assert main(["solve", *_measure_flags(measure_files), "--method", "direct"]) == 0
    direct = _solution(measure_files)
    # the heat route's tail is below --tol, so ask for less than the agreement bound
    assert main(["solve", *_measure_flags(measure_files), "--method", method, "--tol", "1e-13"]) == 0
    summary = json.loads((measure_files / "out" / "summary.json").read_text())
    assert summary["mode"] == "boundary-measure" and summary["method"] == method
    u = _solution(measure_files)
    assert u.keys() == direct.keys() == {"1", "2", "3"}
    assert max(abs(u[x] - direct[x]) for x in u) <= 1e-12


def test_mc_estimate_measure_rejects_empty_boundary():
    g = path_graph(3)
    m = gn.Measure.uniform(g.vertices)
    with pytest.raises(DomainMismatchError, match="boundary set is empty"):
        gn.mc_estimate_measure(g, [], m, gn.Measure({}), {}, "2", 1.0, 10, 0)


def test_solver_and_estimator_reject_misplaced_data_alike():
    g = path_graph(3)
    m = gn.Measure.uniform(g.vertices)
    mu = gn.Measure({"1": 2.0, "3": 2.0})
    phi = {"1": 1.0, "2": -1.0}  # defined off the designated boundary {1, 3}
    with pytest.raises(DomainMismatchError) as solved:
        gn.solve_boundary_measure(g, ["1", "3"], m, mu, phi)
    with pytest.raises(DomainMismatchError) as estimated:
        gn.mc_estimate_measure(g, ["1", "3"], m, mu, phi, "2", 1.0, 10, 0)
    assert str(solved.value) == str(estimated.value)
    assert solved.value.context == estimated.value.context == {
        "expected": ["1", "3"], "got": ["1", "2"]}
