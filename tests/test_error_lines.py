"""Error paths that no other in-process test reaches: each raises its
error code, and through the CLI ends in exit 1 with one JSON object and
no output directory."""

import json
import math

import pytest

import gneumann as gn
from gneumann import fileio
from gneumann.cli import main
from gneumann.errors import (
    DisconnectedError,
    DomainMismatchError,
    IncompatibleDataError,
    InputError,
    UnknownVertexError,
)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("9\n")
    return tmp_path


def _cli_error(argv, out, capsys) -> dict:
    assert main([*argv, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert not out.exists()
    return err


def test_a_missing_flag_is_named(files, capsys):
    err = _cli_error(["kernel", "--measure", str(files / "measure.tsv"), "--times", "1"],
                     files / "out", capsys)
    assert err["code"] == "InputError"
    assert err["context"] == {"missing": ["graph"]}


def test_unparsable_times_are_an_input_error(files, capsys):
    err = _cli_error(["kernel", "--graph", str(files / "graph.tsv"), "--measure",
                      str(files / "measure.tsv"), "--times", "abc"], files / "out", capsys)
    assert err["code"] == "InputError"
    assert "cannot parse --times" in err["message"]


def test_an_interior_vertex_outside_the_graph(p3, files, capsys):
    with pytest.raises(UnknownVertexError) as exc:
        gn.closure_subgraph(p3, ["2", "9"], gn.Measure.uniform(p3.vertices))
    assert exc.value.code == "UnknownVertex" and exc.value.context == {"vertex": "9"}
    (files / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    err = _cli_error(["solve", "--graph", str(files / "graph.tsv"), "--measure",
                      str(files / "measure.tsv"), "--interior", str(files / "interior.tsv"),
                      "--phi", str(files / "phi.tsv")], files / "out", capsys)
    assert err["code"] == "UnknownVertex" and err["context"] == {"vertex": "9"}


def test_empty_boundary_data():
    with pytest.raises(DomainMismatchError) as exc:
        gn.BoundaryData(values=gn.VertexFunction({}), measure=gn.Measure({}))
    assert exc.value.code == "DomainMismatch"
    assert str(exc.value) == "boundary data is empty"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_boundary_data(p3_closure, value):
    with pytest.raises(IncompatibleDataError) as exc:
        gn.solve_direct(p3_closure, {"1": value, "3": -1.0})
    assert exc.value.code == "IncompatibleData"
    assert exc.value.context["vertex"] == "1"
    assert str(exc.value.context["value"]) == str(value)


@pytest.mark.parametrize("text,message", [
    ("vertex,value\r\n1,0.5\r\n", "unexpected solution header"),
    ("vertex,u,region\r\n1,0.5\r\n", "malformed row"),
    ("vertex,u,region\r\n", "empty solution file"),
    ("", "unexpected solution header None"),
])
def test_bad_solution_files(tmp_path, text, message):
    path = tmp_path / "u.csv"
    path.write_text(text, newline="")
    with pytest.raises(InputError) as exc:
        fileio.read_solution_csv(path)
    assert exc.value.code == "InputError" and message in str(exc.value)


def test_occupation_density_needs_paths_from_one_start(p3_closure):
    m = p3_closure.measure
    with pytest.raises(ValueError, match="need at least one path"):
        gn.occupation_density([], 0.5, "2", m)
    paths = [gn.sample_path(p3_closure, x, 1.0, (5, 0)) for x in ("2", "1")]
    with pytest.raises(ValueError, match="do not share a start vertex"):
        gn.occupation_density(paths, 0.5, "2", m)


def test_a_one_vertex_spectrum_has_no_gap_and_no_green_kernel():
    spec = gn.eigendecompose(gn.build_graph(["x"]), gn.Measure({"x": 2.0}))
    assert spec.eigenvalues.tolist() == [0.0]
    for build in (lambda: spec.spectral_gap, lambda: gn.green_kernel(spec)):
        with pytest.raises(DisconnectedError) as exc:
            build()
        assert exc.value.code == "Disconnected"
