"""The heat routes' input contracts: ``solve --method heat-integral`` needs
a finite positive tolerance, and ``heat_time_integral`` takes f only on
the spectrum's vertices."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gneumann as gn
from gneumann.errors import DomainMismatchError, NonpositiveToleranceError
from gneumann.fixtures import path_graph

SRC = str(Path(gn.__file__).resolve().parents[1])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    (tmp_path / "config.json").write_text('{"tol": Infinity}')
    return tmp_path


@pytest.mark.parametrize("spelling", [["--tol", "inf"], ["--config", "config.json"]])
def test_infinite_tolerance_is_a_json_error(p3_files, spelling):
    d = p3_files
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gneumann.cli", "solve", "--method", "heat-integral",
         "--graph", "graph.tsv", "--measure", "measure.tsv", "--interior", "interior.tsv",
         "--phi", "phi.tsv", "--out", "out", *spelling],
        cwd=d, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr, parse_constant=_reject_constant)
    assert err["code"] == "NonpositiveTolerance"
    assert "positive and finite" in err["message"]
    assert not (d / "out" / "solution.csv").exists()


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_solve_heat_integral_refuses_tolerance(p3_closure, p3_phi, tol):
    spec = gn.eigendecompose(p3_closure.graph, p3_closure.measure)
    with pytest.raises(NonpositiveToleranceError):
        gn.solve_heat_integral(p3_closure, p3_phi, spec, tol)


@pytest.fixture
def p4_spec():
    g = path_graph(4)
    return gn.eigendecompose(g, gn.Measure.uniform(g.vertices))


@pytest.mark.parametrize("f", [np.ones(1), np.ones(3), {"1": 1.0, "2": 1.0, "3": 1.0},
                               gn.VertexFunction({"1": 1.0, "2": 1.0, "3": 1.0, "4": 1.0,
                                                  "5": 1.0})],
                         ids=["length-1", "length-3", "mapping-on-3", "function-on-5"])
def test_heat_time_integral_refuses_f_off_the_vertices(p4_spec, f):
    with pytest.raises(DomainMismatchError):
        gn.heat_time_integral(p4_spec, f, 1.0)


def test_heat_time_integral_takes_f_in_every_form(p4_spec):
    values = {"1": 1.0, "2": -0.5, "3": 0.25, "4": 2.0}
    want = gn.heat_time_integral(p4_spec, np.array(list(values.values())), 1.5)
    for f in (values, gn.VertexFunction(values), list(values.values())):
        assert gn.heat_time_integral(p4_spec, f, 1.5) == want
