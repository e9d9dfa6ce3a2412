"""One problem check for every solver route, and the direct route's
residual gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gneumann as gn
from gneumann.errors import DomainMismatchError, IllConditionedError

SRC = str(Path(gn.__file__).resolve().parents[1])


@pytest.fixture
def foreign_phi():
    """Centered against its own measure (1*2 - 2*1 = 0), not against m
    on the P3 boundary (1 - 2 = -1)."""
    return gn.BoundaryData(values=gn.VertexFunction({"1": 1.0, "3": -2.0}),
                           measure=gn.Measure({"1": 2.0, "3": 1.0}))


@pytest.mark.parametrize("route", ["direct", "green", "heat-integral"])
def test_every_route_rejects_data_with_a_foreign_measure(p3_closure, foreign_phi, route):
    spec = gn.eigendecompose(p3_closure.graph, p3_closure.measure)
    solve = {
        "direct": lambda: gn.solve_direct(p3_closure, foreign_phi),
        "green": lambda: gn.solve_green(p3_closure, foreign_phi, spec),
        "heat-integral": lambda: gn.solve_heat_integral(p3_closure, foreign_phi, spec, tol=1e-10),
    }[route]
    with pytest.raises(DomainMismatchError, match="different measure than mu"):
        solve()


def test_verify_solution_reports_on_data_that_is_not_centered(p3_closure, p3_phi):
    sol = gn.solve_direct(p3_closure, p3_phi)
    report = gn.verify_solution(p3_closure, sol, {"1": 1.0, "3": 0.0})
    assert not report.passed
    assert report.residual_boundary == pytest.approx(1.0)


# a connected path whose augmented system is singular to working precision
ILL_EDGES = [("1", "2", 1e-13), ("2", "3", 1e13), ("3", "4", 1.0)]
# weights eleven and ten orders apart: phi is met to about 1e-7 at vertex 1,
# and at vertices 2 and 3 the residual is the rounding of row products near
# 1e11 and 7e9; with the first pair that rounding exceeds 1e-6
WIDE = [(1e-6, 1e5), (1e-5, 1e5)]

def _closure(edges, interior):
    g = gn.build_graph(sorted({x for e in edges for x in e[:2]}), edges)
    return gn.closure_subgraph(g, interior, gn.Measure.uniform(g.vertices))


def _solve_cli(tmp_path, edges, interior, phi):
    (tmp_path / "graph.tsv").write_text("".join(f"{x}\t{y}\t{w!r}\n" for x, y, w in edges))
    vertices = sorted({x for e in edges for x in e[:2]})
    (tmp_path / "measure.tsv").write_text("".join(f"{v}\t1\n" for v in vertices))
    (tmp_path / "interior.tsv").write_text("".join(f"{v}\n" for v in interior))
    (tmp_path / "phi.tsv").write_text("".join(f"{v}\t{x!r}\n" for v, x in phi.items()))
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "gneumann.cli", "solve", "--method", "direct",
         "--graph", str(tmp_path / "graph.tsv"), "--measure", str(tmp_path / "measure.tsv"),
         "--interior", str(tmp_path / "interior.tsv"), "--phi", str(tmp_path / "phi.tsv"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_direct_residual_gate_raises_ill_conditioned():
    sub = _closure(ILL_EDGES, ["2", "3"])
    with pytest.raises(IllConditionedError) as exc:
        gn.solve_direct(sub, {"1": 1.0, "4": -1.0})
    assert exc.value.context["vertex"] == "1"
    assert exc.value.context["residual"] > exc.value.context["tolerance"]


def test_direct_residual_gate_through_the_cli(tmp_path):
    proc = _solve_cli(tmp_path, ILL_EDGES, ["2", "3"], {"1": 1.0, "4": -1.0})
    assert proc.returncode == 1
    err = json.loads(proc.stderr)  # the whole of stderr is one JSON object
    assert err["code"] == "IllConditioned"
    assert not (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("a, b", WIDE)
def test_direct_solves_weights_orders_apart(tmp_path, a, b):
    edges = [("1", "2", a), ("2", "3", b)]
    sol = gn.solve_direct(_closure(edges, ["2"]), {"1": 1.0, "3": -1.0})
    # closed form: u1 - u2 = 1 / a, u3 - u2 = -1 / b, centered in m = 1
    u2 = -(1 / a - 1 / b) / 3
    exact = {"1": u2 + 1 / a, "2": u2, "3": u2 - 1 / b}
    for v, x in exact.items():
        assert sol.u[v] == pytest.approx(x, abs=1e-6 / a)
    assert sol.residual_boundary > 1e-7
    proc = _solve_cli(tmp_path, edges, ["2"], {"1": 1.0, "3": -1.0})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "solution.csv").exists()
