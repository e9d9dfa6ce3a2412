"""One residual gate and one zero-mode rule for every route: on a path
whose weights grow apart, the direct, Green-kernel and heat-integral
routes either agree or all refuse the problem."""

import json

import numpy as np
import pytest

import gneumann as gn
from gneumann.cli import main
from gneumann.errors import IllConditionedError
from gneumann.solver import RESIDUAL_RTOL, _finish, _problem

ROUTES = {
    "direct": lambda sub, phi: gn.solve_direct(sub, phi),
    "green": lambda sub, phi: gn.solve_green(
        sub, phi, gn.eigendecompose(sub.graph, sub.measure)),
    "heat-integral": lambda sub, phi: gn.solve_heat_integral(
        sub, phi, gn.eigendecompose(sub.graph, sub.measure), tol=1e-10),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's LinAlgWarning
@pytest.mark.parametrize("k", range(9))
def test_routes_agree_or_all_refuse(k):
    g = gn.build_graph(["1", "2", "3"], [("1", "2", 10.0 ** -k), ("2", "3", 10.0 ** k)])
    sub = gn.closure_subgraph(g, ["2"], gn.Measure.uniform(g.vertices))
    phi = {"1": 1.0, "3": -1.0}
    solved = {}
    for name, route in ROUTES.items():
        try:
            solved[name] = route(sub, phi).u.to_vector(sub.closure)
        except IllConditionedError:
            pass
    assert len(solved) in (0, len(ROUTES)), f"only {sorted(solved)} solve at k = {k}"
    if k <= 4:
        assert solved
    if k == 8:
        assert not solved
    for name, u in solved.items():
        gap = float(np.max(np.abs(u - solved["direct"])))
        assert gap <= RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(u)))), (name, gap)


def test_eigendecompose_snaps_the_zero_mode():
    # eigenvalues 1.5e-5 and 2e5 apart by 10 orders, still far above the
    # eigensolver's backward error 3 eps * 2e5
    g = gn.build_graph(["1", "2", "3"], [("1", "2", 1e-5), ("2", "3", 1e5)])
    spec = gn.eigendecompose(g, gn.Measure.uniform(g.vertices))
    assert spec.eigenvalues[0] == 0.0
    assert spec.eigenvalues[1] == pytest.approx(1.5e-5, rel=1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@pytest.mark.parametrize("k", [155, 160, 300])
def test_overflowing_residual_floor_is_refused(tmp_path, capsys, k):
    # deg * |u| near 1e310 overflows the gate's rounding floor to inf, a
    # tolerance that any residual would meet
    g = gn.build_graph(["1", "2", "3"], [("1", "2", 10.0 ** -k), ("2", "3", 10.0 ** k)])
    sub = gn.closure_subgraph(g, ["2"], gn.Measure.uniform(g.vertices))
    phi = {"1": 1.0, "3": -1.0}
    for route in ROUTES.values():
        with pytest.raises(IllConditionedError):
            route(sub, phi)
    (tmp_path / "graph.tsv").write_text(f"1\t2\t{10.0 ** -k!r}\n2\t3\t{10.0 ** k!r}\n")
    (tmp_path / "measure.tsv").write_text("1\t1\n2\t1\n3\t1\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1\n3\t-1\n")
    flags = [a for f in ("graph", "measure", "interior", "phi")
             for a in (f"--{f}", str(tmp_path / f"{f}.tsv"))]
    for name in ROUTES:
        out = tmp_path / name
        rc = main(["solve", "--method", name, "--out", str(out), *flags])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)  # the whole of stderr is one JSON object
        assert err["code"] == "IllConditioned"
        assert not (out / "solution.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@pytest.mark.parametrize("w, u", [
    # L u and the floor overflow to inf: a residual of inf must not pass a
    # tolerance of inf
    (1.0, (1.7e308, -1.7e308, 0.0)),
    # residuals and floor finite, the centering total u . m overflows
    (1e-10, (1e308, 1e308, 1e308)),
])
def test_gate_refuses_finite_u_with_non_finite_diagnostics(w, u):
    g = gn.build_graph(["1", "2", "3"], [("1", "2", w), ("2", "3", w)])
    sub = gn.closure_subgraph(g, ["2"], gn.Measure.uniform(g.vertices))
    problem = _problem(sub.graph, sub.boundary, sub.measure, sub.boundary_measure(),
                       {"1": 1.0, "3": -1.0})
    uvec = gn.VertexFunction(dict(zip("123", u))).to_vector(sub.closure)
    with pytest.raises(IllConditionedError):
        _finish(problem, uvec, "direct")
