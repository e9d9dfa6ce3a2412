"""One residual gate and one zero-mode rule for every route: on a path
whose weights grow apart, the direct, Green-kernel and heat-integral
routes either agree or all refuse the problem."""

import numpy as np
import pytest

import gneumann as gn
from gneumann.errors import IllConditionedError
from gneumann.solver import RESIDUAL_RTOL

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
