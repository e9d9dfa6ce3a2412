"""One Neumann problem type for both boundary modes: every solve route, the
verifier, the estimator and the cross-check take a ``NeumannProblem``, and
a closure is its case mu = m on the vertex boundary."""

import numpy as np
import pytest

import gneumann as gn
from gneumann.fixtures import path_graph
from gneumann.verification import check_cross_methods
from instances import random_centered_phi, random_closure, random_connected_graph, random_measure


def _routes(spec):
    return {
        "direct": lambda p, phi: gn.solve_direct(p, phi),
        "green": lambda p, phi: gn.solve_green(p, phi, spec),
        "heat-integral": lambda p, phi: gn.solve_heat_integral(p, phi, spec, tol=1e-10),
    }


def _measure_problem(rng, n=9, k=3) -> gn.NeumannProblem:
    """A random connected graph with k boundary vertices, anywhere in it,
    whose mu is unrelated to m."""
    g = random_connected_graph(rng, n)
    m = random_measure(rng, g.vertices)
    boundary = [g.vertices[i] for i in sorted(rng.choice(n, size=k, replace=False).tolist())]
    mu = gn.Measure({y: float(rng.uniform(0.1, 5.0)) for y in boundary})
    return gn.NeumannProblem(g, boundary, m, mu)


def _centered(rng, problem) -> gn.BoundaryData:
    mu = problem.boundary_measure().to_vector(problem.boundary)
    raw = rng.standard_normal(len(problem.boundary))
    raw -= (raw @ mu) / mu.sum()
    return gn.BoundaryData.for_closure(problem, dict(zip(problem.boundary, raw.tolist())))


@pytest.mark.parametrize("seed", range(4))
def test_every_route_solves_a_closure_as_its_neumann_problem(seed):
    rng = np.random.default_rng(seed)
    sub = random_closure(rng)
    phi = random_centered_phi(rng, sub)
    plain = gn.NeumannProblem(sub.graph, sub.boundary, sub.measure, sub.boundary_measure())
    assert type(plain) is gn.NeumannProblem
    spec = gn.eigendecompose(sub.graph, sub.measure)
    for name, route in _routes(spec).items():
        a, b = route(sub, phi), route(plain, phi)
        assert a.u.vertices == b.u.vertices, name
        assert np.array_equal(a.u.array, b.u.array), name
        assert (a.residual_interior, a.residual_boundary, a.centering, a.truncation_horizon) == (
            b.residual_interior, b.residual_boundary, b.centering, b.truncation_horizon), name
        assert gn.verify_solution(sub, a, phi) == gn.verify_solution(plain, a, phi)
    x0 = sub.interior[0]
    estimates = [gn.mc_estimate(p, phi, x0, 1.0, 50, seed) for p in (sub, plain)]
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("given", [False, True], ids=["random-phi", "given-phi"])
def test_cross_methods_on_a_problem_that_is_no_closure(seed, given):
    rng = np.random.default_rng(200 + seed)
    problem = _measure_problem(rng)
    assert all(problem.boundary_measure()[y] != problem.measure[y] for y in problem.boundary)
    spec = gn.eigendecompose(problem.graph, problem.measure)
    phi = _centered(rng, problem) if given else None
    result = check_cross_methods(problem, spec, phi=phi, seed=seed)
    assert result["passed"], result
    assert result["max_error"] <= 1e-8


@pytest.mark.parametrize("scale, tol", [(0.1, 1e-6), (1e-3, 1e-6), (1e-3, 1e-3)])
def test_heat_route_gate_admits_its_tail_where_mu_is_below_m(scale, tol):
    # boundary rows of the residual are divided by mu, so the truncated
    # tail they admit is slack * m / mu, not slack
    g = path_graph(3)
    m = gn.Measure.uniform(g.vertices)
    problem = gn.NeumannProblem(g, ["1", "3"], m, gn.Measure({"1": scale, "3": scale}))
    phi = {"1": 1.0, "3": -1.0}
    spec = gn.eigendecompose(g, m)
    heat = gn.solve_heat_integral(problem, phi, spec, tol=tol)
    direct = gn.solve_direct(problem, phi)
    assert float(np.max(np.abs(heat.u.array - direct.u.array))) <= tol
